"""The fault-tolerance design-choice taxonomy (Table I of the paper).

Table I is qualitative: it classifies six data-processing systems by which of
the three core techniques (spooling, state checkpointing, lineage) they use.
The registry below reproduces that table and is rendered by
the ``table1`` entry of ``benchmarks/bench_figures.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class SystemDescriptor:
    """One column of Table I."""

    name: str
    description: str
    spooling: bool
    state_checkpoint: bool
    lineage: bool


#: The systems of Table I, in the paper's column order.
SYSTEM_TAXONOMY: Tuple[SystemDescriptor, ...] = (
    SystemDescriptor("Trino", "Pipelined SQL", spooling=True, state_checkpoint=False, lineage=True),
    SystemDescriptor("SparkSQL", "Stagewise SQL", spooling=False, state_checkpoint=False, lineage=True),
    SystemDescriptor("Kafka Streams", "Dataflow", spooling=True, state_checkpoint=True, lineage=True),
    SystemDescriptor("Flink", "Dataflow", spooling=False, state_checkpoint=True, lineage=False),
    SystemDescriptor("StreamScope", "Dataflow", spooling=False, state_checkpoint=True, lineage=True),
    SystemDescriptor("Quokka", "Pipelined SQL", spooling=False, state_checkpoint=False, lineage=True),
)


def render_taxonomy_table(systems: Tuple[SystemDescriptor, ...] = SYSTEM_TAXONOMY) -> str:
    """Render the taxonomy as fixed-width text matching Table I's layout."""
    def mark(flag: bool) -> str:
        return "yes" if flag else "no"

    header = ["", *[s.name for s in systems]]
    rows: List[List[str]] = [
        ["Description", *[s.description for s in systems]],
        ["Spooling", *[mark(s.spooling) for s in systems]],
        ["State Checkpoint", *[mark(s.state_checkpoint) for s in systems]],
        ["Lineage", *[mark(s.lineage) for s in systems]],
    ]
    widths = [
        max(len(row[i]) for row in [header, *rows]) for i in range(len(header))
    ]
    lines = []
    for row in [header, *rows]:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)
