"""Named engine configurations standing in for the paper's compared systems.

A preset bundles the :class:`~repro.common.config.EngineConfig` knobs that
make the engine behave like one of the systems the paper evaluates — the
paper's own write-ahead-lineage engine (``"quokka"``), a statically
scheduled spooling Trino stand-in, and their execution and fault-tolerance
ablations.  Pass a preset name via
:class:`~repro.core.options.QueryOptions` (``system="trino"``) or to
:meth:`~repro.api.context.QuokkaContext.session`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.config import EngineConfig
from repro.common.errors import ConfigError
from repro.core.options import QueryOptions


@dataclass(frozen=True)
class SystemUnderTest:
    """A named engine configuration used in the paper's comparisons."""

    name: str
    engine_config: EngineConfig


#: Engine configurations standing in for the systems the paper compares.
SYSTEM_PRESETS: Dict[str, SystemUnderTest] = {
    # Quokka with write-ahead lineage: the paper's system.
    "quokka": SystemUnderTest("quokka", EngineConfig(ft_strategy="wal")),
    # Quokka without intra-query fault tolerance (query-retry baseline).
    "quokka-noft": SystemUnderTest("quokka-noft", EngineConfig(ft_strategy="none")),
    # Quokka persisting shuffle partitions durably, like Trino's spooling.
    "quokka-spool": SystemUnderTest("quokka-spool", EngineConfig(ft_strategy="spool-s3")),
    # Stage-wise (blocking) execution with local shuffle files.
    "quokka-stagewise": SystemUnderTest(
        "quokka-stagewise", EngineConfig(execution_mode="stagewise", ft_strategy="wal")
    ),
    # Pipelined execution with static dependencies and HDFS spooling: Trino stand-in.
    "trino": SystemUnderTest(
        "trino",
        EngineConfig(scheduling="static", static_batch_size=8, ft_strategy="spool-hdfs"),
    ),
    # Trino with fault tolerance disabled (no spooling).
    "trino-noft": SystemUnderTest(
        "trino-noft",
        EngineConfig(scheduling="static", static_batch_size=8, ft_strategy="none"),
    ),
}


def preset(system: str) -> SystemUnderTest:
    """Look up a preset; raise :class:`ConfigError` for unknown names."""
    try:
        return SYSTEM_PRESETS[system]
    except KeyError:
        raise ConfigError(
            f"unknown system {system!r}; available: {sorted(SYSTEM_PRESETS)}"
        ) from None


def resolve_engine_config(options: QueryOptions, default: EngineConfig) -> EngineConfig:
    """Resolve the engine configuration one query should run with.

    Precedence: an explicit ``options.engine_config`` wins over a named
    ``options.system`` preset, which wins over ``default`` (the context's or
    session's own configuration).
    """
    if options.engine_config is not None:
        return options.engine_config
    if options.system is not None:
        return preset(options.system).engine_config
    return default
