"""Boundary: adaptive execution is speculation (plus shuffle joins that start
once their build side completes), and nothing revises the plan.

A task's output is a pure function of the inputs its lineage names, so
links, channel counts and placement stay as compiled.  The runtime plan
revisions (the broadcast revisit, the channel re-size, skew splitting, the
aggregation coalesce) were deleted with everything only they needed: the
probe-side gate, the epoch and its re-run loops, the two-level
``base_parts`` link composition, in-place backup rewrites and the
commit-time output observations.  This test fails anything that grows one
of them back.
"""

import ast
import dataclasses
import inspect
import pathlib
import re

from repro.core.engine import ExecutionContext
from repro.core.speculation import SpeculationController
from repro.gcs.tables import ChannelPlacement
from repro.physical.stages import Stage, UpstreamLink

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
#: Substrings no identifier of the controller or the link code may contain.
FENCED = [SRC / "core" / "speculation.py", SRC / "physical" / "stages.py"]
REMOVED_FRAGMENTS = re.compile(
    r"skew|scatter|replicate_pieces|coalesce|agg_watch|base_parts|probe_est"
    r"|epoch|gated|pending|_watch|broadcast|resize|revis"
)
#: Identifiers of the deleted machinery; none may reappear anywhere under src/.
REMOVED_NAMES = {
    "AdaptiveController", "StageFeedback", "OutputObservation", "ObservationRecord",
    "record_observation", "observations", "base_parts", "coalesce_pieces", "probe_est",
    "probe_scale", "_probe_subtree", "build_watch", "probe_watch", "_register",
    "_decide_join", "_convert_to_broadcast", "_resize_stage", "_rewrite_link_pieces",
    "_replace_payload", "_charge_moves", "_any_live_worker", "record_commit",
    "mark_channel_done", "is_complete", "stage_rows", "stage_bytes",
    "committed_tasks", "producer_worker", "unassign", "broadcast_threshold_bytes",
    "broadcast_decision", "epoch", "refresh",
}
#: Where ``broadcast_threshold_bytes`` still legitimately lives: the option,
#: the compiler's compile-time choice and the runners that pass it on.
THRESHOLD_HOMES = {
    "api/runners.py", "core/options.py", "core/session.py", "physical/compiler.py",
}


def _identifiers(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.value.lineno, node.arg
        elif isinstance(node, ast.alias):
            yield node.lineno, node.asname or node.name


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_the_revision_modules_stay_gone():
    assert not (SRC / "core" / "adaptive.py").exists()
    assert not (SRC / "trace" / "feedback.py").exists()


def test_links_and_stages_carry_no_revision_state():
    assert [f.name for f in dataclasses.fields(UpstreamLink)] == [
        "upstream_id",
        "partition_keys",
        "role",
        "mode",
    ]
    assert "adaptive" not in {f.name for f in dataclasses.fields(Stage)}
    assert not hasattr(ChannelPlacement, "unassign")


def test_removed_names_left_no_identifier_behind():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for lineno, name in _identifiers(_parse(path)):
            if name not in REMOVED_NAMES:
                continue
            if name == "broadcast_threshold_bytes" and relative in THRESHOLD_HOMES:
                continue
            offenders.append(f"{relative}:{lineno} {name}")
    assert not offenders, (
        "runtime plan revision was deleted; do not re-grow it:\n  " + "\n  ".join(offenders)
    )


def test_controller_and_links_grow_no_second_phase():
    offenders = [
        f"{path.relative_to(SRC)}:{lineno} {name}"
        for path in FENCED
        for lineno, name in _identifiers(_parse(path))
        if REMOVED_FRAGMENTS.search(name)
    ]
    assert not offenders, "\n  ".join(offenders)


def test_partition_for_link_hashes_once():
    (function,) = [
        node for node in _parse(SRC / "physical" / "stages.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "partition_for_link"
    ]
    calls = [
        node for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "hash_partition"
    ]
    assert len(calls) == 1


def test_commit_hook_and_pushes_take_no_revision_arguments():
    assert list(inspect.signature(SpeculationController.after_commit).parameters) == [
        "self",
        "worker",
        "descriptor",
    ]
    assert list(inspect.signature(ExecutionContext._push_payload).parameters) == [
        "self",
        "worker",
        "descriptor",
        "payload",
    ]
