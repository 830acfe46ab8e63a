"""Boundary: only ``physical/task.py`` may implement the stage-task step.

Partitioning an output for a link, testing a split's zone map and building a
runtime filter each have exactly one caller — the shared task step — plus
``physical/stages.py``, which defines the partition rule and the adaptive
controller's piece-rewrite helper.  An executor that calls any of them
directly has grown a private copy of the step; this test fails it.

The same fence stands around the out-of-core kernels: a memory quota picks
the state kernel inside ``physical/operators.py`` and nowhere else, and the
engine reads ``Operator.spill`` instead of probing operators for attributes —
a second operator hierarchy, or a driver that duck-types one, fails below.

The parallel backend runs every stateful stage as one channel task through
``drain_operator``, like every other executor: nothing under
``repro/parallel/`` may import the operators or the aggregation kernel,
reach into an operator's ``_state``, or merge partial states.

A producing stage's partial aggregate reduces each batch without a group
table (``physical/stages.py`` neither builds nor finalizes one), and the
engine's final aggregate is its own kernel, ``ColumnarGroupTable``.  The
reference interpreter's ``GroupedAggregationState`` is built nowhere else in
``src/``, and the interpreter names neither engine path, so it keeps checking
them instead of running them.
"""

import ast
import importlib
import pathlib

import repro.parallel
from repro.kernels.aggregate import GroupedAggregationState

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWED = {SRC / "physical" / "task.py", SRC / "physical" / "stages.py"}
STEP_ONLY = {"partition_for_link", "split_is_prunable", "RuntimeFilterBuilder"}


def _called_name(node: ast.Call):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_only_the_task_step_calls_its_building_blocks():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node) in STEP_ONLY:
                offenders.append(
                    f"{path.relative_to(SRC)}:{node.lineno} calls {_called_name(node)}"
                )
    assert not offenders, (
        "go through repro.physical.task instead:\n  " + "\n  ".join(offenders)
    )


def _imports_outofcore(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module == "repro.kernels.outofcore" or (
            module == "repro.kernels" and any(a.name == "outofcore" for a in node.names)
        )
    if isinstance(node, ast.Import):
        return any(alias.name == "repro.kernels.outofcore" for alias in node.names)
    return False


def test_only_the_operators_know_the_out_of_core_kernels():
    allowed = SRC / "physical" / "operators.py"
    exempt = (SRC / "kernels", SRC / "memory")
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == allowed or any(root in path.parents for root in exempt):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if _imports_outofcore(node):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno} imports outofcore")
            elif isinstance(node, ast.Call) and _called_name(node) == "SpillContext":
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno} calls SpillContext")
    assert not offenders, (
        "pass quota= to the repro.physical.operators classes instead:\n  "
        + "\n  ".join(offenders)
    )
    assert not (SRC / "physical" / "spill_operators.py").exists()


def _names_an_operator(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "operator"
    return isinstance(node, ast.Attribute) and node.attr == "operator"


def test_engine_does_not_duck_type_operators():
    path = SRC / "core" / "engine.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = [
        f"engine.py:{node.lineno} {_called_name(node)}(<operator>, ...)"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _called_name(node) in ("hasattr", "getattr")
        and node.args
        and _names_an_operator(node.args[0])
    ]
    assert not offenders, (
        "Operator declares its protocol (e.g. `spill`); read it directly:\n  "
        + "\n  ".join(offenders)
    )


PARALLEL = SRC / "parallel"
#: Modules the parallel driver must not know: it never names an operator
#: class nor touches an aggregation state.
OPERATOR_MODULES = ("repro.physical.operators", "repro.kernels.aggregate")


def _imports_operator_module(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name in OPERATOR_MODULES for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = node.module or ""
    if module in OPERATOR_MODULES:
        return True
    if module not in ("repro.physical", "repro.kernels"):
        return False
    package = importlib.import_module(module)
    for alias in node.names:
        if f"{module}.{alias.name}" in OPERATOR_MODULES:
            return True
        # A package re-export of something the fenced modules define.
        if getattr(getattr(package, alias.name, None), "__module__", None) in (
            OPERATOR_MODULES
        ):
            return True
    return False


def test_parallel_backend_runs_stateful_stages_whole():
    offenders = []
    for path in sorted(PARALLEL.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(SRC)
        for node in ast.walk(tree):
            if _imports_operator_module(node):
                offenders.append(f"{where}:{node.lineno} imports an operator module")
            elif isinstance(node, ast.Attribute) and node.attr == "_state":
                offenders.append(f"{where}:{node.lineno} touches ._state")
            elif isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Attribute) and node.func.attr == "merge"
            ):
                offenders.append(f"{where}:{node.lineno} calls .merge(")
    assert not offenders, (
        "run the stage's operator through drain_operator in a ChannelTask:\n  "
        + "\n  ".join(offenders)
    )
    deleted = {"PartialAggTask", "MergeAggTask", "agg_shard_count", "split_sizes"}
    assert not deleted & set(repro.parallel.__all__)
    assert not hasattr(GroupedAggregationState, "merge")


STAGES = SRC / "physical" / "stages.py"
INTERPRETER = SRC / "plan" / "interpreter.py"
#: The engine's per-batch partial aggregation; the reference never runs it.
PARTIAL_PATH = {"PartialAggregateOp", "reduce_batch"}
#: The engine's final group table; the reference never runs it either.
ENGINE_GROUP_TABLE = "ColumnarGroupTable"
GROUP_TABLES = {"GroupedAggregationState", ENGINE_GROUP_TABLE}


def _calls(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_partial_aggregation_builds_no_group_table():
    """A partial aggregate is one segment reduction emitted as a batch: the
    stage module builds no group table, not even to derive a schema
    (``aggregate_schema`` does that), and never finalizes one."""
    offenders = []
    for node in _calls(STAGES):
        name = _called_name(node)
        if name in GROUP_TABLES:
            offenders.append(f"stages.py:{node.lineno} builds a {name}")
        elif name == "finalize" and isinstance(node.func, ast.Attribute):
            offenders.append(f"stages.py:{node.lineno} calls .finalize(")
    assert not offenders, "\n  ".join(["use reduce_batch:"] + offenders)


def test_only_the_interpreter_builds_the_reference_group_table():
    """``GroupedAggregationState`` is the reference implementation: every
    engine path aggregates with its own kernels, so an engine-vs-reference
    check compares two implementations."""
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path != INTERPRETER
        for node in _calls(path)
        if _called_name(node) == "GroupedAggregationState"
    ]
    assert not offenders, (
        "only plan/interpreter.py builds a GroupedAggregationState:\n  "
        + "\n  ".join(offenders)
    )


def _names_in(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            named.add(node.name.rsplit(".", 1)[-1])
            named.add(node.asname or "")
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named


def test_reference_interpreter_does_not_share_the_partial_path():
    """The interpreter aggregates with one group table, so it keeps checking
    the engine's partial path instead of running it."""
    assert not PARTIAL_PATH & _names_in(INTERPRETER)


def test_reference_interpreter_never_names_the_engine_group_table():
    assert ENGINE_GROUP_TABLE not in _names_in(INTERPRETER)
