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
"""

import ast
import pathlib

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
