"""Boundary: only ``physical/task.py`` may implement the stage-task step.

Partitioning an output for a link, testing a split's zone map and building a
runtime filter each have exactly one caller — the shared task step — plus
``physical/stages.py``, which defines the partition rule and the adaptive
controller's piece-rewrite helpers.  An executor that calls any of them
directly has grown a private copy of the step; this test fails it.
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
