"""Boundary: recovery is one Algorithm 2 pass per failure detection.

The head-node coordinator reconciles every worker found dead in one
detection with a single ``recover_from_failure`` call, which drops all of
their objects before it plans anything, so one pass leaves every consumer
provisioned.  The timed stall repair that used to patch the gaps of a
per-worker loop was a second copy of the replay / regenerate / rewind rule;
it is deleted, and the stall abort is the only timer left.  This test fails
anything that grows the repair, the per-worker loop or a second copy of the
rule back.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
#: Identifiers of the deleted repair and of the rule's former duplicates;
#: none may reappear anywhere under src/, comments included.
REMOVED_NAMES = {
    "reconcile_stuck_channels",
    "REPAIR_TIMEOUT",
    "_last_repair_at",
    "_triage_orphans",
    "_schedule_replays",
    "_schedule_regenerations",
}


def _sources():
    return sorted(SRC.rglob("*.py"))


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _method(tree: ast.Module, class_name: str, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{class_name}.{name} not found")


def _calls_to(tree: ast.AST, attr: str):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
    ]


def test_the_timed_repair_stays_gone():
    hits = [
        f"{path.relative_to(SRC)}: {name}"
        for path in _sources()
        for name in sorted(REMOVED_NAMES)
        if name in path.read_text()
    ]
    assert hits == []


def test_one_recovery_call_per_query_and_detection():
    method = _method(_parse(SRC / "core" / "session.py"), "Session", "_recover_query")
    calls = _calls_to(method, "recover_from_failure")
    assert len(calls) == 1
    loops = [
        node
        for node in ast.walk(method)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
    ]
    for loop in loops:
        assert calls[0] not in set(ast.walk(loop)), "recover_from_failure inside a loop"


def test_recover_from_failure_has_one_call_site():
    sites = [
        str(path.relative_to(SRC))
        for path in _sources()
        for _call in _calls_to(_parse(path), "recover_from_failure")
    ]
    assert sites == ["core/session.py"]


def _descriptor_kind(call: ast.Call):
    """The ``kind`` a ``TaskDescriptor(...)`` call passes (default ``"execute"``)."""
    if len(call.args) > 2:
        return call.args[2]
    for keyword in call.keywords:
        if keyword.arg == "kind":
            return keyword.value
    return ast.Constant("execute")


def test_only_recovery_builds_replay_and_regen_tasks():
    offenders = []
    for path in _sources():
        relative = str(path.relative_to(SRC))
        if relative == "core/recovery.py":
            continue
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "TaskDescriptor"
            ):
                kind = _descriptor_kind(node)
                if not (isinstance(kind, ast.Constant) and kind.value == "execute"):
                    offenders.append(f"{relative}:{node.lineno}")
    assert offenders == []


def test_recovery_schedules_replays_and_regenerations_in_one_place():
    """Inside recovery, every non-execute descriptor comes from ``_schedule``."""
    tree = _parse(SRC / "core" / "recovery.py")
    builders = set()
    for item in next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "RecoveryCoordinator"
    ).body:
        if not isinstance(item, ast.FunctionDef):
            continue
        for node in ast.walk(item):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "TaskDescriptor"
            ):
                kind = _descriptor_kind(node)
                if not (isinstance(kind, ast.Constant) and kind.value == "execute"):
                    builders.add(item.name)
    assert builders == {"_schedule"}
