"""Every settable value is read: no dead field on a config dataclass.

Each field of the dataclasses in ``common/config.py`` and of
``QueryOptions`` must be loaded as an attribute somewhere under ``src/``
outside the module that defines it.  A field only its own module touches
(declared, validated, never consumed) is a knob that configures nothing; this
test fails it.  The match is by attribute name, not by type — enough to catch
a field nothing reads, which is the case that has occurred.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
DEFINING_MODULES = [SRC / "common" / "config.py", SRC / "core" / "options.py"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_fields(path: pathlib.Path):
    """``{(class_name, field_name)}`` for every dataclass declared in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        (node.name, stmt.target.id)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def _loaded_attributes(path: pathlib.Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_config_field_is_read_outside_its_module():
    loaded_by = {path: _loaded_attributes(path) for path in SRC.rglob("*.py")}
    unread = []
    for defining in DEFINING_MODULES:
        fields = _dataclass_fields(defining)
        assert fields, f"no dataclass fields found in {defining}"
        loaded = set().union(
            *(attrs for path, attrs in loaded_by.items() if path != defining)
        )
        unread += [
            f"{defining.relative_to(SRC)}: {owner}.{name}"
            for owner, name in sorted(fields)
            if name not in loaded
        ]
    assert not unread, (
        "fields nothing reads (delete them, or use them):\n  " + "\n  ".join(unread)
    )
