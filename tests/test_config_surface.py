"""Every settable value is read by its owner's consumers: no dead config field.

Each field of the dataclasses in ``common/config.py`` and of ``QueryOptions``
must be loaded somewhere under ``src/`` *on a receiver of its own class*.  A
field only its validator touches is a knob that configures nothing; this test
fails it.

The receiver rule.  An attribute load ``<receiver>.<field>`` counts as a read
of ``<Class>.<field>`` when

* the receiver's last name (``x`` in ``x.f``, ``self.x.f`` or
  ``self.cluster.x.f``) is one of the names ``RECEIVERS`` lists for the class
  — the names the class travels under in ``src/``: ``cluster_config``,
  ``cost_config``, ``engine_config``, the generic ``config``, ``options`` —
  or
* the receiver is ``self`` inside a method of the class itself, other than
  the validators (``validate``, ``__post_init__``, ``with_overrides``),
  which check a value rather than consume it.

A load on any other receiver never counts, so an unrelated ``plan.seed`` or
``settings.cpus_per_worker`` cannot vouch for a config field that shares the
attribute name.  A receiver the rule cannot name (a call result, a
subscript) does not count either; bind it to a named variable first.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
DEFINING_MODULES = [SRC / "common" / "config.py", SRC / "core" / "options.py"]

#: The receiver names each configuration class travels under in ``src/``.
RECEIVERS = {
    "ClusterConfig": {"cluster_config", "config"},
    "CostModelConfig": {"cost_config", "config"},
    "EngineConfig": {"engine_config", "config"},
    "QueryOptions": {"options", "base_options"},
}
#: Methods whose ``self.<field>`` loads check a value instead of using it.
VALIDATORS = {"validate", "__post_init__", "with_overrides"}


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


class _OwnedReads(ast.NodeVisitor):
    """Collects ``(class_name, attribute)`` loads that satisfy the receiver rule."""

    def __init__(self):
        self.reads = set()
        self._class = None
        self._function = None

    def visit_ClassDef(self, node):
        outer, self._class = self._class, node.name
        self.generic_visit(node)
        self._class = outer

    def visit_FunctionDef(self, node):
        outer, self._function = self._function, node.name
        self.generic_visit(node)
        self._function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            receiver = node.value
            name = getattr(receiver, "id", getattr(receiver, "attr", None))
            for owner, names in RECEIVERS.items():
                if name in names:
                    self.reads.add((owner, node.attr))
            if (
                isinstance(receiver, ast.Name)
                and name == "self"
                and self._class in RECEIVERS
                and self._function not in VALIDATORS
            ):
                self.reads.add((self._class, node.attr))
        self.generic_visit(node)


def _owned_reads():
    reads = set()
    for path in SRC.rglob("*.py"):
        visitor = _OwnedReads()
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        reads |= visitor.reads
    return reads


def test_every_config_class_declares_its_receivers():
    declared = {
        owner for path in DEFINING_MODULES for owner, _field in _dataclass_fields(path)
    }
    assert declared == set(RECEIVERS)


def test_every_config_field_is_read_on_its_own_class():
    reads = _owned_reads()
    unread = []
    for defining in DEFINING_MODULES:
        fields = _dataclass_fields(defining)
        assert fields, f"no dataclass fields found in {defining}"
        unread += [
            f"{defining.relative_to(SRC)}: {owner}.{name}"
            for owner, name in sorted(fields)
            if (owner, name) not in reads
        ]
    assert not unread, (
        "fields nothing reads on their own class (delete them, or use them):\n  "
        + "\n  ".join(unread)
    )
