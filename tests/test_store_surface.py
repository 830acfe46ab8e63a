"""One object store, and only the fault-tolerance strategy picks it.

A worker disk, S3 and HDFS are instances of one ``ObjectStore`` class with
one verb pair (``write`` / ``read``).  Where task backups and spilled
operator state live is answered by ``FaultToleranceStrategy.store`` alone, so
no engine or adaptive path may choose between S3 and HDFS again: under
``repro/core/`` the ``hdfs`` attribute is read only to snapshot I/O metrics.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
STORAGE = SRC / "cluster" / "storage.py"

#: Names of the store model this one replaced; none may come back.
RETIRED = ("LocalDisk", "DurableObjectStore", "durable_store", "_spill_store_for")
#: The one ``(class, method)`` under ``repro/core/`` allowed to read ``.hdfs``.
HDFS_READERS = {("ExecutionContext", "_io_snapshot")}


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list
    )


def test_storage_defines_exactly_one_store_class():
    classes = [
        node for node in _parse(STORAGE).body
        if isinstance(node, ast.ClassDef) and not _is_dataclass(node)
    ]
    assert [node.name for node in classes] == ["ObjectStore"]
    methods = {
        stmt.name for stmt in classes[0].body if isinstance(stmt, ast.FunctionDef)
    }
    assert {"write", "read"} <= methods
    assert not {"put", "get"} & methods


def test_no_module_names_the_retired_store_model():
    pattern = re.compile(r"\b(" + "|".join(RETIRED) + r")\b")
    offenders = [
        f"{path.relative_to(SRC)}: {match.group(0)}"
        for path in sorted(SRC.rglob("*.py"))
        for match in pattern.finditer(path.read_text())
    ]
    assert not offenders, "\n".join(offenders)


class _HdfsReads(ast.NodeVisitor):
    """Collects the enclosing ``(class, function)`` of every ``<x>.hdfs`` load."""

    def __init__(self):
        self.sites = set()
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
        if node.attr == "hdfs" and isinstance(node.ctx, ast.Load):
            self.sites.add((self._class, self._function))
        self.generic_visit(node)


def test_core_reads_hdfs_only_for_metrics():
    sites = {}
    for path in sorted((SRC / "core").rglob("*.py")):
        visitor = _HdfsReads()
        visitor.visit(_parse(path))
        for site in visitor.sites:
            sites.setdefault(site, []).append(path.name)
    assert set(sites) == HDFS_READERS, sites
