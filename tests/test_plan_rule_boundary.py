"""Boundary: each plan rule is written once.

* Structural walks go through ``children`` / ``with_children``: only the
  expression package itself (``repro/expr/``: the node classes, the evaluator
  and type inference) may test for ``CaseWhen``, the node whose children are
  the hardest to enumerate by hand.  A rewrite that needs to name it has grown
  its own per-class ladder.
* A join names its build columns with ``kernels.join.join_output_names``:
  no other module appends a join suffix to a column name.
* The deleted copies stay deleted: ``referenced_columns`` (a second
  ``expr.eval.expression_columns``), ``rebuild_with_children`` (now
  ``LogicalPlan.with_children``), both ``_right_output_mapping`` copies (now
  ``Join.right_output_names``), ``GroupedAggregationState``'s
  ``_infer_result_dtypes`` (now ``kernels.aggregate.result_dtypes``) and
  ``runtime_filters._conjuncts`` (now ``split_conjunction``).
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
JOIN_KERNEL = SRC / "kernels" / "join.py"
DELETED = {
    "referenced_columns",
    "rebuild_with_children",
    "_right_output_mapping",
    "_infer_result_dtypes",
    "_conjuncts",
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _identifier(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _names_case_when(node) -> bool:
    targets = node.elts if isinstance(node, ast.Tuple) else [node]
    return any(_identifier(target) == "CaseWhen" for target in targets)


def test_only_the_expression_package_names_case_when_in_isinstance():
    offenders = []
    for path, tree in _modules():
        if (SRC / "expr") in path.parents:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and _identifier(node.func) == "isinstance"
                and len(node.args) == 2
                and _names_case_when(node.args[1])
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, (
        "walk expressions through Expr.children / with_children:\n  "
        + "\n  ".join(offenders)
    )


def _is_join_suffix(node) -> bool:
    if isinstance(node, ast.Constant):
        return node.value == "_right"
    identifier = _identifier(node)
    return identifier is not None and "suffix" in identifier.lower()


def test_only_the_join_kernel_appends_a_join_suffix():
    offenders = []
    for path, tree in _modules():
        if path == JOIN_KERNEL:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                operands = (node.value,)
            else:
                continue
            if any(_is_join_suffix(operand) for operand in operands):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, (
        "name join outputs with repro.kernels.join.join_output_names:\n  "
        + "\n  ".join(offenders)
    )


def test_the_deleted_copies_stay_deleted():
    offenders = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                name = _identifier(node)
            if name in DELETED:
                offenders.append(f"{path.relative_to(SRC)}:{getattr(node, 'lineno', '?')} {name}")
    assert not offenders, "\n  ".join(["deleted helpers are back:"] + offenders)
