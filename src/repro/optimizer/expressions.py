"""Expression-level rewrites used by the plan optimizer."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.expr.nodes import BinaryOp, Column, Expr, Literal, UnaryOp, column_reference

#: Operators that can be evaluated on two literal operands at plan time.
_FOLDABLE_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}


def fold_constants(expr: Expr) -> Expr:
    """Return ``expr`` with literal-only subtrees replaced by single literals.

    The rewrite is conservative: division by a literal zero is left untouched
    (so the error surfaces at run time, as it would have without the
    optimizer), and subtrees with nothing to fold come back as themselves.
    """
    return expr.transform_up(_fold_node)


def _fold_node(node: Expr) -> Expr:
    """One folding step; the node's children are already folded."""
    if isinstance(node, BinaryOp):
        left, right = node.left, node.right
        if isinstance(left, Literal) and isinstance(right, Literal):
            if node.op == "/" and right.value == 0:
                return node
            return Literal(_FOLDABLE_BINARY[node.op](left.value, right.value))
    elif isinstance(node, UnaryOp) and isinstance(node.child, Literal):
        if node.op == "neg":
            return Literal(-node.child.value)
        return Literal(not bool(node.child.value))
    return node


def split_conjunction(predicate: Expr) -> List[Expr]:
    """Flatten nested AND nodes into a list of conjuncts."""
    if isinstance(predicate, BinaryOp) and predicate.op == "and":
        return split_conjunction(predicate.left) + split_conjunction(predicate.right)
    return [predicate]


def combine_conjuncts(conjuncts: List[Expr]) -> Optional[Expr]:
    """Combine conjuncts back into a single AND tree (None for an empty list)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = BinaryOp("and", combined, conjunct)
    return combined


def rename_columns(expr: Expr, mapping: dict) -> Expr:
    """Return ``expr`` with column references renamed through ``mapping``."""

    def rename(node: Expr) -> Expr:
        if isinstance(node, Column) and node.name in mapping:
            return Column(mapping[node.name])
        return node

    return expr.transform_up(rename)


def is_pass_through_projection(projections: List[Tuple[str, Expr]]) -> dict:
    """Map output name -> input column for projection entries that just rename.

    Entries that compute something (not a bare column reference) are omitted.
    """
    mapping = {}
    for name, expr in projections:
        source = column_reference(expr)
        if source is not None:
            mapping[name] = source
    return mapping
