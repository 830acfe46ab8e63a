"""Property-based tests: expression rewrites must preserve evaluation results.

Random expression trees (arithmetic, predicates, CASE/IN/BETWEEN/negation)
are evaluated before and after each rewrite in
:mod:`repro.optimizer.expressions`; any disagreement is a real optimizer bug.
Hypothesis runs derandomized (see ``conftest.py``), so the explored trees are
identical run-to-run.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batch import Batch
from repro.expr.eval import evaluate, expression_columns
from repro.expr.nodes import (
    Alias,
    Between,
    BinaryOp,
    CaseWhen,
    Column,
    InList,
    Literal,
    UnaryOp,
)
from repro.optimizer.expressions import (
    combine_conjuncts,
    fold_constants,
    is_pass_through_projection,
    rename_columns,
    split_conjunction,
)


def make_batch(rows):
    return Batch.from_pydict(
        {
            "x": [float((i * 7) % 13) + 1.0 for i in range(rows)],
            "y": [float((i * 3) % 5) + 1.0 for i in range(rows)],
        }
    )


@st.composite
def numeric_expressions(draw, depth=0):
    """Random arithmetic expression trees over columns x, y and small literals."""
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "y", "lit"]))
        if leaf == "lit":
            return Literal(float(draw(st.integers(min_value=1, max_value=9))))
        return Column(leaf)
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    left = draw(numeric_expressions(depth=depth + 1))
    if op == "/":
        # Keep denominators to positive literals so the property is about
        # rewrite equivalence, not about IEEE division-by-zero behaviour.
        right = Literal(float(draw(st.integers(min_value=2, max_value=9))))
    else:
        right = draw(numeric_expressions(depth=depth + 1))
    return BinaryOp(op, left, right)


@st.composite
def boolean_expressions(draw, depth=0):
    """Random predicate trees combining comparisons with and/or/not."""
    if depth >= 2 or draw(st.booleans()):
        comparison = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return BinaryOp(comparison, draw(numeric_expressions()), draw(numeric_expressions()))
    op = draw(st.sampled_from(["and", "or", "not"]))
    if op == "not":
        return UnaryOp("not", draw(boolean_expressions(depth=depth + 1)))
    return BinaryOp(
        op, draw(boolean_expressions(depth=depth + 1)), draw(boolean_expressions(depth=depth + 1))
    )


@given(numeric_expressions(), st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_fold_constants_preserves_numeric_evaluation(expr, rows):
    batch = make_batch(rows)
    original = evaluate(expr, batch)
    folded = evaluate(fold_constants(expr), batch)
    assert np.allclose(original, folded, rtol=1e-9, atol=1e-9, equal_nan=True)


@given(boolean_expressions(), st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_fold_constants_preserves_predicates(expr, rows):
    batch = make_batch(rows)
    original = np.asarray(evaluate(expr, batch), dtype=bool)
    folded_expr = fold_constants(expr)
    folded = evaluate(folded_expr, batch)
    if np.isscalar(folded) or getattr(folded, "shape", None) == ():
        folded = np.full(batch.num_rows, bool(folded))
    assert np.array_equal(original, np.asarray(folded, dtype=bool))


@given(boolean_expressions())
@settings(max_examples=60, deadline=None)
def test_split_and_combine_conjuncts_round_trips(expr):
    batch = make_batch(17)
    conjuncts = split_conjunction(expr)
    recombined = combine_conjuncts(conjuncts)
    original = np.asarray(evaluate(expr, batch), dtype=bool)
    rebuilt = np.asarray(evaluate(recombined, batch), dtype=bool)
    assert np.array_equal(original, rebuilt)


@given(numeric_expressions())
@settings(max_examples=60, deadline=None)
def test_rename_columns_is_reversible(expr):
    renamed = rename_columns(expr, {"x": "x_new", "y": "y_new"})
    restored = rename_columns(renamed, {"x_new": "x", "y_new": "y"})
    batch = make_batch(11)
    assert expression_columns(renamed) <= {"x_new", "y_new"}
    assert np.allclose(
        evaluate(expr, batch), evaluate(restored, batch), rtol=1e-12, equal_nan=True
    )


@st.composite
def rich_expressions(draw, depth=0):
    """Trees exercising every node type fold_constants rewrites: arithmetic,
    negation, CASE WHEN, IN lists and BETWEEN — not just +-*/ chains."""
    if depth >= 2:
        return draw(numeric_expressions(depth=3))
    shape = draw(
        st.sampled_from(["numeric", "neg", "case", "in_plus", "between_plus"])
    )
    if shape == "numeric":
        return draw(numeric_expressions(depth=depth + 1))
    if shape == "neg":
        return UnaryOp("neg", draw(rich_expressions(depth=depth + 1)))
    if shape == "case":
        condition = draw(boolean_expressions(depth=1))
        value = draw(rich_expressions(depth=depth + 1))
        default = draw(rich_expressions(depth=depth + 1))
        return CaseWhen([(condition, value)], default)
    child = draw(numeric_expressions(depth=2))
    if shape == "in_plus":
        values = [float(draw(st.integers(min_value=1, max_value=9))) for _ in range(3)]
        # IN/BETWEEN yield booleans; lift them back to numeric via CASE so the
        # tree stays composable at any position.
        return CaseWhen([(InList(child, values), Literal(1.0))], Literal(0.0))
    low = Literal(float(draw(st.integers(min_value=1, max_value=4))))
    high = Literal(float(draw(st.integers(min_value=5, max_value=9))))
    return CaseWhen([(Between(child, low, high), Literal(1.0))], Literal(0.0))


@given(rich_expressions(), st.integers(min_value=1, max_value=50))
@settings(max_examples=80, deadline=None)
def test_fold_constants_preserves_rich_trees(expr, rows):
    batch = make_batch(rows)
    original = np.asarray(evaluate(expr, batch), dtype=float)
    folded = np.asarray(evaluate(fold_constants(expr), batch), dtype=float)
    if folded.shape == ():
        folded = np.full(batch.num_rows, float(folded))
    assert np.allclose(original, folded, rtol=1e-9, atol=1e-9, equal_nan=True)


@given(rich_expressions())
@settings(max_examples=80, deadline=None)
def test_fold_constants_is_idempotent(expr):
    # ``==`` on expressions builds a comparison node (always truthy): compare
    # the canonical text, and a second fold must hand back the same object.
    once = fold_constants(expr)
    twice = fold_constants(once)
    assert repr(twice) == repr(once)
    assert twice is once


@given(rich_expressions())
@settings(max_examples=80, deadline=None)
def test_fold_constants_never_invents_columns(expr):
    assert expression_columns(fold_constants(expr)) <= expression_columns(expr)


def _subtrees(expr):
    yield expr
    for child in expr.children():
        yield from _subtrees(child)


@given(rich_expressions())
@settings(max_examples=80, deadline=None)
def test_every_node_rebuilds_from_its_children(expr):
    """``with_children(children())`` is the node itself; fresh children give
    a new node with the same text, holding exactly those children."""
    for node in _subtrees(expr):
        children = node.children()
        assert node.with_children(children) is node
        copies = [copy.copy(child) for child in children]
        rebuilt = node.with_children(copies)
        assert repr(rebuilt) == repr(node)
        assert (rebuilt is node) == (not children)
        assert all(new is old for new, old in zip(rebuilt.children(), copies))


@given(rich_expressions())
@settings(max_examples=80, deadline=None)
def test_identity_rewrites_return_the_same_tree(expr):
    assert expr.transform_up(lambda node: node) is expr
    assert rename_columns(expr, {"unused": "other"}) is expr
    assert expression_columns(expr) <= {"x", "y"}


@given(boolean_expressions())
@settings(max_examples=60, deadline=None)
def test_split_conjunction_preserves_conjunct_count_semantics(expr):
    """Splitting never drops a conjunct: AND of the parts equals the whole."""
    conjuncts = split_conjunction(expr)
    assert conjuncts, "every predicate has at least one conjunct"
    for conjunct in conjuncts:
        assert not (isinstance(conjunct, BinaryOp) and conjunct.op == "and")


@given(st.lists(st.sampled_from(["x", "y"]), min_size=0, max_size=4))
@settings(max_examples=40, deadline=None)
def test_pass_through_projection_detects_bare_and_aliased_columns(names):
    projections = [(f"out{i}", Alias(Column(name), f"out{i}")) for i, name in enumerate(names)]
    projections.append(("computed", BinaryOp("+", Column("x"), Literal(1.0))))
    mapping = is_pass_through_projection(projections)
    assert "computed" not in mapping
    for i, name in enumerate(names):
        assert mapping[f"out{i}"] == name
