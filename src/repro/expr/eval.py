"""Vectorised evaluation of expression trees against a Batch."""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Set

import numpy as np

from repro.common.errors import ExpressionError
from repro.data.batch import Batch
from repro.data.dates import days_to_date
from repro.data.dictionary import DictionaryArray
from repro.data.schema import DataType, Schema
from repro.expr.nodes import (
    Alias,
    Between,
    BinaryOp,
    CaseWhen,
    Column,
    Expr,
    FunctionCall,
    InList,
    Literal,
    UnaryOp,
    column_reference,
)

_ARITHMETIC = {"+", "-", "*", "/"}
_COMPARISON = {"==", "!=", "<", "<=", ">", ">="}
_BOOLEAN = {"and", "or"}


def evaluate(expr: Expr, batch: Batch) -> np.ndarray:
    """Evaluate ``expr`` row-wise over ``batch`` and return a NumPy array."""
    if isinstance(expr, Alias):
        return evaluate(expr.child, batch)
    if isinstance(expr, Column):
        return batch.column(expr.name)
    if isinstance(expr, Literal):
        return np.full(batch.num_rows, expr.value)
    if isinstance(expr, BinaryOp):
        return _evaluate_binary(expr, batch)
    if isinstance(expr, UnaryOp):
        child = evaluate(expr.child, batch)
        if expr.op == "not":
            return ~np.asarray(child, dtype=bool)
        return -child
    if isinstance(expr, FunctionCall):
        return _evaluate_function(expr, batch)
    if isinstance(expr, CaseWhen):
        return _evaluate_case(expr, batch)
    if isinstance(expr, InList):
        encoded = _dict_column(expr.child, batch)
        if encoded is not None:
            allowed = set(expr.values)
            return _map_vocabulary(encoded, lambda v: v in allowed, dtype=bool)
        child = evaluate(expr.child, batch)
        if child.dtype == object:
            allowed = set(expr.values)
            return np.array([v in allowed for v in child], dtype=bool)
        return np.isin(child, np.asarray(expr.values))
    if isinstance(expr, Between):
        child = evaluate(expr.child, batch)
        low = evaluate(expr.low, batch)
        high = evaluate(expr.high, batch)
        return (child >= low) & (child <= high)
    raise ExpressionError(f"cannot evaluate expression node {type(expr).__name__}")


def _dict_column(expr: Expr, batch: Batch):
    """The column's DictionaryArray when ``expr`` is a (possibly aliased)
    reference to a dictionary-encoded column; ``None`` otherwise."""
    name = column_reference(expr)
    if name is None:
        return None
    data = batch.column_data(name)
    return data if isinstance(data, DictionaryArray) else None


def _map_vocabulary(encoded, func, dtype=None) -> np.ndarray:
    from repro.kernels.filter import map_vocabulary

    return map_vocabulary(encoded, func, dtype=dtype)


def _evaluate_binary(expr: BinaryOp, batch: Batch) -> np.ndarray:
    # Dictionary fast path for string equality against a literal: decide per
    # distinct vocabulary value, broadcast to rows with one gather.
    if expr.op in ("==", "!="):
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if not (isinstance(other, Literal) and isinstance(other.value, str)):
                continue
            encoded = _dict_column(side, batch)
            if encoded is None:
                continue
            text = other.value
            if expr.op == "==":
                return _map_vocabulary(encoded, lambda v: v == text, dtype=bool)
            return _map_vocabulary(encoded, lambda v: v != text, dtype=bool)
    left = evaluate(expr.left, batch)
    right = evaluate(expr.right, batch)
    op = expr.op
    if op in _ARITHMETIC:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        return left / right
    if op in _COMPARISON:
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    if op in _BOOLEAN:
        left_bool = np.asarray(left, dtype=bool)
        right_bool = np.asarray(right, dtype=bool)
        return left_bool & right_bool if op == "and" else left_bool | right_bool
    raise ExpressionError(f"unknown binary operator {op!r}")


#: String functions eligible for the per-vocabulary fast path, mapped to a
#: (per-value scalar function, result dtype) builder from the call's args.
def _scalar_string_function(expr: FunctionCall):
    name = expr.name
    if name == "substr":
        start = expr.args[1].value  # type: ignore[attr-defined]
        length = expr.args[2].value  # type: ignore[attr-defined]
        begin = start - 1
        return (lambda v: str(v)[begin:begin + length]), object
    if name == "starts_with":
        prefix = expr.args[1].value  # type: ignore[attr-defined]
        return (lambda v: str(v).startswith(prefix)), bool
    if name == "ends_with":
        suffix = expr.args[1].value  # type: ignore[attr-defined]
        return (lambda v: str(v).endswith(suffix)), bool
    if name == "contains":
        needle = expr.args[1].value  # type: ignore[attr-defined]
        return (lambda v: needle in str(v)), bool
    if name == "like":
        matcher = _like_matcher(expr.args[1].value)  # type: ignore[attr-defined]
        return (lambda v: matcher(str(v)) is not None), bool
    return None, None


def _evaluate_function(expr: FunctionCall, batch: Batch) -> np.ndarray:
    name = expr.name
    scalar, dtype = _scalar_string_function(expr)
    if scalar is not None:
        # Dictionary fast path: one predicate call per distinct value instead
        # of one per row, exact by construction.
        encoded = _dict_column(expr.args[0], batch)
        if encoded is not None:
            return _map_vocabulary(encoded, scalar, dtype=dtype)
        first = evaluate(expr.args[0], batch)
        return np.array([scalar(v) for v in first], dtype=dtype)
    first = evaluate(expr.args[0], batch)
    if name == "year":
        return np.array([days_to_date(int(v)).year for v in first], dtype=np.int64)
    raise ExpressionError(f"unknown function {name!r}")


@lru_cache(maxsize=256)
def _like_matcher(pattern: str):
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a regex matcher."""
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("".join(parts), re.DOTALL).fullmatch


def _evaluate_case(expr: CaseWhen, batch: Batch) -> np.ndarray:
    result = evaluate(expr.default, batch)
    result = np.array(result, copy=True)
    # Apply branches in reverse so the first matching branch wins.
    for condition, value in reversed(expr.branches):
        mask = np.asarray(evaluate(condition, batch), dtype=bool)
        values = evaluate(value, batch)
        result = np.where(mask, values, result)
    return result


def expression_columns(expr: Expr) -> Set[str]:
    """Return the set of input column names referenced by ``expr``."""
    if isinstance(expr, Column):
        return {expr.name}
    if isinstance(expr, Alias):
        return expression_columns(expr.child)
    if isinstance(expr, Literal):
        return set()
    if isinstance(expr, BinaryOp):
        return expression_columns(expr.left) | expression_columns(expr.right)
    if isinstance(expr, UnaryOp):
        return expression_columns(expr.child)
    if isinstance(expr, FunctionCall):
        out: Set[str] = set()
        for arg in expr.args:
            out |= expression_columns(arg)
        return out
    if isinstance(expr, CaseWhen):
        out = expression_columns(expr.default)
        for condition, value in expr.branches:
            out |= expression_columns(condition) | expression_columns(value)
        return out
    if isinstance(expr, InList):
        return expression_columns(expr.child)
    if isinstance(expr, Between):
        return (
            expression_columns(expr.child)
            | expression_columns(expr.low)
            | expression_columns(expr.high)
        )
    raise ExpressionError(f"cannot inspect expression node {type(expr).__name__}")


def infer_dtype(expr: Expr, schema: Schema) -> DataType:
    """Infer the logical output type of ``expr`` against ``schema``."""
    if isinstance(expr, Alias):
        return infer_dtype(expr.child, schema)
    if isinstance(expr, Column):
        return schema.dtype(expr.name)
    if isinstance(expr, Literal):
        return DataType.from_python_value(expr.value)
    if isinstance(expr, BinaryOp):
        if expr.op in _COMPARISON or expr.op in _BOOLEAN:
            return DataType.BOOL
        left = infer_dtype(expr.left, schema)
        right = infer_dtype(expr.right, schema)
        if expr.op == "/":
            return DataType.FLOAT64
        if DataType.FLOAT64 in (left, right):
            return DataType.FLOAT64
        return left if left != DataType.BOOL else right
    if isinstance(expr, UnaryOp):
        if expr.op == "not":
            return DataType.BOOL
        return infer_dtype(expr.child, schema)
    if isinstance(expr, FunctionCall):
        if expr.name == "year":
            return DataType.INT64
        if expr.name == "substr":
            return DataType.STRING
        return DataType.BOOL
    if isinstance(expr, CaseWhen):
        return infer_dtype(expr.branches[0][1], schema)
    if isinstance(expr, (InList, Between)):
        return DataType.BOOL
    raise ExpressionError(f"cannot infer type of expression node {type(expr).__name__}")
