"""Expression AST nodes.

Expressions are built with a small fluent API::

    from repro.expr import col, lit, year

    predicate = (col("l_shipdate") <= lit(10000)) & (col("l_discount") > lit(0.05))
    projection = col("l_extendedprice") * (lit(1.0) - col("l_discount"))

Python's ``and``/``or``/``not`` cannot be overloaded, so boolean combinations
use ``&``, ``|`` and ``~`` (parenthesise comparisons, as with NumPy).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import ExpressionError

#: Binary operators understood by the evaluator.
BINARY_OPS = (
    "+", "-", "*", "/",
    "==", "!=", "<", "<=", ">", ">=",
    "and", "or",
)

#: Unary operators understood by the evaluator.
UNARY_OPS = ("not", "neg")

#: Scalar functions understood by the evaluator.
FUNCTIONS = ("year", "substr", "starts_with", "ends_with", "contains", "like")


class Expr:
    """Base class for all expression nodes."""

    def alias(self, name: str) -> "Alias":
        """Attach an output column name to this expression."""
        return Alias(self, name)

    def output_name(self) -> str:
        """Default output column name (overridden by Column and Alias)."""
        return "expr"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "BinaryOp":
        return BinaryOp("+", self, _wrap(other))

    def __radd__(self, other) -> "BinaryOp":
        return BinaryOp("+", _wrap(other), self)

    def __sub__(self, other) -> "BinaryOp":
        return BinaryOp("-", self, _wrap(other))

    def __rsub__(self, other) -> "BinaryOp":
        return BinaryOp("-", _wrap(other), self)

    def __mul__(self, other) -> "BinaryOp":
        return BinaryOp("*", self, _wrap(other))

    def __rmul__(self, other) -> "BinaryOp":
        return BinaryOp("*", _wrap(other), self)

    def __truediv__(self, other) -> "BinaryOp":
        return BinaryOp("/", self, _wrap(other))

    def __rtruediv__(self, other) -> "BinaryOp":
        return BinaryOp("/", _wrap(other), self)

    def __neg__(self) -> "UnaryOp":
        return UnaryOp("neg", self)

    # -- comparisons -----------------------------------------------------------

    def __eq__(self, other) -> "BinaryOp":  # type: ignore[override]
        return BinaryOp("==", self, _wrap(other))

    def __ne__(self, other) -> "BinaryOp":  # type: ignore[override]
        return BinaryOp("!=", self, _wrap(other))

    def __lt__(self, other) -> "BinaryOp":
        return BinaryOp("<", self, _wrap(other))

    def __le__(self, other) -> "BinaryOp":
        return BinaryOp("<=", self, _wrap(other))

    def __gt__(self, other) -> "BinaryOp":
        return BinaryOp(">", self, _wrap(other))

    def __ge__(self, other) -> "BinaryOp":
        return BinaryOp(">=", self, _wrap(other))

    __hash__ = None  # type: ignore[assignment]

    # -- boolean ---------------------------------------------------------------

    def __and__(self, other) -> "BinaryOp":
        return BinaryOp("and", self, _wrap(other))

    def __or__(self, other) -> "BinaryOp":
        return BinaryOp("or", self, _wrap(other))

    def __invert__(self) -> "UnaryOp":
        return UnaryOp("not", self)

    # -- convenience predicates --------------------------------------------------

    def is_in(self, values: Iterable) -> "InList":
        """Membership test against a list of literal values."""
        return InList(self, list(values))

    def between(self, low, high) -> "Between":
        """Inclusive range test ``low <= expr <= high``."""
        return Between(self, _wrap(low), _wrap(high))


def _wrap(value) -> Expr:
    """Coerce plain Python values into :class:`Literal` nodes."""
    if isinstance(value, Expr):
        return value
    return Literal(value)


class Column(Expr):
    """Reference to an input column by name."""

    def __init__(self, name: str):
        if not name:
            raise ExpressionError("column name must be non-empty")
        self.name = name

    def output_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expr):
    """A scalar constant."""

    def __init__(self, value):
        if not isinstance(value, (bool, int, float, str)):
            raise ExpressionError(f"unsupported literal type: {type(value).__name__}")
        self.value = value

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class Alias(Expr):
    """Renames the output of a child expression."""

    def __init__(self, child: Expr, name: str):
        if not name:
            raise ExpressionError("alias name must be non-empty")
        self.child = child
        self.name = name

    def output_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{self.child!r}.alias({self.name!r})"


class BinaryOp(Expr):
    """A binary arithmetic, comparison or boolean operation."""

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in BINARY_OPS:
            raise ExpressionError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnaryOp(Expr):
    """Logical not or numeric negation."""

    def __init__(self, op: str, child: Expr):
        if op not in UNARY_OPS:
            raise ExpressionError(f"unknown unary operator {op!r}")
        self.op = op
        self.child = child

    def __repr__(self) -> str:
        return f"{self.op}({self.child!r})"


class FunctionCall(Expr):
    """A scalar function applied element-wise."""

    def __init__(self, name: str, args: Sequence[Expr]):
        if name not in FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}")
        self.name = name
        self.args = list(args)

    def output_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({args})"


class CaseWhen(Expr):
    """A chain of ``WHEN condition THEN value`` branches with an ELSE default."""

    def __init__(self, branches: Sequence[Tuple[Expr, Expr]], default: Expr):
        if not branches:
            raise ExpressionError("case_when requires at least one branch")
        self.branches = [(cond, _wrap(value)) for cond, value in branches]
        self.default = _wrap(default)

    def output_name(self) -> str:
        return "case"

    def __repr__(self) -> str:
        return f"case_when({self.branches!r}, default={self.default!r})"


class InList(Expr):
    """Membership of an expression's value in a list of literals."""

    def __init__(self, child: Expr, values: List):
        if not values:
            raise ExpressionError("is_in requires at least one value")
        self.child = child
        self.values = values

    def output_name(self) -> str:
        return "in"

    def __repr__(self) -> str:
        return f"{self.child!r}.is_in({self.values!r})"


class Between(Expr):
    """Inclusive range predicate."""

    def __init__(self, child: Expr, low: Expr, high: Expr):
        self.child = child
        self.low = low
        self.high = high

    def output_name(self) -> str:
        return "between"

    def __repr__(self) -> str:
        return f"{self.child!r}.between({self.low!r}, {self.high!r})"


def column_reference(expr: Expr) -> Optional[str]:
    """The input column name when ``expr`` is a bare column reference or an
    :class:`Alias` chain over one; ``None`` for any computed expression."""
    while isinstance(expr, Alias):
        expr = expr.child
    return expr.name if isinstance(expr, Column) else None


# -- module-level constructors -------------------------------------------------


def col(name: str) -> Column:
    """Reference an input column."""
    return Column(name)


def lit(value) -> Literal:
    """Create a literal constant expression."""
    return Literal(value)


def year(expr: Expr) -> FunctionCall:
    """Extract the calendar year from a DATE (epoch-days) expression."""
    return FunctionCall("year", [expr])


def substr(expr: Expr, start: int, length: int) -> FunctionCall:
    """Take a substring (1-based ``start``, as in SQL) of a string expression."""
    return FunctionCall("substr", [expr, Literal(start), Literal(length)])


def starts_with(expr: Expr, prefix: str) -> FunctionCall:
    """True where the string expression starts with ``prefix``."""
    return FunctionCall("starts_with", [expr, Literal(prefix)])


def ends_with(expr: Expr, suffix: str) -> FunctionCall:
    """True where the string expression ends with ``suffix``."""
    return FunctionCall("ends_with", [expr, Literal(suffix)])


def contains(expr: Expr, needle: str) -> FunctionCall:
    """True where the string expression contains ``needle``."""
    return FunctionCall("contains", [expr, Literal(needle)])


def like(expr: Expr, pattern: str) -> FunctionCall:
    """SQL LIKE with ``%`` (any run) and ``_`` (any one char) wildcards.

    Backs LIKE patterns with interior wildcards (``'%a%b%'``) that the
    cheaper ``starts_with``/``ends_with``/``contains`` rewrites cannot
    express.
    """
    return FunctionCall("like", [expr, Literal(pattern)])


def case_when(branches: Sequence[Tuple[Expr, Expr]], default) -> CaseWhen:
    """Build a CASE WHEN expression from ``(condition, value)`` pairs."""
    return CaseWhen(branches, _wrap(default))
