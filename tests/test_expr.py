"""Tests for expression construction and evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ExpressionError
from repro.data import Batch, DataType, date_to_days
from repro.expr import (
    case_when,
    col,
    contains,
    ends_with,
    evaluate,
    expression_columns,
    infer_dtype,
    lit,
    starts_with,
    substr,
    year,
)


def sample_batch():
    return Batch.from_pydict(
        {
            "a": [1, 2, 3, 4],
            "b": [10.0, 20.0, 30.0, 40.0],
            "s": ["PROMO BRASS", "STANDARD TIN", "PROMO COPPER", "ECONOMY BRASS"],
            "d": [
                date_to_days("1994-01-01"),
                date_to_days("1994-06-15"),
                date_to_days("1995-01-01"),
                date_to_days("1996-12-31"),
            ],
        }
    )


class TestArithmeticAndComparison:
    def test_addition_and_multiplication(self):
        result = evaluate(col("a") * lit(2) + lit(1), sample_batch())
        assert result.tolist() == [3, 5, 7, 9]

    def test_division_produces_floats(self):
        result = evaluate(col("b") / col("a"), sample_batch())
        np.testing.assert_allclose(result, [10.0, 10.0, 10.0, 10.0])

    def test_division_by_zero_is_defined_and_silent(self):
        batch = Batch.from_pydict({"x": [1.0, -1.0, 0.0], "z": [0.0, 0.0, 0.0]})
        with np.errstate(all="raise"):
            result = evaluate(col("x") / col("z"), batch)
        assert result[0] == np.inf and result[1] == -np.inf and np.isnan(result[2])

    def test_reverse_operators(self):
        result = evaluate(lit(100) - col("a"), sample_batch())
        assert result.tolist() == [99, 98, 97, 96]
        result = evaluate(1.0 - col("b") / lit(100.0), sample_batch())
        np.testing.assert_allclose(result, [0.9, 0.8, 0.7, 0.6])

    def test_comparisons(self):
        batch = sample_batch()
        assert evaluate(col("a") > lit(2), batch).tolist() == [False, False, True, True]
        assert evaluate(col("a") <= lit(2), batch).tolist() == [True, True, False, False]
        assert evaluate(col("a") == lit(3), batch).tolist() == [False, False, True, False]
        assert evaluate(col("a") != lit(3), batch).tolist() == [True, True, False, True]

    def test_negation(self):
        assert evaluate(-col("a"), sample_batch()).tolist() == [-1, -2, -3, -4]


class TestBooleanLogic:
    def test_and_or_not(self):
        batch = sample_batch()
        both = (col("a") > lit(1)) & (col("b") < lit(40.0))
        assert evaluate(both, batch).tolist() == [False, True, True, False]
        either = (col("a") == lit(1)) | (col("a") == lit(4))
        assert evaluate(either, batch).tolist() == [True, False, False, True]
        assert evaluate(~(col("a") > lit(2)), batch).tolist() == [True, True, False, False]

    def test_between_and_in(self):
        batch = sample_batch()
        assert evaluate(col("a").between(2, 3), batch).tolist() == [False, True, True, False]
        assert evaluate(col("a").is_in([1, 4]), batch).tolist() == [True, False, False, True]
        assert evaluate(col("s").is_in(["STANDARD TIN"]), batch).tolist() == [
            False, True, False, False,
        ]


class TestFunctions:
    def test_year(self):
        assert evaluate(year(col("d")), sample_batch()).tolist() == [1994, 1994, 1995, 1996]

    def test_string_predicates(self):
        batch = sample_batch()
        assert evaluate(starts_with(col("s"), "PROMO"), batch).tolist() == [
            True, False, True, False,
        ]
        assert evaluate(ends_with(col("s"), "BRASS"), batch).tolist() == [
            True, False, False, True,
        ]
        assert evaluate(contains(col("s"), "COPPER"), batch).tolist() == [
            False, False, True, False,
        ]

    def test_substr_is_one_based(self):
        result = evaluate(substr(col("s"), 1, 5), sample_batch())
        assert result.tolist() == ["PROMO", "STAND", "PROMO", "ECONO"]

    def test_case_when_first_branch_wins(self):
        batch = sample_batch()
        expr = case_when(
            [
                (col("a") <= lit(2), lit(1.0)),
                (col("a") <= lit(3), lit(2.0)),
            ],
            default=lit(0.0),
        )
        assert evaluate(expr, batch).tolist() == [1.0, 1.0, 2.0, 0.0]


class TestMetadata:
    def test_expression_columns(self):
        expr = (col("a") + col("b")) > lit(3)
        assert expression_columns(expr) == {"a", "b"}
        assert expression_columns(case_when([(col("s") == lit("x"), col("a"))], lit(0))) == {"s", "a"}

    def test_infer_dtype(self):
        schema = sample_batch().schema
        assert infer_dtype(col("a") + lit(1), schema) is DataType.INT64
        assert infer_dtype(col("a") * col("b"), schema) is DataType.FLOAT64
        assert infer_dtype(col("a") > lit(1), schema) is DataType.BOOL
        assert infer_dtype(col("b") / lit(2), schema) is DataType.FLOAT64
        assert infer_dtype(year(col("d")), schema) is DataType.INT64
        assert infer_dtype(substr(col("s"), 1, 2), schema) is DataType.STRING

    def test_alias_output_name(self):
        aliased = (col("a") * lit(2)).alias("doubled")
        assert aliased.output_name() == "doubled"
        assert evaluate(aliased, sample_batch()).tolist() == [2, 4, 6, 8]

    def test_invalid_constructions(self):
        with pytest.raises(ExpressionError):
            col("")
        with pytest.raises(ExpressionError):
            lit([1, 2])
        with pytest.raises(ExpressionError):
            col("a").is_in([])
        with pytest.raises(ExpressionError):
            case_when([], default=lit(0))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=50),
    st.integers(min_value=-1000, max_value=1000),
)
def test_property_predicate_matches_python(values, threshold):
    batch = Batch.from_pydict({"v": values})
    result = evaluate(col("v") > lit(threshold), batch)
    assert result.tolist() == [v > threshold for v in values]
