"""Projection kernel: compute a new set of columns from expressions."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.common.errors import ExpressionError
from repro.data.batch import Batch
from repro.data.schema import Field, Schema
from repro.expr.eval import evaluate, infer_dtype
from repro.expr.nodes import Expr, column_reference


def project_batch(batch: Batch, projections: Sequence[Tuple[str, Expr]]) -> Batch:
    """Evaluate ``projections`` (``(output_name, expression)`` pairs) over ``batch``.

    An output that is a bare column reference (or a rename of one) passes the
    input's storage through: a dictionary-encoded column keeps its codes and
    vocabulary, and a fixed-width column is shared, not copied.  Batch columns
    are immutable by convention, so sharing is safe.
    """
    if not projections:
        raise ExpressionError("projection requires at least one output column")
    names: List[str] = []
    fields: List[Field] = []
    columns = {}
    for name, expr in projections:
        if name in names:
            raise ExpressionError(f"duplicate projection output name {name!r}")
        names.append(name)
        dtype = infer_dtype(expr, batch.schema)
        fields.append(Field(name, dtype))
        source = column_reference(expr)
        if source is not None:
            columns[name] = batch.column_data(source)
        else:
            values = np.asarray(evaluate(expr, batch))
            columns[name] = values.astype(dtype.numpy_dtype)
    return Batch(Schema(fields), columns)
