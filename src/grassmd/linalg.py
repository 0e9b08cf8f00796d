"""Exact dense linear algebra over GF(q) on immutable tuple matrices.

`MatGFq` is a matrix at the API edge, such as a `Subspace`'s basis;
`as_array` hands it to the array kernels of `gfq`, and a product is one
`gfq.gf_matmul`.  RREF is unique, so RREF bases double as canonical names
for row spaces and subspace comparisons reduce to tuple equality.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionMismatch, InvalidArgs
from .gfq import FieldCtx, gf_matmul


class MatGFq:
    """Immutable matrix over GF(q); data is a tuple of row tuples of ints."""

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: FieldCtx, rows: int, cols: int, data):
        data = tuple(tuple(r) for r in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise InvalidArgs(f"data shape does not match {rows}x{cols}")
        q = ctx.q
        try:  # integers of any type pass; a float or a string would be truncated or parsed
            data = tuple(tuple(map(operator.index, r)) for r in data)
        except TypeError:
            raise InvalidArgs(f"entries of a GF({q}) matrix must be integers") from None
        for r in data:
            for x in r:
                if not 0 <= x < q:
                    raise InvalidArgs(f"entry {x} is not a GF({q}) encoding")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("MatGFq is immutable")

    def __repr__(self):
        body = "; ".join(" ".join(map(str, r)) for r in self.data)
        return f"MatGFq({self.ctx!r}, {self.rows}x{self.cols}, [{body}])"


def as_array(m: MatGFq) -> np.ndarray:
    """m as a (rows, cols) uint8 array."""
    return np.array(m.data, dtype=np.uint8).reshape(m.rows, m.cols)


def mat_mul(a: MatGFq, b: MatGFq) -> MatGFq:
    """Exact product over GF(q)."""
    if a.ctx != b.ctx:
        raise DimensionMismatch("contexts differ")
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dimensions differ: {a.cols} vs {b.rows}")
    return MatGFq(a.ctx, a.rows, b.cols, gf_matmul(a.ctx, as_array(a), as_array(b)).tolist())
