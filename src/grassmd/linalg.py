"""Exact dense linear algebra over GF(q).

Everything here is Gauss-Jordan with full reduction: the reduced row
echelon form is unique, so RREF bases double as canonical names for row
spaces and all subspace comparisons reduce to tuple equality.  Matrices
are immutable; operations return fresh objects.  Instances are desk-scale
(a few hundred columns), so there is no sparse representation.
"""

from __future__ import annotations

from .errors import DimensionMismatch, InvalidArgs
from .gfq import FieldCtx


class MatGFq:
    """Immutable matrix over GF(q); data is a tuple of row tuples."""

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: FieldCtx, rows: int, cols: int, data):
        data = tuple(tuple(r) for r in data)
        if len(data) != rows or any(len(r) != cols for r in data):
            raise InvalidArgs(f"data shape does not match {rows}x{cols}")
        q = ctx.q
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


def rref_rows(ctx: FieldCtx, rows, cols: int):
    """RREF of raw row tuples; returns (rows_without_zeros, pivot_columns)."""
    work = [list(r) for r in rows]
    add_t, mul_t, neg_t = ctx.add_table, ctx.mul_table, ctx.neg_table
    inv_t = ctx.inv_table
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        row = work[r]
        pv = row[c]
        if pv != 1:
            scale = inv_t[pv]
            mrow = mul_t[scale]
            work[r] = row = [mrow[x] for x in row]
        for i in range(len(work)):
            if i == r:
                continue
            f = work[i][c]
            if f:
                mrow = mul_t[neg_t[f]]
                other = work[i]
                work[i] = [add_t[x][mrow[y]] for x, y in zip(other, row)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def mat_mul(a: MatGFq, b: MatGFq) -> MatGFq:
    """Exact product over GF(q)."""
    if a.ctx != b.ctx:
        raise DimensionMismatch("contexts differ")
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dimensions differ: {a.cols} vs {b.rows}")
    ctx = a.ctx
    add_t, mul_t = ctx.add_table, ctx.mul_table
    bt = tuple(zip(*b.data)) if b.rows else ()
    out = []
    for ar in a.data:
        row = []
        for bc in bt:
            acc = 0
            for x, y in zip(ar, bc):
                if x and y:
                    acc = add_t[acc][mul_t[x][y]]
            row.append(acc)
        out.append(tuple(row))
    return MatGFq(ctx, a.rows, b.cols, out)


def intersect_dim(a: MatGFq, b: MatGFq) -> int:
    """dim(rowspace(a) ∩ rowspace(b)) = rank a + rank b - rank of the stack.

    Both inputs must already be in RREF, so their row counts are their ranks.
    """
    if a.ctx != b.ctx:
        raise DimensionMismatch("contexts differ")
    if a.cols != b.cols:
        raise DimensionMismatch(f"column counts differ: {a.cols} vs {b.cols}")
    return a.rows + b.rows - len(rref_rows(a.ctx, a.data + b.data, a.cols)[0])
