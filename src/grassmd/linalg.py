"""The tuple-object edge: `Subspace` objects and their tuple matrices.

Production code keeps subspaces as uint8 basis arrays and imports this
module only inside the functions that take or hand out objects
(`SubspaceFamily` construction through `bases_of`, its iteration,
`enumerate_k_subspaces`, and `is_resolving` for a colliding pair).
A `Subspace` holds its RREF basis as a `MatGFq`, so subspace comparisons
are tuple equality; `as_array` hands a `MatGFq` to the `gfq` kernels.
`distance`, the rank of two stacked bases from one `gf_rref`, is a graph
distance route independent of the gather kernel.
"""

from __future__ import annotations

import gc
import operator

import numpy as np

from .errors import DimensionMismatch, InvalidArgs
from .gfq import FieldCtx, gf_matmul, gf_rref
from .subspaces import is_rref


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


class Subspace:
    """A dim-dimensional subspace of V(n,q), held as its RREF basis."""

    __slots__ = ("ctx", "n", "dim", "basis")

    def __init__(self, ctx: FieldCtx, n: int, basis: MatGFq):
        if basis.cols != n:
            raise InvalidArgs(f"basis has {basis.cols} columns, ambient is {n}")
        if not is_rref(as_array(basis)[None])[0]:
            raise InvalidArgs("basis rows are not in reduced row echelon form")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", basis.rows)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _from_rref(cls, ctx: FieldCtx, n: int, data: tuple) -> "Subspace":
        """Wrap row tuples already in RREF; no checks."""
        put = object.__setattr__
        basis = object.__new__(MatGFq)
        put(basis, "ctx", ctx)
        put(basis, "rows", len(data))
        put(basis, "cols", n)
        put(basis, "data", data)
        sub = object.__new__(cls)
        put(sub, "ctx", ctx)
        put(sub, "n", n)
        put(sub, "dim", len(data))
        put(sub, "basis", basis)
        return sub

    @classmethod
    def from_rows(cls, ctx: FieldCtx, n: int, rows) -> "Subspace":
        """Canonicalize an arbitrary generating set."""
        rows = tuple(rows)
        gens = MatGFq(ctx, len(rows), n, rows)  # checks the shape and the entries
        basis = gf_rref(ctx, as_array(gens)[None])[0]
        return cls._from_rref(ctx, n, tuple(map(tuple, basis[basis.any(axis=1)].tolist())))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.n == other.n
            and self.basis.data == other.basis.data
        )

    def __hash__(self):
        return hash((self.ctx.q, self.n, self.basis.data))

    def __repr__(self):
        return f"Subspace(q={self.ctx.q}, n={self.n}, dim={self.dim}, [{'; '.join(' '.join(map(str, r)) for r in self.basis.data)}])"


def subspaces_from_bases(ctx: FieldCtx, bases: np.ndarray) -> list:
    """`Subspace` objects for an (S, d, n) array of RREF bases, which are
    trusted to be RREF with entries below q (as `enumerate_bases` makes
    them)."""
    n = bases.shape[2]
    out = []
    # Equal rows share one tuple: RREF rows are normalized vectors, so there
    # are at most [n 1]_q distinct ones, and sharing them more than halves
    # the memory of each object.
    shared = {}
    # The new objects form no reference cycles, so cyclic-collector passes
    # triggered by the allocations would only rescan them; on large lists
    # those passes took half the time.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for lo in range(0, len(bases), 256):  # bounds the list temporaries
            for rows in bases[lo:lo + 256].tolist():
                data = tuple([shared.setdefault(r, r) for r in map(tuple, rows)])
                out.append(Subspace._from_rref(ctx, n, data))
    finally:
        if enabled:
            gc.enable()
    return out


def bases_of(members) -> tuple:
    """(ctx, the (m, d, n) uint8 array of RREF bases) of `Subspace` objects
    of one field, ambient space and dimension; no members give
    (None, shape (0, 0, 0))."""
    members = tuple(members)
    if len({(s.ctx, s.n, s.dim) for s in members}) > 1:
        raise InvalidArgs("subspaces differ in field, ambient space or dimension")
    shape = (len(members), members[0].dim, members[0].n) if members else (0, 0, 0)
    return (members[0].ctx if members else None,
            np.array([s.basis.data for s in members], dtype=np.uint8).reshape(shape))


def distance(a: Subspace, b: Subspace) -> int:
    """k - dim(a ∩ b) = dim(a + b) - k, the rank of the stacked bases less
    k, from one `gf_rref`; zero iff a = b."""
    if a.ctx != b.ctx or a.n != b.n:
        raise DimensionMismatch("subspaces live in different spaces")
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    stacked = gf_rref(a.ctx, np.concatenate([as_array(a.basis), as_array(b.basis)])[None])
    return int(stacked.any(axis=2).sum()) - a.dim
