"""Subspaces of V(n,q): canonical forms, enumeration, counting, incidence.

A subspace is identified with the unique RREF basis of its row space, so
equality and deduplication are tuple comparisons.  Enumeration generates
RREF matrices directly from pivot-column patterns — every matrix produced
is a distinct subspace, no rejection or hashing needed — and then sorts by
the flattened basis encoding so the order is a stable public contract.
(Bases of one shape compare row by row exactly as their flattenings do,
so the sort compares the row tuples themselves.)

Projective points (1-subspaces) get their own index: each is stored as its
normalized representative (first nonzero coordinate scaled to 1), ordered
by the representative's big-endian integer encoding.  `point_ordinals`,
the one production incidence builder, lists the points of many subspaces
at once; `incidence_vector` is its membership-test oracle.
"""

from __future__ import annotations

import os
from itertools import combinations, product

import numpy as np

from .errors import BudgetExceeded, ContextMismatch, DimensionMismatch, InvalidArgs
from .gfq import FieldCtx
from .linalg import MatGFq, rref_rows

DEFAULT_ENUM_BUDGET = 10**6

# Cells of a dense table (incidence block, all-pairs distances) per unit of
# enumeration budget: 10^7 by default, a 10 MB table and an 80 MB int64 copy.
DISTANCE_TABLE_FACTOR = 10


def enumeration_budget() -> int:
    """Enumeration ceiling; GRASSMANN_BUDGET overrides the default 10^6."""
    raw = os.environ.get("GRASSMANN_BUDGET")
    if raw is None:
        return DEFAULT_ENUM_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise InvalidArgs(f"GRASSMANN_BUDGET={raw!r} is not an integer")
    if value <= 0:
        raise InvalidArgs("GRASSMANN_BUDGET must be positive")
    return value


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of V(n,q): prod (q^n - q^i)/(q^k - q^i)."""
    if k < 0 or k > n:
        raise InvalidArgs(f"need 0 <= k <= n, got n={n} k={k}")
    if q < 2:
        raise InvalidArgs(f"need q >= 2, got {q}")
    num = 1
    den = 1
    for i in range(k):
        num *= q**n - q**i
        den *= q**k - q**i
    assert num % den == 0
    return num // den


def gaussian_binomial_pascal(n: int, k: int, q: int) -> int:
    """Same count via the recurrence [n k] = [n-1 k-1] + q^k [n-1 k].

    Independent evaluation path used to cross-check the product formula.
    """
    if k < 0 or k > n:
        raise InvalidArgs(f"need 0 <= k <= n, got n={n} k={k}")
    if q < 2:
        raise InvalidArgs(f"need q >= 2, got {q}")
    # row-by-row table, same shape as Pascal's triangle
    prev = [1]
    for m in range(1, n + 1):
        cur = [1]
        for j in range(1, m):
            cur.append(prev[j - 1] + q**j * prev[j])
        cur.append(1)
        prev = cur
    return prev[k]


class Subspace:
    """A dim-dimensional subspace of V(n,q), held as its RREF basis."""

    __slots__ = ("ctx", "n", "dim", "basis", "_pivots")

    def __init__(self, ctx: FieldCtx, n: int, basis: MatGFq, pivots=None):
        if basis.cols != n:
            raise InvalidArgs(f"basis has {basis.cols} columns, ambient is {n}")
        if pivots is None:
            rows, pivots = rref_rows(ctx, basis.data, n)
            if rows != basis.data:
                raise InvalidArgs("basis rows are not in reduced row echelon form")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", basis.rows)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, ctx: FieldCtx, n: int, rows) -> "Subspace":
        """Canonicalize an arbitrary generating set."""
        red, pivots = rref_rows(ctx, [tuple(r) for r in rows], n)
        return cls(ctx, n, MatGFq(ctx, len(red), n, red), pivots)

    @property
    def pivots(self) -> tuple:
        return self._pivots

    @property
    def key(self) -> tuple:
        """Flattened canonical basis; total order on equal-shape subspaces."""
        return tuple(x for row in self.basis.data for x in row)

    def contains(self, v) -> bool:
        """Membership test by reduction against the RREF basis."""
        ctx = self.ctx
        add_t, mul_t, neg_t = ctx.add_table, ctx.mul_table, ctx.neg_table
        v = list(v)
        for p, row in zip(self._pivots, self.basis.data):
            f = v[p]
            if f:
                mrow = mul_t[neg_t[f]]
                v = [add_t[x][mrow[y]] for x, y in zip(v, row)]
        return not any(v)

    def to_text(self) -> str:
        """dim lines of n space-separated element encodings."""
        return "\n".join(" ".join(map(str, row)) for row in self.basis.data)

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


class SubspaceFamily:
    """Ordered, duplicate-free list of subspaces."""

    __slots__ = ("members",)

    def __init__(self, members):
        members = tuple(members)
        seen = set()
        for s in members:
            kk = (s.n, s.basis.data)
            if kk in seen:
                raise InvalidArgs(f"duplicate family member {s!r}")
            seen.add(kk)
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceFamily is immutable")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]

    def __eq__(self, other):
        return isinstance(other, SubspaceFamily) and self.members == other.members

    def __repr__(self):
        return f"SubspaceFamily({len(self.members)} members)"


def _free_positions(pivots: tuple, n: int) -> list:
    """RREF free slots for a pivot pattern: (row, col) with col right of the
    row's pivot and not itself a pivot column."""
    pivot_set = set(pivots)
    out = []
    for i, p in enumerate(pivots):
        for c in range(p + 1, n):
            if c not in pivot_set:
                out.append((i, c))
    return out


def enumerate_k_subspaces(ctx: FieldCtx, n: int, k: int) -> list:
    """All k-subspaces of V(n,q), sorted by flattened-basis encoding."""
    if not 1 <= k <= n:
        raise InvalidArgs(f"need 1 <= k <= n, got n={n} k={k}")
    q = ctx.q
    count = gaussian_binomial(n, k, q)
    budget = enumeration_budget()
    if count > budget:
        raise BudgetExceeded(f"[{n} {k}]_{q} = {count} exceeds budget {budget}")
    out = []
    for pivots in combinations(range(n), k):
        base = [[0] * n for _ in range(k)]
        for i, p in enumerate(pivots):
            base[i][p] = 1
        free = _free_positions(pivots, n)
        for vals in product(range(q), repeat=len(free)):
            rows = [r[:] for r in base]
            for (i, c), x in zip(free, vals):
                rows[i][c] = x
            m = MatGFq(ctx, k, n, rows)
            out.append(Subspace(ctx, n, m, pivots))
    assert len(out) == count
    out.sort(key=lambda s: s.basis.data)
    return out


def point_reps(q: int, n: int):
    """Normalized representatives (first nonzero coordinate 1) of the
    projective points of V(n,q), ascending by big-endian integer encoding:
    a later leading column means a smaller encoding."""
    for f in range(n - 1, -1, -1):
        head = (0,) * f + (1,)
        for tail in product(range(q), repeat=n - f - 1):
            yield head + tail


class PointIndex:
    """The N = [n 1]_q projective points of V(n,q) in `point_reps` order,
    with a lookup from any nonzero vector to its point's ordinal."""

    __slots__ = ("ctx", "n", "points", "_pos")

    def __init__(self, ctx: FieldCtx, n: int):
        reps = tuple(point_reps(ctx.q, n))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", reps)
        object.__setattr__(self, "_pos", {v: i for i, v in enumerate(reps)})
        assert len(reps) == gaussian_binomial(n, 1, ctx.q)

    def __setattr__(self, name, value):
        raise AttributeError("PointIndex is immutable")

    def __len__(self):
        return len(self.points)

    def normalize(self, v) -> tuple:
        """Scale v so its first nonzero coordinate is 1."""
        v = tuple(v)
        for x in v:
            if x:
                if x == 1:
                    return v
                mrow = self.ctx.mul_table[self.ctx.inv_table[x]]
                return tuple(mrow[y] for y in v)
        raise InvalidArgs("zero vector spans no point")

    def index_of(self, v) -> int:
        return self._pos[self.normalize(v)]


def _point_count(subspaces) -> int:
    """[n 1]_q for the ambient space of subspaces, refusing an empty list
    and more points than the enumeration budget."""
    if len(subspaces) == 0:
        raise InvalidArgs("no subspaces to list points of")
    first = subspaces[0]
    points = gaussian_binomial(first.n, 1, first.ctx.q)
    budget = enumeration_budget()
    if points > budget:
        raise BudgetExceeded(f"[{first.n} 1]_{first.ctx.q} = {points} points exceed budget {budget}")
    return points


def point_ordinals(subspaces) -> np.ndarray:
    """(S, [d 1]_q) array: row s holds the PointIndex ordinals of the points
    of subspaces[s], for same-shape d-subspaces of V(n,q).

    The points of a subspace with RREF basis B are c·B for the normalized
    coefficient vectors c of PG(d-1,q).  B has the identity in its pivot
    columns, so c·B is normalized too, and its ordinal follows in closed
    form from its big-endian encoding and its leading column.
    """
    _point_count(subspaces)
    first = subspaces[0]
    ctx, n, d, q = first.ctx, first.n, first.dim, first.ctx.q
    if any(s.ctx != ctx or s.n != n or s.dim != d for s in subspaces):
        raise DimensionMismatch("subspaces differ in field, ambient space or dimension")
    add = np.array(ctx.add_table, dtype=np.uint8)
    mul = np.array(ctx.mul_table, dtype=np.uint8)
    coeffs = np.array(list(point_reps(q, d)), dtype=np.uint8)  # (P, d)
    basis = np.array([s.basis.data for s in subspaces], dtype=np.uint8)  # (S, d, n)
    vecs = np.zeros((len(subspaces), len(coeffs), n), dtype=np.uint8)
    for i in range(d):
        vecs = add[vecs, mul[coeffs[None, :, i, None], basis[:, None, i, :]]]
    # the points led by column f come after the (q^(n-1-f) - 1)/(q - 1) led
    # further right, and sit among themselves in encoding order
    weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    lead = weights[(vecs != 0).argmax(axis=2)]
    return vecs @ weights - lead + (lead - 1) // (q - 1)


def incidence_block(subspaces, dtype=np.uint8) -> np.ndarray:
    """Dense 0/1 point-incidence rows, (S, [n 1]_q), in PointIndex order;
    refuses more than DISTANCE_TABLE_FACTOR × the enumeration budget cells
    before allocating any."""
    points = _point_count(subspaces)
    cells, ceiling = len(subspaces) * points, DISTANCE_TABLE_FACTOR * enumeration_budget()
    if cells > ceiling:
        raise BudgetExceeded(
            f"{len(subspaces)} x {points} incidence cells exceed ceiling {ceiling}")
    ords = point_ordinals(subspaces)
    out = np.zeros((len(subspaces), points), dtype=dtype)
    np.put_along_axis(out, ords, 1, axis=1)
    return out


def incidence_vector(u: Subspace, idx: PointIndex) -> tuple:
    """0/1 membership of the points of idx in u: entry i = 1 iff point i
    lies in u, so the entries sum to [dim(u) 1]_q."""
    if u.ctx != idx.ctx or u.n != idx.n:
        raise ContextMismatch("subspace and point index disagree on (q, n)")
    return tuple(1 if u.contains(p) else 0 for p in idx.points)
