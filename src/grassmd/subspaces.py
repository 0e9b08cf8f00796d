"""Subspaces of V(n,q): canonical forms, enumeration, counting, incidence.

A subspace is identified with the unique RREF basis of its row space, so
equality and deduplication are tuple comparisons.  `enumerate_bases` is
the one enumerator: it writes every RREF basis of every pivot pattern into
one (V, k, n) uint8 array, the free slots filled with the base-q digits of
a counter, and sorts the flattened rows, so the order (lexicographic in the
flattened basis) is a stable public contract.  Every array row is a
distinct subspace, so no rejection or hashing is needed.  `Subspace`
objects are built from array rows only where a caller asks for them
(`enumerate_k_subspaces`, `subspaces_from_bases`).

Projective points (1-subspaces) get their own index: each is stored as its
normalized representative (first nonzero coordinate scaled to 1), ordered
by the representative's big-endian integer encoding.  The one production
incidence builder, `bases_point_ordinals`, lists the points of a whole
array of bases at once; `bases_incidence_block` scatters them into dense
0/1 rows, `incidence_block` does the same for a list of `Subspace`
objects, and `incidence_vector` is the membership-test oracle.
"""

from __future__ import annotations

import gc
import math
import os
from itertools import combinations, product

import numpy as np

from .errors import BudgetExceeded, ContextMismatch, DimensionMismatch, InvalidArgs, TooLarge
from .gfq import FieldCtx
from .linalg import MatGFq, rref_rows

DEFAULT_ENUM_BUDGET = 10**6

# Cells of a dense table (incidence block, all-pairs distances) per unit of
# enumeration budget: 10^7 by default, a 10 MB table and an 80 MB int64 copy.
DISTANCE_TABLE_FACTOR = 10

# Decimal digits a Gaussian binomial may have.  [n k]_q lies between
# q^(k(n-k)) and 3.47 q^(k(n-k)), so it has at most two digits more than
# the estimate k(n-k) log10 q, and 4000 digits stay below Python's
# 4300-digit limit for printing an int.
BINOMIAL_MAX_DIGITS = 4000


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
    digits = k * (n - k) * math.log10(q)
    if digits > BINOMIAL_MAX_DIGITS:
        raise TooLarge(f"[{n} {k}]_{q} has about {digits:.0f} digits, "
                       f"more than {BINOMIAL_MAX_DIGITS}")
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
    def _from_rref(cls, ctx: FieldCtx, n: int, data: tuple, pivots) -> "Subspace":
        """Wrap row tuples already in RREF, with their pivots; no checks."""
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
        put(sub, "_pivots", tuple(pivots))
        return sub

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


def enumerate_bases(ctx: FieldCtx, n: int, k: int) -> np.ndarray:
    """All k-subspaces of V(n,q) as a read-only (V, k, n) uint8 array of
    RREF bases, sorted by flattened-basis encoding; refuses more than the
    enumeration budget before allocating."""
    if not 1 <= k <= n:
        raise InvalidArgs(f"need 1 <= k <= n, got n={n} k={k}")
    q = ctx.q
    count = gaussian_binomial(n, k, q)
    budget = enumeration_budget()
    if count > budget:
        raise BudgetExceeded(f"[{n} {k}]_{q} = {count} exceeds budget {budget}")
    out = np.zeros((count, k, n), dtype=np.uint8)
    lo = 0
    for pivots in combinations(range(n), k):
        # free slots: right of the row's pivot, outside every pivot column
        free = [(i, c) for i, p in enumerate(pivots)
                for c in range(p + 1, n) if c not in pivots]
        hi = lo + q ** len(free)
        block = out[lo:hi]
        block[:, range(k), pivots] = 1
        counter = np.arange(hi - lo)
        for j, (i, c) in enumerate(free):  # digit j of the counter, base q
            block[:, i, c] = counter // q**j % q
        lo = hi
    assert lo == count
    # sort keys: the flattened basis read as base-q numerals, as many
    # digits per int64 key as fit in 62 bits; lexsort wants the primary
    # key last
    flat = out.reshape(count, k * n)
    per = max(1, int(62 / math.log2(q)))
    keys = []
    for c in range(0, k * n, per):
        key = np.zeros(count, dtype=np.int64)
        for col in flat[:, c:c + per].T:
            key = key * q + col
        keys.append(key)
    out = out[np.lexsort(keys[::-1])]
    out.flags.writeable = False
    return out


def subspaces_from_bases(ctx: FieldCtx, bases: np.ndarray) -> list:
    """`Subspace` objects for an (S, d, n) array of RREF bases, which are
    trusted to be RREF with entries below q (as `enumerate_bases` makes
    them)."""
    n = bases.shape[2]
    out = []
    # Equal rows and equal pivot patterns share one tuple: RREF rows are
    # normalized vectors, so there are at most [n 1]_q distinct ones, and
    # sharing them more than halves the memory of each object.
    shared = {}
    # The new objects form no reference cycles, so cyclic-collector passes
    # triggered by the allocations would only rescan them; on large lists
    # those passes took half the time.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for lo in range(0, len(bases), 256):  # bounds the list temporaries
            chunk = bases[lo:lo + 256]
            for rows, piv in zip(chunk.tolist(), (chunk != 0).argmax(axis=2).tolist()):
                data = tuple([shared.setdefault(r, r) for r in map(tuple, rows)])
                piv = tuple(piv)
                out.append(Subspace._from_rref(ctx, n, data, shared.setdefault(piv, piv)))
    finally:
        if enabled:
            gc.enable()
    return out


def enumerate_k_subspaces(ctx: FieldCtx, n: int, k: int) -> list:
    """All k-subspaces of V(n,q), sorted by flattened-basis encoding."""
    return subspaces_from_bases(ctx, enumerate_bases(ctx, n, k))


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


def _point_count(q: int, n: int) -> int:
    """[n 1]_q, refusing more points than the enumeration budget."""
    points = gaussian_binomial(n, 1, q)
    budget = enumeration_budget()
    if points > budget:
        raise BudgetExceeded(f"[{n} 1]_{q} = {points} points exceed budget {budget}")
    return points


def basis_array(subspaces) -> np.ndarray:
    """(S, d, n) uint8 RREF bases of same-shape subspaces, refusing an empty
    list and mixed fields, ambient spaces or dimensions."""
    if len(subspaces) == 0:
        raise InvalidArgs("no subspaces to list points of")
    first = subspaces[0]
    if any(s.ctx != first.ctx or s.n != first.n or s.dim != first.dim for s in subspaces):
        raise DimensionMismatch("subspaces differ in field, ambient space or dimension")
    return np.array([s.basis.data for s in subspaces], dtype=np.uint8).reshape(
        len(subspaces), first.dim, first.n)


def bases_point_ordinals(ctx: FieldCtx, bases: np.ndarray) -> np.ndarray:
    """(S, [d 1]_q) array: row s holds the PointIndex ordinals of the points
    of the subspace with RREF basis bases[s], an (S, d, n) array.

    The points of a subspace with RREF basis B are c·B for the normalized
    coefficient vectors c of PG(d-1,q).  B has the identity in its pivot
    columns, so c·B is normalized too, and its ordinal follows in closed
    form from its big-endian encoding and its leading column.
    """
    S, d, n = bases.shape
    q = ctx.q
    _point_count(q, n)
    add = np.array(ctx.add_table, dtype=np.uint8)
    mul = np.array(ctx.mul_table, dtype=np.uint8)
    coeffs = np.array(list(point_reps(q, d)), dtype=np.uint8)  # (P, d)
    vecs = np.zeros((S, len(coeffs), n), dtype=np.uint8)
    for i in range(d):
        vecs = add[vecs, mul[coeffs[None, :, i, None], bases[:, None, i, :]]]
    # the points led by column f come after the (q^(n-1-f) - 1)/(q - 1) led
    # further right, and sit among themselves in encoding order
    weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    lead = weights[(vecs != 0).argmax(axis=2)]
    return vecs @ weights - lead + (lead - 1) // (q - 1)


def bases_incidence_block(ctx: FieldCtx, bases: np.ndarray, dtype=np.uint8) -> np.ndarray:
    """Dense 0/1 point-incidence rows, (S, [n 1]_q), in PointIndex order, of
    an (S, d, n) array of RREF bases; refuses more than
    DISTANCE_TABLE_FACTOR × the enumeration budget cells before allocating
    any."""
    S, _, n = bases.shape
    points = _point_count(ctx.q, n)
    cells, ceiling = S * points, DISTANCE_TABLE_FACTOR * enumeration_budget()
    if cells > ceiling:
        raise BudgetExceeded(f"{S} x {points} incidence cells exceed ceiling {ceiling}")
    out = np.zeros((S, points), dtype=dtype)
    np.put_along_axis(out, bases_point_ordinals(ctx, bases), 1, axis=1)
    return out


def incidence_block(subspaces, dtype=np.uint8) -> np.ndarray:
    """`bases_incidence_block` for a list of same-shape `Subspace` objects."""
    bases = basis_array(subspaces)
    return bases_incidence_block(subspaces[0].ctx, bases, dtype)


def incidence_vector(u: Subspace, idx: PointIndex) -> tuple:
    """0/1 membership of the points of idx in u: entry i = 1 iff point i
    lies in u, so the entries sum to [dim(u) 1]_q."""
    if u.ctx != idx.ctx or u.n != idx.n:
        raise ContextMismatch("subspace and point index disagree on (q, n)")
    return tuple(1 if u.contains(p) else 0 for p in idx.points)
