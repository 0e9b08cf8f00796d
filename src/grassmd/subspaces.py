"""Subspaces of V(n,q): canonical forms, enumeration, counting, incidence.

A subspace is identified with the unique RREF basis of its row space, so
equality and deduplication are tuple comparisons.  `enumerate_bases` is
the one enumerator: it writes every RREF basis of every pivot pattern into
one (V, k, n) uint8 array, the free slots filled with the base-q digits of
a counter, and sorts the bases by their byte keys (`basis_keys`), so the
order (lexicographic in the flattened basis) is a stable public contract.
Every array row is a distinct subspace, so no rejection or hashing is
needed.  `Subspace` objects are built from array rows only on request
(`enumerate_k_subspaces`, `subspaces_from_bases`).  `gf_matmul` is the one
array product of coefficient rows and bases over GF(q).

Projective points (1-subspaces) are numbered by their normalized
representatives (first nonzero coordinate scaled to 1), in ascending
big-endian integer encoding (`point_reps`).  The one incidence builder,
`bases_point_ordinals`, lists the point ordinals of a whole array of bases
at once; `bases_incidence_block` scatters them into dense 0/1 rows, and
`incidence_block` does the same for a list of `Subspace` objects.  The
tests check it against membership tests (`Subspace.contains`) and the
product formula of `gaussian_binomial` against the Pascal recurrence.
"""
from __future__ import annotations

import gc
import math
import os
from itertools import combinations, product

import numpy as np

from .errors import BudgetExceeded, InvalidArgs, TooLarge
from .gfq import FieldCtx
from .linalg import MatGFq, rref_rows

DEFAULT_ENUM_BUDGET = 10**6

# Cells of a dense table (incidence block, all-pairs distances, Gram table)
# per unit of enumeration budget: 10^7 by default, a 10 MB uint8 table or an
# 80 MB int64 one.
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


def check_budget(count: int, what: str = "", cells: bool = False) -> None:
    """Refuse `count` things, named by `what`, over the enumeration budget,
    or with cells=True over DISTANCE_TABLE_FACTOR times it: the one place
    that reads either ceiling and raises BudgetExceeded."""
    limit = enumeration_budget() * (DISTANCE_TABLE_FACTOR if cells else 1)
    if count > limit:
        subject = f"{count} {what} exceed" if what else f"{count} exceeds"
        raise BudgetExceeded(f"{subject} {'ceiling' if cells else 'budget'} {limit}")


def check_graph_shape(n: int, k: int) -> None:
    """Refuse k outside 2..n/2, the range of the Grassmann graphs G_q(n,k)
    that grassmd builds and resolves."""
    if not (2 <= k and 2 * k <= n):
        raise InvalidArgs(f"need 2 <= k <= n/2, got n={n} k={k}")


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


class Subspace:
    """A dim-dimensional subspace of V(n,q), held as its RREF basis."""

    __slots__ = ("ctx", "n", "dim", "basis", "_pivots")

    def __init__(self, ctx: FieldCtx, n: int, basis: MatGFq):
        if basis.cols != n:
            raise InvalidArgs(f"basis has {basis.cols} columns, ambient is {n}")
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
        rows = tuple(rows)
        gens = MatGFq(ctx, len(rows), n, rows)  # checks the shape and the entries
        return cls._from_rref(ctx, n, *rref_rows(ctx, gens.data, n))

    @property
    def pivots(self) -> tuple:
        return self._pivots

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
    check_budget(count)
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
        # digit j of the counter, base q, fills the j-th free slot from the
        # right, so each block is one ascending run for the merge sort
        for j, (i, c) in enumerate(reversed(free)):
            block[:, i, c] = counter // q**j % q
        lo = hi
    assert lo == count
    out = out[np.argsort(basis_keys(out), kind="stable")]
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


def basis_array(subspaces) -> np.ndarray:
    """(S, d, n) uint8 RREF bases of same-shape subspaces, refusing an empty
    list and mixed fields, ambient spaces or dimensions."""
    if len(subspaces) == 0:
        raise InvalidArgs("empty family or vertex list")
    first = subspaces[0]
    if any(s.ctx != first.ctx or s.n != first.n or s.dim != first.dim for s in subspaces):
        raise InvalidArgs("subspaces differ in field, ambient space or dimension")
    return np.array([s.basis.data for s in subspaces], dtype=np.uint8).reshape(
        len(subspaces), first.dim, first.n)


def gf_matmul(ctx: FieldCtx, coeffs: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """coeffs @ bases over GF(q) for uint8 arrays, batched like np.matmul:
    (..., r, d) times (..., d, n) gives (..., r, n).  The one array
    product of coefficient rows and bases, by table lookups."""
    add = np.array(ctx.add_table, dtype=np.uint8)
    mul = np.array(ctx.mul_table, dtype=np.uint8)
    out = mul[coeffs[..., :, 0, None], bases[..., None, 0, :]]
    for i in range(1, coeffs.shape[-1]):
        out = add[out, mul[coeffs[..., :, i, None], bases[..., None, i, :]]]
    return out


def basis_keys(bases: np.ndarray) -> np.ndarray:
    """Each (d, n) basis of an (S, d, n) uint8 array as one d·n-byte string.
    Entries are field encodings below 256, so byte order is the public
    order of `enumerate_bases` and its output is sorted by these keys."""
    width = math.prod(bases.shape[1:])
    flat = np.ascontiguousarray(bases, dtype=np.uint8).reshape(len(bases), width)
    return flat.view(f"S{width}")[:, 0]


def bases_point_ordinals(ctx: FieldCtx, bases: np.ndarray) -> np.ndarray:
    """(S, [d 1]_q) array: row s holds the ordinals, in `point_reps` order,
    of the points of the subspace with RREF basis bases[s], an (S, d, n)
    array.

    The points of a subspace with RREF basis B are c·B for the normalized
    coefficient vectors c of PG(d-1,q).  B has the identity in its pivot
    columns, so c·B is normalized too, and its ordinal follows in closed
    form from its big-endian encoding and its leading column.
    """
    d, n = bases.shape[1:]
    q = ctx.q
    check_budget(gaussian_binomial(n, 1, q), "points")
    vecs = gf_matmul(ctx, np.array(list(point_reps(q, d)), dtype=np.uint8), bases)  # (S, P, n)
    # the points led by column f come after the (q^(n-1-f) - 1)/(q - 1) led
    # further right, and sit among themselves in encoding order
    weights = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    lead = weights[(vecs != 0).argmax(axis=2)]
    return vecs @ weights - lead + (lead - 1) // (q - 1)


def bases_incidence_block(ctx: FieldCtx, bases: np.ndarray) -> np.ndarray:
    """Dense 0/1 uint8 point-incidence rows, (S, [n 1]_q), in `point_reps`
    order, of an (S, d, n) array of RREF bases; the cells are checked
    against the table ceiling before any is allocated."""
    S, _, n = bases.shape
    points = gaussian_binomial(n, 1, ctx.q)
    check_budget(S * points, "incidence cells", cells=True)
    out = np.zeros((S, points), dtype=np.uint8)
    np.put_along_axis(out, bases_point_ordinals(ctx, bases), 1, axis=1)
    return out


def incidence_block(subspaces) -> np.ndarray:
    """`bases_incidence_block` for a list of same-shape `Subspace` objects."""
    bases = basis_array(subspaces)
    return bases_incidence_block(subspaces[0].ctx, bases)
