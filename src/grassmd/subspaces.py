"""Subspaces of V(n,q): canonical forms, enumeration, counting, incidence.

A subspace is identified with the unique RREF basis of its row space, so
equality and deduplication are byte comparisons.  `enumerate_bases` is
the one enumerator: it writes every RREF basis of every pivot pattern into
one (V, k, n) uint8 array, the free slots filled with the base-q digits of
a counter, and sorts the bases by their byte keys (`basis_keys`), so the
order (lexicographic in the flattened basis) is a stable public contract.
Every array row is a distinct subspace, so no rejection or hashing is
needed.  A `SubspaceFamily` is its field and one (m, d, n) array of RREF
bases; `Subspace` objects are built from array rows only at the API edge
(iterating or indexing a family or graph, `enumerate_k_subspaces`).
`is_rref` is the one RREF test, and `gf_rref` reduces with `gfq.gf_matmul`,
the one array product over GF(q).

Projective points (1-subspaces) are numbered by their normalized
representatives (first nonzero coordinate scaled to 1), in ascending
big-endian integer encoding (`point_reps`).  The one incidence builder,
`bases_point_ordinals`, lists the point ordinals of a whole array of bases
at once, and `bases_incidence_block` scatters them into dense 0/1 rows.
The tests check it against membership tests (`Subspace.contains`) and the
product formula of `gaussian_binomial` against the Pascal recurrence.
"""
from __future__ import annotations

import gc
import math
import os
from itertools import combinations, product

import numpy as np

from .errors import BudgetExceeded, InvalidArgs, TooLarge
from .gfq import FieldCtx, gf_matmul
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

    __slots__ = ("ctx", "n", "dim", "basis")

    def __init__(self, ctx: FieldCtx, n: int, basis: MatGFq):
        if basis.cols != n:
            raise InvalidArgs(f"basis has {basis.cols} columns, ambient is {n}")
        rows = np.array(basis.data, dtype=np.uint8).reshape(1, basis.rows, n)
        if not is_rref(rows)[0]:
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
        return cls._from_rref(ctx, n, rref_rows(ctx, gens.data, n)[0])

    @property
    def pivots(self) -> tuple:
        return tuple(next(c for c, x in enumerate(row) if x) for row in self.basis.data)

    def contains(self, v) -> bool:
        """Membership test by reduction against the RREF basis."""
        ctx = self.ctx
        add_t, mul_t, neg_t = ctx.add_table, ctx.mul_table, ctx.neg_table
        v = list(v)
        for p, row in zip(self.pivots, self.basis.data):
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
    """Ordered, duplicate-free family of same-shape subspaces: the field
    `ctx` and `bases`, the read-only (m, d, n) uint8 array of their RREF
    bases, which kernels read in place; iteration and indexing build
    `Subspace` objects.  No members give no field and shape (0, 0, 0)."""

    __slots__ = ("ctx", "bases")

    def __init__(self, members):
        """The family of `Subspace` objects of one field, ambient space and dimension."""
        members = tuple(members)
        if len({(s.ctx, s.n, s.dim) for s in members}) > 1:
            raise InvalidArgs("subspaces differ in field, ambient space or dimension")
        shape = (len(members), members[0].dim, members[0].n) if members else (0, 0, 0)
        self._hold(members[0].ctx if members else None,
                   np.array([s.basis.data for s in members], dtype=np.uint8).reshape(shape))

    @classmethod
    def from_bases(cls, ctx: FieldCtx, bases: np.ndarray) -> "SubspaceFamily":
        """The family of an (m, d, n) array of bases, trusted to be RREF
        with entries below q."""
        family = object.__new__(cls)
        family._hold(ctx, bases)
        return family

    def _hold(self, ctx, bases):
        """Keep a read-only copy of bases; refuse a repeated member."""
        bases = np.array(bases, dtype=np.uint8)
        bases.flags.writeable = False
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "bases", bases)
        if len(bases) > 1:
            first = np.unique(basis_keys(bases), return_index=True)[1]
            if len(first) < len(bases):
                repeat = np.setdiff1d(np.arange(len(bases)), first)[0]
                raise InvalidArgs(f"duplicate family member {self[repeat]!r}")

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceFamily is immutable")

    def __len__(self):
        return len(self.bases)

    def __iter__(self):
        return iter(subspaces_from_bases(self.ctx, self.bases))

    def __getitem__(self, i):
        return subspaces_from_bases(self.ctx, self.bases[i][None])[0]

    def __eq__(self, other):
        return (isinstance(other, SubspaceFamily) and len(self) == len(other) and (
            not len(self) or self.ctx == other.ctx and np.array_equal(self.bases, other.bases)))

    def __repr__(self):
        return f"SubspaceFamily({len(self)} members)"


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


def gf_rref(ctx: FieldCtx, mats: np.ndarray) -> np.ndarray:
    """RREF of every (r, n) matrix of rank r in an (S, r, n) uint8 array:
    Gauss-Jordan on all S at once, scaling and clearing by `gf_matmul`."""
    add, neg, inv = (np.array(t, dtype=np.uint8) for t in (ctx.add_table, ctx.neg_table, ctx.inv_table))
    m, at = np.array(mats, dtype=np.uint8), np.arange(len(mats))
    for i in range(m.shape[1]):
        rest = m[:, i:] != 0
        assert rest.any(axis=(1, 2)).all(), "matrix rank below its row count"
        col = rest.any(axis=1).argmax(axis=1)  # the leftmost column nonzero in rows i..
        below = i + rest[at, :, col].argmax(axis=1)
        row = m[at, below]
        m[at, below] = m[:, i]
        pivot = gf_matmul(ctx, inv[row[at, col], None, None], row[:, None])
        f = neg[m[at, :, col]]
        f[:, i] = 0
        m = add[m, gf_matmul(ctx, f[:, :, None], pivot)]
        m[:, i] = pivot[:, 0]
    return m


def is_rref(bases: np.ndarray) -> np.ndarray:
    """(S,) bool: which bases of an (S, d, n) integer array are RREF: each
    row led by a 1 (so none is zero), the leading columns increasing, and
    each leading column zero outside its row."""
    nonzero = bases != 0
    lead = nonzero.argmax(axis=2)
    ones = np.take_along_axis(bases, lead[:, :, None], axis=2)[:, :, 0] == 1
    lead_columns = np.take_along_axis(nonzero, lead[:, None, :], axis=2)  # (S, d, d)
    return (ones.all(axis=1) & (np.diff(lead, axis=1) > 0).all(axis=1)
            & (lead_columns.sum(axis=1) == 1).all(axis=1))


def basis_keys(bases: np.ndarray) -> np.ndarray:
    """Each (d, n) basis of an (S, d, n) uint8 array as one d·n-byte string.
    Entries are field encodings below 256, so byte order is the public
    order of `enumerate_bases` and its output is sorted by these keys."""
    width = math.prod(bases.shape[1:])
    if not width:  # every zero-dimensional subspace has the one empty basis
        return np.zeros(len(bases), dtype="S1")
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
    # einsum casts vecs to int64 a buffer at a time, not as one (S, P, n) copy
    return np.einsum("spn,n->sp", vecs, weights) - lead + (lead - 1) // (q - 1)


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

