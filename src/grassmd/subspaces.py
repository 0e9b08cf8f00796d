"""Subspaces of V(n,q): canonical forms, enumeration, counting, incidence.

A subspace is identified with the unique RREF basis of its row space, so
equality and deduplication are byte comparisons.  `enumerate_bases` is
the one enumerator: it writes every RREF basis of every pivot pattern into
one (V, k, n) uint8 array, the free slots filled with the base-q digits of
a counter, and sorts the bases by their byte keys (`basis_keys`), so the
order (lexicographic in the flattened basis) is a stable public contract.
Every array row is a distinct subspace, so no rejection or hashing is
needed.  A `SubspaceFamily` is its field and one (m, d, n) array of RREF
bases.  Building a family from `Subspace` objects, iterating it and
`enumerate_k_subspaces` cross to objects through `linalg`, which they
import when they run.  `is_rref` is the one RREF test.

Projective points (1-subspaces) are numbered by their normalized
representatives (first nonzero coordinate scaled to 1), in ascending
big-endian integer encoding (`point_reps`).  The one incidence builder,
`bases_point_ordinals`, lists the point ordinals of a whole array of bases
at once, and `bases_incidence_block` scatters them into dense 0/1 rows.
The tests check it against membership tests by reduction against the RREF
basis, and the product formula of `gaussian_binomial` against the Pascal
recurrence, both in `tests/oracles.py`.
"""
from __future__ import annotations

import math
import os
from itertools import combinations, product

import numpy as np

from .errors import BudgetExceeded, InvalidArgs, TooLarge
from .gfq import FieldCtx, gf_matmul

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


def check_budget(count: int, what: str, cells: bool = False) -> None:
    """Refuse `count` things, named by `what`, over the enumeration budget,
    or with cells=True over DISTANCE_TABLE_FACTOR times it: the one place
    that reads either ceiling and raises BudgetExceeded."""
    limit = enumeration_budget() * (DISTANCE_TABLE_FACTOR if cells else 1)
    if count > limit:
        raise BudgetExceeded(f"{_decimal(count)} {what} exceed "
                             f"{'ceiling' if cells else 'budget'} {_decimal(limit)}")


def _decimal(x: int) -> str:
    """x in decimal, or its order of magnitude past Python's limit on the
    digits of an int it converts to a string (4300 by default)."""
    try:
        return str(x)
    except ValueError:
        return f"about 10^{math.log10(x):.0f}"


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


class SubspaceFamily:
    """Ordered, duplicate-free family of same-shape subspaces: the field
    `ctx` and `bases`, the read-only (m, d, n) uint8 array of their RREF
    bases, which kernels read in place; iteration builds `Subspace`
    objects.  No members give no field and shape (0, 0, 0)."""

    __slots__ = ("ctx", "bases")

    def __init__(self, members):
        """The family of `Subspace` objects of one field, ambient space and dimension."""
        from .linalg import bases_of

        self._hold(*bases_of(members))

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
                raise InvalidArgs(f"duplicate family member {bases[repeat].tolist()}")

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceFamily is immutable")

    def __len__(self):
        return len(self.bases)

    def __iter__(self):
        from .linalg import subspaces_from_bases

        return iter(subspaces_from_bases(self.ctx, self.bases))

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
    check_budget(count, f"{k}-subspaces")
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


def enumerate_k_subspaces(ctx: FieldCtx, n: int, k: int) -> list:
    """All k-subspaces of V(n,q), sorted by flattened-basis encoding."""
    from .linalg import subspaces_from_bases

    return subspaces_from_bases(ctx, enumerate_bases(ctx, n, k))


def point_reps(q: int, n: int):
    """Normalized representatives (first nonzero coordinate 1) of the
    projective points of V(n,q), ascending by big-endian integer encoding:
    a later leading column means a smaller encoding."""
    for f in range(n - 1, -1, -1):
        head = (0,) * f + (1,)
        for tail in product(range(q), repeat=n - f - 1):
            yield head + tail


def is_rref(bases: np.ndarray) -> np.ndarray:
    """(S,) bool: which bases of an (S, d, n) integer array are RREF: each
    row led by a 1 (so none is zero), the leading columns increasing, and
    each leading column zero outside its row.  No rows are RREF, and a row
    of length 0 is a zero row."""
    if not bases.shape[2]:
        return np.full(len(bases), not bases.shape[1])
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

