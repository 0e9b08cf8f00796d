"""Exact rational rank of incidence matrices, plus the rank certificates.

One numpy kernel, `_pivot_columns`, row-reduces a 0/1 matrix mod a prime
p < 2^31 (so every product of two residues fits in int64) and lists its
pivot columns.  Rank mod p never exceeds rational rank, and the
multi-modular certificate closes the gap exactly.  Let R be the largest
rank mod p over the primes used and w the largest row weight.  A nonzero
(R+1)-minor would be divisible by every prime used, yet Hadamard's
inequality bounds it by w^((R+1)/2); so once the product of the primes
squared exceeds w^(R+1), the rational rank is R.  The comparison is one
exact integer comparison.  All-zero columns are dropped first, since
rational rank never exceeds the number of nonzero columns; a matrix that
reaches min(rows, nonzero columns) mod the first prime needs no second
one.  A family inside one hyperplane H has zero columns at every point
outside H, so at most [n-1 1]_q columns remain; when it has full rank on
them, the first prime decides.

`exact_rank` runs the kernel on the matrix; `row_rank_profile` runs it on
the transpose, whose pivot columns are the rows that raise the rank, and
serves the greedy construction that keeps exactly those rows.  Fraction-free
Bareiss elimination on arbitrary-precision integers, `BareissEliminator`,
stays as the oracle that tests and `accept` run by name.

The closed-form certificate: for the full incidence matrix M of all
k-subspaces against all points, M^T M = a·J + b·I with a = [n-2 k-2]_q
and b = [n-1 k-1]_q - a, whose determinant b^(N-1)·(b + N·a) is nonzero,
so M has full column rank N = [n 1]_q.  `verify_gram` checks it in exact
integers, with no dense M (`gram_table`).

Incidence rows come from `subspaces.bases_point_ordinals`, the builder the
code tables in `grassmann` also use; integer rank here and a shared-point
lookup there keep the routes apart after it.  The tests check the builder
against membership tests and the code tables against RREF intersection
dimensions, with the oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidArgs
from .gfq import FieldCtx
from .subspaces import (
    SubspaceFamily,
    bases_incidence_block,
    bases_point_ordinals,
    check_budget,
    enumerate_bases,
    enumerate_k_subspaces,  # noqa: F401  perfbench/trace_child.py wraps rank.enumerate_k_subspaces
    gaussian_binomial,
)


class BareissEliminator:
    """Incremental fraction-free elimination over the integers.

    Pivot rows are stored partially reduced; feeding a row costs one pass
    over the existing pivots.  Entries stay integral because each step
    value is a minor of the rows seen so far (Sylvester's identity), for
    any fixed choice of pivot columns.
    """

    def __init__(self, cols: int):
        self.cols = cols
        self.pivot_cols: list[int] = []
        self.pivot_rows: list[list[int]] = []
        self.minors: list[int] = [1]  # d_0, d_1, ..., d_r

    def try_add(self, row) -> bool:
        """Absorb row if it raises the rank; reject dependent rows."""
        if len(row) != self.cols:
            raise InvalidArgs(f"row has {len(row)} entries, expected {self.cols}")
        r = list(row)
        for i, (c, prow) in enumerate(zip(self.pivot_cols, self.pivot_rows)):
            d_prev, d_cur = self.minors[i], self.minors[i + 1]
            f = r[c]
            r = [d_cur * x - f * y for x, y in zip(r, prow)]
            if d_prev != 1:
                for j, x in enumerate(r):
                    q, rem = divmod(x, d_prev)
                    assert rem == 0, "inexact Bareiss division"
                    r[j] = q
        for c, x in enumerate(r):
            if x:
                self.pivot_cols.append(c)
                self.pivot_rows.append(r)
                self.minors.append(x)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; bases 2, 7, 61 are exact below 4759123141."""
    if n < 2:
        return False
    for b in (2, 7, 61):
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 7, 61):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def modular_primes():
    """The primes below 2^31, largest first."""
    n = 2**31 - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _pivot_columns(a: np.ndarray, p: int) -> list:
    """Pivot columns of the row echelon form of the 0/1 matrix a mod p:
    column c is one iff it is independent mod p of the columns before it."""
    a = a.astype(np.int64)
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + nz[0]
        # rows above r are finished, so the pivot row is moved out of the
        # way rather than swapped, and column c is never read again
        prow = a[i, c + 1:] * pow(int(a[i, c]), -1, p) % p
        a[i, c:] = a[r, c:]
        below = r + 1 + np.flatnonzero(a[r + 1:, c])
        if below.size:
            a[below, c + 1:] = (a[below, c + 1:] - a[below, c, None] * prow) % p
        pivots.append(c)
    return pivots


def _max_row_weight(rows: np.ndarray) -> int:
    return int(rows.sum(axis=1, dtype=np.int64).max()) if rows.size else 0


class IncidenceMatrix:
    """0/1 rows, an (m, N) uint8 array: member i of the family against
    every projective point.  Compares by identity."""

    __slots__ = ("m", "N", "rows")

    def __init__(self, m: int, N: int, rows: np.ndarray):
        self.m, self.N, self.rows = m, N, rows


def incidence_matrix(family: SubspaceFamily) -> IncidenceMatrix:
    """Rows over the points in `point_reps` order, from the family's basis
    array; refuses an empty family."""
    if not len(family):
        raise InvalidArgs("empty family")
    block = bases_incidence_block(family.ctx, family.bases)
    block.flags.writeable = False
    return IncidenceMatrix(block.shape[0], block.shape[1], block)


def exact_rank(M: IncidenceMatrix) -> int:
    """Rank over the rationals: primes are added until one reaches
    min(m, nonzero columns) or the Hadamard bound rules out a larger
    rational rank."""
    rows = M.rows[:, M.rows.any(axis=0)]
    target = min(rows.shape)
    w = _max_row_weight(rows)
    best, modulus = 0, 1
    for p in modular_primes():
        best = max(best, len(_pivot_columns(rows, p)))
        modulus *= p
        if best == target or modulus * modulus > w ** (best + 1):
            return best


def row_rank_profile(rows: np.ndarray) -> list:
    """Indices of the 0/1 rows that raise the rational rank, scanning in
    order: row i is listed iff it is outside the span of rows 0..i-1.

    The prefix ranks mod p come from the pivot columns of the transpose.
    Each prefix's rational rank is the largest of its ranks over the primes
    once their product squared exceeds w^e, e = min(R + 1, m, N) with R the
    largest final rank: a prefix whose largest rank R_j is short of its
    full rank needs w^(R_j + 1), and R_j + 1 <= e.
    """
    m, N = rows.shape
    w = _max_row_weight(rows)
    prefix = np.zeros(m, dtype=np.int64)
    modulus = 1
    for p in modular_primes():
        grows = np.zeros(m, dtype=np.int64)
        grows[_pivot_columns(rows.T, p)] = 1
        prefix = np.maximum(prefix, np.cumsum(grows))
        modulus *= p
        final = int(prefix[-1]) if m else 0
        if modulus * modulus > w ** min(final + 1, m, N):
            return np.flatnonzero(np.diff(prefix, prepend=0)).tolist()


def gram_closed_form(ctx: FieldCtx, n: int, k: int) -> tuple:
    """(diagonal, off-diagonal) entries of M^T M for the full incidence
    matrix: ([n-1 k-1]_q, [n-2 k-2]_q)."""
    if not 2 <= k <= n:
        raise InvalidArgs(f"need 2 <= k <= n, got n={n} k={k}")
    q = ctx.q
    return gaussian_binomial(n - 1, k - 1, q), gaussian_binomial(n - 2, k - 2, q)


def gram_table(ctx: FieldCtx, n: int, k: int) -> np.ndarray:
    """M^T M of the full incidence matrix M, an (N, N) int64 array: entry
    (i, j) counts the k-subspaces through points i and j.  Per block of
    vertices, `np.unique` counts each pair i < j of their points into the
    upper triangle and a bincount the points; the lower triangle is then
    mirrored a block of rows at a time.  Its N^2 cells are checked against
    the table ceiling before anything is listed."""
    N = gaussian_binomial(n, 1, ctx.q)
    check_budget(N * N, "Gram cells", cells=True)
    bases = enumerate_bases(ctx, n, k)
    points = gaussian_binomial(k, 1, ctx.q)
    first, second = np.triu_indices(points, 1)
    gram = np.zeros((N, N), dtype=np.int64)
    diagonal = np.zeros(N, dtype=np.int64)
    # about 2^17 pairs per block, whatever N is
    step = max(1, (1 << 18) // points**2)
    for lo in range(0, len(bases), step):
        ords = np.sort(bases_point_ordinals(ctx, bases[lo:lo + step]), axis=1)
        pairs = ords[:, first] * N
        pairs += ords[:, second]
        cells, counts = np.unique(pairs, return_counts=True)
        gram.reshape(-1)[cells] += counts
        diagonal += np.bincount(ords.ravel(), minlength=N)
    rows = max(1, (1 << 18) // N)
    for lo in range(0, N, rows):
        gram[lo:lo + rows, :lo + rows] += gram[:lo + rows, lo:lo + rows].T
    np.fill_diagonal(gram, diagonal)
    return gram


def verify_gram(ctx: FieldCtx, n: int, k: int) -> bool:
    """Entrywise check that M^T M = offdiag*J + (diag-offdiag)*I for the
    full incidence matrix (`gram_table`), plus nonvanishing of the
    closed-form determinant b^(N-1) * (b + N*a), as b != 0 and b + N*a != 0."""
    diag, offdiag = gram_closed_form(ctx, n, k)
    gram = gram_table(ctx, n, k)
    N = len(gram)
    if not (gram.diagonal() == diag).all():
        return False
    np.fill_diagonal(gram, offdiag)
    a, b = offdiag, diag - offdiag
    return bool((gram == offdiag).all()) and b != 0 and b + N * a != 0


class RankCertificate(NamedTuple):
    certified: bool
    rank: int
    required: int

    @property
    def status(self) -> str:
        return "certified" if self.certified else "inconclusive"


def certify_resolving_by_rank(family: SubspaceFamily) -> RankCertificate:
    """Full incidence rank [n 1]_q proves the family resolves the graph.

    One-directional: "inconclusive" does not mean "not resolving".
    """
    M = incidence_matrix(family)
    required = gaussian_binomial(family.bases.shape[2], 1, family.ctx.q)
    r = exact_rank(M)
    return RankCertificate(r == required, r, required)
