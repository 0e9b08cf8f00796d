"""Exact rational rank of incidence matrices, plus the rank certificates.

One numpy kernel, `_pivot_columns`, row-reduces a 0/1 matrix mod a prime
p < 2^31 (so every product of two residues fits in int64) and lists its
pivot columns.  `row_rank_profile` is the one multi-modular loop: it runs
the kernel on the transpose, whose pivot columns are the rows that raise
the rank, and adds primes until every prefix's rational rank is settled.
Rank mod p never exceeds rational rank.  Let R be the largest rank mod p
over the primes used and w the smaller of the largest row and column
weights.  A nonzero (R+1)-minor would be divisible by every prime used, yet
Hadamard's inequality, on its rows or its columns, bounds it by
w^((R+1)/2); so once the product of the primes squared exceeds w^(R+1),
one exact integer comparison, the rational rank is R.  Once every row has
raised the rank mod some prime, every prefix has full rank.

`exact_rank` is the length of that profile on the nonzero columns, in
whichever orientation has fewer rows: rational rank never exceeds the
number of nonzero columns, and a matrix and its transpose have the same
rank.  So a matrix that reaches min(rows, nonzero columns) mod the first
prime needs no second one, nor does a family inside a hyperplane of full
rank on its [n-1 1]_q points, the only nonzero columns.  Fraction-free Bareiss
elimination on arbitrary-precision integers, `BareissEliminator`, is the
oracle that tests and `accept` run by name.

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
from .gfq import FieldCtx, is_prime
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


def modular_primes():
    """The primes below 2^31, largest first."""
    n = 2**31 - 1
    while True:
        if is_prime(n):
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
    """Rank over the rationals: the length of the row rank profile of the
    nonzero columns, in whichever orientation has fewer rows."""
    rows = M.rows[:, M.rows.any(axis=0)]
    return len(row_rank_profile(rows if len(rows) <= rows.shape[1] else rows.T))


def row_rank_profile(rows: np.ndarray) -> list:
    """Indices of the 0/1 rows that raise the rational rank, scanning in
    order: row i is listed iff it is outside the span of rows 0..i-1.

    The prefix ranks mod p come from the pivot columns of the transpose.
    Each prefix's rational rank is the largest of its ranks over the primes
    used once every row has raised the rank mod one of them, or once their
    product squared exceeds w^e, e = min(R + 1, N) with R < m the largest
    final rank: a prefix whose largest rank R_j is short of its full rank
    needs w^(R_j + 1), and R_j + 1 <= e.
    """
    m, N = rows.shape
    w = min(_max_row_weight(rows), _max_row_weight(rows.T))
    prefix = np.zeros(m, dtype=np.int64)
    modulus = 1
    for p in modular_primes():
        grows = np.zeros(m, dtype=np.int64)
        grows[_pivot_columns(rows.T, p)] = 1
        prefix = np.maximum(prefix, np.cumsum(grows))
        modulus *= p
        final = int(prefix[-1]) if m else 0
        if final == m or modulus * modulus > w ** min(final + 1, N):
            return np.flatnonzero(np.diff(prefix, prepend=0)).tolist()


def gram_closed_form(ctx: FieldCtx, n: int, k: int) -> tuple:
    """(diagonal, off-diagonal) entries of M^T M for the full incidence
    matrix: ([n-1 k-1]_q, [n-2 k-2]_q)."""
    if not 2 <= k < n:  # k = n leaves b = diag - offdiag = 0, no certificate
        raise InvalidArgs(f"need 2 <= k < n, got n={n} k={k}")
    q = ctx.q
    return gaussian_binomial(n - 1, k - 1, q), gaussian_binomial(n - 2, k - 2, q)


def gram_table(ctx: FieldCtx, n: int, k: int) -> np.ndarray:
    """M^T M of the full incidence matrix M, an (N, N) int64 array: entry
    (i, j) counts the k-subspaces through points i and j.  Per block of
    vertices, one scatter-add counts every ordered pair of their points,
    each point with itself on the diagonal.  Its N^2 cells are checked
    against the table ceiling before anything is listed."""
    N = gaussian_binomial(n, 1, ctx.q)
    check_budget(N * N, "Gram cells", cells=True)
    bases = enumerate_bases(ctx, n, k)
    points = gaussian_binomial(k, 1, ctx.q)
    gram = np.zeros((N, N), dtype=np.int64)
    # about 2^18 pairs per block, whatever N is
    step = max(1, (1 << 18) // points**2)
    for lo in range(0, len(bases), step):
        ords = bases_point_ordinals(ctx, bases[lo:lo + step])
        np.add.at(gram.reshape(-1), (ords[:, :, None] * N + ords[:, None, :]).ravel(), 1)
    return gram


def verify_gram(ctx: FieldCtx, n: int, k: int) -> bool:
    """Entrywise check that M^T M = offdiag*J + (diag-offdiag)*I for the
    full incidence matrix (`gram_table`), plus nonvanishing of the
    closed-form determinant b^(N-1) * (b + N*a), as b != 0 and b + N*a != 0."""
    diag, offdiag = gram_closed_form(ctx, n, k)
    gram = gram_table(ctx, n, k)
    N = len(gram)
    a, b = offdiag, diag - offdiag
    gram[np.diag_indices(N)] -= b  # gram = a*J + b*I iff gram - b*I = a*J
    return bool((gram == a).all()) and b != 0 and b + N * a != 0


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
