"""Exact rational rank of incidence matrices, plus the rank certificates.

One numpy kernel, `_pivot_columns`, row-reduces a 0/1 matrix mod a prime
p < 2^31 (so every product of two residues fits in int64) and lists its
pivot columns.  Rank mod p never exceeds rational rank, and the
multi-modular certificate closes the gap exactly.  Let R be the largest
rank mod p over the primes used and w the largest row weight.  A nonzero
(R+1)-minor would be divisible by every prime used, yet Hadamard's
inequality bounds it by w^((R+1)/2); so once the product of the primes
squared exceeds w^(R+1), the rational rank is R.  The comparison is one
exact integer comparison.  A matrix that reaches min(rows, cols) mod the
first prime needs no second one.

`exact_rank` runs the kernel on the matrix; `row_rank_profile` runs it on
the transpose, whose pivot columns are the rows that raise the rank, and
serves the greedy construction that keeps exactly those rows.  Fraction-free
Bareiss elimination on arbitrary-precision integers, `BareissEliminator`,
stays as the oracle that tests and `accept` run by name.

The closed-form certificate: for the full incidence matrix M of all
k-subspaces against all points, M^T M = a·J + b·I with a = [n-2 k-2]_q
and b = [n-1 k-1]_q - a, whose determinant b^(N-1)·(b + N·a) is positive,
so M has full column rank N = [n 1]_q.

Incidence rows come from `subspaces.bases_point_ordinals`, the builder the
code tables in `grassmann` also use; integer rank here and a shared-point
lookup there keep the routes apart after it.  Tests check the builder against the
membership-test `incidence_vector`, and the code tables against the
RREF-based `grassmann.code_of`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgs, TooLarge
from .gfq import FieldCtx
from .subspaces import (
    SubspaceFamily,
    bases_incidence_block,
    enumerate_bases,
    enumerate_k_subspaces,  # noqa: F401  perfbench/trace_child.py wraps rank.enumerate_k_subspaces
    gaussian_binomial,
    incidence_block,
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


@dataclass(frozen=True, eq=False)
class IncidenceMatrix:
    """0/1 rows, an (m, N) uint8 array: member i of the family against
    every projective point."""

    m: int
    N: int
    rows: np.ndarray


def incidence_matrix(family: SubspaceFamily) -> IncidenceMatrix:
    """Rows over the points in PointIndex order."""
    if len(family) == 0:
        raise InvalidArgs("family is empty")
    block = incidence_block(family)
    block.flags.writeable = False
    return IncidenceMatrix(block.shape[0], block.shape[1], block)


def exact_rank(M: IncidenceMatrix) -> int:
    """Rank over the rationals: primes are added until one reaches
    min(m, N) or the Hadamard bound rules out a larger rational rank."""
    target = min(M.m, M.N)
    w = _max_row_weight(M.rows)
    best, modulus = 0, 1
    for p in modular_primes():
        best = max(best, len(_pivot_columns(M.rows, p)))
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


def verify_gram(ctx: FieldCtx, n: int, k: int) -> bool:
    """Entrywise check that M^T M = offdiag*J + (diag-offdiag)*I for the
    full incidence matrix, plus nonvanishing of the closed-form determinant
    b^(N-1) * (b + N*a).

    The product is a float64 BLAS product, exact because every entry is a
    count of at most V vertices, and V < 2^53 is checked first."""
    diag, offdiag = gram_closed_form(ctx, n, k)
    vertices = gaussian_binomial(n, k, ctx.q)
    if vertices >= 2**53:
        raise TooLarge(f"[{n} {k}]_{ctx.q} = {vertices} vertices: Gram entries would not be exact")
    a_np = bases_incidence_block(ctx, enumerate_bases(ctx, n, k), np.float64)
    gram = a_np.T @ a_np
    N = a_np.shape[1]
    expected = np.full((N, N), offdiag, dtype=np.float64)
    np.fill_diagonal(expected, diag)
    if not np.array_equal(gram, expected):
        return False
    a, b = offdiag, diag - offdiag
    det = b ** (N - 1) * (b + N * a)
    return det != 0


@dataclass(frozen=True)
class RankCertificate:
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
    first = family[0]
    required = gaussian_binomial(first.n, 1, first.ctx.q)
    r = exact_rank(M)
    return RankCertificate(r == required, r, required)
