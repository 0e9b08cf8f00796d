"""Exact rational rank of incidence matrices, plus the rank certificates.

Ground truth is fraction-free Bareiss elimination on arbitrary-precision
integers: every intermediate entry is a minor of the input, so divisions
are exact and there is no rational blow-up.  A modular fast path reduces
mod a fixed 61-bit Mersenne prime; modular rank never exceeds rational
rank, so reaching full rank mod p certifies full rational rank, and any
shortfall falls back to Bareiss.

Both eliminators are incremental (rows are fed one at a time and either
absorbed or rejected), which also serves the greedy construction that
keeps exactly the rows raising the rank.

The closed-form certificate: for the full incidence matrix M of all
k-subspaces against all points, M^T M = a·J + b·I with a = [n-2 k-2]_q
and b = [n-1 k-1]_q - a, whose determinant b^(N-1)·(b + N·a) is positive,
so M has full column rank N = [n 1]_q.

Incidence rows come from `subspaces.point_ordinals`, the builder the code
tables in `grassmann` also use; integer rank here and a shared-point lookup
there keep the routes apart after it.  Tests check the builder against the
membership-test `incidence_vector`, and the code tables against the
RREF-based `grassmann.code_of`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContextMismatch, InvalidArgs
from .gfq import FieldCtx
from .subspaces import (
    IncidenceVector,
    PointIndex,
    SubspaceFamily,
    enumerate_k_subspaces,
    gaussian_binomial,
    incidence_block,
)

MODULAR_PRIME = 2**61 - 1


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


class ModularEliminator:
    """Incremental row reduction mod a fixed prime; rank is a lower bound
    on the rational rank, exact when it reaches min(rows, cols)."""

    def __init__(self, cols: int, p: int = MODULAR_PRIME):
        self.cols = cols
        self.p = p
        self.pivot_cols: list[int] = []
        self.pivot_rows: list[list[int]] = []  # normalized: 1 at pivot column

    def try_add(self, row) -> bool:
        p = self.p
        r = [x % p for x in row]
        for c, prow in zip(self.pivot_cols, self.pivot_rows):
            f = r[c]
            if f:
                r = [(x - f * y) % p for x, y in zip(r, prow)]
        for c, x in enumerate(r):
            if x:
                if x != 1:
                    inv = pow(x, p - 2, p)
                    r = [(inv * y) % p for y in r]
                self.pivot_cols.append(c)
                self.pivot_rows.append(r)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)


@dataclass(frozen=True)
class IncidenceMatrix:
    """0/1 rows: member i of the family against every projective point."""

    m: int
    N: int
    rows: tuple
    provenance: SubspaceFamily


def incidence_matrix(family: SubspaceFamily, idx: PointIndex | None = None) -> IncidenceMatrix:
    """Rows over the points in PointIndex order; idx, if given, must match."""
    if len(family) == 0:
        raise InvalidArgs("family is empty")
    first = family[0]
    if idx is not None and (idx.ctx != first.ctx or idx.n != first.n):
        raise ContextMismatch("family and point index disagree on (q, n)")
    block = incidence_block(family)
    rows = tuple(IncidenceVector(tuple(r)) for r in block.tolist())
    return IncidenceMatrix(len(family), block.shape[1], rows, family)


def _full_rank_target(M: IncidenceMatrix) -> int:
    return min(M.m, M.N)


def exact_rank(M: IncidenceMatrix, use_fast_path: bool = True) -> int:
    """Rank over the rationals.

    The modular pass runs first (when enabled) and is conclusive exactly
    when it reaches min(m, N); otherwise Bareiss decides.
    """
    target = _full_rank_target(M)
    if use_fast_path:
        mod = ModularEliminator(M.N)
        for iv in M.rows:
            if mod.try_add(iv.bits) and mod.rank == target:
                return target
    bar = BareissEliminator(M.N)
    for iv in M.rows:
        if bar.try_add(iv.bits) and bar.rank == target:
            return target
    return bar.rank


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
    b^(N-1) * (b + N*a)."""
    diag, offdiag = gram_closed_form(ctx, n, k)
    a_np = incidence_block(enumerate_k_subspaces(ctx, n, k), np.int64)
    gram = a_np.T @ a_np
    N = a_np.shape[1]
    expected = np.full((N, N), offdiag, dtype=np.int64)
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
