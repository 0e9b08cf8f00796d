"""Spreads, mixed partitions, and the resolving-set constructions.

Three constructions, all deterministic (no randomness, fixed tie-breaks):

* ``resolving_from_spread`` — when (k+1) | n: build a (k+1)-spread by field
  reduction and take all k-subspaces of every spread member.  The result
  has exactly [n 1]_q members.
* ``resolving_from_partition`` — otherwise: partition the nonzero vectors
  into (k+1)-subspaces W_i (a spread of the leading s = n - t coordinates)
  plus q^s further t-subspaces X_j (graphs of linear maps), fix a
  (k-t+1)-subspace Z inside W_1, and take all k-subspaces of every W_i and
  every X_j + Z, deduplicated.
* ``resolving_greedy_rank`` — scan all k-subspaces in canonical order and
  keep those whose incidence vector raises the exact rational rank, until
  the rank hits [n 1]_q.  The kept rows are the row rank profile of the
  full incidence matrix, certified by the multi-modular argument in
  `rank.row_rank_profile`.

Field reduction: V(n,q) is GF(q^t)^(n/t) coordinate-wise, so the points of
the big-field space expand to a t-spread; the expansion writes each big
coordinate in power-basis GF(q)-coordinates.  Every GF(q^t) product here
is one `gf_matmul` of such coordinate rows against the power-basis
matrices of `gfq.power_basis_matrices`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidArgs, InvalidShape, NotDivisor
from .gfq import FieldCtx, digit_rows, gf_matmul, power_basis_matrices
from .rank import row_rank_profile
from .subspaces import (
    Subspace,
    SubspaceFamily,
    bases_incidence_block,
    basis_keys,
    check_budget,
    check_graph_shape,
    enumerate_bases,
    gaussian_binomial,
    gf_rref,
    point_reps,
)


class MixedPartition(NamedTuple):
    """Nonzero vectors of V(n,q) split into (k+1)-subspaces and t-subspaces.

    spread_part holds the W_i — a (k+1)-spread of the leading s coordinates,
    embedded in V(n,q); tail_part holds the q^s graph subspaces X_j covering
    everything outside; Z is the fixed (k-t+1)-subspace inside W_1 used to
    fatten each X_j to dimension k+1.
    """

    ctx: FieldCtx
    n: int
    k: int
    s: int
    t: int
    spread_part: SubspaceFamily
    tail_part: SubspaceFamily
    Z: Subspace


def build_spread(ctx: FieldCtx, n: int, t: int) -> SubspaceFamily:
    """Field-reduction t-spread of V(n,q): t-subspaces partitioning its
    nonzero vectors; exists iff t divides n.  The rows y^j·w of member <w>,
    one `gf_matmul` of w's coordinates against the t power-basis matrices,
    are RREF: zero left of w's leading coordinate 1, the identity there."""
    if not 1 <= t <= n:
        raise InvalidArgs(f"need 1 <= t <= n, got n={n} t={t}")
    if n % t != 0:
        raise NotDivisor(f"t={t} does not divide n={n}")
    count = (ctx.q**n - 1) // (ctx.q**t - 1)
    check_budget(count, f"members of a {t}-spread of V({n},{ctx.q})")
    powers = power_basis_matrices(ctx, t)
    # (R, n/t, t): the GF(q)-coordinates of each big coordinate of each point
    reps = digit_rows(np.array(list(point_reps(ctx.q**t, n // t))), ctx.q, t)
    bases = gf_matmul(ctx, reps[:, None], powers).reshape(-1, t, n)
    fam = SubspaceFamily.from_bases(ctx, bases)
    assert len(fam) == count
    return fam


def _k_subspaces_in(ctx: FieldCtx, k: int, w: np.ndarray) -> SubspaceFamily:
    """The k-subspaces of each (k+1)-subspace with RREF basis in the
    (S, k+1, n) array w, deduplicated in first-seen order: C·W for the RREF
    bases C of the k-subspaces of the abstract V(k+1, q).  C·W is RREF
    already: W is the identity in its pivot columns, so there C·W reads C."""
    assert w.shape[1] == k + 1
    subs = gf_matmul(ctx, enumerate_bases(ctx, k + 1, k), w[:, None]).reshape(-1, k, w.shape[2])
    first = np.unique(basis_keys(subs), return_index=True)[1]
    return SubspaceFamily.from_bases(ctx, subs[np.sort(first)])


def resolving_from_spread(ctx: FieldCtx, n: int, k: int) -> SubspaceFamily:
    """All k-subspaces of every member of a (k+1)-spread; size [n 1]_q."""
    check_graph_shape(n, k)
    if n % (k + 1) != 0:
        raise NotDivisor(f"k+1={k + 1} does not divide n={n}")
    # [k+1 k]_q k-subspaces in each of the [n 1]_q / [k+1 1]_q members
    check_budget(gaussian_binomial(n, 1, ctx.q), f"{k}-subspaces")
    fam = _k_subspaces_in(ctx, k, build_spread(ctx, n, k + 1).bases)
    # spread members meet in 0, so none of their k-subspaces coincide
    assert len(fam) == gaussian_binomial(n, 1, ctx.q)
    return fam


def _partition_shape(n: int, k: int) -> tuple:
    """(s, t) with n = s + t, (k+1) | s and 0 < t < k+1; s > 0 because
    n >= 2k >= k+2."""
    check_graph_shape(n, k)
    t = n % (k + 1)
    if t == 0:
        raise InvalidShape(f"k+1={k + 1} divides n={n}; use the spread construction")
    return n - t, t


def build_mixed_partition(ctx: FieldCtx, n: int, k: int) -> MixedPartition:
    """Partition for n = r(k+1) + t with 0 < t < k+1.

    The tail subspaces are graphs of linear maps: identify the leading s
    coordinates with GF(q^s) and the trailing t with GF(q^t); for each
    a in GF(q^s) take X_a = {(a·iota(mu), mu) : mu in GF(q^t)}, where iota
    maps the power basis of GF(q^t) to the power basis of GF(q^s).  Distinct
    a give subspaces meeting only at 0, and every vector with a nonzero
    tail lies in exactly one X_a.
    """
    s, t = _partition_shape(n, k)
    # the GF(q^s) ceiling before the spread is built
    powers = power_basis_matrices(ctx, s)[:t]
    # a spread of V(s,q), zero-padded into the leading s coordinates
    w = np.pad(build_spread(ctx, s, k + 1).bases, ((0, 0), (0, 0), (0, t)))
    # row j of X_a: the coordinates of a·y^j, then those of y^j in GF(q^t)
    a = digit_rows(np.arange(ctx.q**s), ctx.q, s)[:, None, None]  # (q^s, 1, 1, s)
    graphs = gf_matmul(ctx, a, powers)[:, :, 0]  # (q^s, t, s)
    ids = np.broadcast_to(np.eye(t, dtype=np.uint8), (len(graphs), t, t))
    tail = gf_rref(ctx, np.concatenate([graphs, ids], axis=2))
    z = SubspaceFamily.from_bases(ctx, w[:1, :k - t + 1])[0]  # inside W_1
    return MixedPartition(ctx, n, k, s, t, SubspaceFamily.from_bases(ctx, w),
                          SubspaceFamily.from_bases(ctx, tail), z)


def resolving_from_partition(ctx: FieldCtx, n: int, k: int) -> SubspaceFamily:
    """k-subspaces of every W_i and every X_j + Z, deduplicated in first-seen
    order; for t = 1 the size is exactly [n 1]_q + q^(n-k) [k-1 1]_q."""
    q, s = ctx.q, _partition_shape(n, k)[0]
    # [k+1 k]_q k-subspaces in each W_i and each X_j + Z, before dedup
    blocks = (q**s - 1) // (q ** (k + 1) - 1) + q**s
    check_budget(blocks * gaussian_binomial(k + 1, 1, q), f"{k}-subspaces before dedup")
    part = build_mixed_partition(ctx, n, k)
    # X_j meets V(s,q) trivially and Z, the first k-t+1 rows of W_1, sits
    # inside it, so X_j + Z has dimension k+1
    w, x = part.spread_part.bases, part.tail_part.bases
    z = np.broadcast_to(w[0, :k - part.t + 1], (len(x), k - part.t + 1, n))
    fattened = gf_rref(ctx, np.concatenate([x, z], axis=1))
    fam = _k_subspaces_in(ctx, k, np.concatenate([w, fattened]))
    if part.t == 1:
        expected = gaussian_binomial(n, 1, q) + q ** (n - k) * gaussian_binomial(k - 1, 1, q)
        assert len(fam) == expected
    return fam


def resolving_greedy_rank(ctx: FieldCtx, n: int, k: int) -> SubspaceFamily:
    """Keep each k-subspace (canonical order) whose incidence vector raises
    the exact rational rank; stops at full rank [n 1]_q."""
    check_graph_shape(n, k)
    target = gaussian_binomial(n, 1, ctx.q)
    bases = enumerate_bases(ctx, n, k)
    keep = row_rank_profile(bases_incidence_block(ctx, bases))
    assert len(keep) == target  # the full incidence matrix has rank [n 1]_q
    return SubspaceFamily.from_bases(ctx, bases[keep])
