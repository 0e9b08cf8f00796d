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
coordinate in power-basis GF(q)-coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, InvalidArgs, InvalidShape, NotDivisor
from .gfq import ExtensionField, FieldCtx
from .linalg import MatGFq, mat_mul
from .rank import row_rank_profile
from .subspaces import (
    Subspace,
    SubspaceFamily,
    bases_incidence_block,
    enumerate_bases,
    enumerate_k_subspaces,
    enumeration_budget,
    gaussian_binomial,
    point_reps,
    subspaces_from_bases,
)


@dataclass(frozen=True)
class Spread:
    """t-subspaces partitioning the nonzero vectors of V(n,q)."""

    ctx: FieldCtx
    n: int
    t: int
    members: SubspaceFamily


@dataclass(frozen=True)
class MixedPartition:
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


def _check_budget(count: int, what: str):
    budget = enumeration_budget()
    if count > budget:
        raise BudgetExceeded(f"{count} {what} exceed budget {budget}")


def build_spread(ctx: FieldCtx, n: int, t: int) -> Spread:
    """Field-reduction t-spread of V(n,q); exists iff t divides n."""
    if n % t != 0:
        raise NotDivisor(f"t={t} does not divide n={n}")
    count = (ctx.q**n - 1) // (ctx.q**t - 1)
    _check_budget(count, f"members of a {t}-spread of V({n},{ctx.q})")
    ext = ExtensionField(ctx, t)
    members = []
    for rep in point_reps(ext.order, n // t):
        rows = []
        for j in range(t):
            lam = ext.from_coords([0] * j + [1])  # j-th power basis element
            row = []
            for w in rep:
                row.extend(ext.coords(ext.mul(lam, w)))
            rows.append(tuple(row))
        sub = Subspace.from_rows(ctx, n, rows)
        assert sub.dim == t
        members.append(sub)
    fam = SubspaceFamily(members)
    assert len(fam) == count
    return Spread(ctx, n, t, fam)


def _k_subspaces_of(u: Subspace, coeff_subs) -> list:
    """All k-subspaces of a (k+1)-dimensional subspace u, via coefficient
    subspaces of the abstract V(k+1, q) mapped through u's basis."""
    out = []
    for s in coeff_subs:
        m = mat_mul(s.basis, u.basis)
        out.append(Subspace.from_rows(u.ctx, u.n, m.data))
    return out


def resolving_from_spread(ctx: FieldCtx, n: int, k: int) -> SubspaceFamily:
    """All k-subspaces of every member of a (k+1)-spread; size [n 1]_q."""
    if not (2 <= k and 2 * k <= n):
        raise InvalidArgs(f"need 2 <= k <= n/2, got n={n} k={k}")
    if n % (k + 1) != 0:
        raise NotDivisor(f"k+1={k + 1} does not divide n={n}")
    # [k+1 k]_q k-subspaces in each of the [n 1]_q / [k+1 1]_q members
    _check_budget(gaussian_binomial(n, 1, ctx.q), f"{k}-subspaces")
    spread = build_spread(ctx, n, k + 1)
    coeff_subs = enumerate_k_subspaces(ctx, k + 1, k)
    members = []
    for w in spread.members:
        members.extend(_k_subspaces_of(w, coeff_subs))
    fam = SubspaceFamily(members)  # rejects duplicates: spread members meet in 0
    assert len(fam) == gaussian_binomial(n, 1, ctx.q)
    return fam


def _embed_leading(sub: Subspace, n: int) -> Subspace:
    """Reinterpret a subspace of V(s,q) inside the first s coordinates of
    V(n,q); RREF is preserved by zero-padding."""
    rows = tuple(r + (0,) * (n - sub.n) for r in sub.basis.data)
    return Subspace(sub.ctx, n, MatGFq(sub.ctx, sub.dim, n, rows), sub.pivots)


def _partition_shape(n: int, k: int) -> tuple:
    """(s, t) with n = s + t, (k+1) | s and 0 < t < k+1; s > 0 because
    n >= 2k >= k+2."""
    if not (2 <= k and 2 * k <= n):
        raise InvalidArgs(f"need 2 <= k <= n/2, got n={n} k={k}")
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
    ext_s = ExtensionField(ctx, s)
    spread_s = build_spread(ctx, s, k + 1)
    w_members = SubspaceFamily(_embed_leading(w, n) for w in spread_s.members)
    tail = []
    for a in range(ext_s.order):
        rows = []
        for j in range(t):
            head = ext_s.coords(ext_s.mul(a, ext_s.from_coords([0] * j + [1])))
            tail_coords = [0] * t
            tail_coords[j] = 1
            rows.append(tuple(head) + tuple(tail_coords))
        sub = Subspace.from_rows(ctx, n, rows)
        assert sub.dim == t
        tail.append(sub)
    w1 = w_members[0]
    z_rows = w1.basis.data[: k - t + 1]
    z = Subspace(ctx, n, MatGFq(ctx, k - t + 1, n, z_rows), w1.pivots[: k - t + 1])
    return MixedPartition(ctx, n, k, s, t, w_members, SubspaceFamily(tail), z)


def resolving_from_partition(ctx: FieldCtx, n: int, k: int) -> SubspaceFamily:
    """k-subspaces of every W_i and every X_j + Z, deduplicated in first-seen
    order; for t = 1 the size is exactly [n 1]_q + q^(n-k) [k-1 1]_q."""
    q, s = ctx.q, _partition_shape(n, k)[0]
    # [k+1 k]_q k-subspaces in each W_i and each X_j + Z, before dedup
    blocks = (q**s - 1) // (q ** (k + 1) - 1) + q**s
    _check_budget(blocks * gaussian_binomial(k + 1, 1, q), f"{k}-subspaces before dedup")
    part = build_mixed_partition(ctx, n, k)
    coeff_subs = enumerate_k_subspaces(ctx, k + 1, k)
    seen = set()
    out = []

    def add(sub: Subspace):
        if sub.basis.data not in seen:
            seen.add(sub.basis.data)
            out.append(sub)

    for w in part.spread_part:
        for sub in _k_subspaces_of(w, coeff_subs):
            add(sub)
    for x in part.tail_part:
        y = Subspace.from_rows(ctx, n, x.basis.data + part.Z.basis.data)
        assert y.dim == k + 1  # X_j meets V(s,q) trivially and Z sits inside it
        for sub in _k_subspaces_of(y, coeff_subs):
            add(sub)
    fam = SubspaceFamily(out)
    if part.t == 1:
        expected = gaussian_binomial(n, 1, q) + q ** (n - k) * gaussian_binomial(k - 1, 1, q)
        assert len(fam) == expected
    return fam


def resolving_greedy_rank(ctx: FieldCtx, n: int, k: int) -> SubspaceFamily:
    """Keep each k-subspace (canonical order) whose incidence vector raises
    the exact rational rank; stops at full rank [n 1]_q."""
    if not (2 <= k and 2 * k <= n):
        raise InvalidArgs(f"need 2 <= k <= n/2, got n={n} k={k}")
    target = gaussian_binomial(n, 1, ctx.q)
    bases = enumerate_bases(ctx, n, k)
    keep = row_rank_profile(bases_incidence_block(ctx, bases))
    assert len(keep) == target  # the full incidence matrix has rank [n 1]_q
    return SubspaceFamily(subspaces_from_bases(ctx, bases[keep]))
