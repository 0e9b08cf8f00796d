"""The acceptance grid: eleven self-contained checks over fixed instances.

Each criterion is a check over its instances, and one runner, the
`_criterion` decorator, times it, runs the check on every instance and
returns a CriterionResult with enough detail to diagnose a failure.  The
CLI `accept` command prints these as a table; the test suite asserts each
one individually.  Expected constants here were derived independently
(by hand or from the closed formulas) before the implementation existed.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from typing import NamedTuple

import numpy as np

from .bounds import babai_general, babai_strong, compare, lower_bound
from .constructions import (
    build_spread,
    resolving_from_partition,
    resolving_from_spread,
    resolving_greedy_rank,
)
from .gfq import field_new
from .grassmann import GrassmannGraph, bfs_distances_from, is_resolving
from .rank import (
    BareissEliminator,
    certify_resolving_by_rank,
    exact_rank,
    incidence_matrix,
    verify_gram,
)
from .search import metric_dimension_exact, metric_dimension_from_distances
from .subspaces import (
    SubspaceFamily,
    bases_point_ordinals,
    enumerate_bases,
    gaussian_binomial,
)

RANK_GRID = [
    ((2, 4, 2), 15),
    ((2, 5, 2), 31),
    ((2, 6, 2), 63),
    ((2, 6, 3), 63),
    ((3, 4, 2), 40),
    ((3, 5, 2), 121),
    ((4, 4, 2), 85),
]

SPREAD_GRID = [
    ((2, 4, 2), 5),
    ((2, 6, 3), 9),
    ((3, 4, 2), 10),
    ((2, 6, 2), 21),
]

GREEDY_GRID = [(2, 4, 2), (2, 5, 2), (3, 4, 2)]

CONSTRUCT_GRID = [
    ("spread", 2, 6, 2),
    ("spread", 3, 6, 2),
    ("partition", 2, 4, 2),
    ("partition", 3, 4, 2),
    ("partition", 2, 5, 2),
    ("greedy", 2, 4, 2),
    ("greedy", 2, 5, 2),
    ("greedy", 3, 4, 2),
]


class CriterionResult(NamedTuple):
    num: int
    title: str
    passed: bool
    elapsed: float
    details: dict

    def to_json(self) -> dict:
        return {
            "num": self.num,
            "title": self.title,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "details": self.details,
        }


def _criterion(num, title, instances=None, **notes):
    """Criterion `num` of the check it decorates, timed whole: the check
    gives (good, detail) per `key: args` instance, each detail goes under
    its key and the notes after them, and all must be good.  With no
    instances, `check()` runs once and its detail is the whole details."""
    def criterion(check):
        def run() -> CriterionResult:
            started = time.perf_counter()
            if instances is None:
                ok, details = check()
            else:
                checked = {key: check(*args) for key, args in instances.items()}
                ok = all(good for good, _ in checked.values())
                details = {key: detail for key, (_, detail) in checked.items()} | notes
            return CriterionResult(num, title, ok, time.perf_counter() - started, details)

        return run

    return criterion


def _bareiss_rank(M) -> int:
    """Rational rank by fraction-free Bareiss elimination alone."""
    bar = BareissEliminator(M.N)
    for row in M.rows.tolist():
        if bar.try_add(row) and bar.rank == min(M.m, M.N):
            break
    return bar.rank


@_criterion(1, "full incidence rank grid",
            {f"{q},{n},{k}": (q, n, k, want) for (q, n, k), want in RANK_GRID},
            targets="informational: <5s fast total, <60s bareiss total")
def criterion_1(q, n, k, want):
    """Full-incidence rank equals [n 1]_q on the grid, both rank paths."""
    ctx = field_new(q)
    fam = SubspaceFamily.from_bases(ctx, enumerate_bases(ctx, n, k))
    M = incidence_matrix(fam)
    t_fast = time.perf_counter()
    r_fast = exact_rank(M)
    t_fast = time.perf_counter() - t_fast
    t_bar = time.perf_counter()
    r_bar = _bareiss_rank(M)
    t_bar = time.perf_counter() - t_bar
    return r_fast == r_bar == want == gaussian_binomial(n, 1, q), {
        "rank_fast": r_fast,
        "rank_bareiss": r_bar,
        "expected": want,
        "fast_s": round(t_fast, 3),
        "bareiss_s": round(t_bar, 3),
    }


@_criterion(2, "gram closed form grid",
            {f"{q},{n},{k}": (q, n, k) for (q, n, k), _ in RANK_GRID})
def criterion_2(q, n, k):
    """Gram matrix closed form holds entrywise on the grid."""
    good = verify_gram(field_new(q), n, k)
    return good, good


# the criterion text quotes 33880 vertices for (3,6,2); [6 2]_3 is
# actually 11011 (33880 counts 3-subspaces) — both size and full
# verification are checked against the true vertex set
@_criterion(3, "spread construction resolving",
            {"2,6,2": (2, 6, 2, 63), "3,6,2": (3, 6, 2, 364)}, note="[6 2]_3 = 11011")
def criterion_3(q, n, k, want_size):
    """Spread-route families: exact size [n 1]_q and resolving."""
    ctx = field_new(q)
    fam = resolving_from_spread(ctx, n, k)
    g = GrassmannGraph(ctx, n, k)
    verdict = is_resolving(fam, g)
    return len(fam) == want_size and verdict.resolving, {
        "size": len(fam),
        "expected_size": want_size,
        "vertices": len(g),
        "resolving": verdict.resolving,
    }


@_criterion(4, "partition construction, t=1",
            {"2,4,2": (2, 4, 2, 19), "3,4,2": (3, 4, 2, 49)})
def criterion_4(q, n, k, want_size):
    """t=1 partition route: exact sizes 19 and 49, both resolving."""
    ctx = field_new(q)
    fam = resolving_from_partition(ctx, n, k)
    g = GrassmannGraph(ctx, n, k)
    verdict = is_resolving(fam, g)
    return len(fam) == want_size and verdict.resolving, {
        "size": len(fam),
        "expected_size": want_size,
        "resolving": verdict.resolving,
    }


@_criterion(5, "partition construction, t=2")
def criterion_5():
    """t=2 partition route at (2,5,2): resolving, size within the bound."""
    ctx = field_new(2)
    fam = resolving_from_partition(ctx, 5, 2)
    g = GrassmannGraph(ctx, 5, 2)
    verdict = is_resolving(fam, g)
    cap = gaussian_binomial(8, 1, 2)  # [s + k+1, 1]_q with s=3
    return verdict.resolving and len(fam) <= cap and len(g) == 155, {
        "size": len(fam), "cap": cap, "vertices": len(g),
        "resolving": verdict.resolving}


@_criterion(6, "greedy rank construction",
            {f"{q},{n},{k}": (q, n, k) for q, n, k in GREEDY_GRID})
def criterion_6(q, n, k):
    """Greedy rank construction: exact size, resolving, rank-certified."""
    ctx = field_new(q)
    fam = resolving_greedy_rank(ctx, n, k)
    want = gaussian_binomial(n, 1, q)
    g = GrassmannGraph(ctx, n, k)
    verdict = is_resolving(fam, g)
    cert = certify_resolving_by_rank(fam)
    return len(fam) == want and verdict.resolving and cert.certified, {
        "size": len(fam),
        "expected_size": want,
        "resolving": verdict.resolving,
        "rank_certified": cert.certified,
    }


@_criterion(7, "spread axioms",
            {f"{q},{n},t={t}": (q, n, t, count) for (q, n, t), count in SPREAD_GRID})
def criterion_7(q, n, t, want_count):
    """Spread axioms, exhaustively: unique cover and trivial intersections.

    Scaling keeps a vector in a subspace, so both axioms are statements
    about the [n 1]_q points: each lies in exactly one member (unique
    cover) and in at most one (members pairwise trivial).  One bincount of
    the members' point ordinals counts the members through every point."""
    ctx = field_new(q)
    fam = build_spread(ctx, n, t)
    through = np.bincount(bases_point_ordinals(ctx, fam.bases).ravel(),
                          minlength=gaussian_binomial(n, 1, q))
    cover_ok = bool((through == 1).all())
    pair_ok = bool((through <= 1).all())
    return len(fam) == want_count and cover_ok and pair_ok, {
        "members": len(fam),
        "expected": want_count,
        "unique_cover": cover_ok,
        "pairwise_trivial": pair_ok,
    }


@_criterion(8, "bfs distance oracle", {"2,4,2": (2, 4, 2), "2,5,2": (2, 5, 2)})
def criterion_8(q, n, k):
    """BFS distances equal k - dim(intersection) for every pair; diameter k."""
    ctx = field_new(q)
    g = GrassmannGraph(ctx, n, k)
    rows = g.distance_rows()
    mismatches = 0
    diameter = 0
    for src in range(len(g)):
        bfs_row = np.array(bfs_distances_from(g, src))
        mismatches += int(np.count_nonzero(bfs_row != rows[src]))
        diameter = max(diameter, int(bfs_row.max()))
    return mismatches == 0 and diameter == k, {
        "pairs": len(g) * (len(g) - 1) // 2,
        "mismatches": mismatches,
        "diameter": diameter,
    }


@_criterion(9, "exact metric dimension oracle")
def criterion_9():
    """Exact metric dimension of G_2(4,2): bounded, resolving, minimal, and
    equal to the unreduced search (the oracle for the two-landmark one)."""
    ctx = field_new(2)
    g = GrassmannGraph(ctx, 4, 2)
    mu, witness = metric_dimension_exact(g)
    mu_unreduced, _ = metric_dimension_from_distances(g.distance_rows())
    lo = math.ceil(math.log2(35)) - 1
    in_range = lo <= mu <= 15
    resolving = is_resolving(witness, g).resolving
    minimal = all(
        not is_resolving(
            SubspaceFamily.from_bases(ctx, np.delete(witness.bases, i, axis=0)), g
        ).resolving
        for i in range(len(witness))
    )
    return in_range and resolving and minimal and mu == mu_unreduced, {
        "mu": mu,
        "mu_unreduced": mu_unreduced,
        "range": [lo, 15],
        "witness_resolving": resolving,
        "witness_minimal": minimal,
        "witness_ordinals": g.ordinals(witness.bases).tolist(),
    }


@_criterion(10, "bounds table")
def criterion_10():
    """Pinned bound values at (2,4,2); constructive beats general for k>2."""
    bs, big_m, arg = babai_strong(2, 4, 2)
    bg = babai_general(2, 4, 2)
    lb = lower_bound(2, 4, 2)
    pinned = (
        big_m == 18
        and arg == 1
        and abs(bs - 29.3) <= 0.1
        and abs(bg - 84.1) <= 0.1
        and lb == 5
    )
    flags = {}
    flags_ok = True
    for (q, n, k), _ in RANK_GRID:
        rep = compare(q, n, k)
        flags[f"{q},{n},{k}"] = rep.constructive_below_general
        if k > 2 and not rep.constructive_below_general:
            flags_ok = False
    return pinned and flags_ok, {
        "babai_M": big_m,
        "argmax_j": arg,
        "babai_strong": round(bs, 4),
        "babai_general": round(bg, 4),
        "lower": lb,
        "constructive_below_general": flags,
    }


@_criterion(11, "construct determinism",
            {f"{m} {q},{n},{k}": (m, q, n, k) for m, q, n, k in CONSTRUCT_GRID})
def criterion_11(method, q, n, k):
    """`construct` emits byte-identical output on consecutive runs."""
    from . import cli

    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["construct", method, str(q), str(n), str(k)])
        assert code == 0
        outs.append(buf.getvalue())
    same = outs[0] == outs[1] and len(outs[0]) > 0
    return same, "identical" if same else "DIFFERS"


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]


def run_all() -> list:
    return [fn() for fn in ALL_CRITERIA]
