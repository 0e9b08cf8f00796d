"""The acceptance grid: eleven self-contained checks over fixed instances.

Each criterion function runs its instances, measures wall time, and
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
from dataclasses import dataclass, field

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
from .linalg import intersect_dim
from .rank import (
    BareissEliminator,
    certify_resolving_by_rank,
    exact_rank,
    incidence_matrix,
    verify_gram,
)
from .search import metric_dimension_exact, metric_dimension_from_distances
from .subspaces import SubspaceFamily, enumerate_bases, gaussian_binomial

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


@dataclass
class CriterionResult:
    num: int
    title: str
    passed: bool
    elapsed: float
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "num": self.num,
            "title": self.title,
            "passed": self.passed,
            "elapsed": round(self.elapsed, 3),
            "details": self.details,
        }


def _result(num, title, started, ok, details) -> CriterionResult:
    return CriterionResult(num, title, ok, time.perf_counter() - started, details)


def _bareiss_rank(M) -> int:
    """Rational rank by fraction-free Bareiss elimination alone."""
    bar = BareissEliminator(M.N)
    for row in M.rows.tolist():
        if bar.try_add(row) and bar.rank == min(M.m, M.N):
            break
    return bar.rank


def criterion_1() -> CriterionResult:
    """Full-incidence rank equals [n 1]_q on the grid, both rank paths."""
    t0 = time.perf_counter()
    details = {}
    ok = True
    for (q, n, k), want in RANK_GRID:
        ctx = field_new(q)
        fam = SubspaceFamily.from_bases(ctx, enumerate_bases(ctx, n, k))
        M = incidence_matrix(fam)
        t_fast = time.perf_counter()
        r_fast = exact_rank(M)
        t_fast = time.perf_counter() - t_fast
        t_bar = time.perf_counter()
        r_bar = _bareiss_rank(M)
        t_bar = time.perf_counter() - t_bar
        good = r_fast == r_bar == want == gaussian_binomial(n, 1, q)
        ok = ok and good
        details[f"{q},{n},{k}"] = {
            "rank_fast": r_fast,
            "rank_bareiss": r_bar,
            "expected": want,
            "fast_s": round(t_fast, 3),
            "bareiss_s": round(t_bar, 3),
        }
    details["targets"] = "informational: <5s fast total, <60s bareiss total"
    return _result(1, "full incidence rank grid", t0, ok, details)


def criterion_2() -> CriterionResult:
    """Gram matrix closed form holds entrywise on the grid."""
    t0 = time.perf_counter()
    details = {}
    ok = True
    for (q, n, k), _ in RANK_GRID:
        good = verify_gram(field_new(q), n, k)
        ok = ok and good
        details[f"{q},{n},{k}"] = good
    return _result(2, "gram closed form grid", t0, ok, details)


def criterion_3() -> CriterionResult:
    """Spread-route families: exact size [n 1]_q and resolving."""
    t0 = time.perf_counter()
    details = {}
    ok = True
    for q, n, k, want_size in [(2, 6, 2, 63), (3, 6, 2, 364)]:
        ctx = field_new(q)
        fam = resolving_from_spread(ctx, n, k)
        g = GrassmannGraph(ctx, n, k)
        verdict = is_resolving(fam, g)
        good = len(fam) == want_size and verdict.resolving
        ok = ok and good
        details[f"{q},{n},{k}"] = {
            "size": len(fam),
            "expected_size": want_size,
            "vertices": len(g),
            "resolving": verdict.resolving,
        }
    # the criterion text quotes 33880 vertices for (3,6,2); [6 2]_3 is
    # actually 11011 (33880 counts 3-subspaces) — both size and full
    # verification are checked against the true vertex set
    details["note"] = "[6 2]_3 = 11011"
    return _result(3, "spread construction resolving", t0, ok, details)


def criterion_4() -> CriterionResult:
    """t=1 partition route: exact sizes 19 and 49, both resolving."""
    t0 = time.perf_counter()
    details = {}
    ok = True
    for q, n, k, want_size in [(2, 4, 2, 19), (3, 4, 2, 49)]:
        ctx = field_new(q)
        fam = resolving_from_partition(ctx, n, k)
        g = GrassmannGraph(ctx, n, k)
        verdict = is_resolving(fam, g)
        good = len(fam) == want_size and verdict.resolving
        ok = ok and good
        details[f"{q},{n},{k}"] = {
            "size": len(fam),
            "expected_size": want_size,
            "resolving": verdict.resolving,
        }
    return _result(4, "partition construction, t=1", t0, ok, details)


def criterion_5() -> CriterionResult:
    """t=2 partition route at (2,5,2): resolving, size within the bound."""
    t0 = time.perf_counter()
    ctx = field_new(2)
    fam = resolving_from_partition(ctx, 5, 2)
    g = GrassmannGraph(ctx, 5, 2)
    verdict = is_resolving(fam, g)
    cap = gaussian_binomial(8, 1, 2)  # [s + k+1, 1]_q with s=3
    ok = verdict.resolving and len(fam) <= cap and len(g) == 155
    details = {"size": len(fam), "cap": cap, "vertices": len(g),
               "resolving": verdict.resolving}
    return _result(5, "partition construction, t=2", t0, ok, details)


def criterion_6() -> CriterionResult:
    """Greedy rank construction: exact size, resolving, rank-certified."""
    t0 = time.perf_counter()
    details = {}
    ok = True
    for q, n, k in GREEDY_GRID:
        ctx = field_new(q)
        fam = resolving_greedy_rank(ctx, n, k)
        want = gaussian_binomial(n, 1, q)
        g = GrassmannGraph(ctx, n, k)
        verdict = is_resolving(fam, g)
        cert = certify_resolving_by_rank(fam)
        good = len(fam) == want and verdict.resolving and cert.certified
        ok = ok and good
        details[f"{q},{n},{k}"] = {
            "size": len(fam),
            "expected_size": want,
            "resolving": verdict.resolving,
            "rank_certified": cert.certified,
        }
    return _result(6, "greedy rank construction", t0, ok, details)


def criterion_7() -> CriterionResult:
    """Spread axioms, exhaustively: unique cover and trivial intersections."""
    from itertools import product

    t0 = time.perf_counter()
    details = {}
    ok = True
    for (q, n, t), want_count in SPREAD_GRID:
        ctx = field_new(q)
        members = list(build_spread(ctx, n, t))
        cover_ok = True
        for v in product(range(q), repeat=n):
            if not any(v):
                continue
            if sum(1 for m in members if m.contains(v)) != 1:
                cover_ok = False
                break
        pair_ok = all(
            intersect_dim(members[i].basis, members[j].basis) == 0
            for i in range(len(members))
            for j in range(i + 1, len(members))
        )
        good = len(members) == want_count and cover_ok and pair_ok
        ok = ok and good
        details[f"{q},{n},t={t}"] = {
            "members": len(members),
            "expected": want_count,
            "unique_cover": cover_ok,
            "pairwise_trivial": pair_ok,
        }
    return _result(7, "spread axioms", t0, ok, details)


def criterion_8() -> CriterionResult:
    """BFS distances equal k - dim(intersection) for every pair; diameter k."""
    t0 = time.perf_counter()
    details = {}
    ok = True
    for q, n, k in [(2, 4, 2), (2, 5, 2)]:
        ctx = field_new(q)
        g = GrassmannGraph(ctx, n, k)
        rows = g.distance_rows()
        mismatches = 0
        diameter = 0
        for src in range(len(g)):
            bfs_row = np.array(bfs_distances_from(g, src))
            mismatches += int(np.count_nonzero(bfs_row != rows[src]))
            diameter = max(diameter, int(bfs_row.max()))
        good = mismatches == 0 and diameter == k
        ok = ok and good
        details[f"{q},{n},{k}"] = {
            "pairs": len(g) * (len(g) - 1) // 2,
            "mismatches": mismatches,
            "diameter": diameter,
        }
    return _result(8, "bfs distance oracle", t0, ok, details)


def criterion_9() -> CriterionResult:
    """Exact metric dimension of G_2(4,2): bounded, resolving, minimal, and
    equal to the unreduced search (the oracle for the two-landmark one)."""
    t0 = time.perf_counter()
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
    ok = in_range and resolving and minimal and mu == mu_unreduced
    details = {
        "mu": mu,
        "mu_unreduced": mu_unreduced,
        "range": [lo, 15],
        "witness_resolving": resolving,
        "witness_minimal": minimal,
        "witness_ordinals": g.ordinals(witness.bases).tolist(),
    }
    return _result(9, "exact metric dimension oracle", t0, ok, details)


def criterion_10() -> CriterionResult:
    """Pinned bound values at (2,4,2); constructive beats general for k>2."""
    t0 = time.perf_counter()
    bs, big_m, arg = babai_strong(2, 4, 2)
    bg = babai_general(2, 4, 2)
    lb = lower_bound(2, 4, 2)
    pinned = (
        big_m == 18
        and arg == 1
        and abs(bs - 29.3) <= 0.1
        and abs(bg - 84.1) <= 0.1
        and abs(lb - 5.13) <= 0.01
    )
    flags = {}
    flags_ok = True
    for (q, n, k), _ in RANK_GRID:
        rep = compare(q, n, k)
        flags[f"{q},{n},{k}"] = rep.constructive_below_general
        if k > 2 and not rep.constructive_below_general:
            flags_ok = False
    ok = pinned and flags_ok
    details = {
        "babai_M": big_m,
        "argmax_j": arg,
        "babai_strong": round(bs, 4),
        "babai_general": round(bg, 4),
        "lower": round(lb, 4),
        "constructive_below_general": flags,
    }
    return _result(10, "bounds table", t0, ok, details)


def criterion_11() -> CriterionResult:
    """`construct` emits byte-identical output on consecutive runs."""
    from . import cli

    t0 = time.perf_counter()
    details = {}
    ok = True
    for method, q, n, k in CONSTRUCT_GRID:
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["construct", method, str(q), str(n), str(k)])
            assert code == 0
            outs.append(buf.getvalue())
        same = outs[0] == outs[1] and len(outs[0]) > 0
        ok = ok and same
        details[f"{method} {q},{n},{k}"] = "identical" if same else "DIFFERS"
    return _result(11, "construct determinism", t0, ok, details)


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
