"""Exact and greedy metric dimension for small graphs.

A family S resolves the graph iff for every vertex pair {u,w} some member
v has d(u,v) != d(w,v) — so minimum resolving set = minimum hitting set
over the per-pair "distinguisher" sets.  The exact solver is branch and
bound on that formulation: a greedy cover seeds the upper bound, a
pairwise-disjoint packing of uncovered sets gives the lower bound, and
branching always expands the uncovered set with the fewest candidates
(every solution must hit it, so this is complete).  Vertex sets are kept
as Python int bitmasks; everything is deterministic, smallest ordinal
first.

On a Grassmann graph the exact search fixes two landmarks first.  The
graph is distance-transitive (Brouwer–Cohen–Neumaier, *Distance-Regular
Graphs*, §9.3): any two vertex pairs at the same distance j are swapped
by an automorphism.  With 2 <= k <= n/2 the diameter is k and no single
vertex resolves (two adjacent vertices lie on a clique of q+1 >= 3
vertices, and a lone landmark sees two of them at the same distance), so
a minimum resolving set has two members s, t with d(s,t) = j for some
j in 1..k, and an automorphism carries them to vertex 0 and r_j, the
smallest ordinal at distance j from vertex 0.  So mu is 2 plus the
smallest hitting set, over j, of the pairs {0, r_j} leave unseparated;
ties go to the smallest j.  `metric_dimension_from_distances`, for an
arbitrary distance table, stays the unreduced search and serves as the
oracle for the reduction.

The greedy variant is partition refinement: repeatedly add the vertex
whose distance classes split the most currently-unresolved pairs.  It
needs only the distance table and scales to a few thousand vertices.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded
from .grassmann import GrassmannGraph
from .subspaces import SubspaceFamily

DEFAULT_EXACT_LIMIT = 120


def pair_distinguishers(dist_rows) -> list:
    """Bitmask of distinguishing vertices for each pair {u,w}, u < w, in
    lexicographic pair order."""
    nv = len(dist_rows)
    out = []
    for u in range(nv):
        ru = dist_rows[u]
        for w in range(u + 1, nv):
            rw = dist_rows[w]
            m = 0
            for v in range(nv):
                if ru[v] != rw[v]:
                    m |= 1 << v
            out.append(m)
    return out


def _popcount(x: int) -> int:
    return bin(x).count("1")


def _greedy_cover(sets: list, nv: int) -> list:
    """Cheap feasible hitting set: repeatedly take the vertex in the most
    uncovered sets (smallest ordinal on ties)."""
    uncovered = list(sets)
    chosen = []
    while uncovered:
        counts = [0] * nv
        for m in uncovered:
            while m:
                low = m & -m
                counts[low.bit_length() - 1] += 1
                m ^= low
        best = max(range(nv), key=lambda v: counts[v])
        chosen.append(best)
        bit = 1 << best
        uncovered = [m for m in uncovered if not m & bit]
    return chosen


def _packing_bound(uncovered: list) -> int:
    """Number of pairwise-disjoint uncovered sets — a hitting-set lower
    bound; greedy over ascending popcount."""
    used = 0
    count = 0
    for m in sorted(uncovered, key=_popcount):
        if not m & used:
            used |= m
            count += 1
    return count


def minimum_hitting_set(sets: list, nv: int) -> tuple:
    """(size, sorted vertex list) of a minimum hitting set; deterministic."""
    sets = [m for m in sets if m]  # empty sets are unhittable; caller guards
    best = _greedy_cover(sets, nv)
    best_size = len(best)

    def rec(chosen: list, chosen_mask: int, uncovered: list):
        nonlocal best, best_size
        if not uncovered:
            if len(chosen) < best_size:
                best, best_size = list(chosen), len(chosen)
            return
        if len(chosen) + _packing_bound(uncovered) >= best_size:
            return
        branch = min(uncovered, key=_popcount)
        m = branch
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            bit = 1 << v
            chosen.append(v)
            rec(chosen, chosen_mask | bit, [s for s in uncovered if not s & bit])
            chosen.pop()

    rec([], 0, sets)
    return best_size, sorted(best)


def _check_limit(nv: int, limit: int):
    if nv > limit:
        raise BudgetExceeded(f"{nv} vertices exceed exact-search limit {limit}")


def metric_dimension_from_distances(dist_rows, limit: int = DEFAULT_EXACT_LIMIT) -> tuple:
    """Exact metric dimension of any graph given its distance table."""
    nv = len(dist_rows)
    _check_limit(nv, limit)
    if nv <= 1:
        return 0, []
    sets = pair_distinguishers(dist_rows)
    assert all(sets), "some pair is indistinguishable by every vertex"
    return minimum_hitting_set(sets, nv)


def _two_landmark_dimension(dist_rows) -> tuple:
    """Exact (mu, sorted ordinals) of a distance-transitive graph that no
    single vertex resolves: landmarks 0 and r_j fixed, one branch and bound
    per distance class j of row 0 (see the module docstring)."""
    nv, row0 = len(dist_rows), list(dist_rows[0])
    sets = pair_distinguishers(dist_rows)
    assert all(sets), "some pair is indistinguishable by every vertex"
    best = None
    for j in sorted(set(row0) - {0}):
        r = row0.index(j)
        fixed = 1 | 1 << r
        size, picks = minimum_hitting_set([m for m in sets if not m & fixed], nv)
        if best is None or size + 2 < best[0]:
            best = (size + 2, sorted([0, r, *picks]))
    return best


def metric_dimension_exact(g: GrassmannGraph, limit: int = DEFAULT_EXACT_LIMIT) -> tuple:
    """(mu, witness family), exact.

    Branch and bound runs once per distance class j = 1..k, with vertex 0
    and r_j (the smallest ordinal at distance j from it) fixed as landmarks.
    That loses nothing: G_q(n,k) is distance-transitive and no single vertex
    resolves it, so an automorphism carries two members of any minimum
    resolving set onto some {0, r_j}.  Ties go to the smallest j, so the
    witness is deterministic.  `metric_dimension_from_distances` stays the
    unreduced search for arbitrary graphs."""
    _check_limit(len(g), limit)
    mu, ords = _two_landmark_dimension(g.distance_rows())
    return mu, SubspaceFamily(g.vertices[i] for i in ords)


def metric_dimension_greedy(g: GrassmannGraph) -> SubspaceFamily:
    """Partition-refinement greedy; the result is resolving by construction."""
    rows = g.distance_rows()
    nv = len(rows)
    dist = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(nv, nv).astype(np.int64)
    spread_of = g.k + 1  # distances lie in [0, k]
    class_ids = np.zeros(nv, dtype=np.int64)

    def unsplit_pairs(ids) -> int:
        sizes = np.bincount(ids)
        return int((sizes * (sizes - 1) // 2).sum())

    chosen = []
    while unsplit_pairs(class_ids) > 0:
        best_v, best_pairs, best_ids = -1, None, None
        for v in range(nv):
            keys = class_ids * spread_of + dist[:, v]
            _, new_ids = np.unique(keys, return_inverse=True)
            p = unsplit_pairs(new_ids)
            if best_pairs is None or p < best_pairs:
                best_v, best_pairs, best_ids = v, p, new_ids
        assert best_pairs < unsplit_pairs(class_ids)  # v inside a pair always splits it
        chosen.append(best_v)
        class_ids = best_ids
    return SubspaceFamily(g.vertices[i] for i in chosen)
