"""Exact and greedy metric dimension for small graphs.

A family S resolves the graph iff for every vertex pair {u,w} some member
v has d(u,v) != d(w,v) — so minimum resolving set = minimum hitting set
over the per-pair "distinguisher" sets.  The exact solver is branch and
bound on that formulation: a greedy cover seeds the upper bound, and
branching always expands the uncovered set with the fewest candidates
(every solution must hit it, so this is complete).  A node is pruned once
its picks plus a lower bound reach the best size found.  The bound is a
pairwise-disjoint packing of uncovered sets, raised to 2 when no vertex
lies in every uncovered set, and to 3, where that decides the prune, when
no two vertices hit them all.  It never exceeds the true minimum, so the
search meets the same improvements, and returns the same witness, as with
the packing alone; on each G_2(4,2) sub-search below it expands 19 nodes
where the packing alone expanded over 6,000.  Vertex sets are kept as
Python int bitmasks; everything is deterministic, smallest ordinal first.

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
whose distance classes leave the fewest unresolved pairs, smallest
ordinal on ties.  Only the A vertices that still share their class are
kept as rows: a vertex alone in its class stays alone and adds the same
0 to every candidate's score, so dropping it changes no pick.  Candidates
are scored a block at a time: each of their columns is gathered over the
A rows, each row u gets the int32 key class(u)*(k+1) + d(u,v) for
candidate v, offset per candidate, and one `np.bincount` over the block
gives every refined class size s, so v scores the sum of s(s-1)/2.  A
block holds at most `GREEDY_BLOCK_BINS` keys and bins (or one candidate,
if its bins alone exceed that), which keeps its temporaries under about
1 MB.  Only the winner's classes are then renumbered, with one
`np.unique`, and its singletons leave the rows.  A step costs O(V·A)
array work on the graph's V x V uint8 table, read in place with no V x A
copy, so the distance table's V^2 ceiling bounds the greedy too.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, InvalidArgs
from .grassmann import GrassmannGraph
from .subspaces import SubspaceFamily, check_graph_shape, gaussian_binomial

DEFAULT_EXACT_LIMIT = 120
GREEDY_BLOCK_BINS = 1 << 16


def pair_distinguishers(dist) -> list:
    """Bitmask of distinguishing vertices for each pair {u,w}, u < w, in
    lexicographic pair order, from any square table (array or lists)."""
    dist = np.asarray(dist)
    out = []
    for u in range(len(dist) - 1):
        bits = np.packbits(dist[u] != dist[u + 1:], axis=1, bitorder="little")
        out.extend(int.from_bytes(row, "little") for row in bits)
    return out


def _members(mask: int):
    """The vertices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _greedy_cover(sets: list, nv: int) -> list:
    """Cheap feasible hitting set: repeatedly take the vertex in the most
    uncovered sets (smallest ordinal on ties)."""
    uncovered = list(sets)
    chosen = []
    while uncovered:
        counts = [0] * nv
        for m in uncovered:
            for v in _members(m):
                counts[v] += 1
        best = max(range(nv), key=lambda v: counts[v])
        chosen.append(best)
        bit = 1 << best
        uncovered = [m for m in uncovered if not m & bit]
    return chosen


def _common(sets: list, hit: int = 0) -> int:
    """Bitmask of the vertices in every set that misses the mask `hit`; -1
    (every vertex) when no set misses it.  Stops once it reaches 0."""
    common = -1
    for m in sets:
        if not m & hit:
            common &= m
            if not common:
                break
    return common


def _lower_bound(uncovered: list, need: int) -> int:
    """Lower bound on the minimum hitting set of a nonempty uncovered list,
    sorted by ascending popcount; the caller prunes once it reaches `need`.

    It starts from a greedy packing of pairwise-disjoint sets, one scan.
    Below `need`, it then asks exactly whether one vertex hits every set,
    and, when `need` is 3, whether two do.  Each answer can only raise the
    bound to a size that no smaller hitting set reaches."""
    used = 0
    count = 0
    for m in uncovered:
        if not m & used:
            used |= m
            count += 1
    if count == 1 and need > 1 and not _common(uncovered):
        count = 2  # no vertex lies in every set
    if count == 2 and need == 3 and not any(
            _common(uncovered, 1 << v) for v in _members(uncovered[0])):
        count = 3  # no vertex of the first set leaves a common vertex behind
    return count


def minimum_hitting_set(sets: list, nv: int) -> tuple:
    """(size, sorted vertex list) of a minimum hitting set; deterministic.

    The sets are stably sorted by popcount once and the greedy cover seeds
    the upper bound from that list; the search then drops repeated sets,
    which changes neither its branching nor its bound.  Every uncovered
    list is a filtered sublist of that order, so it stays sorted: the
    smallest set (first in input order among equals) is its head, and the
    bound's packing is one scan."""
    # empty sets are unhittable; caller guards
    sets = sorted((m for m in sets if m), key=int.bit_count)
    best = _greedy_cover(sets, nv)
    best_size = len(best)

    def rec(chosen: list, uncovered: list):
        nonlocal best, best_size
        if not uncovered:
            if len(chosen) < best_size:
                best, best_size = list(chosen), len(chosen)
            return
        need = best_size - len(chosen)
        if _lower_bound(uncovered, need) >= need:
            return
        for v in _members(uncovered[0]):
            bit = 1 << v
            chosen.append(v)
            rec(chosen, [s for s in uncovered if not s & bit])
            chosen.pop()

    rec([], list(dict.fromkeys(sets)))
    return best_size, sorted(best)


def _check_limit(nv: int, limit: int):
    if nv > limit:
        raise BudgetExceeded(f"{nv} vertices exceed exact-search limit {limit}")


def check_exact_graph(q: int, n: int, k: int, limit: int) -> None:
    """Refuse G_q(n,k) over the exact-search limit from its vertex count
    [n k]_q, before any vertex is enumerated; a bad shape is refused first."""
    check_graph_shape(n, k)
    _check_limit(gaussian_binomial(n, k, q), limit)


def _separating_sets(dist) -> list:
    """`pair_distinguishers(dist)`; InvalidArgs unless dist is square and
    symmetric with a zero diagonal, no negative entry and no two equal rows."""
    if any(np.ndim(row) != 1 or len(row) != len(dist) for row in dist):
        raise InvalidArgs("distance table is not square")
    table = np.asarray(dist).reshape(len(dist), len(dist))
    for fault, what in ((table != table.T, "is not symmetric"),
                        (table.diagonal(), "has a nonzero diagonal entry"),
                        (table < 0, "has a negative entry")):
        if fault.any():
            raise InvalidArgs(f"distance table {what}")
    sets = pair_distinguishers(table)
    if not all(sets):
        raise InvalidArgs("some pair is indistinguishable by every vertex")
    return sets


def metric_dimension_from_distances(dist, limit: int = DEFAULT_EXACT_LIMIT) -> tuple:
    """Exact metric dimension of any graph given its square distance table."""
    nv = len(dist)
    _check_limit(nv, limit)
    return minimum_hitting_set(_separating_sets(dist), nv)


def _landmark_instances(dist):
    """(r_j, the separating sets that neither 0 nor r_j meets) for each
    distance class j of row 0, ascending j; r_j is the smallest ordinal at
    distance j from vertex 0."""
    sets = _separating_sets(dist)
    row0 = list(dist[0])
    for j in sorted(set(row0) - {0}):
        r = row0.index(j)
        fixed = 1 | 1 << r
        yield r, [m for m in sets if not m & fixed]


def _two_landmark_dimension(dist) -> tuple:
    """Exact (mu, sorted ordinals) of a distance-transitive graph that no
    single vertex resolves: landmarks 0 and r_j fixed, one branch and bound
    per distance class j of row 0 (see the module docstring)."""
    best = None
    for r, sets in _landmark_instances(dist):
        size, picks = minimum_hitting_set(sets, len(dist))
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
    return mu, SubspaceFamily.from_bases(g.ctx, g.bases[ords])


def metric_dimension_greedy(g: GrassmannGraph) -> SubspaceFamily:
    """Partition-refinement greedy; the result is resolving by construction.
    Candidates are scored a block at a time over the rows of vertices not
    yet alone in their class (see the module docstring)."""
    dist = g.distance_rows()
    nv = len(dist)
    # distances are symmetric, so row v of the table is candidate v's column
    spread_of = g.k + 1  # distances lie in [0, k]
    active = np.arange(nv)  # vertices that share their class with another
    class_ids = np.zeros(nv, dtype=np.int32)  # of the active vertices, 0..classes-1
    unsplit = nv * (nv - 1) // 2  # one class: no pair is resolved yet

    chosen = []
    while unsplit > 0:
        na = len(active)
        bins = (int(class_ids.max()) + 1) * spread_of  # refined classes per candidate
        block = max(1, GREEDY_BLOCK_BINS // max(na, bins))
        base = class_ids * spread_of
        best_v, best_pairs = -1, None
        for v0 in range(0, nv, block):
            cand = dist[v0:v0 + block, active]
            offsets = np.arange(len(cand), dtype=np.int32)[:, None] * bins
            keys = base + offsets  # int32, one bin range per candidate
            keys += cand
            sizes = np.bincount(keys.ravel(), minlength=len(cand) * bins).reshape(-1, bins)
            # the sizes of each candidate sum to na, so sum s(s-1)/2 = (sum s^2 - na)/2
            squares = np.einsum("ij,ij->i", sizes, sizes)
            j = int(squares.argmin())  # first minimum: smallest ordinal on ties
            pairs = (int(squares[j]) - na) // 2
            if best_pairs is None or pairs < best_pairs:
                best_v, best_pairs = v0 + j, pairs
        assert best_pairs < unsplit  # v inside a pair always splits it
        chosen.append(best_v)
        _, new_ids, counts = np.unique(base + dist[best_v, active],
                                       return_inverse=True, return_counts=True)
        shared = counts > 1
        keep = shared[new_ids]  # singletons stay alone and score 0 for every candidate
        active = active[keep]
        class_ids = (np.cumsum(shared, dtype=np.int32) - 1)[new_ids[keep]]
        unsplit = best_pairs
    return SubspaceFamily.from_bases(g.ctx, g.bases[chosen])
