"""The Grassmann graph G_q(n,k) and resolving-set verification.

Vertices are the k-subspaces of V(n,q); two are adjacent when they meet in
dimension k-1, and the graph distance is k minus the intersection
dimension.  A family S is resolving when no two vertices have the same
distance vector ("code") against S.

One kernel produces every code table, and with the family set to all
vertices the all-pairs distance table: two k-subspaces meeting in
dimension j share exactly [j 1]_q projective points, so the table is one
0/1 product of point incidences followed by a lookup.  The incidence rows
come from `subspaces.point_ordinals`, the builder the rank certificate
also uses.  The independent oracles live apart from it: `code_of` and
`distance` compute intersection dimensions from stacked RREF ranks, and
`bfs_distances_from` walks the adjacency lists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, GrassmdError, InvalidArgs, TooLarge
from .gfq import FieldCtx
from .linalg import intersect_dim
from .subspaces import (
    DISTANCE_TABLE_FACTOR,
    Subspace,
    SubspaceFamily,
    enumerate_k_subspaces,
    enumeration_budget,
    gaussian_binomial,
    incidence_block,
)


class GrassmannGraph:
    """Vertex list plus ordinal lookup; 2 <= k <= n/2 enforced."""

    __slots__ = ("ctx", "n", "k", "vertices", "vertex_index", "_dist_rows", "_adj")

    def __init__(self, ctx: FieldCtx, n: int, k: int):
        if not (2 <= k and 2 * k <= n):
            raise InvalidArgs(f"need 2 <= k <= n/2, got n={n} k={k}")
        vertices = enumerate_k_subspaces(ctx, n, k)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(
            self, "vertex_index", {s.basis.data: i for i, s in enumerate(vertices)}
        )
        object.__setattr__(self, "_dist_rows", None)
        object.__setattr__(self, "_adj", None)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannGraph is immutable")

    def __len__(self):
        return len(self.vertices)

    def ordinal(self, s: Subspace) -> int:
        try:
            return self.vertex_index[s.basis.data]
        except KeyError:
            raise InvalidArgs(f"{s!r} is not a vertex of G_{self.ctx.q}({self.n},{self.k})")

    def distance_rows(self) -> list:
        """All-pairs distance table: row i = bytes of distances from vertex i."""
        if self._dist_rows is None:
            cells, ceiling = len(self) ** 2, DISTANCE_TABLE_FACTOR * enumeration_budget()
            if cells > ceiling:
                raise BudgetExceeded(f"{len(self)}^2 distance cells exceed ceiling {ceiling}")
            fam = SubspaceFamily(self.vertices)
            object.__setattr__(self, "_dist_rows", codes_table(self.vertices, fam))
        return self._dist_rows

    def adjacency(self) -> list:
        """Neighbor ordinal lists, built from the distance-1 relation."""
        if self._adj is None:
            rows = self.distance_rows()
            adj = [[j for j, d in enumerate(row) if d == 1] for row in rows]
            object.__setattr__(self, "_adj", adj)
        return self._adj


@dataclass(frozen=True)
class ResolvingVerdict:
    resolving: bool
    ordinals: tuple | None = None  # colliding (i, j), i < j, lexicographically first
    pair: tuple | None = None      # the colliding subspaces themselves

    def __bool__(self):
        return self.resolving


def distance(a: Subspace, b: Subspace) -> int:
    """k - dim(a ∩ b); zero iff a = b."""
    if a.ctx != b.ctx or a.n != b.n:
        raise DimensionMismatch("subspaces live in different spaces")
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    return a.dim - intersect_dim(a.basis, b.basis)


def code_of(w: Subspace, family: SubspaceFamily) -> tuple:
    """Distances of w to the family members, in family order."""
    return tuple(distance(w, u) for u in family)


# Floats per product block (incidence rows plus counts), about 256 KB: larger
# blocks ran no faster and grew peak RSS through BLAS buffers and temporaries.
BLOCK_FLOATS = 2**16


def codes_table(vertices, family) -> list:
    """Distances of every vertex to every family member, one bytes row each.

    A and U share [dim(A∩U) 1]_q projective points, so one 0/1 product of
    point incidences, Inc(vertices) · Inc(family)^T, counts the shared
    points of every pair, and a lookup turns each count into k - dim(A∩U).
    """
    first = vertices[0]
    q, n, k = first.ctx.q, first.n, first.dim
    members = list(family)
    if any(u.ctx != first.ctx or u.n != n or u.dim != k for u in members):
        raise DimensionMismatch("family members and vertices differ in shape")
    points = gaussian_binomial(n, 1, q)
    # float32 counts are exact while every partial sum, at most N, is < 2^24
    if points >= 2**24:
        raise TooLarge(f"[{n} 1]_{q} = {points} points: shared-point counts would not be exact")
    lut = np.full(points + 1, 255, dtype=np.uint8)  # a count never exceeds N
    for j in range(k + 1):
        lut[gaussian_binomial(j, 1, q) if j else 0] = k - j
    fam_t = np.ascontiguousarray(incidence_block(members, np.float32).T)
    step = max(1, BLOCK_FLOATS // (points + len(members)))
    out = []
    for lo in range(0, len(vertices), step):
        counts = incidence_block(vertices[lo:lo + step], np.float32) @ fam_t
        dists = lut[counts.astype(np.int32)]
        if (dists == 255).any():
            raise GrassmdError("shared-point count is not a q-number [j 1]_q")
        out.extend(row.tobytes() for row in dists)
    return out


def is_resolving(family: SubspaceFamily, g: GrassmannGraph) -> ResolvingVerdict:
    """Resolving verdict, or the lexicographically first colliding pair."""
    if len(family) == 0:
        raise InvalidArgs("family is empty")
    for s in family:
        g.ordinal(s)  # membership check
    if len(g) > enumeration_budget():
        raise BudgetExceeded(f"{len(g)} vertices exceed budget")
    rows = codes_table(g.vertices, family)
    first = {}
    best = None
    for i, key in enumerate(rows):
        prev = first.get(key)
        if prev is None:
            first[key] = i
        else:
            cand = (prev, i)
            if best is None or cand < best:
                best = cand
    if best is None:
        return ResolvingVerdict(True)
    a, b = best
    return ResolvingVerdict(False, best, (g.vertices[a], g.vertices[b]))


def bfs_distances_from(g: GrassmannGraph, src: int) -> list:
    """Shortest-path distances from one vertex ordinal to all others, by
    breadth-first search over the adjacency lists only."""
    adj = g.adjacency()
    dist = [-1] * len(g)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    if min(dist) < 0:
        raise InvalidArgs("graph is disconnected")  # cannot happen for 2 <= k <= n/2
    return dist


def bfs_distance(g: GrassmannGraph, a: Subspace, b: Subspace) -> int:
    """Shortest-path distance between two vertices; oracle for the
    algebraic distance formula."""
    src, dst = g.ordinal(a), g.ordinal(b)
    return bfs_distances_from(g, src)[dst]


def edge_list(g: GrassmannGraph) -> list:
    """Sorted 0-based ordinal pairs (u, v), u < v, of adjacent vertices."""
    rows = g.distance_rows()
    return [(u, v) for u in range(len(g)) for v in range(u + 1, len(g)) if rows[u][v] == 1]
