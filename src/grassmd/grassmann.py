"""The Grassmann graph G_q(n,k) and resolving-set verification.

Vertices are the k-subspaces of V(n,q); two are adjacent when they meet in
dimension k-1, and the graph distance is k minus the intersection
dimension.  A family S is resolving when no two vertices have the same
distance vector ("code") against S.

A graph holds its vertices as one (V, k, n) uint8 array of RREF bases from
`subspaces.enumerate_bases`; `Subspace` objects are built only on request.
One gather kernel produces every code table, and with the family set to
all vertices the all-pairs distance table.  Two k-subspaces meeting in
dimension j share exactly [j 1]_q projective points, so the shared-point
count of a vertex A and a member U is the sum of U's 0/1 incidence over
the [k 1]_q point ordinals of A (`subspaces.bases_point_ordinals`, the
builder the rank certificate also uses), and a lookup turns each count
into k - j.  The counts are small integers, summed in the smallest
unsigned dtype that holds [k 1]_q, one block of about CELLS_PER_BLOCK
cells at a time.

`is_resolving` keeps a 16-byte digest of each vertex's row of counts (which
determines its code), not the row.  Rows with equal digests are recomputed
and compared in full, so the verdict and the lexicographically first
colliding pair stay exact whatever the digest does.

The independent oracles live apart from the kernel: `code_of` and
`distance` compute intersection dimensions from stacked RREF ranks, and
`bfs_distances_from` walks adjacency lists built from the definition of
adjacency (`GrassmannGraph.adjacency`), not from distances.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, GrassmdError, InvalidArgs
from .gfq import FieldCtx
from .linalg import intersect_dim, mat_mul, rref_rows
from .subspaces import (
    DISTANCE_TABLE_FACTOR,
    Subspace,
    SubspaceFamily,
    bases_incidence_block,
    bases_point_ordinals,
    basis_array,
    enumerate_bases,
    enumerate_k_subspaces,
    enumeration_budget,
    gaussian_binomial,
    incidence_block,
    point_reps,
    subspaces_from_bases,
)


class GrassmannGraph:
    """The vertex array plus lazily built objects; 2 <= k <= n/2 enforced.

    `bases` is the read-only (V, k, n) uint8 array of RREF bases in public
    order; `vertices` (a tuple of `Subspace`) and `vertex_index` (basis
    rows -> ordinal) are built on first use."""

    __slots__ = ("ctx", "n", "k", "bases", "_vertices", "_vertex_index", "_dist_rows", "_adj")

    def __init__(self, ctx: FieldCtx, n: int, k: int):
        if not (2 <= k and 2 * k <= n):
            raise InvalidArgs(f"need 2 <= k <= n/2, got n={n} k={k}")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "bases", enumerate_bases(ctx, n, k))
        for name in ("_vertices", "_vertex_index", "_dist_rows", "_adj"):
            object.__setattr__(self, name, None)

    def __setattr__(self, name, value):
        raise AttributeError("GrassmannGraph is immutable")

    def __len__(self):
        return len(self.bases)

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            object.__setattr__(self, "_vertices", tuple(subspaces_from_bases(self.ctx, self.bases)))
        return self._vertices

    @property
    def vertex_index(self) -> dict:
        if self._vertex_index is None:
            index = {s.basis.data: i for i, s in enumerate(self.vertices)}
            object.__setattr__(self, "_vertex_index", index)
        return self._vertex_index

    def vertex(self, i: int) -> Subspace:
        """Vertex i, built from its array row alone."""
        return subspaces_from_bases(self.ctx, self.bases[i:i + 1])[0]

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
            fam_t = np.ascontiguousarray(bases_incidence_block(self.ctx, self.bases).T)
            rows = [row.tobytes() for row in _codes(self.ctx, self.bases, fam_t)]
            object.__setattr__(self, "_dist_rows", rows)
        return self._dist_rows

    def adjacency(self) -> list:
        """Neighbour ordinal lists, from the definition of adjacency alone.

        A neighbour B of A meets it in a hyperplane H of A, and the
        k-subspaces through H are H + <p> for the [n-k+1 1]_q normalized
        vectors p that vanish on H's pivot columns, one of which gives A.
        So A has q [k 1]_q [n-k 1]_q neighbours, each found once; every
        degree is checked against that count."""
        if self._adj is None:
            ctx, n, k, q = self.ctx, self.n, self.k, self.ctx.q
            hyperplanes = enumerate_k_subspaces(ctx, k, k - 1)  # coefficient rows
            quotient = list(point_reps(q, n - k + 1))
            cells = len(self) * len(hyperplanes) * len(quotient)
            ceiling = DISTANCE_TABLE_FACTOR * enumeration_budget()
            if cells > ceiling:
                raise BudgetExceeded(f"{cells} adjacency candidates exceed ceiling {ceiling}")
            degree = q * gaussian_binomial(k, 1, q) * gaussian_binomial(n - k, 1, q)
            index = self.vertex_index
            adj = []
            for a in self.vertices:
                nbrs = set()
                for c in hyperplanes:
                    h_rows, h_pivots = rref_rows(ctx, mat_mul(c.basis, a.basis).data, n)
                    free = [col for col in range(n) if col not in h_pivots]
                    for p in quotient:
                        v = [0] * n
                        for col, x in zip(free, p):
                            v[col] = x
                        rows, _ = rref_rows(ctx, h_rows + (tuple(v),), n)
                        if rows != a.basis.data:
                            nbrs.add(index[rows])
                if len(nbrs) != degree:
                    raise GrassmdError(f"vertex {a!r} has {len(nbrs)} neighbours, not {degree}")
                adj.append(sorted(nbrs))
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


# Shared-point counts are summed over about this many cells at a time: a
# block of 2^18 uint8 counts plus its gathered rows and lookup stays within
# a few MB whatever the family size.
CELLS_PER_BLOCK = 2**18
# Point ordinals are listed for about this many vertices per call, which
# spreads the call's fixed cost over many blocks.
ORDINAL_ROWS = 4096


def _q_numbers(k: int, q: int) -> list:
    """[j 1]_q for j = 0..k: the possible shared-point counts of two
    k-subspaces, the count for distance k - j at index j."""
    return [gaussian_binomial(j, 1, q) if j else 0 for j in range(k + 1)]


def _count_blocks(ctx: FieldCtx, bases: np.ndarray, fam_t: np.ndarray):
    """Yield (lo, counts) per block of vertices: counts[i, u] is the number
    of points the vertex with basis bases[lo + i] shares with family member
    u, whose 0/1 point incidence is column u of fam_t, an (N, m) array.
    Every count is checked to be a q-number [j 1]_q."""
    k, q = bases.shape[1], ctx.q
    q_numbers = _q_numbers(k, q)
    count_dtype = np.min_scalar_type(q_numbers[-1])  # a count never exceeds [k 1]_q
    m = fam_t.shape[1]
    step = max(1, CELLS_PER_BLOCK // m)
    chunk = step * max(1, ORDINAL_ROWS // step)
    for start in range(0, len(bases), chunk):
        chunk_ords = bases_point_ordinals(ctx, bases[start:start + chunk])
        for lo in range(0, len(chunk_ords), step):
            ords = chunk_ords[lo:lo + step]
            counts = np.zeros((len(ords), m), dtype=count_dtype)
            for column in ords.T:
                counts += fam_t[column]
            valid = counts == 0
            for c in q_numbers[1:]:
                valid |= counts == c
            if not valid.all():
                raise GrassmdError("shared-point count is not a q-number [j 1]_q")
            yield start + lo, counts


def _codes(ctx: FieldCtx, bases: np.ndarray, fam_t: np.ndarray) -> np.ndarray:
    """The (S, m) uint8 code rows of the vertices with the given bases:
    shared-point counts looked up as distances."""
    k = bases.shape[1]
    q_numbers = _q_numbers(k, ctx.q)
    lut = np.zeros(q_numbers[-1] + 1, dtype=np.uint8)
    lut[q_numbers] = np.arange(k, -1, -1)
    return np.concatenate([lut[counts] for _, counts in _count_blocks(ctx, bases, fam_t)])


def _family_points(family, ctx: FieldCtx, n: int, k: int) -> np.ndarray:
    """(N, m) 0/1 point incidence of the family members, one column each."""
    members = list(family)
    if not members:
        raise InvalidArgs("family is empty")
    if any(u.ctx != ctx or u.n != n or u.dim != k for u in members):
        raise DimensionMismatch("family members and vertices differ in shape")
    return np.ascontiguousarray(incidence_block(members).T)


def codes_table(vertices, family) -> list:
    """Distances of every vertex to every family member, one bytes row each,
    from the gather kernel (see the module docstring)."""
    bases = basis_array(vertices)
    first = vertices[0]
    fam_t = _family_points(family, first.ctx, first.n, first.dim)
    return [row.tobytes() for row in _codes(first.ctx, bases, fam_t)]


@lru_cache(maxsize=8)
def _digest_weights(words: int) -> np.ndarray:
    """Fixed odd 64-bit weights, (words, 2), for `_row_digests`: the
    splitmix64 sequence, which needs no random-number module."""
    x = np.arange(1, 2 * words + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    weights = (x ^ (x >> np.uint64(31)) | np.uint64(1)).reshape(words, 2)
    weights.flags.writeable = False
    return weights


def _row_digests(rows: np.ndarray) -> np.ndarray:
    """(S, 2) uint64 digest of each row of an (S, m) integer array: two
    multilinear hashes mod 2^64 over the rows' 32-bit words.  Equal rows
    get equal digests; unequal rows rarely do, and callers compare those
    in full."""
    raw = rows.view(np.uint8).reshape(len(rows), -1)
    words = -(-raw.shape[1] // 4)
    padded = np.zeros((len(rows), 4 * words), dtype=np.uint8)
    padded[:, :raw.shape[1]] = raw
    return np.dot(padded.view(np.uint32).astype(np.uint64), _digest_weights(words))


def _first_collision(digests: np.ndarray, rows_of):
    """Lexicographically first (i, j), i < j, with equal code rows, or None.

    Indices are grouped by digest.  Each group is a union of classes of
    equal rows, so the group with the smallest first index g0 gives a lower
    bound (g0, g1) on every pair left; recomputing rows g0 and g1 with
    rows_of(indices) either confirms it, or shows a digest collision, and
    then that group is split into its exact classes."""
    order = np.lexsort(digests.T[::-1])  # stable: ascending indices per group
    d = digests[order]
    starts = np.flatnonzero(np.r_[True, (d[1:] != d[:-1]).any(axis=1)])
    sizes = np.diff(np.r_[starts, len(order)])
    # (g0, g1, group), or (c0, c1, None) for a class already known exact
    pending = [(int(order[s]), int(order[s + 1]), order[s:s + z])
               for s, z in zip(starts[sizes > 1], sizes[sizes > 1])]
    while pending:
        a, b, group = pending.pop(min(range(len(pending)), key=lambda i: pending[i][0]))
        if group is None:
            return a, b
        pair = rows_of(np.array([a, b]))
        if np.array_equal(pair[0], pair[1]):
            return a, b
        classes = {}
        for i, row in zip(group.tolist(), rows_of(group)):
            classes.setdefault(row.tobytes(), []).append(i)
        pending.extend((c[0], c[1], None) for c in classes.values() if len(c) > 1)
    return None


def is_resolving(family: SubspaceFamily, g: GrassmannGraph) -> ResolvingVerdict:
    """Resolving verdict, or the lexicographically first colliding pair."""
    if len(family) == 0:
        raise InvalidArgs("family is empty")
    for s in family:  # every k-subspace of V(n,q) is a vertex
        if s.ctx != g.ctx or s.n != g.n or s.dim != g.k:
            raise InvalidArgs(f"{s!r} is not a vertex of G_{g.ctx.q}({g.n},{g.k})")
    if len(g) > enumeration_budget():
        raise BudgetExceeded(f"{len(g)} vertices exceed budget")
    fam_t = _family_points(family, g.ctx, g.n, g.k)
    # shared-point counts and codes determine each other, so rows of counts
    # are digested and compared
    digests = np.empty((len(g), 2), dtype=np.uint64)
    for lo, counts in _count_blocks(g.ctx, g.bases, fam_t):
        digests[lo:lo + len(counts)] = _row_digests(counts)

    def counts_of(idx):
        return np.concatenate([c for _, c in _count_blocks(g.ctx, g.bases[idx], fam_t)])

    best = _first_collision(digests, counts_of)
    if best is None:
        return ResolvingVerdict(True)
    a, b = best
    return ResolvingVerdict(False, best, (g.vertex(a), g.vertex(b)))


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
