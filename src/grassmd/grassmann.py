"""The Grassmann graph G_q(n,k) and resolving-set verification.

Vertices are the k-subspaces of V(n,q); two are adjacent when they meet in
dimension k-1, and the graph distance is k minus the intersection
dimension.  A family S is resolving when no two vertices have the same
distance vector ("code") against S.

A graph is its sorted (V, k, n) uint8 array of RREF bases from
`subspaces.enumerate_bases`, which every method reads: an ordinal is a
binary search of a basis's byte key (`subspaces.basis_keys`), and
`Subspace` objects are built only on request.  One gather kernel fills
every code table, one (S, m) uint8 array, and with the family set to all
vertices the read-only all-pairs distance table.  Two k-subspaces meeting
in dimension j share exactly [j 1]_q points, so the shared-point count of
a vertex A and a member U is the sum of U's 0/1 incidence over the point
ordinals of A (`subspaces.bases_point_ordinals`, which the rank
certificate also uses), and a lookup turns each count into k - j.  Counts
are summed in the smallest unsigned dtype that holds [k 1]_q, one block of
about CELLS_PER_BLOCK cells at a time.

`is_resolving` keeps a 16-byte digest of each vertex's row of counts (which
determines its code), not the row.  Rows with equal digests are recomputed
and compared in full, so the verdict and the lexicographically first
colliding pair stay exact whatever the digest does.

Two routes stay independent of the kernel: `distance` computes the
intersection dimension from a stacked RREF rank, and `bfs_distances_from`
walks the adjacency array built from the definition of adjacency
(`GrassmannGraph.adjacency`).  The tests compare the kernel against both,
and the adjacency against a Python RREF per candidate, with the oracles in
`tests/oracles.py`; `accept` compares the kernel against BFS.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, GrassmdError, InvalidArgs
from .gfq import FieldCtx, gf_matmul
from .linalg import intersect_dim
from .subspaces import (
    Subspace,
    SubspaceFamily,
    bases_incidence_block,
    bases_point_ordinals,
    basis_keys,
    check_budget,
    check_graph_shape,
    enumerate_bases,
    gaussian_binomial,
    point_reps,
    subspaces_from_bases,
)


class GrassmannGraph:
    """The vertex array plus lazily built tables; 2 <= k <= n/2 enforced.

    `bases` is the read-only (V, k, n) uint8 array of RREF bases in public
    order; `vertices`, a tuple of `Subspace`, is built on first use."""

    __slots__ = ("ctx", "n", "k", "bases", "_vertices", "_dist_rows", "_adj")

    def __init__(self, ctx: FieldCtx, n: int, k: int):
        check_graph_shape(n, k)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "bases", enumerate_bases(ctx, n, k))
        for name in ("_vertices", "_dist_rows", "_adj"):
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

    def vertex(self, i: int) -> Subspace:
        """Vertex i, built from its array row alone."""
        return subspaces_from_bases(self.ctx, self.bases[i:i + 1])[0]

    def ordinals(self, bases: np.ndarray) -> np.ndarray:
        """Ordinals of the vertices with the given (S, k, n) RREF bases, by
        binary search of their byte keys in the sorted `bases`."""
        keys, want = basis_keys(self.bases), basis_keys(bases)
        found = np.searchsorted(keys, want)
        hit = (bases.shape[1:] == self.bases.shape[1:]) & (keys[found % len(keys)] == want)
        if not hit.all():
            raise InvalidArgs(f"basis {bases[np.argmin(hit)].tolist()} is not a vertex "
                              f"of G_{self.ctx.q}({self.n},{self.k})")
        return found

    def ordinal(self, s: Subspace) -> int:
        if s.ctx != self.ctx:
            raise InvalidArgs(f"{s!r} is not a vertex of G_{self.ctx.q}({self.n},{self.k})")
        return int(self.ordinals(np.array([s.basis.data], dtype=np.uint8))[0])

    def distance_rows(self) -> np.ndarray:
        """Read-only (V, V) uint8 array, row i = distances from vertex i, read in place."""
        if self._dist_rows is None:
            check_budget(len(self) ** 2, "distance cells", cells=True)
            fam_t = np.ascontiguousarray(bases_incidence_block(self.ctx, self.bases).T)
            dist = _codes(self.ctx, self.bases, fam_t)
            dist.flags.writeable = False
            object.__setattr__(self, "_dist_rows", dist)
        return self._dist_rows

    def adjacency(self) -> np.ndarray:
        """Read-only (V, D) int32 array, row i = the ascending neighbour
        ordinals of vertex i, from the definition of adjacency alone.

        A neighbour of A meets it in a hyperplane H = C·A, C one of the
        [k 1]_q RREF (k-1) x k coefficient matrices, and the k-subspaces
        through H are H + <p> for the [n-k+1 1]_q normalized p that vanish
        on H's pivot columns, one of which gives A: D = q [k 1]_q [n-k 1]_q
        neighbours, each found once, and each row is checked to hold D
        distinct ordinals other than its own.  H = C·A is RREF, as A is the
        identity in its pivot columns."""
        if self._adj is None:
            ctx, n, k, q = self.ctx, self.n, self.k, self.ctx.q
            coeffs = enumerate_bases(ctx, k, k - 1)
            reps = np.array(list(point_reps(q, n - k + 1)), dtype=np.uint8)
            check_budget(len(self) * len(coeffs) * len(reps), "adjacency candidates", cells=True)
            degree = q * gaussian_binomial(k, 1, q) * gaussian_binomial(n - k, 1, q)
            add, mul, neg = (np.array(t, dtype=np.uint8)
                             for t in (ctx.add_table, ctx.mul_table, ctx.neg_table))
            adj = np.empty((len(self), degree), dtype=np.int32 if len(self) < 2**31 else np.intp)
            step = max(1, CELLS_PER_BLOCK // (len(coeffs) * len(reps)))
            for lo in range(0, len(self), step):
                a = self.bases[lo:lo + step]
                # the hyperplanes H of the block's vertices, M = B·K of them
                h = gf_matmul(ctx, coeffs, a[:, None]).reshape(-1, k - 1, n)
                # p: the reps written into H's free columns, (M, P, n), led at column lead
                taken = ((h != 0).argmax(axis=2)[:, :, None] == np.arange(n)).any(axis=1)
                free = np.argsort(taken, axis=1, kind="stable")[:, :n - k + 1]
                p = np.zeros((len(h), len(reps), n), dtype=np.uint8)
                p[np.arange(len(h))[:, None], :, free] = reps.T
                lead = free[:, (reps != 0).argmax(axis=1)]
                # RREF of H + <p>: column lead cleared from H's rows, rows ordered by pivot
                f = np.take_along_axis(h, lead[:, None], axis=2).swapaxes(1, 2)  # (M, P, k-1)
                rows = np.concatenate([add[h[:, None], mul[neg[f][..., None], p[:, :, None]]],
                                       p[:, :, None]], axis=2).reshape(-1, k, n)
                order = np.argsort((rows != 0).argmax(axis=2), axis=1)
                ords = self.ordinals(rows[np.arange(len(rows))[:, None], order]).reshape(len(a), -1)
                # own ordinal marked -1 and sorted first: the row is right when
                # its last degree + 1 entries are -1 then strictly ascending
                tail = np.sort(np.where(ords == np.arange(lo, lo + len(a))[:, None], -1, ords),
                               axis=1)[:, -degree - 1:]
                ok = (tail[:, 0] == -1) & (np.diff(tail, axis=1) > 0).all(axis=1)
                if not ok.all():
                    raise GrassmdError(f"vertex {lo + np.argmin(ok)} does not have "
                                       f"{degree} distinct neighbours")
                adj[lo:lo + len(a)] = tail[:, 1:]
            adj.flags.writeable = False
            object.__setattr__(self, "_adj", adj)
        return self._adj


class ResolvingVerdict(NamedTuple):
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
    shared-point counts looked up as distances, one block at a time."""
    k = bases.shape[1]
    q_numbers = _q_numbers(k, ctx.q)
    lut = np.zeros(q_numbers[-1] + 1, dtype=np.uint8)
    lut[q_numbers] = np.arange(k, -1, -1)
    codes = np.empty((len(bases), fam_t.shape[1]), dtype=np.uint8)
    for lo, counts in _count_blocks(ctx, bases, fam_t):
        codes[lo:lo + len(counts)] = lut[counts]
    return codes


def _family_points(family: SubspaceFamily, ctx: FieldCtx, n: int, k: int) -> np.ndarray:
    """(N, m) 0/1 point incidence of the family members, one column each,
    from its basis array; refuses an empty family and one whose members are
    not k-subspaces of V(n,q), i.e. not vertices of G_q(n,k)."""
    if not len(family):
        raise InvalidArgs("empty family")
    if family.ctx != ctx or family.bases.shape[1:] != (k, n):
        raise InvalidArgs(f"{family[0]!r} is not a vertex of G_{ctx.q}({n},{k})")
    return np.ascontiguousarray(bases_incidence_block(ctx, family.bases).T)


def codes_table(vertices, family: SubspaceFamily) -> np.ndarray:
    """Distances of every vertex (distinct `Subspace` objects) to every
    family member: the (S, m) uint8 array of the gather kernel."""
    vertices = SubspaceFamily(vertices)
    if not len(vertices):
        raise InvalidArgs("empty vertex list")
    _, k, n = vertices.bases.shape
    return _codes(vertices.ctx, vertices.bases, _family_points(family, vertices.ctx, n, k))


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
    check_budget(len(g), "vertices")
    fam_t = _family_points(family, g.ctx, g.n, g.k)
    # shared-point counts and codes determine each other, so rows of counts
    # are digested and rows of codes compared
    digests = np.empty((len(g), 2), dtype=np.uint64)
    for lo, counts in _count_blocks(g.ctx, g.bases, fam_t):
        digests[lo:lo + len(counts)] = _row_digests(counts)

    best = _first_collision(digests, lambda idx: _codes(g.ctx, g.bases[idx], fam_t))
    if best is None:
        return ResolvingVerdict(True)
    a, b = best
    return ResolvingVerdict(False, best, (g.vertex(a), g.vertex(b)))


def bfs_distances_from(g: GrassmannGraph, src: int) -> list:
    """Shortest-path distances from one vertex ordinal to all others, by
    breadth-first search over the adjacency array only, a level at a time."""
    adj = g.adjacency()
    seen = np.zeros(len(g), dtype=bool)
    dist = np.zeros(len(g), dtype=np.intp)
    seen[src] = True
    frontier, level = np.array([src]), 0
    while len(frontier):
        level += 1
        reached = adj[frontier].ravel()
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
        dist[frontier] = level
    if not seen.all():
        raise InvalidArgs("graph is disconnected")  # cannot happen for 2 <= k <= n/2
    return dist.tolist()


def edge_rows(g: GrassmannGraph):
    """Yield (u, ascending ordinals v > u adjacent to u) for every vertex u
    in order, read off the distance table one row at a time."""
    for u, row in enumerate(g.distance_rows()):
        yield u, np.flatnonzero(row[u + 1:] == 1) + u + 1


def edge_list(g: GrassmannGraph) -> list:
    """Sorted 0-based ordinal pairs (u, v), u < v, of adjacent vertices."""
    return [(u, v) for u, vs in edge_rows(g) for v in vs.tolist()]
