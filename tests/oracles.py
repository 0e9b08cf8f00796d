"""Independent oracles that the tests check the production kernels against.

Nothing in `grassmd` calls these.  Each computes its answer by a route of
its own: Gaussian binomials by the Pascal recurrence, point incidence by
membership tests, codes by stacked RREF ranks, graph distance by BFS,
adjacency by one tuple RREF per candidate neighbour,
small matrices through plain Gauss-Jordan on `MatGFq` objects, pair
distinguishers by comparing every entry of two rows, a minimum hitting
set by branch and bound pruned with the disjoint-packing bound alone, the
greedy resolving set by one `np.unique` refinement per candidate, the Gram
table M^T M by a float64 product of the dense incidence matrix, a
family file by one `MatGFq` and one `Subspace` per block, and GF(q^t)
products by polynomial multiplication and reduction (`ExtensionField`),
which the spread and the partition tail are rebuilt with.
"""

import numpy as np

from grassmd.errors import InvalidArgs, NotPrimePower, TooLarge
from grassmd.gfq import (
    EXTENSION_MAX_ORDER,
    FieldCtx,
    _poly_rem,
    _smallest_irreducible,
    field_new,
)
from grassmd.grassmann import bfs_distances_from, distance
from grassmd.linalg import MatGFq, mat_mul, rref_rows
from grassmd.subspaces import (
    Subspace,
    SubspaceFamily,
    bases_incidence_block,
    enumerate_bases,
    enumerate_k_subspaces,
    gaussian_binomial,
    point_reps,
)


def gaussian_binomial_pascal(n: int, k: int, q: int) -> int:
    """[n k]_q via the recurrence [n k] = [n-1 k-1] + q^k [n-1 k]."""
    prev = [1]  # row-by-row table, same shape as Pascal's triangle
    for m in range(1, n + 1):
        prev = [1] + [prev[j - 1] + q**j * prev[j] for j in range(1, m)] + [1]
    return prev[k]


class PointIndex:
    """The [n 1]_q projective points of V(n,q) in `point_reps` order, with
    a lookup from any nonzero vector to its point's ordinal."""

    def __init__(self, ctx, n: int):
        self.ctx = ctx
        self.points = tuple(point_reps(ctx.q, n))
        self._pos = {v: i for i, v in enumerate(self.points)}

    def __len__(self):
        return len(self.points)

    def normalize(self, v) -> tuple:
        """Scale the nonzero vector v so its first nonzero coordinate is 1."""
        lead = next(x for x in v if x)
        mrow = self.ctx.mul_table[self.ctx.inv_table[lead]]
        return tuple(mrow[y] for y in v)

    def index_of(self, v) -> int:
        return self._pos[self.normalize(v)]


def incidence_vector(u, idx: PointIndex) -> tuple:
    """0/1 membership of the points of idx in u, by `Subspace.contains`."""
    return tuple(1 if u.contains(p) else 0 for p in idx.points)


def code_of(w, family) -> tuple:
    """Distances of w to the family members, from intersection dimensions."""
    return tuple(distance(w, u) for u in family)


def bfs_distance(g, a, b) -> int:
    """Shortest-path distance between two vertices, by breadth-first search."""
    return bfs_distances_from(g, g.ordinal(a))[g.ordinal(b)]


def adjacency_lists(g) -> list:
    """Ascending neighbour ordinals of every vertex of g, one Python RREF of
    H + <p> per hyperplane H of the vertex and normalized vector p
    vanishing on H's pivot columns, looked up in a dict of basis tuples."""
    ctx, n, k, q = g.ctx, g.n, g.k, g.ctx.q
    hyperplanes = enumerate_k_subspaces(ctx, k, k - 1)  # coefficient rows
    quotient = list(point_reps(q, n - k + 1))
    degree = q * gaussian_binomial(k, 1, q) * gaussian_binomial(n - k, 1, q)
    index = {s.basis.data: i for i, s in enumerate(g.vertices)}
    adj = []
    for a in g.vertices:
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
        assert len(nbrs) == degree
        adj.append(sorted(nbrs))
    return adj


def mat(ctx, rows) -> MatGFq:
    rows = [tuple(r) for r in rows]
    return MatGFq(ctx, len(rows), len(rows[0]), rows)


def rref(m: MatGFq) -> tuple:
    """Reduced row echelon form with zero rows dropped, plus rank."""
    rows, _ = rref_rows(m.ctx, m.data, m.cols)
    return MatGFq(m.ctx, len(rows), m.cols, rows), len(rows)


def rank(m: MatGFq) -> int:
    return rref(m)[1]


def stack(a: MatGFq, b: MatGFq) -> MatGFq:
    return MatGFq(a.ctx, a.rows + b.rows, a.cols, a.data + b.data)


def pair_distinguishers(dist_rows) -> list:
    """Bitmask of distinguishing vertices for each pair {u,w}, u < w, in
    lexicographic pair order, one entry comparison at a time."""
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


def minimum_hitting_set_by_packing(sets: list, nv: int) -> tuple:
    """(size, sorted vertex list) of a minimum hitting set: the same greedy
    seed, branching order and pruning test as `search.minimum_hitting_set`,
    with the pairwise-disjoint packing of uncovered sets as the only lower
    bound and no repeated set dropped."""
    sets = sorted((m for m in sets if m), key=int.bit_count)
    uncovered, best = list(sets), []
    while uncovered:  # greedy cover: the vertex in the most sets, smallest first
        counts = [sum(m >> v & 1 for m in uncovered) for v in range(nv)]
        v = max(range(nv), key=lambda v: counts[v])
        best.append(v)
        uncovered = [m for m in uncovered if not m >> v & 1]
    best_size = len(best)

    def packing(uncovered) -> int:
        used = count = 0
        for m in uncovered:
            if not m & used:
                used |= m
                count += 1
        return count

    def rec(chosen, uncovered):
        nonlocal best, best_size
        if not uncovered:
            if len(chosen) < best_size:
                best, best_size = list(chosen), len(chosen)
            return
        if len(chosen) + packing(uncovered) >= best_size:
            return
        for v in range(nv):
            if uncovered[0] >> v & 1:
                rec(chosen + [v], [m for m in uncovered if not m >> v & 1])

    rec([], sets)
    return best_size, sorted(best)


def greedy_ordinals(g) -> list:
    """Ordinals the partition-refinement greedy picks on g: each step tries
    every column of the int64 distance table with its own `np.unique`
    refinement and keeps the first vertex leaving the fewest unsplit pairs."""
    dist = g.distance_rows().astype(np.int64)
    nv = len(dist)
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
        chosen.append(best_v)
        class_ids = best_ids
    return chosen


def gram_float_product(ctx, n: int, k: int) -> np.ndarray:
    """M^T M of the full incidence matrix M as a float64 BLAS product of the
    dense (V, N) block; exact while every entry, at most V, is below 2^53."""
    a = bases_incidence_block(ctx, enumerate_bases(ctx, n, k)).astype(np.float64)
    return a.T @ a


def parse_family_by_block(text: str) -> tuple:
    """(ctx, n, k, SubspaceFamily) of a family file, checked block by
    block: `MatGFq` checks the row lengths and entries, a Python RREF the
    RREF form, and a list lookup the distinctness."""
    data = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            data.append([int(tok) for tok in line.split()])
        except ValueError:
            raise InvalidArgs(f"line {ln}: non-integer token in {raw!r}")
    if not data:
        raise InvalidArgs("empty family file")
    header = data[0]
    if len(header) != 4:
        raise InvalidArgs(f"header must be `q n k m`, got {header}")
    q, n, k, m = header
    if k < 1 or n < k or m < 0:
        raise InvalidArgs(f"bad header values q={q} n={n} k={k} m={m}")
    body = data[1:]
    if len(body) != m * k:
        raise InvalidArgs(f"expected {m * k} basis rows, found {len(body)}")
    ctx = field_new(q)
    members = []
    for b in range(m):
        try:
            rows, _ = rref_rows(ctx, MatGFq(ctx, k, n, body[b * k:(b + 1) * k]).data, n)
            if rows != tuple(map(tuple, body[b * k:(b + 1) * k])):
                raise InvalidArgs("basis rows are not in reduced row echelon form")
        except InvalidArgs as e:
            raise InvalidArgs(f"block {b}: {e}")
        sub = Subspace.from_rows(ctx, n, rows)
        if sub in members:
            raise InvalidArgs(f"duplicate blocks: duplicate family member {sub!r}")
        members.append(sub)
    return ctx, n, k, SubspaceFamily(members)


def _poly_mul(field, a, b):
    """Product of two polynomials over field, constant term first."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return tuple(out)


class ExtensionField:
    """Degree-t power-basis extension GF(q^t) of a base GF(q), one element
    at a time: a product is a polynomial product reduced by the modulus.

    Elements are integers in [0, q^t) whose base-q digits are the
    coordinates over the power basis 1, y, ..., y^{t-1}; digit i is the
    coefficient of y^i.  The modulus is the smallest monic irreducible of
    degree t over the base, as in `grassmd.gfq`.
    """

    def __init__(self, base: FieldCtx, t: int):
        if t < 1:
            raise NotPrimePower(f"extension degree must be >= 1, got {t}")
        self.base = base
        self.t = t
        self.order = base.q**t
        if self.order > EXTENSION_MAX_ORDER:
            raise TooLarge(
                f"extension order {base.q}^{t} exceeds ceiling {EXTENSION_MAX_ORDER}"
            )
        self.modulus = _smallest_irreducible(base, t)

    def coords(self, a: int) -> tuple:
        """Base-field coordinates of a over the power basis (length t)."""
        return tuple(a // self.base.q**i % self.base.q for i in range(self.t))

    def from_coords(self, coords) -> int:
        v = 0
        for c in reversed(coords):
            v = v * self.base.q + c
        return v

    def add(self, a: int, b: int) -> int:
        base = self.base
        return self.from_coords(
            tuple(base.add(x, y) for x, y in zip(self.coords(a), self.coords(b)))
        )

    def mul(self, a: int, b: int) -> int:
        prod = _poly_rem(self.base, _poly_mul(self.base, self.coords(a), self.coords(b)), self.modulus)
        return self.from_coords(prod + (0,) * (self.t - len(prod)))

    def __repr__(self):
        return f"GF({self.base.q}^{self.t})"


def spread_by_extension_field(ctx, n: int, t: int) -> SubspaceFamily:
    """The field-reduction t-spread of V(n,q), member <w> spanned by the
    rows y^j·w, each big coordinate multiplied by `ExtensionField.mul`."""
    ext = ExtensionField(ctx, t)
    powers = [ext.from_coords([0] * j + [1]) for j in range(t)]
    return SubspaceFamily([
        Subspace.from_rows(ctx, n, [sum((ext.coords(ext.mul(y, w)) for w in rep), ())
                                    for y in powers])
        for rep in point_reps(ext.order, n // t)])


def partition_tail_by_extension_field(ctx, n: int, k: int) -> SubspaceFamily:
    """The tail X_a = {(a·y^j, y^j)} of the mixed partition for
    n = s + t, 0 < t < k+1, one `ExtensionField.mul` per row."""
    t = n % (k + 1)
    s = n - t
    ext = ExtensionField(ctx, s)
    return SubspaceFamily([
        Subspace.from_rows(ctx, n, [ext.coords(ext.mul(a, ext.from_coords([0] * j + [1])))
                                    + tuple(int(i == j) for i in range(t)) for j in range(t)])
        for a in range(ext.order)])
