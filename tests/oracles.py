"""Independent oracles that the tests check the production kernels against.

Nothing in `grassmd` calls these.  Each computes its answer by a route of
its own: Gaussian binomials by the Pascal recurrence, prime powers by
trial division for the smallest factor, point incidence by
membership tests (reduction against a `Subspace`'s RREF basis), codes by
stacked ranks, graph distance by BFS, a graph's edges from its distance
table, adjacency by one tuple RREF per candidate neighbour, row reduction
by Gauss-Jordan one element at a time on row tuples (`rref_rows`, which
`gfq.gf_rref` is checked against and every subspace built here uses), pair
distinguishers by comparing every entry of two rows, a minimum hitting
set by branch and bound pruned with the disjoint-packing bound alone, the
greedy resolving set by one `np.unique` refinement per candidate, the Gram
table M^T M by a float64 product of the dense incidence matrix, a
family file by one `MatGFq` and one `Subspace` per block, and GF(q^t)
products by polynomial multiplication and reduction (`ExtensionField`),
which the spread and the partition tail are rebuilt with.  Its modulus comes
from `smallest_irreducible`, trial division of one candidate at a time on
the tables as lists (`_poly_rem`, `_is_irreducible`), which the array
search in `gfq` is checked against; `intersect_dim` takes the three ranks
of two matrices of any rank from one `gf_rref` batch, a route other than
`linalg.distance`'s one stacked RREF.  The three float bounds are evaluated
in mpmath at 96 bits (`log_estimate_mpmath`, `babai_general_mpmath`,
`babai_strong_mpmath`), which `bounds`' 40-digit `decimal` evaluation is
checked against.
"""

import io
import math
import re
from functools import lru_cache

import mpmath
import numpy as np

from grassmd.bounds import LOG_BASES, _finite, distance_class_size
from grassmd.errors import DegenerateBound, DimensionMismatch, InvalidArgs, NotPrimePower, TooLarge
from grassmd.gfq import EXTENSION_MAX_ORDER, FieldCtx, field_new, gf_rref
from grassmd.grassmann import bfs_distances_from, edge_rows
from grassmd.linalg import MatGFq, Subspace, as_array, mat_mul, subspaces_from_bases
from grassmd.subspaces import (
    SubspaceFamily,
    bases_incidence_block,
    enumerate_bases,
    enumerate_k_subspaces,
    gaussian_binomial,
    point_reps,
)


@lru_cache(maxsize=None)
def tables(ctx) -> tuple:
    """ctx's (add, mul, neg, inv) arrays as nested lists, for the element
    loops below."""
    return tuple(t.tolist() for t in (ctx.add_array, ctx.mul_array, ctx.neg_array, ctx.inv_array))


def rref_rows(ctx, rows, cols: int):
    """RREF of raw row tuples by Gauss-Jordan one element at a time;
    returns (rows_without_zeros, pivot_columns)."""
    work = [list(r) for r in rows]
    add_t, mul_t, neg_t, inv_t = tables(ctx)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        row = work[r]
        pv = row[c]
        if pv != 1:
            scale = inv_t[pv]
            mrow = mul_t[scale]
            work[r] = row = [mrow[x] for x in row]
        for i in range(len(work)):
            if i == r:
                continue
            f = work[i][c]
            if f:
                mrow = mul_t[neg_t[f]]
                other = work[i]
                work[i] = [add_t[x][mrow[y]] for x, y in zip(other, row)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def subspace(ctx, n: int, rows) -> Subspace:
    """The span of rows in V(n,q), reduced by `rref_rows`."""
    return Subspace._from_rref(ctx, n, rref_rows(ctx, rows, n)[0])


def gaussian_binomial_pascal(n: int, k: int, q: int) -> int:
    """[n k]_q via the recurrence [n k] = [n-1 k-1] + q^k [n-1 k]."""
    prev = [1]  # row-by-row table, same shape as Pascal's triangle
    for m in range(1, n + 1):
        prev = [1] + [prev[j - 1] + q**j * prev[j] for j in range(1, m)] + [1]
    return prev[k]


def prime_power_by_trial_division(q: int):
    """(p, e) with q = p^e, p the smallest factor of q by trial division, or
    None when q < 2 or a second prime divides q."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    e = 0
    while q % p == 0:
        q, e = q // p, e + 1
    return (p, e) if q == 1 else None


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
        _, mul_t, _, inv_t = tables(self.ctx)
        mrow = mul_t[inv_t[lead]]
        return tuple(mrow[y] for y in v)

    def index_of(self, v) -> int:
        return self._pos[self.normalize(v)]


def pivots(s: Subspace) -> tuple:
    """The leading column of each row of s's RREF basis."""
    return tuple(next(c for c, x in enumerate(row) if x) for row in s.basis.data)


def contains(s: Subspace, v) -> bool:
    """Whether the vector v lies in s, by reduction against its RREF basis."""
    add_t, mul_t, neg_t, _ = tables(s.ctx)
    v = list(v)
    for p, row in zip(pivots(s), s.basis.data):
        f = v[p]
        if f:
            mrow = mul_t[neg_t[f]]
            v = [add_t[x][mrow[y]] for x, y in zip(v, row)]
    return not any(v)


def vertices(g) -> list:
    """Every vertex of g as a `Subspace`, in ordinal order."""
    return subspaces_from_bases(g.ctx, g.bases)


def vertex(g, i: int) -> Subspace:
    """Vertex i of g as a `Subspace`, built from its array row alone."""
    return subspaces_from_bases(g.ctx, g.bases[i:i + 1])[0]


def ordinal(g, s: Subspace) -> int:
    """The ordinal of the vertex s of g, by `GrassmannGraph.ordinals`."""
    return int(g.ordinals(np.array([s.basis.data], dtype=np.uint8))[0])


def edge_list(g) -> list:
    """Sorted ordinal pairs (u, v), u < v, of the vertices at distance 1 in
    g's distance table."""
    return [(u, v) for u, vs in edge_rows(g) for v in vs.tolist()]


def incidence_vector(u, idx: PointIndex) -> tuple:
    """0/1 membership of the points of idx in u, by `contains`."""
    return tuple(1 if contains(u, p) else 0 for p in idx.points)


def code_of(w, family) -> tuple:
    """Distances of w to the family members: the rank of w's basis stacked
    on a member's, less k, by `rref_rows`."""
    return tuple(len(rref_rows(w.ctx, w.basis.data + u.basis.data, w.n)[0]) - w.dim
                 for u in family)


def bfs_distance(g, a, b) -> int:
    """Shortest-path distance between two vertices, by breadth-first search."""
    return bfs_distances_from(g, ordinal(g, a))[ordinal(g, b)]


def adjacency_lists(g) -> list:
    """Ascending neighbour ordinals of every vertex of g, one Python RREF of
    H + <p> per hyperplane H of the vertex and normalized vector p
    vanishing on H's pivot columns, looked up in a dict of basis tuples."""
    ctx, n, k, q = g.ctx, g.n, g.k, g.ctx.q
    hyperplanes = enumerate_k_subspaces(ctx, k, k - 1)  # coefficient rows
    quotient = list(point_reps(q, n - k + 1))
    degree = q * gaussian_binomial(k, 1, q) * gaussian_binomial(n - k, 1, q)
    index = {s.basis.data: i for i, s in enumerate(vertices(g))}
    adj = []
    for a in vertices(g):
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


def intersect_dim(a: MatGFq, b: MatGFq) -> int:
    """dim(rowspace(a) ∩ rowspace(b)) = rank a + rank b - rank of the stack.

    The three ranks come from one `gf_rref` batch: the stack, and the stack
    with b's rows and with a's rows zeroed, so the inputs may have any rank.
    """
    if a.ctx != b.ctx:
        raise DimensionMismatch("contexts differ")
    if a.cols != b.cols:
        raise DimensionMismatch(f"column counts differ: {a.cols} vs {b.cols}")
    rows = np.concatenate([as_array(a), as_array(b)])
    in_a = (np.arange(len(rows)) < a.rows)[:, None]
    ranks = gf_rref(a.ctx, [rows * in_a, rows * ~in_a, rows]).any(axis=2).sum(axis=1)
    return int(ranks[0] + ranks[1] - ranks[2])


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
    block: each token between U+0020 spaces must match `-?[0-9]+`, `MatGFq`
    checks the row lengths and entries, a Python RREF the RREF form, and a
    list lookup the distinctness.  Lines end where text-mode `open()` ends
    them: at LF, CR LF and CR."""
    data = []
    for ln, raw in enumerate(io.StringIO(text, newline=None).read().split("\n"), 1):
        line = raw.strip(" ")
        if not line or line.startswith("#"):
            continue
        tokens = [tok for tok in line.split(" ") if tok]
        try:
            if not all(re.fullmatch("-?[0-9]+", tok) for tok in tokens):
                raise ValueError
            data.append([int(tok) for tok in tokens])  # or past int()'s digit limit
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
        sub = subspace(ctx, n, rows)
        if sub in members:
            raise InvalidArgs(f"duplicate blocks: duplicate family member {list(map(list, rows))}")
        members.append(sub)
    return ctx, n, k, SubspaceFamily(members)


def _poly_mul(field, a, b):
    """Product of two polynomials over field, constant term first."""
    if not a or not b:
        return ()
    add_t, mul_t, _, _ = tables(field)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = add_t[out[i + j]][mul_t[ai][bj]]
    return tuple(out)


def _poly_rem(field, a, m):
    """Remainder of a modulo the monic polynomial m, one element at a time."""
    add_t, mul_t, neg_t, _ = tables(field)
    rem = list(a)
    dm = len(m) - 1
    for i in range(len(rem) - 1, dm - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        rem[i] = 0
        for j in range(dm):
            rem[i - dm + j] = add_t[rem[i - dm + j]][neg_t[mul_t[c][m[j]]]]
    return tuple(rem[:dm])


def _monics(q: int, deg: int) -> list:
    """The monic polynomials of degree deg over GF(q) in ascending code order:
    the base-q digits of each code, constant term first, then the leading 1."""
    return [tuple(code // q**i % q for i in range(deg)) + (1,) for code in range(q**deg)]


def _is_irreducible(field, m) -> bool:
    """Trial division of the monic polynomial m by all lower-degree monics."""
    deg = len(m) - 1
    divisors = (div for d in range(1, deg // 2 + 1) for div in _monics(field.q, d))
    return deg >= 1 and all(any(_poly_rem(field, m, div)) for div in divisors)


def smallest_irreducible(field, deg: int) -> tuple:
    """The first monic irreducible of degree deg in ascending code order, by
    `_is_irreducible` on one candidate at a time."""
    return next(m for m in _monics(field.q, deg) if _is_irreducible(field, m))


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
        self.modulus = smallest_irreducible(base, t)

    def coords(self, a: int) -> tuple:
        """Base-field coordinates of a over the power basis (length t)."""
        return tuple(a // self.base.q**i % self.base.q for i in range(self.t))

    def from_coords(self, coords) -> int:
        v = 0
        for c in reversed(coords):
            v = v * self.base.q + c
        return v

    def add(self, a: int, b: int) -> int:
        add_t = tables(self.base)[0]
        return self.from_coords(
            tuple(add_t[x][y] for x, y in zip(self.coords(a), self.coords(b)))
        )

    def mul(self, a: int, b: int) -> int:
        prod = _poly_rem(self.base, _poly_mul(self.base, self.coords(a), self.coords(b)),
                         self.modulus)
        return self.from_coords(prod + (0,) * (self.t - len(prod)))

    def __repr__(self):
        return f"GF({self.base.q}^{self.t})"


def spread_by_extension_field(ctx, n: int, t: int) -> SubspaceFamily:
    """The field-reduction t-spread of V(n,q), member <w> spanned by the
    rows y^j·w, each big coordinate multiplied by `ExtensionField.mul`."""
    ext = ExtensionField(ctx, t)
    powers = [ext.from_coords([0] * j + [1]) for j in range(t)]
    return SubspaceFamily([
        subspace(ctx, n, [sum((ext.coords(ext.mul(y, w)) for w in rep), ()) for y in powers])
        for rep in point_reps(ext.order, n // t)])


def partition_tail_by_extension_field(ctx, n: int, k: int) -> SubspaceFamily:
    """The tail X_a = {(a·y^j, y^j)} of the mixed partition for
    n = s + t, 0 < t < k+1, one `ExtensionField.mul` per row."""
    t = n % (k + 1)
    s = n - t
    ext = ExtensionField(ctx, s)
    return SubspaceFamily([
        subspace(ctx, n, [ext.coords(ext.mul(a, ext.from_coords([0] * j + [1])))
                          + tuple(int(i == j) for i in range(t)) for j in range(t)])
        for a in range(ext.order)])


_PRECISION_BITS = 96


def _log_mpmath(x, base: str = "e"):
    v = mpmath.log(mpmath.mpf(x))
    if base == "e":
        return v
    if base in ("2", "10"):
        return v / mpmath.log(int(base))
    raise InvalidArgs(f"log base must be one of {LOG_BASES}, got {base!r}")


def log_estimate_mpmath(q: int, n: int, k: int) -> float:
    """`bounds.log_estimate` at 96-bit mpmath precision."""
    if k < 2:
        raise InvalidArgs(f"need k >= 2, got {k}")
    nv = gaussian_binomial(n, k, q)
    with mpmath.workprec(_PRECISION_BITS):
        return _finite(float(mpmath.log(mpmath.mpf(nv)) / mpmath.log(k)), "log estimate")


def babai_general_mpmath(q: int, n: int, k: int, log_base: str = "e") -> float:
    """`bounds.babai_general` at 96-bit mpmath precision."""
    nv = gaussian_binomial(n, k, q)
    with mpmath.workprec(_PRECISION_BITS):
        return _finite(float(4 * mpmath.sqrt(mpmath.mpf(nv)) * _log_mpmath(nv, log_base)),
                       "general upper bound")


def babai_strong_mpmath(q: int, n: int, k: int, log_base: str = "e") -> tuple:
    """`bounds.babai_strong` at 96-bit mpmath precision."""
    if k > n - k:
        raise InvalidArgs(f"need k <= n-k, got n={n} k={k}")
    nv = gaussian_binomial(n, k, q)
    big_m, arg = 1, 0
    for j in range(k + 1):
        term = distance_class_size(q, n, k, j)
        if term > big_m:
            big_m, arg = term, j
    if big_m >= nv:
        raise DegenerateBound(f"M={big_m} >= N={nv}")
    with mpmath.workprec(_PRECISION_BITS):
        bound = float(
            2 * k * mpmath.mpf(nv) / mpmath.mpf(nv - big_m) * _log_mpmath(nv, log_base)
        )
    return _finite(bound, "strong upper bound"), big_m, arg
