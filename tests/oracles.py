"""Independent oracles that the tests check the production kernels against.

Nothing in `grassmd` calls these.  Each computes its answer by a route of
its own: Gaussian binomials by the Pascal recurrence, point incidence by
membership tests, codes by stacked RREF ranks, graph distance by BFS, and
small matrices through plain Gauss-Jordan on `MatGFq` objects.
"""

from grassmd.grassmann import bfs_distances_from, distance
from grassmd.linalg import MatGFq, rref_rows
from grassmd.subspaces import point_reps


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
