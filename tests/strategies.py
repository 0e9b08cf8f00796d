"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from grassmd.gfq import field_new
from grassmd.linalg import MatGFq, Subspace


def _rref_subspace(draw, ctx, n: int, d: int) -> Subspace:
    """A random d-subspace of V(n,q), written directly in RREF."""
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), min_size=d, max_size=d)))
    rows = [[0] * n for _ in range(d)]
    for i, p in enumerate(pivots):
        rows[i][p] = 1
        for c in range(p + 1, n):
            if c not in pivots:
                rows[i][c] = draw(st.integers(0, ctx.q - 1))
    return Subspace(ctx, n, MatGFq(ctx, d, n, rows))


@st.composite
def rref_families(draw):
    """1-5 random d-subspaces of V(n,q), each written directly in RREF."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
    n = draw(st.integers(1, {2: 6, 3: 5, 4: 4, 5: 4}.get(q, 3)))
    d = draw(st.integers(1, n))
    ctx = field_new(q)
    return [_rref_subspace(draw, ctx, n, d) for _ in range(draw(st.integers(1, 5)))]


@st.composite
def rref_vertex_pairs(draw, shapes):
    """((q, n, k), a, b): a shape from shapes and two random k-subspaces of
    V(n,q), written directly in RREF."""
    q, n, k = draw(st.sampled_from(shapes))
    ctx = field_new(q)
    return (q, n, k), _rref_subspace(draw, ctx, n, k), _rref_subspace(draw, ctx, n, k)
