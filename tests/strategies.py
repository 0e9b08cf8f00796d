"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from grassmd.gfq import field_new
from grassmd.subspaces import Subspace


@st.composite
def rref_families(draw):
    """1-5 random d-subspaces of V(n,q), each written directly in RREF."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
    n = draw(st.integers(1, {2: 6, 3: 5, 4: 4, 5: 4}.get(q, 3)))
    d = draw(st.integers(1, n))
    ctx = field_new(q)
    members = []
    for _ in range(draw(st.integers(1, 5))):
        pivots = sorted(draw(st.sets(st.integers(0, n - 1), min_size=d, max_size=d)))
        rows = [[0] * n for _ in range(d)]
        for i, p in enumerate(pivots):
            rows[i][p] = 1
            for c in range(p + 1, n):
                if c not in pivots:
                    rows[i][c] = draw(st.integers(0, q - 1))
        members.append(Subspace.from_rows(ctx, n, rows))
    return members
