"""Exact GF(q) linear algebra: RREF, rank, intersection, basis extension."""

import random

import pytest

from grassmd.errors import DimensionMismatch, InvalidArgs
from grassmd.gfq import field_new
from grassmd.linalg import MatGFq, intersect_dim, mat_mul
from oracles import mat, rank, rref, stack


# Helpers that nothing in the package needs; kept here, with the oracles,
# as the subjects of the algebra checks below.


def transpose(m):
    return MatGFq(m.ctx, m.cols, m.rows, tuple(zip(*m.data)) if m.rows else ((),) * m.cols)


def sum_space(a, b):
    """RREF basis of rowspace(a) + rowspace(b)."""
    return rref(stack(a, b))[0]


def extend_basis(independent, ambient):
    """Rows of ambient, first-fit in row order, completing independent to a
    basis of rowspace(ambient).  Returns only the added rows."""
    basis, added = independent, []
    for row in ambient.data:
        grown = stack(basis, mat(ambient.ctx, [row]))
        if rank(grown) > basis.rows:
            basis, added = grown, added + [row]
    return MatGFq(ambient.ctx, len(added), ambient.cols, added)


def random_mat(ctx, rows, cols, rng):
    return mat(ctx, [[rng.randrange(ctx.q) for _ in range(cols)] for _ in range(rows)])


def random_invertible(ctx, n, rng):
    while True:
        m = random_mat(ctx, n, n, rng)
        if rank(m) == n:
            return m


def is_rref(m):
    prev = -1
    for i in range(m.rows):
        row = m.data[i]
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            return False  # rref() drops zero rows
        piv = nz[0]
        if piv <= prev or row[piv] != 1:
            return False
        # pivot column must be zero elsewhere
        if any(m.data[r][piv] for r in range(m.rows) if r != i):
            return False
        prev = piv
    return True


def test_rref_pinned_gf2():
    ctx = field_new(2)
    r, rk = rref(mat(ctx, [[1, 1, 0], [1, 0, 1]]))
    assert rk == 2
    assert r.data == ((1, 0, 1), (0, 1, 1))


def test_rref_pinned_gf3_rank_deficient():
    ctx = field_new(3)
    # second row is 2x the first
    r, rk = rref(mat(ctx, [[2, 1], [1, 2]]))
    assert rk == 1
    assert r.data == ((1, 2),)


def test_rref_zero_matrix():
    ctx = field_new(2)
    r, rk = rref(mat(ctx, [[0, 0], [0, 0]]))
    assert rk == 0 and r.rows == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_rref_idempotent_and_canonical(q):
    ctx = field_new(q)
    rng = random.Random(q)
    for _ in range(40):
        m = random_mat(ctx, rng.randrange(1, 5), rng.randrange(1, 6), rng)
        r, rk = rref(m)
        assert is_rref(r) or rk == 0
        r2, rk2 = rref(r)
        assert (r2.data, rk2) == (r.data, rk)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rref_invariant_under_row_operations(q):
    # left-multiplying by an invertible matrix preserves the row space,
    # so the canonical form must not change
    ctx = field_new(q)
    rng = random.Random(100 + q)
    for _ in range(25):
        rows, cols = rng.randrange(1, 4), rng.randrange(2, 6)
        m = random_mat(ctx, rows, cols, rng)
        g = random_invertible(ctx, rows, rng)
        assert rref(mat_mul(g, m))[0].data == rref(m)[0].data


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rank_equals_rank_of_transpose(q):
    ctx = field_new(q)
    rng = random.Random(q * 3)
    for _ in range(30):
        m = random_mat(ctx, rng.randrange(1, 6), rng.randrange(1, 6), rng)
        rk = rank(m)
        assert rk == rank(transpose(m))
        assert rk <= min(m.rows, m.cols)


def test_mat_mul_against_naive():
    ctx = field_new(4)
    rng = random.Random(9)
    for _ in range(20):
        a = random_mat(ctx, rng.randrange(1, 4), rng.randrange(1, 4), rng)
        b = random_mat(ctx, a.cols, rng.randrange(1, 4), rng)
        c = mat_mul(a, b)
        for i in range(a.rows):
            for j in range(b.cols):
                acc = 0
                for t in range(a.cols):
                    acc = ctx.add(acc, ctx.mul(a.data[i][t], b.data[t][j]))
                assert c.data[i][j] == acc


def test_mat_rejects_bad_shapes():
    ctx = field_new(2)
    with pytest.raises(InvalidArgs):
        mat(ctx, [[1, 0], [1]])
    with pytest.raises(InvalidArgs):
        mat(ctx, [[1, 2]])  # 2 is not a GF(2) element


def test_mat_mul_shape_mismatch():
    ctx = field_new(2)
    a = mat(ctx, [[1, 0]])
    with pytest.raises(DimensionMismatch):
        mat_mul(a, a)


def test_intersect_dim_pinned():
    ctx = field_new(2)
    # two planes in GF(2)^4 sharing the line <e1>
    a = rref(mat(ctx, [[1, 0, 0, 0], [0, 1, 0, 0]]))[0]
    b = rref(mat(ctx, [[1, 0, 0, 0], [0, 0, 1, 0]]))[0]
    assert intersect_dim(a, b) == 1
    assert intersect_dim(a, a) == 2


@pytest.mark.parametrize("q", [2, 3, 4])
def test_modular_law(q):
    # dim(A) + dim(B) == dim(A+B) + dim(A∩B)
    ctx = field_new(q)
    rng = random.Random(50 + q)
    for _ in range(30):
        n = rng.randrange(2, 6)
        a = rref(random_mat(ctx, rng.randrange(1, n + 1), n, rng))[0]
        b = rref(random_mat(ctx, rng.randrange(1, n + 1), n, rng))[0]
        if a.rows == 0 or b.rows == 0:
            continue
        s = sum_space(a, b)
        assert a.rows + b.rows == s.rows + intersect_dim(a, b)
        # A + B contains A: stacking adds no rank
        assert rank(stack(s, a)) == s.rows


def test_extend_basis_completes_to_ambient():
    ctx = field_new(3)
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randrange(2, 6)
        ident = mat(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
        d = rng.randrange(1, n)
        part = rref(random_mat(ctx, d, n, rng))[0]
        if part.rows == 0:
            continue
        added = extend_basis(part, ident)
        assert added.rows == n - part.rows
        assert rank(stack(part, added)) == n


def test_extend_basis_inside_proper_subspace():
    ctx = field_new(2)
    amb = rref(mat(ctx, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))[0]
    part = rref(mat(ctx, [[0, 1, 0, 0]]))[0]
    added = extend_basis(part, amb)
    assert added.rows == 2
    assert rank(stack(part, added)) == 3
    # every added row lies in the ambient space
    assert rank(stack(amb, added)) == 3


def test_extend_basis_pinned():
    # only one generator of the ambient space can complete the basis
    ctx = field_new(2)
    amb = rref(mat(ctx, [[1, 1, 0], [0, 0, 1]]))[0]
    part = mat(ctx, [[1, 1, 0]])
    added = extend_basis(part, amb)
    assert added.data == ((0, 0, 1),)
    # already complete: nothing to add
    assert extend_basis(amb, amb).rows == 0


def test_context_must_match():
    a = mat(field_new(2), [[1, 0]])
    with pytest.raises(DimensionMismatch):
        intersect_dim(a, mat(field_new(3), [[1, 0]]))
    with pytest.raises(DimensionMismatch):
        intersect_dim(a, mat(field_new(2), [[1, 0, 0]]))
