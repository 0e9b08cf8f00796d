"""Gaussian binomials, k-subspace enumeration, projective point index."""

import inspect
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from grassmd import subspaces as subspaces_mod

from grassmd.errors import BudgetExceeded, InvalidArgs, TooLarge
from grassmd.constructions import (
    build_mixed_partition,
    resolving_from_partition,
    resolving_from_spread,
    resolving_greedy_rank,
)
from grassmd.gfq import field_new
from grassmd.linalg import rref_rows
from grassmd.grassmann import GrassmannGraph
from grassmd.subspaces import (
    BINOMIAL_MAX_DIGITS,
    Subspace,
    SubspaceFamily,
    bases_incidence_block,
    check_budget,
    enumerate_bases,
    enumerate_k_subspaces,
    enumeration_budget,
    gaussian_binomial,
    gf_rref,
    is_rref,
)
from oracles import PointIndex, gaussian_binomial_pascal, incidence_vector, mat
from strategies import rref_families


# hand-checked values; 11011 = (3^6-1)(3^6-3)/((3^2-1)(3^2-3)) = 728*726/(8*6)
PINNED_BINOMIALS = [
    (4, 2, 2, 35),
    (5, 2, 2, 155),
    (6, 2, 2, 651),
    (6, 3, 2, 1395),
    (4, 2, 3, 130),
    (6, 2, 3, 11011),
    (6, 3, 3, 33880),
    (4, 2, 4, 357),
    (4, 1, 2, 15),
    (5, 1, 3, 121),
]


@pytest.mark.parametrize("n,k,q,expected", PINNED_BINOMIALS)
def test_gaussian_binomial_pinned(n, k, q, expected):
    assert gaussian_binomial(n, k, q) == expected
    assert gaussian_binomial_pascal(n, k, q) == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 16])
def test_product_formula_matches_pascal_recurrence(q):
    for n in range(0, 11):
        for k in range(0, n + 1):
            assert gaussian_binomial(n, k, q) == gaussian_binomial_pascal(n, k, q)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_symmetry_and_column_recurrence(q):
    for n in range(1, 10):
        for k in range(0, n + 1):
            v = gaussian_binomial(n, k, q)
            assert v == gaussian_binomial(n, n - k, q)
        for k in range(1, n):
            # the recurrence on the other index; independent of both
            # implementation paths
            assert gaussian_binomial(n, k, q) == (
                gaussian_binomial(n - 1, k, q)
                + q ** (n - k) * gaussian_binomial(n - 1, k - 1, q)
            )


def test_boundary_values_and_errors():
    assert gaussian_binomial(0, 0, 2) == 1
    assert gaussian_binomial(7, 0, 3) == 1
    assert gaussian_binomial(7, 7, 3) == 1
    for n in range(1, 8):
        assert gaussian_binomial(n, 1, 2) == 2 ** n - 1
    with pytest.raises(InvalidArgs):
        gaussian_binomial(2, 3, 2)
    with pytest.raises(InvalidArgs):
        gaussian_binomial(2, -1, 2)
    with pytest.raises(InvalidArgs):
        gaussian_binomial(4, 2, 1)


def test_binomial_digit_ceiling():
    # [1900 7]_2 has 3990 digits, within the ceiling; the estimate for
    # [2000 7]_2 is 4199 digits, so it is refused before it is computed
    assert len(str(gaussian_binomial(1900, 7, 2))) == 3990 <= BINOMIAL_MAX_DIGITS
    with pytest.raises(TooLarge, match="digits"):
        gaussian_binomial(2000, 7, 2)
    with pytest.raises(TooLarge, match="digits"):
        gaussian_binomial(10**9, 2, 2)


def test_binomial_count_limit_is_ordinary_binomial():
    # [n k]_q is a polynomial in q whose value at q=1 is C(n, k); recover the
    # polynomial by Lagrange interpolation at integer points and evaluate at 1
    for n, k in [(4, 2), (5, 2), (6, 3), (7, 3)]:
        deg = k * (n - k)
        xs = list(range(2, deg + 4))
        ys = [gaussian_binomial(n, k, x) for x in xs]
        # value at q=1 via exact Lagrange evaluation with Fraction-free sums
        from fractions import Fraction

        total = Fraction(0)
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            term = Fraction(yi)
            for j, xj in enumerate(xs):
                if i != j:
                    term *= Fraction(1 - xj, xi - xj)
            total += term
        assert total == math.comb(n, k)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 5), (4, 3)])
def test_point_count_polynomial_is_all_ones(q, n):
    # (q^n - 1)/(q - 1) = 1 + q + ... + q^(n-1): divide out exactly and check
    # every coefficient, so the value at q=1 is n
    num = [-1] + [0] * (n - 1) + [1]  # q^n - 1, constant term first
    den = [-1, 1]  # q - 1
    quot = [0] * n
    for i in range(n - 1, -1, -1):
        quot[i] = num[i + 1]
        num[i + 1] -= quot[i]
        num[i] += quot[i]
    assert all(c == 0 for c in num)  # exact division
    assert quot == [1] * n
    assert sum(quot) == n  # evaluation at q = 1
    assert sum(c * q ** i for i, c in enumerate(quot)) == gaussian_binomial(n, 1, q)


def enum_grid():
    grid = []
    for q in (2, 3, 4):
        for n in range(1, 7):
            for k in range(1, min(n, 3) + 1):
                grid.append((q, n, k))
    return grid


def test_enumeration_counts_match_binomial():
    budget = enumeration_budget()
    for q, n, k in enum_grid():
        expected = gaussian_binomial(n, k, q)
        if expected > budget:
            continue
        subs = enumerate_k_subspaces(field_new(q), n, k)
        assert len(subs) == expected, (q, n, k)


def object_order(ctx, n, k) -> list:
    """Every RREF basis built row by row from its pivot pattern and the
    product of its free-slot values, sorted by basis rows: the order the
    array enumerator must reproduce."""
    out = []
    for pivots in itertools.combinations(range(n), k):
        free = [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        for vals in itertools.product(range(ctx.q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), x in zip(free, vals):
                rows[i][c] = x
            out.append(tuple(map(tuple, rows)))
    return sorted(out)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_array_enumerator_matches_object_order(q):
    ctx = field_new(q)
    # hyperplanes whose n(n-1) base-q digits exceed 62 bits need several
    # sort keys
    hyperplanes = {2: (9, 8), 3: (7, 6), 4: (7, 6), 5: (6, 5), 7: (6, 5), 8: (6, 5), 9: (5, 4)}[q]
    shapes = [(1, 1), (3, 2), (4, 1), (4, 2), (4, 3), hyperplanes]
    shapes += [(5, 2), (6, 3)] if q <= 3 else []
    for n, k in shapes:
        bases = enumerate_bases(ctx, n, k)
        assert bases.dtype == np.uint8 and not bases.flags.writeable
        rows = [tuple(map(tuple, b)) for b in bases.tolist()]
        assert rows == object_order(ctx, n, k), (q, n, k)
        subs = enumerate_k_subspaces(ctx, n, k)
        assert [s.basis.data for s in subs] == rows
        for s in subs[:: max(1, len(subs) // 40)]:
            assert s == Subspace.from_rows(ctx, n, s.basis.data)
            assert s.pivots == Subspace.from_rows(ctx, n, s.basis.data).pivots


def test_enumerate_bases_refuses_before_allocating(monkeypatch):
    monkeypatch.setenv("GRASSMANN_BUDGET", "1394")  # [6 3]_2 = 1395
    monkeypatch.setattr(subspaces_mod, "np", None)  # any array would fail
    with pytest.raises(BudgetExceeded, match="1395 exceeds budget 1394"):
        enumerate_bases(field_new(2), 6, 3)


def test_check_budget_bounds_counts_and_table_cells(monkeypatch):
    monkeypatch.setenv("GRASSMANN_BUDGET", "10")
    check_budget(10)
    check_budget(100, "cells", cells=True)
    with pytest.raises(BudgetExceeded, match="^11 exceeds budget 10$"):
        check_budget(11)
    with pytest.raises(BudgetExceeded, match="^11 points exceed budget 10$"):
        check_budget(11, "points")
    with pytest.raises(BudgetExceeded, match="^101 distance cells exceed ceiling 100$"):
        check_budget(101, "distance cells", cells=True)


def test_enumeration_pinned_small_cases():
    ctx = field_new(2)
    lines = enumerate_k_subspaces(ctx, 2, 1)
    assert [s.basis.data for s in lines] == [((0, 1),), ((1, 0),), ((1, 1),)]
    whole = enumerate_k_subspaces(field_new(3), 2, 2)
    assert len(whole) == 1 and whole[0].dim == 2


def test_enumeration_is_sorted_and_duplicate_free():
    for q, n, k in [(2, 4, 2), (3, 4, 2), (2, 5, 3), (4, 4, 2)]:
        subs = enumerate_k_subspaces(field_new(q), n, k)
        keys = [s.basis.data for s in subs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for s in subs:
            assert s.dim == k and s.n == n


def test_enumeration_budget_env(monkeypatch):
    monkeypatch.setenv("GRASSMANN_BUDGET", "100")
    assert enumeration_budget() == 100
    with pytest.raises(BudgetExceeded):
        enumerate_k_subspaces(field_new(2), 6, 3)
    monkeypatch.delenv("GRASSMANN_BUDGET")
    assert enumeration_budget() == 1000000


def test_subspace_requires_rref_basis():
    ctx = field_new(2)
    with pytest.raises(InvalidArgs):
        Subspace(ctx, 3, mat(ctx, [[0, 1, 0], [1, 0, 0]]))  # pivots out of order
    with pytest.raises(InvalidArgs):
        Subspace(ctx, 3, mat(ctx, [[1, 1, 0], [0, 1, 0]]))  # unreduced pivot col


def test_subspace_always_validates_and_from_rows_checks_its_input():
    # the constructor takes no trusted pivots; only `_from_rref` skips checks
    assert list(inspect.signature(Subspace).parameters) == ["ctx", "n", "basis"]
    ctx = field_new(2)
    with pytest.raises(InvalidArgs, match="not a GF"):
        Subspace.from_rows(ctx, 3, [[1, 2, 0]])
    with pytest.raises(InvalidArgs, match="not a GF"):
        Subspace.from_rows(ctx, 2, [[3, 0]])
    with pytest.raises(InvalidArgs, match="shape"):
        Subspace.from_rows(ctx, 2, [[1, 0, 0]])


@pytest.mark.parametrize("n,k", [(4, 1), (4, 3), (5, 3), (3, 2)])
def test_graph_shape_is_one_check(n, k):
    ctx = field_new(2)
    for build in (GrassmannGraph, resolving_from_spread, resolving_from_partition,
                  build_mixed_partition, resolving_greedy_rank):
        with pytest.raises(InvalidArgs, match=rf"^need 2 <= k <= n/2, got n={n} k={k}$"):
            build(ctx, n, k)


def test_from_rows_canonicalizes():
    ctx = field_new(3)
    a = Subspace.from_rows(ctx, 3, [[1, 2, 0], [0, 1, 1]])
    # rows are combinations of a's basis, so the row space is identical
    b = Subspace.from_rows(ctx, 3, [[1, 1, 2], [0, 2, 2]])
    assert a.basis.data == b.basis.data
    assert a.dim == 2
    # dependent rows collapse to the actual dimension
    assert Subspace.from_rows(ctx, 3, [[1, 0, 0], [2, 0, 0]]).dim == 1
    assert Subspace.from_rows(ctx, 3, [[0, 0, 0]]).dim == 0


def test_subspace_contains():
    ctx = field_new(2)
    s = Subspace.from_rows(ctx, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert s.contains((1, 1, 0, 0))
    assert s.contains((0, 0, 0, 0))
    assert not s.contains((0, 0, 1, 0))


def test_family_rejects_duplicates():
    ctx = field_new(2)
    s = Subspace.from_rows(ctx, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    t = Subspace.from_rows(ctx, 4, [[0, 1, 0, 0], [1, 1, 0, 0]])  # same space
    with pytest.raises(InvalidArgs):
        SubspaceFamily([s, t])


def test_family_is_a_read_only_copy_of_its_bases():
    ctx = field_new(3)
    bases = enumerate_bases(ctx, 4, 2)[:6].copy()
    fam = SubspaceFamily.from_bases(ctx, bases)
    bases[:] = 0
    assert not fam.bases.flags.writeable and fam.bases.any()
    assert list(fam) == enumerate_k_subspaces(ctx, 4, 2)[:6]
    assert fam[-1] == fam[5] and len(fam) == 6
    assert SubspaceFamily(fam) == fam != SubspaceFamily(list(fam)[:5])
    assert SubspaceFamily([]) == SubspaceFamily.from_bases(ctx, bases[:0])
    assert SubspaceFamily.from_bases(ctx, enumerate_bases(field_new(2), 4, 2)[:6]) != fam


def test_family_refuses_repeats_and_mixed_shapes():
    ctx = field_new(2)
    bases = enumerate_bases(ctx, 4, 2)
    # the first member seen twice in a scan in order is named: vertex 1
    with pytest.raises(InvalidArgs) as exc:
        SubspaceFamily.from_bases(ctx, bases[[3, 1, 2, 1, 3]])
    assert str(exc.value) == f"duplicate family member {enumerate_k_subspaces(ctx, 4, 2)[1]!r}"
    zero = Subspace.from_rows(ctx, 4, [[0, 0, 0, 0]])
    with pytest.raises(InvalidArgs, match="duplicate family member"):
        SubspaceFamily([zero, zero])
    line = Subspace.from_rows(ctx, 4, [[1, 0, 0, 0]])
    for other in (line, Subspace.from_rows(ctx, 5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]),
                  Subspace.from_rows(field_new(3), 4, [[1, 0, 0, 0], [0, 1, 0, 0]])):
        with pytest.raises(InvalidArgs, match="differ in field, ambient space or dimension"):
            SubspaceFamily([Subspace.from_rows(ctx, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]), other])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_gf_rref_matches_the_tuple_rref(q):
    # random full-rank matrices, reduced as one batch per shape
    ctx = field_new(q)
    rng = random.Random(q)
    for r, n in [(1, 3), (2, 2), (2, 5), (3, 6), (4, 5)]:
        mats = []
        while len(mats) < 30:
            m = [[rng.choice([0, 0, rng.randrange(q)]) for _ in range(n)] for _ in range(r)]
            if len(rref_rows(ctx, m, n)[0]) == r:
                mats.append(m)
        got = gf_rref(ctx, np.array(mats, dtype=np.uint8))
        assert [tuple(map(tuple, b)) for b in got.tolist()] == [rref_rows(ctx, m, n)[0] for m in mats]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_is_rref_matches_the_tuple_rref(q):
    # a basis is RREF iff the tuple RREF leaves it unchanged; RREF bases
    # with one entry changed, rows reversed or zeroed break each rule in turn
    ctx = field_new(q)
    rng = random.Random(10 + q)
    for n, d in [(3, 1), (4, 2), (5, 3), (4, 4)]:
        bases = enumerate_bases(ctx, n, d)
        sample = bases[sorted(rng.sample(range(len(bases)), min(len(bases), 60)))].copy()
        for b in sample[1::3]:
            b[rng.randrange(d), rng.randrange(n)] = rng.randrange(q)
        for b in sample[2::3]:
            b[:] = b[::-1] if rng.random() < 0.5 else 0
        want = [rref_rows(ctx, b, n)[0] == tuple(map(tuple, b)) for b in sample.tolist()]
        assert is_rref(sample).tolist() == want
        assert any(want) and (len(sample) == 1 or not all(want))


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3), (4, 3)])
def test_point_index_basic(q, n):
    idx = PointIndex(field_new(q), n)
    pts = idx.points
    assert len(pts) == gaussian_binomial(n, 1, q)
    # representatives sorted by big-endian base-q encoding, first entry 1
    encs = [sum(c * q ** (n - 1 - i) for i, c in enumerate(p)) for p in pts]
    assert encs == sorted(encs)
    for p in pts:
        nz = [c for c in p if c]
        assert nz[0] == 1
    assert pts[0] == (0,) * (n - 1) + (1,)


def test_point_index_normalize_and_lookup():
    ctx = field_new(3)
    idx = PointIndex(ctx, 3)
    for p in idx.points:
        doubled = tuple(ctx.mul(2, c) for c in p)
        assert idx.normalize(doubled) == p
        assert idx.points[idx.index_of(doubled)] == p


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2)])
def test_incidence_vector_popcount_and_injectivity(q, n, k):
    ctx = field_new(q)
    idx = PointIndex(ctx, n)
    subs = enumerate_k_subspaces(ctx, n, k)
    points_total = gaussian_binomial(n, 1, q)
    points_per_sub = gaussian_binomial(k, 1, q)
    seen = set()
    for s in subs:
        v = incidence_vector(s, idx)
        assert len(v) == points_total
        assert sum(v) == points_per_sub
        seen.add(v)
    assert len(seen) == len(subs)  # distinct subspaces, distinct supports


@settings(max_examples=80, deadline=None)
@given(rref_families())
def test_incidence_block_matches_incidence_vector(members):
    fam = SubspaceFamily(dict.fromkeys(members))
    idx = PointIndex(fam.ctx, fam.bases.shape[2])
    rows = [tuple(r) for r in bases_incidence_block(fam.ctx, fam.bases).tolist()]
    assert rows == [incidence_vector(s, idx) for s in fam]


def test_incidence_block_refuses_too_many_cells_before_building(monkeypatch):
    ctx = field_new(2)
    bases = enumerate_bases(ctx, 5, 2)  # 155 x 31 = 4805 cells
    monkeypatch.setenv("GRASSMANN_BUDGET", "400")  # ceiling 10 * 400 cells

    def unreachable(ctx, bases):
        raise AssertionError("points listed before the cell check")

    monkeypatch.setattr(subspaces_mod, "bases_point_ordinals", unreachable)
    with pytest.raises(BudgetExceeded, match="incidence cells"):
        bases_incidence_block(ctx, bases)
    monkeypatch.undo()
    monkeypatch.setenv("GRASSMANN_BUDGET", "481")
    assert bases_incidence_block(ctx, bases).shape == (155, 31)
