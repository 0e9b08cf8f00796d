"""Spreads, mixed partitions, and the resolving families built from them."""

import itertools

import pytest

from grassmd.errors import BudgetExceeded, InvalidArgs, InvalidShape, NotDivisor
from grassmd.gfq import field_new
from grassmd.grassmann import GrassmannGraph, is_resolving
from grassmd.linalg import MatGFq, Subspace
from grassmd.constructions import (
    build_mixed_partition,
    build_spread,
    resolving_from_partition,
    resolving_from_spread,
    resolving_greedy_rank,
)
from grassmd.rank import certify_resolving_by_rank
from grassmd.subspaces import gaussian_binomial
from oracles import (
    contains,
    intersect_dim,
    ordinal,
    partition_tail_by_extension_field,
    pivots,
    spread_by_extension_field,
    vertices,
)


def nonzero_vectors(q, n):
    ctx = field_new(q)
    for v in itertools.product(range(q), repeat=n):
        if any(v):
            yield v


def assert_exact_cover(q, n, parts):
    # every nonzero vector lies in exactly one part
    for v in nonzero_vectors(q, n):
        hits = sum(1 for s in parts if contains(s, v))
        assert hits == 1, v


@pytest.mark.parametrize(
    "q,n,t,count",
    [(2, 4, 2, 5), (2, 6, 2, 21), (2, 6, 3, 9), (3, 4, 2, 10), (2, 4, 1, 15)],
)
def test_spread_partitions_nonzero_vectors(q, n, t, count):
    members = list(build_spread(field_new(q), n, t))
    assert len(members) == count == (q ** n - 1) // (q ** t - 1)
    assert all(m.dim == t for m in members)
    for a, b in itertools.combinations(members, 2):
        assert intersect_dim(a.basis, b.basis) == 0
    if q ** n <= 2 ** 8:
        assert_exact_cover(q, n, members)


def test_spread_requires_divisor():
    with pytest.raises(NotDivisor):
        build_spread(field_new(2), 5, 2)
    with pytest.raises(NotDivisor):
        build_spread(field_new(3), 4, 3)


@pytest.mark.parametrize("n,t", [(4, 0), (2, -1), (0, 1), (2, 3)])
def test_spread_requires_1_le_t_le_n(n, t):
    with pytest.raises(InvalidArgs, match="1 <= t <= n"):
        build_spread(field_new(2), n, t)


def test_spread_is_deterministic():
    a = build_spread(field_new(2), 6, 2)
    b = build_spread(field_new(2), 6, 2)
    assert a == b


@pytest.mark.parametrize("q,n,k,size", [(2, 6, 2, 63), (3, 6, 2, 364), (2, 8, 3, 255)])
def test_resolving_from_spread_sizes(q, n, k, size):
    fam = resolving_from_spread(field_new(q), n, k)
    assert len(fam) == size == gaussian_binomial(n, 1, q)
    assert all(m.dim == k and m.n == n for m in fam)


def test_resolving_from_spread_verified_small():
    ctx = field_new(2)
    g = GrassmannGraph(ctx, 6, 2)
    fam = resolving_from_spread(ctx, 6, 2)
    assert is_resolving(fam, g).resolving
    cert = certify_resolving_by_rank(fam)
    assert cert.certified and cert.rank == 63


def test_resolving_from_spread_errors():
    with pytest.raises(NotDivisor):
        resolving_from_spread(field_new(2), 5, 2)  # k+1 does not divide n
    with pytest.raises(InvalidArgs):
        resolving_from_spread(field_new(2), 6, 4)  # k > n/2


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 2)])
def test_mixed_partition_structure(q, n, k):
    ctx = field_new(q)
    mp = build_mixed_partition(ctx, n, k)
    t = n % (k + 1)
    s = n - t
    assert (mp.s, mp.t) == (s, t)
    spread_members = list(mp.spread_part)
    tail_members = list(mp.tail_part)
    assert len(spread_members) == (q ** s - 1) // (q ** (k + 1) - 1)
    assert all(m.dim == k + 1 for m in spread_members)
    assert len(tail_members) == q ** s
    assert all(m.dim == t for m in tail_members)
    # all parts together partition the nonzero vectors of the whole space
    assert_exact_cover(q, n, list(spread_members) + list(tail_members))
    # tail parts avoid the leading subspace spanned by the first s coordinates
    for m in tail_members:
        for v in nonzero_vectors(q, n):
            if contains(m, v):
                assert any(v[s:]), v
    # joining subspace: a read-only RREF basis of a subspace inside the
    # first spread part
    w1 = spread_members[0]
    assert mp.Z.shape == (k - t + 1, n) and not mp.Z.flags.writeable
    z = Subspace(ctx, n, MatGFq(ctx, *mp.Z.shape, mp.Z.tolist()))  # checks RREF
    assert all(contains(w1, v) for v in z.basis.data)


# past the pinned outputs: other fields, degrees and ambient spaces
@pytest.mark.parametrize("q,n,t", [(2, 10, 5), (2, 12, 6), (3, 9, 3), (5, 4, 2), (7, 6, 3),
                                   (8, 6, 3), (11, 4, 2), (13, 3, 3), (16, 4, 2)])
def test_spread_matches_the_polynomial_product_oracle(q, n, t):
    ctx = field_new(q)
    assert build_spread(ctx, n, t) == spread_by_extension_field(ctx, n, t)


@pytest.mark.parametrize("q,n,k", [(2, 10, 3), (2, 13, 3), (3, 7, 3), (5, 5, 2), (7, 4, 2),
                                   (8, 5, 2), (11, 5, 2), (16, 5, 2)])
def test_partition_tail_matches_the_polynomial_product_oracle(q, n, k):
    ctx = field_new(q)
    tail = build_mixed_partition(ctx, n, k).tail_part
    assert tail == partition_tail_by_extension_field(ctx, n, k)


def test_mixed_partition_rejects_divisible_n():
    with pytest.raises(InvalidShape):
        build_mixed_partition(field_new(2), 6, 2)  # 3 divides 6, no tail


@pytest.mark.parametrize(
    "q,n,k,size",
    [(2, 4, 2, 19), (3, 4, 2, 49), (2, 5, 2, 51)],
)
def test_resolving_from_partition_sizes(q, n, k, size):
    fam = resolving_from_partition(field_new(q), n, k)
    assert len(fam) == size
    assert all(m.dim == k and m.n == n for m in fam)
    if n % (k + 1) == 1:
        # one available closed form: all points plus extra tail blocks
        assert size == gaussian_binomial(n, 1, q) + q ** (n - k) * gaussian_binomial(
            k - 1, 1, q
        )


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2)])
def test_resolving_from_partition_verified(q, n, k):
    ctx = field_new(q)
    fam = resolving_from_partition(ctx, n, k)
    assert is_resolving(fam, GrassmannGraph(ctx, n, k)).resolving


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 2)])
def test_greedy_rank_family(q, n, k):
    ctx = field_new(q)
    fam = resolving_greedy_rank(ctx, n, k)
    assert len(fam) == gaussian_binomial(n, 1, q)
    cert = certify_resolving_by_rank(fam)
    assert cert.certified
    assert is_resolving(fam, GrassmannGraph(ctx, n, k)).resolving


def test_greedy_rank_deterministic():
    a = resolving_greedy_rank(field_new(2), 5, 2)
    b = resolving_greedy_rank(field_new(2), 5, 2)
    assert a == b


def test_constructions_are_vertices_of_the_right_graph():
    # the spread and partition members skip re-canonicalisation, so their
    # pivots must still be those of the graph's own vertices
    ctx = field_new(2)
    for build, n in [(resolving_from_spread, 6), (resolving_greedy_rank, 6),
                     (resolving_from_partition, 5)]:
        g = GrassmannGraph(ctx, n, 2)
        vs = vertices(g)
        for m in build(ctx, n, 2):
            assert pivots(m) == pivots(vs[ordinal(g, m)])


@pytest.mark.parametrize(
    "build,n,count",
    [
        # 21 members of the 2-spread of V(6,2)
        (lambda ctx: build_spread(ctx, 6, 2), 6, 21),
        # [6 1]_2 = 63 2-subspaces, 7 in each of the 9 3-spread members
        (lambda ctx: resolving_from_spread(ctx, 6, 2), 6, 63),
        # (1 W_i + 2^3 X_j) x 7 = 63 2-subspaces before dedup
        (lambda ctx: resolving_from_partition(ctx, 4, 2), 4, 63),
    ],
)
def test_constructions_refuse_counts_over_budget(monkeypatch, build, n, count):
    # the exact count is the threshold: one less is refused, before anything is built
    ctx = field_new(2)
    monkeypatch.setenv("GRASSMANN_BUDGET", str(count - 1))
    with pytest.raises(BudgetExceeded, match=f"^{count} "):
        build(ctx)
    monkeypatch.setenv("GRASSMANN_BUDGET", str(count))
    build(ctx)
