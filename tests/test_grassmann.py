"""Grassmann graph: distances, code tables, resolving verdicts, BFS oracle."""

import functools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from grassmd import grassmann as grassmann_mod
from grassmd import linalg as linalg_mod
from grassmd import subspaces as subspaces_mod
from grassmd.errors import BudgetExceeded, DimensionMismatch, GrassmdError, InvalidArgs
from grassmd.gfq import field_new
from grassmd.grassmann import (
    GrassmannGraph,
    ResolvingVerdict,
    bfs_distances_from,
    codes_table,
    is_resolving,
)
from grassmd.linalg import Subspace, distance
from grassmd.subspaces import SubspaceFamily, bases_point_ordinals, gaussian_binomial
from oracles import (
    adjacency_lists,
    bfs_distance,
    code_of,
    edge_list,
    intersect_dim,
    ordinal,
    rref_rows,
    vertex,
    vertices,
)
from strategies import rref_vertex_pairs


def graph(q, n, k):
    return GrassmannGraph(field_new(q), n, k)


@functools.lru_cache(maxsize=None)
def shared_graph(q, n, k):
    """One graph per shape for the property tests, adjacency built once."""
    return graph(q, n, k)


def unreachable(*args, **kwargs):
    raise AssertionError("called on a path that must not reach it")


def test_distance_pinned():
    ctx = field_new(2)
    a = Subspace.from_rows(ctx, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = Subspace.from_rows(ctx, 4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    c = Subspace.from_rows(ctx, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert distance(a, a) == 0
    assert distance(a, b) == 1
    assert distance(a, c) == 2
    assert distance(b, c) == 1


def test_distance_requires_matching_shapes():
    ctx = field_new(2)
    a = Subspace.from_rows(ctx, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b = Subspace.from_rows(ctx, 4, [[1, 0, 0, 0]])
    with pytest.raises(DimensionMismatch):
        distance(a, b)
    c = Subspace.from_rows(ctx, 5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    with pytest.raises(DimensionMismatch):
        distance(a, c)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 5, 2), (2, 6, 3), (4, 4, 2),
                                   (5, 4, 2), (7, 4, 2), (8, 4, 2), (9, 4, 2), (16, 4, 2)])
def test_graph_vertex_count_and_ordinals(q, n, k):
    # ordinals binary-search the bases' byte keys, so byte order must be
    # the public order for every field size
    g = graph(q, n, k)
    assert len(g) == gaussian_binomial(n, k, q)
    for i in (0, 1, len(g) - 1):
        assert ordinal(g, vertex(g, i)) == i
    assert np.array_equal(g.ordinals(g.bases), np.arange(len(g)))


def test_ordinals_refuse_a_non_vertex_basis():
    # an entry outside GF(2), another ambient space, another dimension
    g = graph(2, 4, 2)
    others = [[(1, 0, 0, 0), (0, 1, 0, 3)], [(1, 0, 0, 0), (0, 1, 0, 2)],
              [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)], [(1, 0, 0, 0)]]
    for rows in others:
        with pytest.raises(InvalidArgs, match="is not a vertex"):
            g.ordinals(np.array([rows], dtype=np.uint8))


@pytest.mark.parametrize("n,k", [(4, 1), (4, 3), (3, 2), (5, 3)])
def test_graph_rejects_out_of_range_k(n, k):
    with pytest.raises(InvalidArgs):
        graph(2, n, k)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 6, 3)])
def test_distance_rows_structure(q, n, k):
    g = graph(q, n, k)
    rows = g.distance_rows()
    nv = len(g)
    deg = q * gaussian_binomial(k, 1, q) * gaussian_binomial(n - k, 1, q)
    # one read-only array, the same object on every call
    assert isinstance(rows, np.ndarray) and rows.dtype == np.uint8 and rows.shape == (nv, nv)
    assert g.distance_rows() is rows
    with pytest.raises(ValueError):
        rows[0, 1] = 0
    assert rows[0, 1] != 0
    assert max(max(r) for r in rows) == k  # diameter
    for i in range(nv):
        assert rows[i][i] == 0
        assert sum(1 for d in rows[i] if d == 1) == deg  # regular graph
    for i in range(0, nv, 7):
        for j in range(0, nv, 5):
            assert rows[i][j] == rows[j][i]


def test_distance_agrees_with_intersection_dim():
    # k - dim(a ∩ b) = rank of the stacked bases - k, by the Python RREF
    g = graph(3, 4, 2)
    rng = random.Random(3)
    vs = vertices(g)
    for _ in range(200):
        a, b = rng.choice(vs), rng.choice(vs)
        assert distance(a, b) == len(rref_rows(g.ctx, a.basis.data + b.basis.data, 4)[0]) - 2


@settings(max_examples=80, deadline=None)
@given(rref_vertex_pairs([(2, 4, 2), (3, 5, 2), (4, 4, 2), (2, 6, 3), (5, 5, 3), (9, 4, 2),
                          (16, 3, 1), (2, 4, 4)]))
def test_distance_equals_k_less_the_intersection_dim(case):
    # one stacked RREF against the three-rank route of the oracle, and each
    # vertex against itself
    _, a, b = case
    assert distance(a, b) == a.dim - intersect_dim(a.basis, b.basis)
    assert distance(a, a) == distance(b, b) == 0


@pytest.mark.parametrize(
    "q,n,k", [(2, 4, 2), (3, 4, 2), (4, 4, 2), (5, 4, 2), (7, 4, 2), (8, 4, 2), (9, 4, 2), (2, 6, 3)]
)
def test_codes_table_matches_per_vertex_codes(q, n, k):
    # every cell of the shared-point kernel against the RREF route through
    # distance(), over prime and prime-power fields
    g = graph(q, n, k)
    vs = vertices(g)
    fam = SubspaceFamily(random.Random(q * 100 + n).sample(vs, 7))
    rows = codes_table(vs, fam)
    assert rows.dtype == np.uint8 and rows.shape == (len(vs), 7)
    for v, row in zip(vs, rows):
        assert tuple(row) == code_of(v, fam)


def test_codes_table_rejects_impossible_counts(monkeypatch):
    # every subspace loses one of its 3 points, so each vertex shares 2
    # points with itself; for q = 2, k = 2 only 0, 1 and 3 = [j 1]_2 occur
    def doubled(ctx, bases):
        ords = bases_point_ordinals(ctx, bases)
        ords[:, 1] = ords[:, 0]
        return ords

    vs = vertices(graph(2, 4, 2))
    fam = SubspaceFamily(vs)
    monkeypatch.setattr(subspaces_mod, "bases_point_ordinals", doubled)
    with pytest.raises(GrassmdError, match=r"\[j 1\]_q"):
        codes_table(vs, fam)


def test_codes_table_rejects_empty_family():
    with pytest.raises(InvalidArgs):
        codes_table(vertices(graph(2, 4, 2)), SubspaceFamily([]))


def test_code_of_matches_distance():
    g = graph(2, 5, 2)
    fam = SubspaceFamily([vertex(g, 0), vertex(g, 10), vertex(g, 100)])
    w = vertex(g, 42)
    assert code_of(w, fam) == tuple(distance(w, m) for m in fam)


def test_full_vertex_set_is_resolving():
    g = graph(2, 4, 2)
    verdict = is_resolving(SubspaceFamily(vertices(g)), g)
    assert verdict.resolving and bool(verdict)
    assert verdict.ordinals is None and verdict.pair is None


def test_single_member_collision_is_lexicographically_first():
    g = graph(2, 4, 2)
    fam = SubspaceFamily([vertex(g, 0)])
    verdict = is_resolving(fam, g)
    assert not verdict.resolving and not bool(verdict)
    # recompute the first colliding pair by brute force over all codes
    codes = [code_of(v, fam) for v in vertices(g)]
    expected = None
    for i in range(len(codes)):
        for j in range(i + 1, len(codes)):
            if codes[i] == codes[j]:
                expected = (i, j)
                break
        if expected:
            break
    assert verdict.ordinals == expected
    a, b = verdict.pair
    assert ordinal(g, a) == expected[0] and ordinal(g, b) == expected[1]
    assert code_of(a, fam) == code_of(b, fam)


def test_verdict_truth_is_its_answer():
    # a NamedTuple of three fields would be truthy by its length
    g = graph(2, 4, 2)
    a, b = vertex(g, 0), vertex(g, 1)
    assert bool(ResolvingVerdict(False, (0, 1), (a, b))) is False
    assert bool(ResolvingVerdict(True)) is True


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 5, 2)])
def test_resolving_verdict_matches_profile_distinctness(q, n, k):
    # independent route: a family resolves iff the distance profiles of all
    # vertices against it, from stacked ranks by the Python RREF, are
    # pairwise distinct
    g = graph(q, n, k)
    vs = vertices(g)
    rng = random.Random(90 * q + n)
    for size in (1, 2, 3, 5, 8):
        for _ in range(4):
            picks = rng.sample(range(len(vs)), size)
            members = [vs[i] for i in picks]
            profiles = [code_of(v, members) for v in vs]
            expect = len(set(profiles)) == len(profiles)
            assert is_resolving(SubspaceFamily(members), g).resolving == expect


def test_code_against_all_vertices_has_one_zero():
    g = graph(2, 4, 2)
    fam = SubspaceFamily(vertices(g))
    for i in (0, 9, 34):
        dists = code_of(vertex(g, i), fam)
        assert dists.count(0) == 1 and dists[i] == 0


def test_resolving_monotone_under_superset():
    g = graph(2, 4, 2)
    base = [vertex(g, i) for i in (0, 1, 2, 7, 9, 11)]
    assert is_resolving(SubspaceFamily(base), g).resolving
    bigger = base + [vertex(g, 20)]
    assert is_resolving(SubspaceFamily(bigger), g).resolving


def test_is_resolving_rejects_bad_input():
    g = graph(2, 4, 2)
    with pytest.raises(InvalidArgs):
        is_resolving(SubspaceFamily([]), g)
    foreign = Subspace.from_rows(
        field_new(2), 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    )
    with pytest.raises(InvalidArgs):
        is_resolving(SubspaceFamily([foreign]), g)
    with pytest.raises(InvalidArgs):  # a later member of the wrong shape
        is_resolving(SubspaceFamily([vertex(g, 0), foreign]), g)


def test_graph_budget(monkeypatch):
    monkeypatch.setenv("GRASSMANN_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        graph(2, 6, 3)


def test_distance_rows_budget(monkeypatch):
    # 35 vertices fit a budget of 100, but 35^2 cells exceed 10 * 100
    monkeypatch.setenv("GRASSMANN_BUDGET", "100")
    g = graph(2, 4, 2)
    with pytest.raises(BudgetExceeded):
        g.distance_rows()
    monkeypatch.setenv("GRASSMANN_BUDGET", "123")
    assert len(g.distance_rows()) == 35


def test_bfs_matches_algebraic_distance():
    g = graph(2, 4, 2)
    rows = g.distance_rows()
    for src in range(len(g)):
        assert bfs_distances_from(g, src) == list(rows[src])
    a, b = vertex(g, 0), vertex(g, 34)
    assert bfs_distance(g, a, b) == distance(a, b)


def test_adjacency_and_edge_list():
    g = graph(2, 4, 2)
    adj = g.adjacency()
    edges = edge_list(g)
    assert len(edges) == 315  # 35 vertices, 18-regular
    assert all(i < j for i, j in edges)
    assert len(set(edges)) == len(edges)
    deg = [0] * len(g)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    assert deg == [len(a) for a in adj]


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 6, 3)])
def test_edge_list_equals_adjacency_pairs(q, n, k):
    g = shared_graph(q, n, k)
    assert edge_list(g) == [(u, v) for u, nbrs in enumerate(g.adjacency()) for v in nbrs if u < v]


def test_distance_table_build_peak_memory():
    # G_2(7,2), 2667 vertices: the table is filled in place, so building it
    # costs little more than the V x V bytes it holds
    g = graph(2, 7, 2)
    tracemalloc.start()
    try:
        g.distance_rows()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(g) ** 2


def test_verdict_builds_no_vertex_objects(monkeypatch):
    g = graph(3, 4, 2)
    fam = SubspaceFamily([vertex(g, 0), vertex(g, 50)])
    built = []
    build = linalg_mod.subspaces_from_bases

    def counted(ctx, bases):
        built.append(len(bases))
        return build(ctx, bases)

    # `is_resolving` imports it from `linalg` when it runs, so the patch is seen
    monkeypatch.setattr(linalg_mod, "subspaces_from_bases", counted)
    verdict = is_resolving(fam, g)
    assert built == [2]  # only the two colliding vertices were built, in one call
    i, j = verdict.ordinals
    vs = vertices(g)
    assert verdict.pair == (vs[i], vs[j])


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 5, 2), (2, 6, 3)])
def test_verdict_is_unchanged_when_every_digest_collides(monkeypatch, q, n, k):
    # a constant digest puts every row in one bucket, so the verdict and the
    # first pair come from the full-row comparisons alone
    g = graph(q, n, k)
    vs = vertices(g)
    rng = random.Random(7 * q + n + k)
    families = [SubspaceFamily(rng.sample(vs, size)) for size in (1, 2, 3, 5, 9)]
    families.append(SubspaceFamily(vs))  # resolving
    expected = [is_resolving(fam, g) for fam in families]
    assert any(v.resolving for v in expected) and not all(v.resolving for v in expected)
    calls = []

    def constant(rows):
        calls.append(len(rows))
        return np.zeros((len(rows), 2), dtype=np.uint64)

    monkeypatch.setattr(grassmann_mod, "_row_digests", constant)
    for fam, want in zip(families, expected):
        assert is_resolving(fam, g) == want
    assert sum(calls) == len(families) * len(g)


def test_first_collision_matches_brute_force_under_constant_digest(monkeypatch):
    monkeypatch.setattr(grassmann_mod, "_row_digests",
                        lambda rows: np.zeros((len(rows), 2), dtype=np.uint64))
    g = graph(2, 5, 2)
    vs = vertices(g)
    rng = random.Random(11)
    for size in (1, 2, 3, 4):
        fam = SubspaceFamily(rng.sample(vs, size))
        codes = [code_of(v, fam) for v in vs]
        first = {}
        pairs = []
        for j, c in enumerate(codes):
            if c in first:
                pairs.append((first[c], j))
            else:
                first[c] = j
        assert is_resolving(fam, g).ordinals == (min(pairs) if pairs else None)


def test_code_table_ceiling_fires_before_points_are_listed(monkeypatch):
    # 35 family members x 15 points exceed the 10 * 50 cell ceiling
    g = graph(2, 4, 2)
    vs = vertices(g)
    fam = SubspaceFamily(vs)
    monkeypatch.setenv("GRASSMANN_BUDGET", "50")
    monkeypatch.setattr(subspaces_mod, "bases_point_ordinals", unreachable)
    with pytest.raises(BudgetExceeded, match="incidence cells"):
        is_resolving(fam, g)
    with pytest.raises(BudgetExceeded, match="incidence cells"):
        codes_table(vs, fam)


def test_distance_rows_ceiling_fires_before_the_kernel(monkeypatch):
    g = graph(2, 4, 2)
    monkeypatch.setenv("GRASSMANN_BUDGET", "100")
    monkeypatch.setattr(grassmann_mod, "_count_blocks", unreachable)
    monkeypatch.setattr(subspaces_mod, "bases_point_ordinals", unreachable)
    with pytest.raises(BudgetExceeded, match="distance cells"):
        g.distance_rows()


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 5, 2), (4, 4, 2), (2, 6, 3)])
def test_adjacency_comes_from_the_definition(monkeypatch, q, n, k):
    # the BFS route must not read the code-table kernel or point incidence
    monkeypatch.setattr(grassmann_mod, "_count_blocks", unreachable)
    monkeypatch.setattr(subspaces_mod, "bases_point_ordinals", unreachable)
    g = graph(q, n, k)
    adj = g.adjacency()
    degree = q * gaussian_binomial(k, 1, q) * gaussian_binomial(n - k, 1, q)
    assert adj.shape == (len(g), degree)
    assert (np.diff(adj, axis=1) > 0).all()
    assert all(i not in a for i, a in enumerate(adj))
    for i in range(0, len(g), max(1, len(g) // 15)):
        for j in adj[i]:
            assert i in adj[j]
            assert code_of(vertex(g, i), [vertex(g, j)]) == (1,)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 5, 2), (4, 4, 2), (5, 4, 2),
                                   (2, 6, 3)])
def test_adjacency_matches_the_oracle(q, n, k):
    g = shared_graph(q, n, k)
    adj = g.adjacency()
    assert g.adjacency() is adj and adj.dtype == np.int32
    with pytest.raises(ValueError):
        adj[0, 0] = 0
    assert adj.tolist() == adjacency_lists(g)


def test_adjacency_refuses_a_repeated_candidate(monkeypatch):
    # the last quotient point replaced by the first: every hyperplane gives
    # one candidate twice and misses another
    def repeated(q, n):
        reps = list(subspaces_mod.point_reps(q, n))
        return reps[:-1] + reps[:1]

    monkeypatch.setattr(grassmann_mod, "point_reps", repeated)
    with pytest.raises(GrassmdError, match="does not have 18 distinct neighbours"):
        graph(2, 4, 2).adjacency()


def test_bfs_past_the_old_scale_matches_the_distance_table():
    # G_2(7,2), 2667 vertices: ten sampled sources
    g = graph(2, 7, 2)
    rows = g.distance_rows()
    for src in random.Random(72).sample(range(len(g)), 10):
        assert bfs_distances_from(g, src) == rows[src].tolist()


def test_adjacency_budget(monkeypatch):
    # 35 vertices x 3 hyperplanes x 7 quotient points exceed 10 * 50 candidates
    monkeypatch.setenv("GRASSMANN_BUDGET", "50")
    with pytest.raises(BudgetExceeded, match="adjacency candidates"):
        graph(2, 4, 2).adjacency()


@settings(max_examples=60, deadline=None)
@given(rref_vertex_pairs([(2, 4, 2), (3, 4, 2), (2, 5, 2), (4, 4, 2), (2, 6, 3)]))
def test_bfs_distance_equals_algebraic_distance(case):
    (q, n, k), a, b = case
    assert bfs_distance(shared_graph(q, n, k), a, b) == distance(a, b)
