"""Metric-dimension search: hitting-set solver, exact search, greedy refinement."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grassmd import search
from grassmd.errors import BudgetExceeded, InvalidArgs
from grassmd.gfq import field_new
from grassmd.grassmann import GrassmannGraph, is_resolving
from grassmd.search import (
    _greedy_cover,
    _landmark_instances,
    _two_landmark_dimension,
    metric_dimension_exact,
    metric_dimension_from_distances,
    metric_dimension_greedy,
    minimum_hitting_set,
    pair_distinguishers,
)
from grassmd.subspaces import SubspaceFamily
from oracles import greedy_ordinals, minimum_hitting_set_by_packing
from oracles import pair_distinguishers as pair_distinguishers_oracle


def complete_graph_rows(m):
    return [[0 if i == j else 1 for j in range(m)] for i in range(m)]


def path_rows(m):
    return [[abs(i - j) for j in range(m)] for i in range(m)]


def star_rows(leaves):
    # vertex 0 is the hub
    m = leaves + 1
    rows = [[0] * m for _ in range(m)]
    for i in range(1, m):
        rows[0][i] = rows[i][0] = 1
        for j in range(1, m):
            if i != j:
                rows[i][j] = 2
    return rows


def bfs_rows(adj):
    rows = []
    for src in range(len(adj)):
        row = [None] * len(adj)
        row[src], frontier = 0, [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if row[w] is None:
                        row[w] = row[u] + 1
                        nxt.append(w)
            frontier = nxt
        rows.append(row)
    return rows


def cycle_adj(m):
    return [[(i - 1) % m, (i + 1) % m] for i in range(m)]


def petersen_adj():
    # outer 5-cycle 0..4, spokes i -- i+5, inner pentagram 5..9
    adj = [[] for _ in range(10)]
    for i in range(5):
        for a, b in ((i, (i + 1) % 5), (i, i + 5), (i + 5, (i + 2) % 5 + 5)):
            adj[a].append(b)
            adj[b].append(a)
    return adj


def cube_adj():
    return [[v ^ 1 << b for b in range(3)] for v in range(8)]


def k33_adj():
    return [[w for w in range(6) if (v < 3) != (w < 3)] for v in range(6)]


def test_minimum_hitting_set_hand_cases():
    # {0,1}, {1,2}, {2,3}: one element cannot hit all three
    size, picks = minimum_hitting_set([0b0011, 0b0110, 0b1100], 4)
    assert size == 2
    assert all(any(s >> v & 1 for v in picks) for s in (0b0011, 0b0110, 0b1100))
    # disjoint singletons force one pick each
    size, picks = minimum_hitting_set([0b001, 0b010, 0b100], 3)
    assert size == 3
    # a common element collapses everything to one pick
    size, picks = minimum_hitting_set([0b011, 0b010, 0b110], 3)
    assert (size, picks) == (1, [1])


@pytest.mark.parametrize("sets,nv,picks", [
    ([0b11010, 0b10101001, 0b100000011, 0b111000000], 9, [1, 7]),
    ([0b10100101, 0b1001001, 0b11010010, 0b111001, 0b11010100, 0b101000], 8, [3, 7]),
])
def test_minimum_hitting_set_witness_follows_branch_order(sets, nv, picks):
    # the greedy cover takes 3 picks here, so the witness is the first optimum
    # the search meets; it branches on the smallest uncovered set, earliest
    # in input order among equals, and tries its vertices in ascending order
    assert len(_greedy_cover(sorted(sets, key=int.bit_count), nv)) == 3
    assert minimum_hitting_set(sets, nv) == (2, picks)


def brute_force_hitting_size(sets, nv):
    for r in range(nv + 1):
        for picks in itertools.combinations(range(nv), r):
            mask = sum(1 << v for v in picks)
            if all(s & mask for s in sets):
                return r


@st.composite
def set_systems(draw):
    nv = draw(st.integers(1, 10))
    sets = draw(st.lists(st.integers(1, (1 << nv) - 1), max_size=12))
    return sets, nv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(set_systems())
def test_minimum_hitting_set_matches_brute_force(system):
    sets, nv = system
    size, picks = minimum_hitting_set(sets, nv)
    assert size == brute_force_hitting_size(sets, nv) == len(picks)
    mask = sum(1 << v for v in picks)
    assert all(s & mask for s in sets)


@st.composite
def sparse_set_systems(draw):
    # sets of 1-4 vertices, often repeated: the greedy cover misses the
    # optimum on about one system in twelve
    nv = draw(st.integers(1, 12))
    members = st.lists(st.integers(0, nv - 1), min_size=1, max_size=4)
    sets = draw(st.lists(members.map(lambda vs: sum(1 << v for v in set(vs))), max_size=30))
    return sets, nv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(set_systems(), sparse_set_systems()))
@example(([0b11010, 0b10101001, 0b100000011, 0b111000000], 9))
@example(([0b10100101, 0b1001001, 0b11010010, 0b111001, 0b11010100, 0b101000], 8))
@example(([0b11, 0b11, 0b110, 0b1100, 0b1100, 0b1001], 4))
def test_minimum_hitting_set_matches_packing_oracle(system):
    # the stronger bound never exceeds the true minimum and the pruning test
    # is unchanged, so the search records the same improvements: the same
    # size and the same picks as the packing-only search
    sets, nv = system
    assert minimum_hitting_set(sets, nv) == minimum_hitting_set_by_packing(sets, nv)


def test_pair_distinguishers_path():
    sets = pair_distinguishers(path_rows(3))
    # pairs in order (0,1), (0,2), (1,2); middle vertex cannot separate the ends
    assert sets == [0b111, 0b101, 0b111]


@st.composite
def square_tables(draw):
    nv = draw(st.integers(0, 12))
    cells = draw(st.lists(st.integers(0, 3), min_size=nv * nv, max_size=nv * nv))
    return [cells[i * nv:(i + 1) * nv] for i in range(nv)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(square_tables())
def test_pair_distinguishers_match_oracle(rows):
    # arbitrary tables, equal rows (zero masks) included; lists and arrays
    want = pair_distinguishers_oracle(rows)
    assert pair_distinguishers(rows) == want
    nv = len(rows)
    assert pair_distinguishers(np.array(rows, dtype=np.uint8).reshape(nv, nv)) == want


@pytest.mark.parametrize("q", [2, 3])
def test_pair_distinguishers_match_oracle_on_grassmann_tables(q):
    dist = GrassmannGraph(field_new(q), 4, 2).distance_rows()
    assert pair_distinguishers(dist) == pair_distinguishers_oracle(dist)


def test_from_distances_rejects_ragged_table():
    with pytest.raises(InvalidArgs, match="not square"):
        metric_dimension_from_distances([[0, 1], [1, 0, 2]])
    with pytest.raises(InvalidArgs, match="not square"):
        metric_dimension_from_distances([[0, 1]])
    with pytest.raises(InvalidArgs, match="not square"):
        metric_dimension_from_distances([1, 2])


@pytest.mark.parametrize("solve", [metric_dimension_from_distances, _two_landmark_dimension])
def test_searches_reject_an_unseparated_pair(solve):
    # two equal rows: no landmark tells the two vertices apart
    with pytest.raises(InvalidArgs, match="indistinguishable"):
        solve([[0, 0], [0, 0]])


@pytest.mark.parametrize("solve", [metric_dimension_from_distances, _two_landmark_dimension])
def test_searches_reject_an_asymmetric_table(solve):
    for rows in ([[0, 1], [2, 0]], [[0, -1], [1, 0]]):
        with pytest.raises(InvalidArgs, match="not symmetric"):
            solve(rows)


@pytest.mark.parametrize("solve", [metric_dimension_from_distances, _two_landmark_dimension])
def test_searches_reject_a_nonzero_diagonal(solve):
    with pytest.raises(InvalidArgs, match="nonzero diagonal"):
        solve([[1, 0], [0, 1]])
    with pytest.raises(InvalidArgs, match="nonzero diagonal"):
        solve(np.array([[0, 1, 1], [1, 2, 1], [1, 1, 0]], dtype=np.uint8))


@pytest.mark.parametrize("solve", [metric_dimension_from_distances, _two_landmark_dimension])
def test_searches_reject_a_negative_entry(solve):
    with pytest.raises(InvalidArgs, match="negative entry"):
        solve([[0, -1], [-1, 0]])


def answers_under_optimize(tables) -> list:
    """What `metric_dimension_from_distances` gives for each table in a
    `python -O` child, which strips asserts: "refused" for InvalidArgs."""
    code = ("from grassmd.search import metric_dimension_from_distances as f\n"
            "from grassmd.errors import InvalidArgs\n"
            f"for t in {tables!r}:\n"
            "    try:\n        print(f(t))\n"
            "    except InvalidArgs:\n        print('refused')\n")
    src = os.path.dirname(os.path.dirname(search.__file__))
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()


def test_malformed_tables_are_refused_under_optimize():
    tables = [[[0, 1], [2, 0]], [[0, -1], [1, 0]], [[1, 0], [0, 1]], [[0, -1], [-1, 0]]]
    assert answers_under_optimize(tables) == ["refused"] * 4


def test_unseparated_pair_is_refused_under_optimize():
    # the check must not be an assert, which -O strips
    assert answers_under_optimize([[[0, 0], [0, 0]]]) == ["refused"]


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_complete_graph_dimension(m):
    size, picks = metric_dimension_from_distances(complete_graph_rows(m))
    assert size == m - 1
    assert len(picks) == m - 1


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7])
def test_path_graph_dimension(m):
    size, picks = metric_dimension_from_distances(path_rows(m))
    assert size == 1
    assert picks[0] in (0, m - 1)


def test_star_graph_dimension():
    size, _ = metric_dimension_from_distances(star_rows(3))
    assert size == 2


def test_trivial_instances():
    assert metric_dimension_from_distances([[0]]) == (0, [])
    assert metric_dimension_from_distances([]) == (0, [])


def test_dimension_invariant_under_relabeling():
    rng = random.Random(5)
    rows = star_rows(4)
    m = len(rows)
    base, _ = metric_dimension_from_distances(rows)
    for _ in range(5):
        perm = list(range(m))
        rng.shuffle(perm)
        shuffled = [[rows[perm[i]][perm[j]] for j in range(m)] for i in range(m)]
        assert metric_dimension_from_distances(shuffled)[0] == base


def test_limit_guard():
    with pytest.raises(BudgetExceeded):
        metric_dimension_from_distances(complete_graph_rows(5), limit=4)


@pytest.mark.parametrize(
    "rows,mu",
    [
        (bfs_rows(cycle_adj(7)), 2),
        (bfs_rows(petersen_adj()), 3),
        (bfs_rows(cube_adj()), 3),
        (bfs_rows(k33_adj()), 4),
    ],
    ids=["C_7", "Petersen", "Q_3", "K_3,3"],
)
def test_two_landmark_reduction_matches_unreduced(rows, mu):
    # distance-transitive graphs that no single vertex resolves: fixing vertex
    # 0 and one vertex per distance class loses nothing, so both searches
    # find the same dimension
    size, picks = _two_landmark_dimension(rows)
    assert (size, metric_dimension_from_distances(rows)[0]) == (mu, mu)
    assert len(picks) == mu and picks[0] == 0
    codes = {tuple(row[v] for v in picks) for row in rows}
    assert len(codes) == len(rows)


@pytest.mark.parametrize("rows", [
    bfs_rows(cycle_adj(7)), bfs_rows(petersen_adj()), bfs_rows(cube_adj()), bfs_rows(k33_adj()),
    GrassmannGraph(field_new(2), 4, 2).distance_rows(),
], ids=["C_7", "Petersen", "Q_3", "K_3,3", "G_2(4,2)"])
def test_landmark_instances_match_packing_oracle(rows):
    nv = len(rows)
    instances = list(_landmark_instances(rows))
    assert [r for r, _ in instances] == [list(rows[0]).index(j) for j in range(1, len(instances) + 1)]
    for _, sets in instances:
        assert minimum_hitting_set(sets, nv) == minimum_hitting_set_by_packing(sets, nv)
    if nv < 35:  # the packing-only search takes about 5 s on G_2(4,2)'s unreduced sets
        sets = pair_distinguishers(rows)
        assert minimum_hitting_set(sets, nv) == minimum_hitting_set_by_packing(sets, nv)


def test_exact_dimension_smallest_grassmann():
    # exact result and witness, frozen; witness checked both ways
    g = GrassmannGraph(field_new(2), 4, 2)
    mu, fam = metric_dimension_exact(g)
    assert mu == 6
    assert [g.ordinal(s) for s in fam] == [0, 1, 2, 7, 9, 11]
    assert is_resolving(fam, g).resolving
    for i in range(6):
        rest = SubspaceFamily([m for j, m in enumerate(fam) if j != i])
        assert not is_resolving(rest, g).resolving


def test_exact_limit_passthrough():
    g = GrassmannGraph(field_new(2), 4, 2)
    with pytest.raises(BudgetExceeded):
        metric_dimension_exact(g, limit=10)


def test_greedy_resolves_and_bounds_exact():
    g = GrassmannGraph(field_new(2), 4, 2)
    fam = metric_dimension_greedy(g)
    assert is_resolving(fam, g).resolving
    # 6 is the exact optimum established above
    assert len(fam) >= 6


def test_search_sizes_chain_below_construction_sizes():
    # exact optimum (6, frozen above) <= greedy search <= the sizes the
    # algebraic constructions produce on the same graph
    from grassmd.constructions import resolving_from_partition, resolving_greedy_rank

    g = GrassmannGraph(field_new(2), 4, 2)
    greedy = metric_dimension_greedy(g)
    rank_based = resolving_greedy_rank(field_new(2), 4, 2)
    partition = resolving_from_partition(field_new(2), 4, 2)
    assert 6 <= len(greedy) <= len(rank_based) <= len(partition)
    assert len(rank_based) == 15 and len(partition) == 19


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 5, 2), (4, 4, 2), (2, 6, 2)])
def test_greedy_matches_per_candidate_oracle(q, n, k):
    g = GrassmannGraph(field_new(q), n, k)
    fam = metric_dimension_greedy(g)
    assert [g.ordinal(s) for s in fam] == greedy_ordinals(g)


@pytest.mark.parametrize("bins", [1, 1000, 4096])
def test_greedy_picks_do_not_depend_on_block_size(monkeypatch, bins):
    # 1 bin forces one candidate per block; 1000 and 4096 split G_4(4,2)'s
    # 357 candidates into blocks of 2 and 11, leaving a short last block,
    # and the blocks narrow as the classes refine
    g = GrassmannGraph(field_new(4), 4, 2)
    monkeypatch.setattr(search, "GREEDY_BLOCK_BINS", bins)
    assert [g.ordinal(s) for s in metric_dimension_greedy(g)] == [
        0, 26, 50, 109, 76, 128, 136, 263, 187, 94, 331, 130, 39, 45]


def test_greedy_ordinals_are_pinned():
    g = GrassmannGraph(field_new(3), 4, 2)
    assert [g.ordinal(s) for s in metric_dimension_greedy(g)] == [
        0, 17, 32, 53, 49, 56, 37, 9, 62, 1]


def test_greedy_reads_the_cached_table_in_place():
    # G_2(7,2), 2667 vertices: with the table built, the greedy allocates far
    # less than one more V x V copy
    g = GrassmannGraph(field_new(2), 7, 2)
    nv = len(g.distance_rows())
    tracemalloc.start()
    try:
        metric_dimension_greedy(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * nv * nv


def test_greedy_deterministic():
    g = GrassmannGraph(field_new(3), 4, 2)
    a = metric_dimension_greedy(g)
    b = metric_dimension_greedy(g)
    assert a == b
    assert is_resolving(a, g).resolving
