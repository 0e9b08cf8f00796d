"""Size bounds: the diameter lower bound, Babai-style upper bounds, comparison."""

import math

import pytest

from grassmd import bounds
from grassmd.errors import GrassmdError, InvalidArgs
from grassmd.bounds import (
    CSV_HEADER,
    LOG_BASES,
    babai_general,
    babai_strong,
    compare,
    csv_row,
    distance_class_size,
    log_estimate,
    lower_bound,
)
from grassmd.gfq import field_new
from grassmd.grassmann import GrassmannGraph
from grassmd.search import metric_dimension_greedy
from grassmd.subspaces import gaussian_binomial
from oracles import (
    babai_general_mpmath,
    babai_strong_mpmath,
    gaussian_binomial_pascal,
    log_estimate_mpmath,
)


def test_log_estimate_is_log_base_k():
    # float recomputation, independent of the decimal evaluation inside
    for q, n, k in [(2, 4, 2), (2, 6, 3), (3, 5, 2)]:
        nv = gaussian_binomial(n, k, q)
        assert log_estimate(q, n, k) == pytest.approx(math.log(nv, k), abs=1e-9)
    with pytest.raises(InvalidArgs):
        log_estimate(2, 4, 1)


def test_lower_bound_is_least_m_with_n_at_most_m_plus_d_to_the_m():
    for q in (2, 3, 4, 5):
        for n in range(2, 9):
            for k in range(1, n):
                nv, d, m = gaussian_binomial(n, k, q), min(k, n - k), lower_bound(q, n, k)
                assert nv <= m + d ** m, (q, n, k)
                assert m == 0 or nv > (m - 1) + d ** (m - 1), (q, n, k)


def test_lower_bound_pinned_and_below_resolving_sets():
    assert lower_bound(2, 4, 2) == 5  # 4 + 2^4 < 35 <= 5 + 2^5, and mu = 6
    assert lower_bound(3, 4, 1) == 39  # the complete graph K_40
    for q, n, k in [(2, 4, 2), (3, 4, 2), (2, 5, 2)]:
        g = GrassmannGraph(field_new(q), n, k)
        assert lower_bound(q, n, k) <= len(metric_dimension_greedy(g))
    for n, k in [(4, 0), (4, 4), (4, 5)]:
        with pytest.raises(InvalidArgs):
            lower_bound(2, n, k)


def test_babai_general_pinned():
    nv = 35
    expected = 4.0 * math.sqrt(nv) * math.log(nv)
    assert babai_general(2, 4, 2) == pytest.approx(expected, abs=1e-9)
    assert babai_general(2, 4, 2) == pytest.approx(84.1349, abs=1e-3)


def test_babai_strong_pinned():
    bound, M, j = babai_strong(2, 4, 2)
    assert (M, j) == (18, 1)
    nv = 35
    expected = (2 * 2) * nv / (nv - M) * math.log(nv)
    assert bound == pytest.approx(expected, abs=1e-9)
    assert bound == pytest.approx(29.2793, abs=1e-3)


def test_babai_strong_rejects_k_above_half():
    with pytest.raises(InvalidArgs):
        babai_strong(2, 6, 4)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 6, 2), (2, 6, 3), (3, 5, 2), (4, 4, 2)])
def test_distance_classes_partition_vertices(q, n, k):
    total = sum(distance_class_size(q, n, k, j) for j in range(k + 1))
    assert total == gaussian_binomial(n, k, q)
    assert distance_class_size(q, n, k, 0) == 1


def test_distance_class_size_formula():
    # j-th class: q^(j^2) [n-k j] [k j]
    assert distance_class_size(2, 6, 2, 1) == 2 * gaussian_binomial(4, 1, 2) * 3
    assert distance_class_size(2, 6, 2, 2) == 16 * gaussian_binomial(4, 2, 2) * 1


def test_babai_strong_uses_largest_class():
    _, M, j = babai_strong(2, 6, 2)
    sizes = [distance_class_size(2, 6, 2, i) for i in range(1, 3)]
    assert M == max(sizes) == 560
    assert j == 2


@pytest.mark.parametrize(
    "q,n,k", [(2, 4, 2), (2, 6, 2), (2, 6, 3), (3, 6, 2), (4, 4, 2), (5, 6, 3)]
)
def test_babai_strong_M_matches_direct_maximization(q, n, k):
    # recompute the largest sphere independently from the closed form
    _, M, j = babai_strong(q, n, k)
    direct = {
        i: q ** (i * i)
        * gaussian_binomial_pascal(n - k, i, q)
        * gaussian_binomial_pascal(k, i, q)
        for i in range(1, k + 1)
    }
    assert M == max(direct.values())
    assert direct[j] == M


def test_log_base_rescaling():
    e_val = babai_general(2, 6, 2, log_base="e")
    assert babai_general(2, 6, 2, log_base="2") == pytest.approx(
        e_val / math.log(2), rel=1e-12
    )
    assert babai_general(2, 6, 2, log_base="10") == pytest.approx(
        e_val / math.log(10), rel=1e-12
    )
    with pytest.raises(InvalidArgs):
        babai_general(2, 6, 2, log_base="7")


def test_compare_report_fields():
    rep = compare(2, 4, 2)
    assert (rep.q, rep.n, rep.k, rep.num_vertices) == (2, 4, 2, 35)
    assert rep.constructive_bound == 15
    assert rep.construction_sizes["greedy"] == 15
    assert rep.construction_sizes["partition"] == 19
    assert "spread" not in rep.construction_sizes  # 3 does not divide 4
    assert rep.constructive_below_general
    j = rep.to_json()
    assert j["babai_M"] == 18 and j["log_base"] == "e"
    assert rep.lower_bound == j["lower_bound"] == 5


def test_compare_spread_case():
    rep = compare(2, 6, 2)
    assert rep.construction_sizes["spread"] == 63
    assert rep.constructive_bound == 63
    assert rep.constructive_below_general


def test_strong_bound_can_undercut_constructions():
    # at q=5 the strong bound drops below every construction available here
    rep = compare(5, 4, 2)
    assert rep.constructive_bound == 156
    assert rep.babai_strong < rep.constructive_bound
    assert rep.strong_below_constructive


def test_strong_bound_above_constructions_for_small_q():
    rep = compare(2, 6, 3)
    assert rep.constructive_bound == 63
    assert rep.babai_general == pytest.approx(1081.74, abs=0.01)
    assert not rep.strong_below_constructive


def test_csv_row_matches_header():
    rep = compare(3, 4, 2)
    fields = csv_row(rep).split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0:3] == ["3", "4", "2"]


def test_large_instance_stays_finite():
    # exercises the high-precision path; [12 6]_3 has 22 digits
    rep = compare(3, 12, 6)
    assert rep.num_vertices == gaussian_binomial(12, 6, 3)
    assert rep.babai_general > rep.lower_log > 0
    assert rep.lower_bound == lower_bound(3, 12, 6) > 0
    assert math.isfinite(rep.babai_general) and math.isfinite(rep.babai_strong)


def _outcome(q, n, k, log_base):
    """compare's JSON, or the type and message of the error it raises."""
    try:
        return compare(q, n, k, log_base).to_json()
    except GrassmdError as e:
        return type(e).__name__, str(e)


def test_compare_matches_the_mpmath_oracle(monkeypatch):
    # the 40-digit decimal evaluation rounds to the same floats as the
    # 96-bit mpmath one, and fails with the same errors
    grid = [(q, n, k, base) for q in (2, 3, 4, 5, 7, 8, 9, 16, 1009)
            for n in range(1, 31) for k in range(n + 1) for base in LOG_BASES]
    grid.append((2, 1900, 7, "e"))  # [1900 7]_2: sqrt(N) overflows a float
    got = [_outcome(*case) for case in grid]
    assert got[-1] == ("TooLarge", "general upper bound is too large for a float")
    # k = 0, which `compare` refuses first: N = 1 and log N = 0
    for q, n, base in [(2, 1, "e"), (3, 4, "2"), (1009, 30, "10")]:
        assert babai_general(q, n, 0, base) == babai_general_mpmath(q, n, 0, base) == 0.0
    monkeypatch.setattr(bounds, "log_estimate", log_estimate_mpmath)
    monkeypatch.setattr(bounds, "babai_general", babai_general_mpmath)
    monkeypatch.setattr(bounds, "babai_strong", babai_strong_mpmath)
    expected = [_outcome(*case) for case in grid]
    assert [case for case, a, b in zip(grid, got, expected) if a != b] == []
