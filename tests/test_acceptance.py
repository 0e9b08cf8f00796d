"""Acceptance grid: one test per criterion, with the headline values pinned.

Each criterion function performs the full check itself (constructions,
verifications, dual-path rank computations, bound evaluations) and returns a
result object; the tests here assert the verdicts and independently re-pin the
values the suite is expected to produce.  Wall-clock timings are recorded in
the details for inspection but are not asserted — they depend on the host.
"""

import json
from functools import lru_cache
from importlib.resources import files

import jsonschema
import pytest

from grassmd import acceptance
from grassmd.bounds import babai_general, babai_strong, lower_bound


@lru_cache(maxsize=None)
def result(num):
    res = acceptance.ALL_CRITERIA[num - 1]()
    assert res.num == num
    return res


def check(num):
    res = result(num)
    assert res.passed, f"criterion {num} failed: {res.details}"
    return res.details


def test_criterion_01_incidence_rank_grid():
    details = check(1)
    expected = {
        "2,4,2": 15, "2,5,2": 31, "2,6,2": 63, "2,6,3": 63,
        "3,4,2": 40, "3,5,2": 121, "4,4,2": 85,
    }
    for key, rk in expected.items():
        entry = details[key]
        # the modular fast path and the fraction-free elimination must agree
        assert entry["rank_fast"] == rk
        assert entry["rank_bareiss"] == rk


def test_criterion_02_gram_product_identity():
    details = check(2)
    assert set(details) == {
        "2,4,2", "2,5,2", "2,6,2", "2,6,3", "3,4,2", "3,5,2", "4,4,2"
    }
    assert all(details.values())


def test_criterion_03_spread_families_resolve_their_graphs():
    details = check(3)
    assert details["2,6,2"]["size"] == 63
    assert details["2,6,2"]["vertices"] == 651
    assert details["2,6,2"]["resolving"] is True
    assert details["3,6,2"]["size"] == 364
    assert details["3,6,2"]["vertices"] == 11011
    assert details["3,6,2"]["resolving"] is True


def test_criterion_04_partition_families_resolve_their_graphs():
    details = check(4)
    assert details["2,4,2"] == {"size": 19, "expected_size": 19, "resolving": True}
    assert details["3,4,2"] == {"size": 49, "expected_size": 49, "resolving": True}


def test_criterion_05_partition_family_on_odd_dimension():
    details = check(5)
    assert details["resolving"] is True
    assert details["vertices"] == 155
    assert details["size"] == 51
    assert details["size"] <= details["cap"] == 255


def test_criterion_06_greedy_families_certify_by_rank():
    details = check(6)
    for key, size in (("2,4,2", 15), ("2,5,2", 31), ("3,4,2", 40)):
        assert details[key]["size"] == size
        assert details[key]["resolving"] is True
        assert details[key]["rank_certified"] is True


def test_criterion_07_spreads_partition_the_nonzero_vectors():
    details = check(7)
    counts = {"2,4,t=2": 5, "2,6,t=3": 9, "3,4,t=2": 10, "2,6,t=2": 21}
    for key, members in counts.items():
        assert details[key]["members"] == members
        assert details[key]["unique_cover"] is True
        assert details[key]["pairwise_trivial"] is True


def test_criterion_08_bfs_agrees_with_subspace_distance():
    details = check(8)
    for key in ("2,4,2", "2,5,2"):
        assert details[key]["mismatches"] == 0
        assert details[key]["diameter"] == 2  # equals k


def test_criterion_09_exact_metric_dimension_in_range():
    details = check(9)
    lo, hi = details["range"]
    assert lo == 5 and hi == 15  # ceil(log2 35) - 1 and the greedy cap
    assert lo <= details["mu"] <= hi
    assert details["mu"] == 6
    assert details["mu_unreduced"] == 6  # the unreduced search agrees
    assert details["witness_resolving"] is True
    assert details["witness_minimal"] is True
    assert len(details["witness_ordinals"]) == details["mu"]


def test_criterion_10_bound_values_pinned():
    details = check(10)
    assert details["babai_M"] == 18
    assert details["argmax_j"] == 1
    assert details["babai_strong"] == pytest.approx(29.3, abs=0.1)
    assert details["babai_general"] == pytest.approx(84.1, abs=0.1)
    assert details["lower"] == pytest.approx(5.13, abs=0.01)
    assert all(details["constructive_below_general"].values())
    # recompute through the public evaluators with the same tolerances
    bound, M, j = babai_strong(2, 4, 2)
    assert (M, j) == (18, 1)
    assert bound == pytest.approx(29.3, abs=0.1)
    assert babai_general(2, 4, 2) == pytest.approx(84.1, abs=0.1)
    assert lower_bound(2, 4, 2) == pytest.approx(5.13, abs=0.01)


def test_criterion_11_construct_output_is_reproducible():
    details = check(11)
    assert len(details) == 8
    assert all(v == "identical" for v in details.values())


def test_accept_payload_validates_against_shipped_schema():
    schema = json.loads(files("grassmd").joinpath("schema.json").read_text())
    payload = {
        "command": "accept",
        "passed": all(result(i).passed for i in range(1, 12)),
        "criteria": [result(i).to_json() for i in range(1, 12)],
    }
    jsonschema.validate(payload, schema)
    assert payload["passed"] is True
