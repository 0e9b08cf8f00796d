"""Exact integer rank: Bareiss elimination, the multi-modular certificate,
the row rank profile behind the greedy construction, Gram identity."""

import importlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from grassmd.errors import InvalidArgs, TooLarge
from grassmd.gfq import field_new
from grassmd.rank import (
    BareissEliminator,
    IncidenceMatrix,
    certify_resolving_by_rank,
    exact_rank,
    gram_closed_form,
    incidence_matrix,
    modular_primes,
    row_rank_profile,
    verify_gram,
)
from grassmd.constructions import resolving_greedy_rank
from grassmd.subspaces import (
    PointIndex,
    SubspaceFamily,
    enumerate_k_subspaces,
    gaussian_binomial,
    incidence_vector,
)

# `grassmd.rank` the attribute is the linalg function
rank_mod = importlib.import_module("grassmd.rank")


def fraction_rank(rows):
    # independent rational-arithmetic oracle
    work = [[Fraction(x) for x in r] for r in rows]
    m = len(work)
    cols = len(work[0]) if m else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, m) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(m):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == m:
            break
    return r


def run_eliminator(elim, rows):
    for row in rows:
        elim.try_add(row)
    return elim.rank


@pytest.mark.parametrize("seed", range(8))
def test_bareiss_matches_fraction_oracle(seed):
    rng = random.Random(seed)
    for _ in range(25):
        m, n = rng.randrange(1, 8), rng.randrange(1, 8)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        # sprinkle in exact duplicates and scaled copies to force dependence
        if m >= 2 and rng.random() < 0.5:
            rows[-1] = [3 * x for x in rows[0]]
        assert run_eliminator(BareissEliminator(n), rows) == fraction_rank(rows)


@pytest.mark.parametrize("seed", range(4))
def test_rank_equals_rank_of_gram_product(seed):
    # over the rationals, rank(M) == rank(M^T M) for 0/1 matrices
    rng = random.Random(100 + seed)
    for _ in range(10):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(m)]
        gram = [
            [sum(rows[i][a] * rows[i][b] for i in range(m)) for b in range(n)]
            for a in range(n)
        ]
        assert run_eliminator(BareissEliminator(n), gram) == fraction_rank(rows)


def test_try_add_reports_rank_growth():
    b = BareissEliminator(3)
    assert b.try_add([1, 0, 1]) is True
    assert b.try_add([2, 0, 2]) is False  # dependent
    assert b.try_add([0, 5, 0]) is True
    assert b.rank == 2


def is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_modular_primes_are_distinct_primes_below_2_31():
    primes = list(itertools.islice(modular_primes(), 12))
    assert len(set(primes)) == len(primes)
    assert all(p < 2**31 for p in primes)
    # every product of two residues, and a residue minus it, fits in int64
    assert all(p * p < 2**62 for p in primes)
    assert all(is_prime_by_trial_division(p) for p in primes)


def as_matrix(rows):
    block = np.array(rows, dtype=np.uint8)
    return IncidenceMatrix(block.shape[0], block.shape[1], block)


def bareiss_rank(M):
    """Rational rank by the BareissEliminator oracle alone."""
    bar = BareissEliminator(M.N)
    for row in M.rows.tolist():
        bar.try_add(row)
    return bar.rank


def random_01_rows(rng, deficient):
    m, n = rng.randrange(1, 9), rng.randrange(1, 9)
    rows = [[int(rng.random() < 0.5) for _ in range(n)] for _ in range(m)]
    if deficient:
        # rank <= min(m, n) < min(m + 2, n + 1): a zero column, a repeated
        # row, and a row that is the sum of two rows with disjoint supports
        a = rows[rng.randrange(m)]
        b = [int(not x and rng.random() < 0.5) for x in a]
        rows += [list(rows[rng.randrange(m)]), [x + y for x, y in zip(a, b)]]
        rows[rng.randrange(m)] = b
        zero = rng.randrange(n + 1)
        rows = [r[:zero] + [0] + r[zero:] for r in rows]
        rng.shuffle(rows)
    return rows


def fraction_row_profile(rows):
    profile = []
    for i in range(len(rows)):
        if fraction_rank(rows[: i + 1]) > len(profile):
            profile.append(i)
    return profile


@pytest.mark.parametrize("deficient", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_exact_rank_and_profile_match_fraction_oracle(seed, deficient):
    rng = random.Random(200 + seed)
    for _ in range(30):
        rows = random_01_rows(rng, deficient)
        expected = fraction_rank(rows)
        if deficient:
            assert expected < min(len(rows), len(rows[0]))
        assert exact_rank(as_matrix(rows)) == expected
        assert bareiss_rank(as_matrix(rows)) == expected
        assert row_rank_profile(np.array(rows, dtype=np.uint8)) == fraction_row_profile(rows)


# det = 2: the rank mod 2 is one short of the rational rank
CIRCULANT = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


@pytest.fixture
def tiny_primes(monkeypatch):
    """Replace the prime source with a given list; record how many are used."""
    def install(primes):
        used = []

        def source():
            for p in primes:
                used.append(p)
                yield p

        monkeypatch.setattr(rank_mod, "modular_primes", source)
        return used

    return install


def test_full_rank_needs_a_prime_not_dividing_the_minors(tiny_primes):
    used = tiny_primes([2, 3, 5, 7])
    assert exact_rank(as_matrix(CIRCULANT)) == 3
    assert used == [2, 3]  # mod 2 falls short; mod 3 reaches full rank


def test_deficient_rank_stops_at_the_hadamard_bound(tiny_primes):
    # rational rank 3 < min(m, N) = 4, row weight w = 2: the primes must
    # multiply to more than w^((3+1)/2) = 4, which 3 alone does not
    rows = [r + [0] for r in CIRCULANT] + [[1, 1, 0, 0]]
    used = tiny_primes([3, 2, 5, 7])
    assert exact_rank(as_matrix(rows)) == 3
    assert used == [3, 2]  # the largest rank so far decides, not the last prime's
    used = tiny_primes([2, 3, 5, 7])
    assert exact_rank(as_matrix(rows)) == 3
    assert used == [2, 3]


def test_row_profile_takes_the_largest_prefix_rank_over_primes(tiny_primes):
    # mod 2 the third row is the sum of the first two, so mod 2 alone would
    # keep the fourth row instead of the third
    rows = np.array(CIRCULANT + [[1, 1, 1]], dtype=np.uint8)
    for order in ([2, 3, 5], [3, 2, 5]):
        used = tiny_primes(order)
        assert row_rank_profile(rows) == [0, 1, 2]
        assert used == order[:2]  # 2·3 squared exceeds w^min(R+1, 3) = 27
    # rank 3 < min(m, N) = 4 with w = 2: the bound is 2^4, which 3^2 misses
    deficient = np.array([r + [0] for r in CIRCULANT] + [[1, 1, 0, 0]], dtype=np.uint8)
    used = tiny_primes([3, 2, 5])
    assert row_rank_profile(deficient) == [0, 1, 2]
    assert used == [3, 2]


def test_exact_rank_full_family():
    ctx = field_new(2)
    fam = SubspaceFamily(enumerate_k_subspaces(ctx, 4, 2))
    M = incidence_matrix(fam)
    assert (M.m, M.N) == (35, 15)
    assert exact_rank(M) == 15
    assert bareiss_rank(M) == 15


def test_exact_rank_small_cases():
    ctx = field_new(2)
    subs = enumerate_k_subspaces(ctx, 4, 2)
    one = incidence_matrix(SubspaceFamily(subs[:1]))
    assert exact_rank(one) == 1
    few = incidence_matrix(SubspaceFamily(subs[:4]))
    assert exact_rank(few) == bareiss_rank(few)


def test_incidence_rows_match_subspace_membership():
    ctx = field_new(3)
    fam = SubspaceFamily(enumerate_k_subspaces(ctx, 4, 2)[:6])
    idx = PointIndex(ctx, 4)
    M = incidence_matrix(fam)
    assert M.rows.shape == (6, len(idx)) and M.rows.dtype == np.uint8
    for sub, row in zip(fam.members, M.rows.tolist()):
        for p, bit in zip(idx.points, row):
            assert bit == (1 if sub.contains(p) else 0)


@pytest.mark.parametrize(
    "q,n,k,diag,offdiag",
    [
        (2, 4, 2, 7, 1),
        (2, 5, 2, 15, 1),
        (2, 6, 3, 155, 15),
        (3, 4, 2, 13, 1),
        (4, 4, 2, 21, 1),
    ],
)
def test_gram_closed_form_pinned(q, n, k, diag, offdiag):
    ctx = field_new(q)
    assert gram_closed_form(ctx, n, k) == (diag, offdiag)
    assert diag == gaussian_binomial(n - 1, k - 1, q)
    assert offdiag == gaussian_binomial(n - 2, k - 2, q)
    assert diag > offdiag  # makes the closed-form determinant positive


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 5, 2), (2, 6, 3)])
def test_verify_gram(q, n, k):
    assert verify_gram(field_new(q), n, k)


def test_verify_gram_refuses_inexact_float_products(monkeypatch):
    # from 2^53 vertices on, float64 Gram entries would not be exact
    def unreachable(*args):
        raise AssertionError("enumerated before the exactness check")

    monkeypatch.setattr(rank_mod, "gaussian_binomial", lambda n, k, q: 2**53)
    monkeypatch.setattr(rank_mod, "enumerate_bases", unreachable)
    with pytest.raises(TooLarge, match="not be exact"):
        verify_gram(field_new(2), 4, 2)


def test_gram_closed_form_rejects_bad_k():
    with pytest.raises(InvalidArgs):
        gram_closed_form(field_new(2), 4, 1)


def test_certificate_on_greedy_family():
    ctx = field_new(2)
    fam = resolving_greedy_rank(ctx, 4, 2)
    cert = certify_resolving_by_rank(fam)
    assert cert.certified and cert.status == "certified"
    assert (cert.rank, cert.required) == (15, 15)
    # dropping a member must lose full point rank
    smaller = SubspaceFamily(list(fam.members)[:-1])
    cert2 = certify_resolving_by_rank(smaller)
    assert not cert2.certified and cert2.status == "inconclusive"
    assert cert2.rank == 14


def bareiss_greedy(ctx, n, k):
    """The greedy construction driven by Bareiss and membership tests."""
    idx = PointIndex(ctx, n)
    elim = BareissEliminator(len(idx))
    out = []
    for sub in enumerate_k_subspaces(ctx, n, k):
        if elim.try_add(incidence_vector(sub, idx)):
            out.append(sub)
            if elim.rank == len(idx):
                break
    return SubspaceFamily(out)


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (2, 5, 2), (4, 4, 2), (2, 6, 3)])
def test_greedy_matches_bareiss_greedy(q, n, k):
    ctx = field_new(q)
    assert resolving_greedy_rank(ctx, n, k) == bareiss_greedy(ctx, n, k)


def dump_incidence(M):
    """Text dump for external cross-checking: `m N` header, then 0/1 rows."""
    lines = [f"{M.m} {M.N}"]
    lines.extend("".join(map(str, row)) for row in M.rows.tolist())
    return "\n".join(lines) + "\n"


def test_dump_incidence_round_trips():
    ctx = field_new(2)
    fam = SubspaceFamily(enumerate_k_subspaces(ctx, 4, 2)[:3])
    M = incidence_matrix(fam)
    text = dump_incidence(M)
    lines = text.strip().splitlines()
    assert lines[0].split() == ["3", "15"]
    parsed = [tuple(int(ch) for ch in ln) for ln in lines[1:]]
    assert parsed == [tuple(r) for r in M.rows.tolist()]
