"""Exact integer rank: Bareiss elimination, modular fast path, Gram identity."""

import random
from fractions import Fraction

import pytest

from grassmd.errors import InvalidArgs
from grassmd.gfq import field_new
from grassmd.rank import (
    MODULAR_PRIME,
    BareissEliminator,
    ModularEliminator,
    certify_resolving_by_rank,
    exact_rank,
    gram_closed_form,
    incidence_matrix,
    verify_gram,
)
from grassmd.constructions import resolving_greedy_rank
from grassmd.subspaces import (
    PointIndex,
    SubspaceFamily,
    enumerate_k_subspaces,
    gaussian_binomial,
)


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
        expected = fraction_rank(rows)
        assert run_eliminator(BareissEliminator(n), rows) == expected
        assert run_eliminator(ModularEliminator(n), rows) == expected


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


def test_modular_prime_is_mersenne61():
    assert MODULAR_PRIME == 2 ** 61 - 1


def test_exact_rank_full_family():
    ctx = field_new(2)
    fam = SubspaceFamily(enumerate_k_subspaces(ctx, 4, 2))
    M = incidence_matrix(fam)
    assert (M.m, M.N) == (35, 15)
    assert exact_rank(M) == 15
    assert exact_rank(M, use_fast_path=False) == 15


def test_exact_rank_small_cases():
    ctx = field_new(2)
    subs = enumerate_k_subspaces(ctx, 4, 2)
    one = incidence_matrix(SubspaceFamily(subs[:1]))
    assert exact_rank(one) == 1
    few = incidence_matrix(SubspaceFamily(subs[:4]))
    assert exact_rank(few) == exact_rank(few, use_fast_path=False)


def test_incidence_rows_match_subspace_membership():
    ctx = field_new(3)
    fam = SubspaceFamily(enumerate_k_subspaces(ctx, 4, 2)[:6])
    idx = PointIndex(ctx, 4)
    M = incidence_matrix(fam, idx)
    for sub, row in zip(fam.members, M.rows):
        for p, bit in zip(idx.points, row.bits):
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


def dump_incidence(M):
    """Text dump for external cross-checking: `m N` header, then 0/1 rows."""
    lines = [f"{M.m} {M.N}"]
    lines.extend("".join(map(str, iv.bits)) for iv in M.rows)
    return "\n".join(lines) + "\n"


def test_dump_incidence_round_trips():
    ctx = field_new(2)
    fam = SubspaceFamily(enumerate_k_subspaces(ctx, 4, 2)[:3])
    M = incidence_matrix(fam)
    text = dump_incidence(M)
    lines = text.strip().splitlines()
    assert lines[0].split() == ["3", "15"]
    parsed = [tuple(int(ch) for ch in ln) for ln in lines[1:]]
    assert parsed == [r.bits for r in M.rows]
