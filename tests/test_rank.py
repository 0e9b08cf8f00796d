"""Exact integer rank: Bareiss elimination, the multi-modular certificate,
the row rank profile behind the greedy construction, Gram identity."""

import ast
import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from grassmd import rank as rank_mod
from grassmd.acceptance import RANK_GRID
from grassmd.errors import BudgetExceeded, InvalidArgs
from grassmd.gfq import field_new
from grassmd.rank import (
    BareissEliminator,
    IncidenceMatrix,
    certify_resolving_by_rank,
    exact_rank,
    gram_closed_form,
    gram_table,
    incidence_matrix,
    modular_primes,
    row_rank_profile,
    verify_gram,
)
from grassmd.constructions import resolving_greedy_rank
from grassmd.linalg import Subspace
from grassmd.subspaces import SubspaceFamily, enumerate_k_subspaces, gaussian_binomial
from oracles import (
    PointIndex,
    contains,
    gram_float_product,
    incidence_vector,
    prime_power_by_trial_division,
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


def test_modular_primes_are_distinct_primes_below_2_31():
    primes = list(itertools.islice(modular_primes(), 12))
    assert len(set(primes)) == len(primes)
    assert all(p < 2**31 for p in primes)
    # every product of two residues, and a residue minus it, fits in int64
    assert all(p * p < 2**62 for p in primes)
    assert all(prime_power_by_trial_division(p) == (p, 1) for p in primes)


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
    # the edges of a triangle and of a doubled edge against their five
    # vertices: every column is nonzero, rational rank 4 < min(m, N) = 5 and
    # rank 3 mod 2, row weight w = 2; the primes must multiply to more than
    # w^((4+1)/2) = 5.66, which 3 alone does not
    rows = [r + [0, 0] for r in CIRCULANT] + [[0, 0, 0, 1, 1]] * 2
    used = tiny_primes([3, 2, 5, 7])
    assert exact_rank(as_matrix(rows)) == 4
    assert used == [3, 2]  # the largest rank so far decides, not the last prime's
    used = tiny_primes([2, 3, 5, 7])
    assert exact_rank(as_matrix(rows)) == 4
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


def test_column_weights_bound_the_minors_too(tiny_primes):
    # rank 2 with largest row weight 2 but largest column weight 1: every
    # minor is at most 1, so the first prime settles it (2^2 > 1^3), where
    # the row weight alone would need 2^3 = 8 < (2·3)^2, a second prime
    used = tiny_primes([2, 3])
    assert exact_rank(as_matrix([[0, 0, 0], [0, 0, 0], [0, 1, 1], [1, 0, 0]])) == 2
    assert used == [2]


@pytest.mark.parametrize("rows", [
    [[1, 1, 0, 0, 1], [0, 1, 1, 1, 0], [1, 0, 1, 0, 1]],  # wide: 3 rows, 5 columns
    [[1, 1, 0], [0, 1, 1], [1, 0, 0], [1, 1, 1], [0, 0, 1]],  # tall: 5 rows, 3 columns
], ids=["wide", "tall"])
def test_full_rank_stops_after_one_prime(tiny_primes, rows):
    # min(rows, nonzero columns) mod the first prime ends the loop, though
    # 2^2 alone is short of the Hadamard bound
    used = tiny_primes([2, 3, 5])
    assert exact_rank(as_matrix(rows)) == 3
    assert used == [2]


def test_one_function_iterates_the_primes():
    # the multi-modular loop lives in `row_rank_profile` alone
    loops = set()
    for path in Path(rank_mod.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if (isinstance(node, (ast.For, ast.comprehension))
                            and isinstance(node.iter, ast.Call)
                            and getattr(node.iter.func, "id", None) == "modular_primes"):
                        loops.add(f"{path.stem}.{fn.name}")
    assert loops == {"rank.row_rank_profile"}


@pytest.mark.parametrize("seed", range(4))
def test_exact_rank_with_zero_columns_matches_bareiss(seed):
    # zero columns are dropped before elimination; the rank must not move,
    # whether it reaches min(m, nonzero columns) or falls short of it
    rng = np.random.default_rng(300 + seed)
    kinds = set()
    for _ in range(40):
        m, n = (int(x) for x in rng.integers(1, 12, size=2))
        rows = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        rows[:, rng.random(n) < 0.4] = 0
        rows[:, rng.integers(n)] = 0
        if rng.random() < 0.5:  # every row twice: rank <= m < 2m
            rows = np.vstack([rows, rows[rng.permutation(m)]])
        M = as_matrix(rows)
        expected = bareiss_rank(M)
        assert exact_rank(M) == expected
        kinds.add(expected == min(M.m, int(rows.any(axis=0).sum())))
    assert kinds == {False, True}


def hyperplane_family(q, n, k):
    """Every k-subspace of the hyperplane x_n = 0 of V(n,q)."""
    ctx = field_new(q)
    return SubspaceFamily([Subspace.from_rows(ctx, n, [row + (0,) for row in s.basis.data])
                           for s in enumerate_k_subspaces(ctx, n - 1, k)])


def test_hyperplane_family_rank_needs_one_prime(monkeypatch):
    # the [n-1 1]_q points of the hyperplane are the only nonzero columns,
    # and the family reaches that rank mod the first prime; with all N
    # columns as the target the Hadamard bound w^(R+1) = 4^41 > p^2 would
    # ask for a second prime
    used = []
    primes = rank_mod.modular_primes

    def counted():
        for p in primes():
            used.append(p)
            yield p

    monkeypatch.setattr(rank_mod, "modular_primes", counted)
    cert = certify_resolving_by_rank(hyperplane_family(3, 5, 2))
    assert (cert.rank, cert.required, cert.certified) == (40, 121, False)
    assert len(used) == 1


def test_incidence_matrix_compares_by_identity():
    fam = SubspaceFamily(enumerate_k_subspaces(field_new(2), 4, 2))
    a, b = incidence_matrix(fam), incidence_matrix(fam)
    assert np.array_equal(a.rows, b.rows)
    assert a == a and a != b


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
    for sub, row in zip(fam, M.rows.tolist()):
        for p, bit in zip(idx.points, row):
            assert bit == (1 if contains(sub, p) else 0)


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


@pytest.mark.parametrize("q,n,k", [qnk for qnk, _ in RANK_GRID])
def test_gram_table_agrees_with_the_float_product(q, n, k):
    ctx = field_new(q)
    table = gram_table(ctx, n, k)
    assert table.dtype == np.int64
    assert np.array_equal(table, gram_float_product(ctx, n, k))
    assert verify_gram(ctx, n, k)


def test_verify_gram_refuses_a_wrong_closed_form(monkeypatch):
    ctx = field_new(2)
    diag, offdiag = gram_closed_form(ctx, 5, 2)
    for wrong in [(diag, offdiag + 1), (diag + 1, offdiag), (diag, 0)]:
        monkeypatch.setattr(rank_mod, "gram_closed_form", lambda *args: wrong)
        assert verify_gram(ctx, 5, 2) is False


def test_gram_cell_ceiling_fires_before_enumeration(monkeypatch):
    # G_2(4,2) has 15 points: 15^2 = 225 Gram cells exceed the 10 * 22 ceiling
    def unreachable(*args):
        raise AssertionError("enumerated before the cell check")

    monkeypatch.setenv("GRASSMANN_BUDGET", "22")
    monkeypatch.setattr(rank_mod, "enumerate_bases", unreachable)
    with pytest.raises(BudgetExceeded, match="^225 Gram cells exceed ceiling 220$"):
        verify_gram(field_new(2), 4, 2)
    monkeypatch.undo()
    monkeypatch.setenv("GRASSMANN_BUDGET", "35")  # 35 vertices, 350 cells
    assert verify_gram(field_new(2), 4, 2)


def test_verify_gram_holds_no_dense_incidence_block():
    # G_3(6,2): 11011 vertices x 364 points; the float product held a 32 MB
    # float64 block, the Gram table is 364^2 int64 cells (1 MB)
    ctx = field_new(3)
    tracemalloc.start()
    try:
        assert verify_gram(ctx, 6, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
    smaller = SubspaceFamily(list(fam)[:-1])
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
