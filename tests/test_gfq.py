"""Finite-field arithmetic: table construction, axioms, extension fields.

The power-basis matrices of GF(q^t) are checked against `ExtensionField`,
the polynomial-product arithmetic kept in the test oracles."""

import ast
import hashlib
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from grassmd.errors import NotPrimePower, TooLarge
from grassmd.gfq import (
    DEFAULT_MAX_ORDER,
    EXTENSION_MAX_ORDER,
    FACTOR_MAX_ORDER,
    FieldCtx,
    _smallest_irreducible,
    digit_rows,
    factor_prime_power,
    field_new,
    gf_matmul,
    is_prime,
    power_basis_matrices,
)
from oracles import ExtensionField, prime_power_by_trial_division, smallest_irreducible


def field_pow(ctx, a, e):
    r = 1
    for _ in range(e):
        r = ctx.mul_array[r, a]
    return r


def ext_pow(ext, a, e):
    r = 1
    for bit in bin(e)[2:]:
        r = ext.mul(r, r)
        if bit == "1":
            r = ext.mul(r, a)
    return r


def poly_eval_mod_p(coeffs, x, p):
    # coeffs are a0-first; plain integer arithmetic mod p, independent of FieldCtx
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


@pytest.mark.parametrize(
    "q,p,e",
    [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1), (8, 2, 3),
     (9, 3, 2), (11, 11, 1), (13, 13, 1), (16, 2, 4)],
)
def test_factor_prime_power(q, p, e):
    assert factor_prime_power(q) == (p, e)


@pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 14, 15])
def test_factor_rejects_non_prime_powers(q):
    with pytest.raises(NotPrimePower):
        factor_prime_power(q)


def test_factor_ceiling():
    # is_prime is exact a little past 10^12: a larger q is refused before any root is taken
    assert factor_prime_power(999999999989) == (999999999989, 1)  # the largest prime <= 10^12
    with pytest.raises(TooLarge):
        factor_prime_power(FACTOR_MAX_ORDER + 1)


def factor_or_none(q):
    try:
        return factor_prime_power(q)
    except NotPrimePower:
        return None


def test_factor_matches_trial_division_below_2e5():
    assert [q for q in range(200000) if factor_or_none(q) != prime_power_by_trial_division(q)] == []


def test_factor_matches_trial_division_on_prime_powers_up_to_the_ceiling():
    primes = [p for p in range(1000) if prime_power_by_trial_division(p) == (p, 1)]
    assert len(primes) == 168
    for p in primes:
        e = 1
        while p**e <= FACTOR_MAX_ORDER:
            assert factor_prime_power(p**e) == prime_power_by_trial_division(p**e) == (p, e)
            e += 1


@pytest.mark.parametrize("q,want", [
    (999999999989, (999999999989, 1)),  # the largest prime <= 10^12
    (999983**2, (999983, 2)),  # the square of the largest prime below 10^6
    (999983 * 999979, None),  # the product of the two largest primes below 10^6
    (10**12, None),
    (2**39, (2, 39)),
    (3215031751, None),  # 151 * 751 * 28351, which only base 11 shows composite
])
def test_factor_matches_trial_division_near_the_ceiling(q, want):
    assert factor_or_none(q) == prime_power_by_trial_division(q) == want


def test_is_prime_matches_a_sieve_below_10_6():
    sieve = np.ones(10**6, dtype=bool)
    sieve[:2] = False
    for d in range(2, 1000):
        if sieve[d]:
            sieve[d * d::d] = False
    assert [n for n in range(10**6) if is_prime(n) != sieve[n]] == []


def test_one_primality_test():
    # is_prime is the one primality test: factor_prime_power and
    # modular_primes call it, and no other function is named for primes
    src = Path(factor_prime_power.__code__.co_filename).parent
    named = set()
    for path in src.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and "prime" in fn.name.lower():
                named.add(f"{path.stem}.{fn.name}")
    assert named == {"gfq.is_prime", "gfq.factor_prime_power", "rank.modular_primes"}


def test_order_ceiling():
    with pytest.raises(TooLarge):
        FieldCtx(32)
    assert FieldCtx(DEFAULT_MAX_ORDER).q == DEFAULT_MAX_ORDER
    with pytest.raises(TooLarge):
        field_new(DEFAULT_MAX_ORDER + 1)


def test_field_new_is_cached():
    assert field_new(4) is field_new(4)
    assert field_new(4) is not field_new(8)


@pytest.mark.parametrize(
    "q,modulus",
    [(4, (1, 1, 1)), (8, (1, 1, 0, 1)), (9, (1, 0, 1)), (16, (1, 1, 0, 0, 1))],
)
def test_pinned_moduli_are_irreducible(q, modulus):
    # a0-first coefficients; smallest integer encoding among monic irreducibles
    ctx = FieldCtx(q)
    assert ctx.modulus == modulus
    p, e = factor_prime_power(q)
    assert len(modulus) == e + 1 and modulus[-1] == 1
    # degree <= 3: irreducible over GF(p) iff no roots
    for x in range(p):
        assert poly_eval_mod_p(modulus, x, p) != 0
    if e == 4 and p == 2:
        # rootless quartic over GF(2) is reducible only if it is (x^2+x+1)^2
        assert modulus != (1, 0, 1, 0, 1)
    assert smallest_irreducible(field_new(p), e) == modulus


def test_a_field_searches_for_its_modulus_once():
    # the multiplication table's power-basis matrices reuse the modulus
    _smallest_irreducible.cache_clear()
    FieldCtx(16)
    info = _smallest_irreducible.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_modulus_search_matches_trial_division(q):
    # the array search, a block of candidates at a time, against the
    # oracle's trial division of one candidate at a time, for every GF(q^t)
    # under the ceiling
    ctx, t = field_new(q), 1
    while q**t <= EXTENSION_MAX_ORDER:
        assert _smallest_irreducible(ctx, t) == smallest_irreducible(ctx, t), t
        t += 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    # every triple at once: a, b, c index the three axes
    ctx = FieldCtx(q)
    add, mul, neg, inv = ctx.add_array, ctx.mul_array, ctx.neg_array, ctx.inv_array
    a, b, c = np.ix_(range(q), range(q), range(q))
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    els = np.arange(q)
    assert (add[els, 0] == els).all() and (mul[els, 1] == els).all() and not mul[els, 0].any()
    assert not add[els, neg].any()
    assert (mul[els[1:], inv[1:]] == 1).all()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_sub_and_div_consistency(q):
    # (a - b) + b = a, and (a / b)·b = a for b != 0
    ctx = FieldCtx(q)
    add, mul, neg, inv = ctx.add_array, ctx.mul_array, ctx.neg_array, ctx.inv_array
    a, b = np.ix_(range(q), range(q))
    assert (add[add[a, neg[b]], b] == a).all()
    assert (mul[mul[a, inv[b[:, 1:]]], b[:, 1:]] == a).all()


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_frobenius_is_additive(q):
    # (a+b)^p == a^p + b^p in characteristic p
    ctx = FieldCtx(q)
    add = ctx.add_array
    p, _ = factor_prime_power(q)
    for a, b in itertools.product(range(q), range(q)):
        lhs = field_pow(ctx, add[a, b], p)
        rhs = add[field_pow(ctx, a, p), field_pow(ctx, b, p)]
        assert lhs == rhs


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_multiplicative_order_divides_q_minus_1(q):
    ctx = FieldCtx(q)
    for a in range(1, q):
        assert field_pow(ctx, a, q - 1) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_multiplicative_group_is_cyclic(q):
    # some element attains order exactly q-1
    ctx = FieldCtx(q)

    def order(a):
        x, m = a, 1
        while x != 1:
            x = ctx.mul_array[x, a]
            m += 1
        return m

    assert any(order(a) == q - 1 for a in range(2, q)) or q == 2


def test_tables_are_pinned():
    # every table of every GF(q), q <= 16: the rule that picks the modulus
    # and the element encoding are part of the family-file format; the
    # digest is of the tables as tuples of ints
    tables = [
        (q, c.modulus, *(tuple(map(tuple, t.tolist())) for t in (c.add_array, c.mul_array)),
         *(tuple(t.tolist()) for t in (c.neg_array, c.inv_array)))
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
        for c in [FieldCtx(q)]
    ]
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
        "67b71a49f6655381710431a4c3cfc63339ed629560de0e81e086523b88d2c3e4"
    )


def test_table_arrays_equal_the_tuples_and_refuse_writes():
    # the array kernels index these; building them once per field must not
    # let a caller change the field.  Negatives and inverses equal the ones
    # looked up in the rows of the tables as lists, inv[0] = 0 standing for 1/0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        ctx = FieldCtx(q)
        add, mul = ctx.add_array.tolist(), ctx.mul_array.tolist()
        assert ctx.neg_array.tolist() == [row.index(0) for row in add], q
        assert ctx.inv_array.tolist() == [0] + [row.index(1) for row in mul[1:]], q
        for name in ("add", "mul", "neg", "inv"):
            array = getattr(ctx, f"{name}_array")
            assert array.dtype == np.uint8 and not array.flags.writeable, (q, name)
            assert array.shape == (q,) * (2 if name in ("add", "mul") else 1), (q, name)
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1


def test_extension_gf27():
    ext = ExtensionField(field_new(3), 3)
    assert ext.order == 27
    # modulus has no roots in GF(3), so the cubic is irreducible
    for x in range(3):
        assert poly_eval_mod_p(ext.modulus, x, 3) != 0
    for a in range(27):
        assert ext.from_coords(ext.coords(a)) == a
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randrange(27) for _ in range(3))
        assert ext.mul(a, ext.add(b, c)) == ext.add(ext.mul(a, b), ext.mul(a, c))
        assert ext.mul(ext.mul(a, b), c) == ext.mul(a, ext.mul(b, c))
    for a in range(1, 27):
        assert ext.mul(a, ext_pow(ext, a, 25)) == 1


def test_extension_gf64_over_gf4():
    ext = ExtensionField(field_new(4), 3)
    assert ext.order == 64
    for a in range(64):
        coords = ext.coords(a)
        assert len(coords) == 3 and all(0 <= c < 4 for c in coords)
        assert ext.from_coords(coords) == a
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (rng.randrange(64) for _ in range(3))
        assert ext.add(a, b) == ext.add(b, a)
        assert ext.mul(a, ext.add(b, c)) == ext.add(ext.mul(a, b), ext.mul(a, c))


def test_extension_coords_are_base_digits():
    # element encoding is base-q positional with a0 least significant
    ext = ExtensionField(field_new(3), 2)
    assert ext.coords(5) == (2, 1)  # 5 = 2 + 1*3
    assert ext.from_coords((0, 2)) == 6


def test_extension_order_ceiling():
    with pytest.raises(TooLarge, match="extension order 16\\^4 exceeds ceiling 4096"):
        power_basis_matrices(field_new(16), 4)
    assert power_basis_matrices(field_new(16), 3).shape == (3, 3, 3)
    assert 16**3 == EXTENSION_MAX_ORDER
    with pytest.raises(NotPrimePower, match="extension degree must be >= 1, got 0"):
        power_basis_matrices(field_new(2), 0)


def test_digit_rows_are_the_element_encoding():
    # least significant digit first, as ExtensionField.coords
    assert digit_rows([5, 6], 3, 2).tolist() == [[2, 1], [0, 2]]
    assert digit_rows(np.arange(4096).reshape(64, 64), 2, 12).shape == (64, 64, 12)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_power_basis_matrices_multiply_by_powers_of_y(q):
    # matrix j maps the coordinates of x to those of y^j·x in the
    # polynomial-product oracle, for every t with q^t under the ceiling:
    # all elements up to order 256, a seeded sample above
    ctx, rng = field_new(q), random.Random(q)
    t = 1
    while q**t <= EXTENSION_MAX_ORDER:
        ext, powers = ExtensionField(ctx, t), power_basis_matrices(ctx, t)
        assert powers.shape == (t, t, t) and powers.dtype == np.uint8
        assert not powers.flags.writeable
        xs = range(ext.order) if ext.order <= 256 else rng.sample(range(ext.order), 64)
        rows = digit_rows(list(xs), q, t)
        for j in range(t):
            y_j = ext.from_coords([0] * j + [1])
            expected = digit_rows([ext.mul(y_j, x) for x in xs], q, t)
            assert np.array_equal(gf_matmul(ctx, rows, powers[j]), expected), (t, j)
        t += 1


@pytest.mark.parametrize("q,t,seed", [(2, 10, 1), (3, 6, 2)])
def test_extension_axioms_on_large_orders(q, t, seed):
    # GF(2^10) and GF(3^6) are past any order whose full product table
    # would be cheap, so this samples the polynomial path directly
    ext = ExtensionField(field_new(q), t)
    order = ext.order
    assert order == q**t
    rng = random.Random(seed)
    for _ in range(150):
        a, b, c = (rng.randrange(order) for _ in range(3))
        assert ext.add(a, 0) == a and ext.mul(a, 1) == a and ext.mul(a, 0) == 0
        assert ext.add(a, b) == ext.add(b, a)
        assert ext.mul(a, b) == ext.mul(b, a)
        assert ext.add(ext.add(a, b), c) == ext.add(a, ext.add(b, c))
        assert ext.mul(ext.mul(a, b), c) == ext.mul(a, ext.mul(b, c))
        assert ext.mul(a, ext.add(b, c)) == ext.add(ext.mul(a, b), ext.mul(a, c))
        assert ext_pow(ext, a, order) == a  # Fermat: a^(q^t) = a
        if a:
            assert ext.mul(a, ext_pow(ext, a, order - 2)) == 1
    # no zero divisors among the products of sampled nonzero elements
    for _ in range(150):
        a, b = rng.randrange(1, order), rng.randrange(1, order)
        assert ext.mul(a, b) != 0
