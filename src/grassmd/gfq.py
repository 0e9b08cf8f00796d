"""Arithmetic for small prime-power finite fields GF(p^e) and GF(q^t).

One construction builds every field.  GF(q^t) is the power-basis extension
of GF(q) by the lexicographically smallest monic irreducible polynomial of
degree t over GF(q), where coefficient vectors are compared as base-q
integers with the constant term least significant.  This rule is
deterministic and needs no external polynomial tables: the search runs
once per field, trial division on a block of candidates at a time, each
step a `gf_matmul` on GF(q)'s tables.  The element
``a_0 + a_1 y + ... + a_{t-1} y^{t-1}`` is encoded as the base-q integer
with ``a_0`` least significant, so elements are plain integers in
``[0, q^t)`` and `digit_rows` writes their GF(q)-coordinates.

Multiplication by y^j is GF(q)-linear.  `power_basis_matrices` returns its
matrices in the power basis, the powers of the modulus's companion matrix,
so every product in GF(q^t) is one `gf_matmul`, the one array product over
GF(q): field-reduction spreads read V(n, q) as V(n/t, q^t), and the
partition tail multiplies all of GF(q^s) by the power basis of GF(q^t).

:class:`FieldCtx` is GF(q) for q <= DEFAULT_MAX_ORDER in lookup tables:
for q = p^e with e > 1 it tabulates those products over GF(p), and a
prime field is plain mod-p arithmetic with the modulus x.  Each table is
built once, as a read-only uint8 array (`add_array`, `mul_array`,
`neg_array`, `inv_array`) that the array kernels index without converting,
and no other module reads the product or inverse table.  Those kernels are
`gf_matmul`, the one product over GF(q), and `gf_rref`, the one RREF:
Gauss-Jordan on a batch of matrices of any rank.  A context
is immutable and safe to share; it is passed explicitly wherever elements
are combined.

The ceilings DEFAULT_MAX_ORDER (for GF(q)), EXTENSION_MAX_ORDER (for
GF(q^t)) and FACTOR_MAX_ORDER (for `factor_prime_power`, which tests q's
integer roots with `is_prime`, a Miller-Rabin test exact below 2.15 * 10^12)
are fixed; larger orders raise TooLarge.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NotPrimePower, TooLarge

DEFAULT_MAX_ORDER = 16
EXTENSION_MAX_ORDER = 4096
FACTOR_MAX_ORDER = 10**12  # below 2,152,302,898,747, where is_prime stops being exact


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: bases 2, 3, 5, 7 and 11 are exact below
    2,152,302,898,747, which covers FACTOR_MAX_ORDER and every modular prime."""
    bases = (2, 3, 5, 7, 11)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    # b shows n composite unless b^d = 1 or b^(d 2^i) = -1 for some i < s
    return not any(pow(b, d, n) != 1 and all(pow(b, d << i, n) != n - 1 for i in range(s))
                   for b in bases)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise NotPrimePower; refuses q above
    FACTOR_MAX_ORDER before any root is taken.  For e = 1, 2, ..., r is the
    integer e-th root of q by Newton's method from above, with no float."""
    if q < 2:
        raise NotPrimePower(f"field order must be >= 2, got {q}")
    if q > FACTOR_MAX_ORDER:
        raise TooLarge(f"field order {q} exceeds ceiling {FACTOR_MAX_ORDER}")
    for e in range(1, q.bit_length()):
        r = 1 << -(-q.bit_length() // e)  # 2^ceil(bits/e) > q^(1/e)
        while (s := ((e - 1) * r + q // r ** (e - 1)) // e) < r:
            r = s
        if r**e == q and is_prime(r):
            return r, e
    raise NotPrimePower(f"{q} is not a prime power")


# Candidate moduli are tried this many codes at a time, smallest first:
# under the ceilings every field's smallest irreducible has a code below 32,
# so one or two blocks decide.
SEARCH_CODES = 16


@lru_cache(maxsize=None)
def _smallest_irreducible(field, deg: int) -> tuple:
    """Lexicographically smallest monic irreducible of the given degree, as
    its coefficients, constant term first.

    Candidates are compared as base-q integers of their coefficient vector,
    constant term least significant, which is exactly ascending-code order.
    Trial division by the monics of each degree d <= deg/2 runs on a block
    of candidates at once, one step ``add[rem, gf_matmul(-c, low)]`` per
    leading coefficient c, and drops the candidates that some divisor leaves
    no remainder; the first one left in a block is the answer.
    """
    q, add, neg = field.q, field.add_array, field.neg_array
    for lo in range(q**deg, 2 * q**deg, SEARCH_CODES):  # leading coefficient 1
        alive = digit_rows(np.arange(lo, min(lo + SEARCH_CODES, 2 * q**deg)), q, deg + 1)
        for d in range(1, deg // 2 + 1):
            low = digit_rows(np.arange(q**d), q, d)[:, None]  # divisor x^d + low, (D, 1, d)
            rem = np.repeat(alive[:, None], len(low), axis=1)  # (C, D, deg + 1)
            for i in range(deg, d - 1, -1):  # cancel the term of degree i by c·x^(i-d)·divisor
                step = gf_matmul(field, neg[rem[:, :, i, None, None]], low)[:, :, 0]
                rem[:, :, i - d:i] = add[rem[:, :, i - d:i], step]
            alive = alive[rem[:, :, :d].any(axis=2).all(axis=1)]
        if len(alive):
            return tuple(alive[0].tolist())
    raise AssertionError(f"no irreducible of degree {deg} over GF({q})")


class FieldCtx:
    """GF(p^e) with table-driven arithmetic.  Immutable after construction."""

    def __init__(self, q: int):
        # the ceiling first, before factor_prime_power
        if q > DEFAULT_MAX_ORDER:
            raise TooLarge(f"field order {q} exceeds ceiling {DEFAULT_MAX_ORDER}")
        p, e = factor_prime_power(q)
        self.p = p
        self.e = e
        self.q = q
        weights = p ** np.arange(e)
        digits = digit_rows(np.arange(q), p, e)
        add = (digits[:, None] + digits) % p @ weights
        if e == 1:
            self.modulus, mul = (0, 1), np.outer(range(q), range(q)) % p
        else:
            base = field_new(p)
            self.modulus = _smallest_irreducible(base, e)
            # entry (j, b) of the first product is y^j·b, and entry (a, b)
            # of the second is the sum of a_j y^j·b over j, that is a·b
            shifted = gf_matmul(base, digits, power_basis_matrices(base, e))
            mul = gf_matmul(base, digits, shifted.reshape(e, q * e)).reshape(q, q, e) @ weights
        # -a solves a + x = 0, and 1/a solves a·x = 1 (0 stands in for 1/0)
        neg, inv = (add == 0).argmax(axis=1), (mul == 1).argmax(axis=1)
        arrays = [np.array(table, dtype=np.uint8) for table in (add, mul, neg, inv)]
        for table in arrays:
            table.flags.writeable = False
        self.add_array, self.mul_array, self.neg_array, self.inv_array = arrays

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.q == other.q
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.q, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field_new(q: int) -> FieldCtx:
    """Context for GF(q) with the canonical modulus.  Cached per q."""
    return FieldCtx(q)


def digit_rows(values, q: int, width: int) -> np.ndarray:
    """(..., width) uint8 array of the base-q digits of each integer in
    values, least significant first: the element encoding of GF(q^width)
    read back as GF(q)-coordinates in the power basis."""
    return (np.asarray(values, dtype=np.int64)[..., None] // q ** np.arange(width) % q).astype(np.uint8)


def power_basis_matrices(ctx: FieldCtx, t: int) -> np.ndarray:
    """GF(q^t) over GF(q) = ctx as a read-only (t, t, t) uint8 array: matrix
    j maps the coordinate row of x to that of y^j·x.  Matrix 1 is the
    companion matrix of the modulus and matrix j its j-th power."""
    if t < 1:
        raise NotPrimePower(f"extension degree must be >= 1, got {t}")
    # q^t >= 2^t, so a t of the ceiling's bit length or more is refused before the power
    if t >= EXTENSION_MAX_ORDER.bit_length() or ctx.q**t > EXTENSION_MAX_ORDER:
        raise TooLarge(f"extension order {ctx.q}^{t} exceeds ceiling {EXTENSION_MAX_ORDER}")
    modulus = _smallest_irreducible(ctx, t)
    # y·y^i = y^(i+1) below the top, and y^t = -(m_0 + m_1 y + ... + m_(t-1) y^(t-1))
    companion = np.eye(t, k=1, dtype=np.uint8)
    companion[-1] = ctx.neg_array[list(modulus[:t])]
    powers = [np.eye(t, dtype=np.uint8)]
    for _ in range(1, t):
        powers.append(gf_matmul(ctx, powers[-1], companion))
    out = np.stack(powers)
    out.flags.writeable = False
    return out


def gf_matmul(ctx: FieldCtx, coeffs: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """coeffs @ bases over GF(q) for uint8 arrays, batched like np.matmul:
    (..., r, d) times (..., d, n) gives (..., r, n).  The one array
    product, of coefficient rows and bases and of GF(q^t) elements, by
    table lookups."""
    if not coeffs.shape[-1]:  # the empty sum: np.matmul's zeros, in the product's shape
        return np.matmul(coeffs, bases)
    add, mul = ctx.add_array, ctx.mul_array
    out = mul[coeffs[..., :, 0, None], bases[..., None, 0, :]]
    for i in range(1, coeffs.shape[-1]):
        out = add[out, mul[coeffs[..., :, i, None], bases[..., None, i, :]]]
    return out


def gf_rref(ctx: FieldCtx, mats: np.ndarray) -> np.ndarray:
    """RREF of every (r, n) matrix, of any rank, in an (S, r, n) uint8 array:
    Gauss-Jordan on all S at once, scaling and clearing by `gf_matmul`.  A
    step on zero remaining rows scales by inv[0] = 0 and changes nothing."""
    add, neg, inv = ctx.add_array, ctx.neg_array, ctx.inv_array
    m, at = np.array(mats, dtype=np.uint8), np.arange(len(mats))
    # min(r, n) steps suffice: n pivots leave every row past the n-th zero
    for i in range(min(m.shape[1:])):
        rest = m[:, i:] != 0
        col = rest.any(axis=1).argmax(axis=1)  # the leftmost column nonzero in rows i..
        below = i + rest[at, :, col].argmax(axis=1)
        row = m[at, below]
        m[at, below] = m[:, i]
        pivot = gf_matmul(ctx, inv[row[at, col], None, None], row[:, None])
        f = neg[m[at, :, col]]
        f[:, i] = 0
        m = add[m, gf_matmul(ctx, f[:, :, None], pivot)]
        m[:, i] = pivot[:, 0]
    return m
