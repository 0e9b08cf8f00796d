"""Arithmetic for small prime-power finite fields GF(p^e) and GF(q^t).

One construction builds every field.  GF(q^t) is the power-basis extension
of GF(q) by the lexicographically smallest monic irreducible polynomial of
degree t over GF(q), where coefficient vectors are compared as base-q
integers with the constant term least significant.  This rule is
deterministic and needs no external polynomial tables.  The element
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
prime field is plain mod-p arithmetic with the modulus x.  A context is
immutable and safe to share; it is passed explicitly wherever elements are
combined.

The ceilings DEFAULT_MAX_ORDER (for GF(q)) and EXTENSION_MAX_ORDER (for
GF(q^t)) are fixed; larger orders raise TooLarge.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NotPrimePower, TooLarge

FieldElement = int

DEFAULT_MAX_ORDER = 16
EXTENSION_MAX_ORDER = 4096


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"field order must be >= 2, got {q}")
    p = None
    for d in range(2, q + 1):
        if d * d > q:
            p = q  # q itself is prime
            break
        if q % d == 0:
            p = d
            break
    assert p is not None
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, e


# -- polynomial helpers over a FieldCtx ---------------------------------------
#
# Polynomials are tuples of scalar encodings, constant term first.  Leading
# zeros are permitted in intermediate values.


def _poly_rem(field, a, m):
    """Remainder of a modulo the monic polynomial m."""
    rem = list(a)
    dm = len(m) - 1
    for i in range(len(rem) - 1, dm - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        rem[i] = 0
        for j in range(dm):
            rem[i - dm + j] = field.sub(rem[i - dm + j], field.mul(c, m[j]))
    return tuple(rem[:dm])


def _is_irreducible(field, m) -> bool:
    """Trial division of the monic polynomial m by all lower-degree monics."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for low in digit_rows(np.arange(field.q**d), field.q, d).tolist():
            if not any(_poly_rem(field, m, (*low, 1))):
                return False
    return True


def _smallest_irreducible(field, deg: int):
    """Lexicographically smallest monic irreducible of the given degree.

    Candidates are compared as base-q integers of their coefficient vector,
    constant term least significant, which is exactly ascending-code order.
    """
    for low in digit_rows(np.arange(field.q**deg), field.q, deg).tolist():
        if _is_irreducible(field, (*low, 1)):
            return (*low, 1)
    raise AssertionError(f"no irreducible of degree {deg} over GF({field.q})")


class FieldCtx:
    """GF(p^e) with table-driven arithmetic.  Immutable after construction."""

    def __init__(self, q: int):
        # the ceiling first: factoring a huge q by trial division would hang
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
        self.add_table = tuple(map(tuple, add.tolist()))
        self.mul_table = tuple(map(tuple, mul.tolist()))
        self.neg_table = tuple(row.index(0) for row in self.add_table)
        self.inv_table = (0,) + tuple(row.index(1) for row in self.mul_table[1:])

    # -- element operations --------------------------------------------
    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.add_table[a][b]

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.mul_table[a][b]

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
    if ctx.q**t > EXTENSION_MAX_ORDER:
        raise TooLarge(f"extension order {ctx.q}^{t} exceeds ceiling {EXTENSION_MAX_ORDER}")
    modulus = _smallest_irreducible(ctx, t)
    # y·y^i = y^(i+1) below the top, and y^t = -(m_0 + m_1 y + ... + m_(t-1) y^(t-1))
    companion = np.eye(t, k=1, dtype=np.uint8)
    companion[-1] = [ctx.neg_table[c] for c in modulus[:t]]
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
    add = np.array(ctx.add_table, dtype=np.uint8)
    mul = np.array(ctx.mul_table, dtype=np.uint8)
    out = mul[coeffs[..., :, 0, None], bases[..., None, 0, :]]
    for i in range(1, coeffs.shape[-1]):
        out = add[out, mul[coeffs[..., :, i, None], bases[..., None, i, :]]]
    return out
