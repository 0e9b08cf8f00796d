"""Arithmetic for small prime-power finite fields GF(p^e).

One construction builds every field.  GF(q^t) is the power-basis extension
of GF(q) by the lexicographically smallest monic irreducible polynomial of
degree t over GF(q), where coefficient vectors are compared as base-q
integers with the constant term least significant.  This rule is
deterministic and needs no external polynomial tables.  The element
``a_0 + a_1 y + ... + a_{t-1} y^{t-1}`` is encoded as the base-q integer
with ``a_0`` least significant, so elements are plain integers in
``[0, q^t)``.

:class:`ExtensionField` is that construction.  Its products are polynomial
products reduced on the fly: field-reduction spreads read V(n, q) as
V(n/t, q^t), the power basis 1, y, ..., y^{t-1} supplies the
GF(q)-coordinates, and the constructions make about order x t products,
far fewer than an order x order table would cost to fill.

:class:`FieldCtx` is GF(q) for q <= DEFAULT_MAX_ORDER with the same
arithmetic cached in tables: for q = p^e with e > 1 it tabulates
``ExtensionField(field_new(p), e)``, and a prime field is plain mod-p
arithmetic with the modulus x.  A context is immutable and safe to share;
it is passed explicitly wherever elements are combined.

The ceilings DEFAULT_MAX_ORDER (for GF(q)) and EXTENSION_MAX_ORDER (for
GF(q^t)) are fixed; larger orders raise TooLarge.
"""

from __future__ import annotations

from functools import lru_cache

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


def _poly_mul(field, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return tuple(out)


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
    q = field.q
    for d in range(1, deg // 2 + 1):
        for code in range(q**d):
            div = _decode_poly(code, q, d) + (1,)
            if not any(_poly_rem(field, m, div)):
                return False
    return True


def _decode_poly(code: int, q: int, length: int):
    digits = []
    for _ in range(length):
        digits.append(code % q)
        code //= q
    return tuple(digits)


def _smallest_irreducible(field, deg: int):
    """Lexicographically smallest monic irreducible of the given degree.

    Candidates are compared as base-q integers of their coefficient vector,
    constant term least significant, which is exactly ascending-code order.
    """
    q = field.q
    for code in range(q**deg):
        cand = _decode_poly(code, q, deg) + (1,)
        if _is_irreducible(field, cand):
            return cand
    raise AssertionError(f"no irreducible of degree {deg} over GF({q})")


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
        if e == 1:
            self.modulus = (0, 1)
            add, mul = (lambda a, b: (a + b) % p), (lambda a, b: a * b % p)
        else:
            ext = ExtensionField(field_new(p), e)
            self.modulus, add, mul = ext.modulus, ext.add, ext.mul
        self.add_table = tuple(tuple(add(a, b) for b in range(q)) for a in range(q))
        self.mul_table = tuple(tuple(mul(a, b) for b in range(q)) for a in range(q))
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


class ExtensionField:
    """Degree-t power-basis extension GF(q^t) of a base GF(q).

    Elements are integers in [0, q^t) whose base-q digits are the
    coordinates over the power basis 1, y, ..., y^{t-1}; digit i is the
    coefficient of y^i.  The modulus is the smallest monic irreducible of
    degree t over the base (see the module docstring).
    """

    def __init__(self, base: FieldCtx, t: int):
        if t < 1:
            raise NotPrimePower(f"extension degree must be >= 1, got {t}")
        self.base = base
        self.t = t
        self.order = base.q**t
        if self.order > EXTENSION_MAX_ORDER:
            raise TooLarge(
                f"extension order {base.q}^{t} exceeds ceiling {EXTENSION_MAX_ORDER}"
            )
        self.modulus = _smallest_irreducible(base, t)

    def coords(self, a: int) -> tuple[FieldElement, ...]:
        """Base-field coordinates of a over the power basis (length t)."""
        return _decode_poly(a, self.base.q, self.t)

    def from_coords(self, coords) -> int:
        v = 0
        for c in reversed(coords):
            v = v * self.base.q + c
        return v

    def add(self, a: int, b: int) -> int:
        base = self.base
        return self.from_coords(
            tuple(base.add(x, y) for x, y in zip(self.coords(a), self.coords(b)))
        )

    def mul(self, a: int, b: int) -> int:
        prod = _poly_rem(self.base, _poly_mul(self.base, self.coords(a), self.coords(b)), self.modulus)
        return self.from_coords(prod + (0,) * (self.t - len(prod)))

    def __repr__(self):
        return f"GF({self.base.q}^{self.t})"
