"""Closed-form bounds on the metric dimension of G_q(n,k).

Three formulas are compared against the constructive bound [n 1]_q:

* an information-theoretic lower bound log_k of the vertex count (each
  added landmark multiplies the number of distinguishable codes by at
  most k+1, and coarser: by k positive distances);
* the general distance-regular upper bound 4*sqrt(N)*log N;
* the sharper bound 2k*N/(N - M)*log N, where M is the largest ball-slice
  q^(j^2) [n-k j]_q [k j]_q — the number of vertices at distance j from a
  fixed vertex; the slices sum to N, so M < N always holds here.

"log" in the two upper bounds defaults to the natural logarithm; the base
is switchable and recorded in every report, since qualitative comparisons
can flip for borderline instances.  Evaluation goes through exact big
integers and 96-bit floating point, so double rounding on huge Gaussian
binomials is not a concern.  mpmath is imported inside the functions that
use it, so importing the package does not pay for it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateBound, InvalidArgs, TooLarge
from .subspaces import gaussian_binomial

LOG_BASES = ("e", "2", "10")
_PRECISION_BITS = 96


def _log(x, base: str = "e"):
    import mpmath

    v = mpmath.log(mpmath.mpf(x))
    if base == "e":
        return v
    if base in ("2", "10"):
        return v / mpmath.log(int(base))
    raise InvalidArgs(f"log base must be one of {LOG_BASES}, got {base!r}")


def _finite(value: float, what: str) -> float:
    """value, or TooLarge when it overflowed a float."""
    if not math.isfinite(value):
        raise TooLarge(f"{what} is too large for a float")
    return value


def lower_bound(q: int, n: int, k: int) -> float:
    """log base k of [n k]_q; approximate, not rounded up here."""
    if k < 2:
        raise InvalidArgs(f"need k >= 2, got {k}")
    import mpmath

    nv = gaussian_binomial(n, k, q)
    with mpmath.workprec(_PRECISION_BITS):
        return _finite(float(mpmath.log(mpmath.mpf(nv)) / mpmath.log(k)), "lower bound")


def babai_general(q: int, n: int, k: int, log_base: str = "e") -> float:
    """4 * sqrt(N) * log N with N = [n k]_q."""
    import mpmath

    nv = gaussian_binomial(n, k, q)
    with mpmath.workprec(_PRECISION_BITS):
        return _finite(float(4 * mpmath.sqrt(mpmath.mpf(nv)) * _log(nv, log_base)),
                       "general upper bound")


def distance_class_size(q: int, n: int, k: int, j: int) -> int:
    """Vertices of G_q(n,k) at distance exactly j from a fixed vertex."""
    return q ** (j * j) * gaussian_binomial(n - k, j, q) * gaussian_binomial(k, j, q)


def babai_strong(q: int, n: int, k: int, log_base: str = "e") -> tuple:
    """(bound, M, argmax_j): 2k * N/(N-M) * log N, M the largest distance
    class over j in [0, k]; smallest maximizing j wins ties."""
    if k > n - k:
        raise InvalidArgs(f"need k <= n-k, got n={n} k={k}")
    nv = gaussian_binomial(n, k, q)
    big_m, arg = 1, 0
    for j in range(k + 1):
        term = distance_class_size(q, n, k, j)
        if term > big_m:
            big_m, arg = term, j
    if big_m >= nv:
        raise DegenerateBound(f"M={big_m} >= N={nv}")
    import mpmath

    with mpmath.workprec(_PRECISION_BITS):
        bound = float(
            2 * k * mpmath.mpf(nv) / mpmath.mpf(nv - big_m) * _log(nv, log_base)
        )
    return _finite(bound, "strong upper bound"), big_m, arg


class BoundsReport(NamedTuple):
    q: int
    n: int
    k: int
    num_vertices: int
    lower_log: float
    babai_general: float
    babai_strong: float
    babai_M: int
    babai_argmax_j: int
    constructive_bound: int  # [n 1]_q, met by the spread/greedy constructions
    log_base: str
    construction_sizes: dict
    constructive_below_general: bool
    strong_below_constructive: bool

    def to_json(self) -> dict:
        return {**self._asdict(), "construction_sizes": dict(self.construction_sizes)}


def compare(q: int, n: int, k: int, log_base: str = "e") -> BoundsReport:
    """Full report for one instance.

    construction_sizes records the sizes the constructions are proven to
    produce (closed forms; the construction modules assert them): the
    spread route when (k+1) | n, the t=1 partition route, and the greedy
    route, which always stops at exactly [n 1]_q.
    """
    nv = gaussian_binomial(n, k, q)
    cons = gaussian_binomial(n, 1, q)
    lower = lower_bound(q, n, k)
    gen = babai_general(q, n, k, log_base)
    strong, big_m, arg = babai_strong(q, n, k, log_base)
    sizes = {"greedy": cons}
    if n % (k + 1) == 0:
        sizes["spread"] = cons
    elif n % (k + 1) == 1:
        sizes["partition"] = cons + q ** (n - k) * gaussian_binomial(k - 1, 1, q)
    return BoundsReport(
        q=q,
        n=n,
        k=k,
        num_vertices=nv,
        lower_log=lower,
        babai_general=gen,
        babai_strong=strong,
        babai_M=big_m,
        babai_argmax_j=arg,
        constructive_bound=cons,
        log_base=log_base,
        construction_sizes=sizes,
        constructive_below_general=cons < gen,
        strong_below_constructive=strong < cons,
    )


CSV_HEADER = (
    "q,n,k,num_vertices,lower_log,babai_general,babai_strong,babai_M,"
    "constructive_bound,log_base"
)


def csv_row(r: BoundsReport) -> str:
    return (
        f"{r.q},{r.n},{r.k},{r.num_vertices},{r.lower_log:.4f},"
        f"{r.babai_general:.4f},{r.babai_strong:.4f},{r.babai_M},"
        f"{r.constructive_bound},{r.log_base}"
    )
