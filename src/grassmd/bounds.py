"""Closed-form bounds on the metric dimension of G_q(n,k).

Three formulas are compared against the constructive bound [n 1]_q:

* the lower bound: the least m with m + D^m >= N, where N is the vertex
  count and D = min(k, n-k) the diameter.  Every vertex outside a
  resolving set of size mu has a distinct code in {1..D}^mu, so
  N <= mu + D^mu; m is found in exact integers.  log_k N is reported
  beside it as an estimate;
* the general distance-regular upper bound 4*sqrt(N)*log N;
* the sharper bound 2k*N/(N - M)*log N, where M is the largest ball-slice
  q^(j^2) [n-k j]_q [k j]_q — the number of vertices at distance j from a
  fixed vertex; the slices sum to N, so M < N always holds here.

"log" in the two upper bounds defaults to the natural logarithm; the base
is switchable and recorded in every report, since qualitative comparisons
can flip for borderline instances.  Evaluation goes through exact big
integers and the standard library's `decimal` at 40 significant digits
(about 133 bits), so double rounding on huge Gaussian binomials is not a
concern; each result is then rounded once to a float.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from functools import lru_cache
from typing import NamedTuple

from .errors import DegenerateBound, InvalidArgs, TooLarge
from .gfq import factor_prime_power
from .subspaces import check_graph_shape, gaussian_binomial

LOG_BASES = ("e", "2", "10")
_CONTEXT = Context(prec=40)  # every decimal step: 40 significant digits


@lru_cache(maxsize=16)
def _ln(x: int) -> Decimal:
    """ln x, taken once: `compare` asks for ln N three times, and ln 2 or ln 10."""
    return Decimal(x).ln(_CONTEXT.copy())


def _log(x: int, base: str = "e") -> Decimal:
    if base not in LOG_BASES:
        raise InvalidArgs(f"log base must be one of {LOG_BASES}, got {base!r}")
    return _ln(x) if base == "e" else _ln(x) / _ln(int(base))


def _finite(value: float, what: str) -> float:
    """value, or TooLarge when it overflowed a float."""
    if not math.isfinite(value):
        raise TooLarge(f"{what} is too large for a float")
    return value


def lower_bound(q: int, n: int, k: int) -> int:
    """The least m with m + D^m >= [n k]_q, D = min(k, n-k) the diameter:
    no resolving set of G_q(n,k) is smaller."""
    if not 0 < k < n:
        raise InvalidArgs(f"need 0 < k < n, got n={n} k={k}")
    nv = gaussian_binomial(n, k, q)
    diameter = min(k, n - k)
    if diameter == 1:  # a complete graph: m + 1 >= N
        return nv - 1
    m, power = 0, 1
    while m + power < nv:
        m, power = m + 1, power * diameter
    return m


def log_estimate(q: int, n: int, k: int) -> float:
    """log base k of [n k]_q; approximate, not rounded up here."""
    if k < 2:
        raise InvalidArgs(f"need k >= 2, got {k}")
    nv = gaussian_binomial(n, k, q)
    with localcontext(_CONTEXT):
        return _finite(float(_log(nv) / _log(k)), "log estimate")


def babai_general(q: int, n: int, k: int, log_base: str = "e") -> float:
    """4 * sqrt(N) * log N with N = [n k]_q."""
    nv = gaussian_binomial(n, k, q)
    with localcontext(_CONTEXT):
        return _finite(float(4 * Decimal(nv).sqrt() * _log(nv, log_base)),
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
    with localcontext(_CONTEXT):
        bound = float(2 * k * Decimal(nv) / (nv - big_m) * _log(nv, log_base))
    return _finite(bound, "strong upper bound"), big_m, arg


class BoundsReport(NamedTuple):
    q: int
    n: int
    k: int
    num_vertices: int
    lower_bound: int  # the least m with m + D^m >= N
    lower_log: float  # log_k N, an estimate
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
    factor_prime_power(q)  # NotPrimePower when there is no field GF(q), TooLarge above 10^12
    check_graph_shape(n, k)  # the domain of log_estimate (k >= 2) and babai_strong (k <= n-k)
    nv = gaussian_binomial(n, k, q)
    cons = gaussian_binomial(n, 1, q)
    estimate = log_estimate(q, n, k)
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
        lower_bound=lower_bound(q, n, k),
        lower_log=estimate,
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
    "constructive_bound,log_base,lower_bound"
)


def csv_row(r: BoundsReport) -> str:
    return (
        f"{r.q},{r.n},{r.k},{r.num_vertices},{r.lower_log:.4f},"
        f"{r.babai_general:.4f},{r.babai_strong:.4f},{r.babai_M},"
        f"{r.constructive_bound},{r.log_base},{r.lower_bound}"
    )
