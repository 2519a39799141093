"""Asymptotic (many-group) k-th-best outage via the Gumbel limit.

Normalizing constants use the von-Mises construction: location at the
1 - 1/B quantile, scale equal to the reciprocal hazard there.  Membership in
the Gumbel domain of attraction is checked numerically rather than assumed.
Laws live on [0, inf): quantiles are bracketed upwards from [0, 1], a quantile
below 0 raises ValueError, and so does a pdf that vanishes at the quantile.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .channel import check_count


@dataclass(frozen=True)
class EvtConstants:
    location: float
    scale: float

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")


class BisectionError(RuntimeError):
    """Quantile bisection found no bracket within the upward doublings."""


# upward doublings of the bracket [0, 1]; 2**200 outgrows any double-scale law
_BRACKET_DOUBLINGS = 200


def kth_limit_cdf(x: float, k: int) -> float:
    """Limiting CDF of the k-th best of many i.i.d. draws, standardized:
    exp(-e^-x) sum_{j<k} e^-jx / j!, each term taken in log space.  Below
    x = -709, e^-x overflows and the CDF lies below the smallest double."""
    check_count("k", k)
    if x < -709.0:
        return 0.0
    e = math.exp(-x)
    return math.exp(-e) + sum(math.exp(-j * x - math.lgamma(j + 1.0) - e) for j in range(1, k))


def _quantile_bisect(cdf: Callable[[float], float], p: float) -> float:
    lo, hi = 0.0, 1.0
    for _ in range(_BRACKET_DOUBLINGS):
        if cdf(hi) >= p:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise BisectionError(f"could not bracket quantile p={p}")
    if cdf(lo) > p:
        raise ValueError(f"quantile p={p} lies below 0; the law must live on [0, inf)")
    # each pass returns or strictly narrows [lo, hi], so this ends within the doubles
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi or hi - lo <= 1e-14 * max(abs(lo), abs(hi)):
            return mid
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid


def hazard_ratio(cdf: Callable[[float], float], pdf: Callable[[float], float], x: float) -> float:
    """(1 - F(x)) / f(x); constant in the tail for the Gumbel domain."""
    f = pdf(x)
    if f <= 0:
        raise ValueError(f"pdf must be positive at x={x}")
    return (1.0 - cdf(x)) / f


def check_gumbel_domain(
    cdf: Callable[[float], float],
    pdf: Callable[[float], float],
    b: int,
) -> bool:
    """Numerically test whether the tail hazard ratio stays bounded.

    A ratio that keeps growing along rising tail quantiles, to more than twice
    its first value, indicates a heavy (Frechet-type) tail; a warning is
    emitted and False returned.
    """
    check_count("b", b, least=2)
    probes = [1.0 - 1.0 / (b * 10 ** i) for i in range(3)]
    ratios = [hazard_ratio(cdf, pdf, _quantile_bisect(cdf, p)) for p in probes]
    if ratios[0] < ratios[1] < ratios[2] and ratios[2] > 2.0 * ratios[0]:
        warnings.warn(
            "tail hazard ratio keeps growing; distribution may lie in the "
            "Frechet domain and the Gumbel asymptotics may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
        return False
    return True


def normalizing_constants(
    cdf: Callable[[float], float],
    pdf: Callable[[float], float],
    b: int,
) -> EvtConstants:
    """Gumbel normalizing constants for the maximum of b i.i.d. draws."""
    check_count("b", b, least=2)
    location = _quantile_bisect(cdf, 1.0 - 1.0 / b)
    return EvtConstants(location=location, scale=hazard_ratio(cdf, pdf, location))


def outage_evt(x: float, k: int, constants: EvtConstants) -> float:
    """Asymptotic outage of the k-th best group at threshold x."""
    return kth_limit_cdf((x - constants.location) / constants.scale, k)
