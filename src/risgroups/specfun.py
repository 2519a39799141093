"""Special functions backing the closed-form outage expressions.

Regularized incomplete gamma/beta via the standard series / continued-fraction
split, and the sinc correlation.  All functions are pure and safe for
concurrent use.
"""

import math

# convergence control of the iterative evaluations
REL_EPS = 1e-15
MAX_ITER = 1000


class ConvergenceError(RuntimeError):
    """Raised when an iterative evaluation fails to converge within MAX_ITER."""


def _gamma_series(s: float, x: float) -> float:
    # lower series: P(s,x) = x^s e^-x / Gamma(s) * sum_n x^n / (s (s+1)...(s+n))
    term = 1.0 / s
    total = term
    a = s
    for _ in range(MAX_ITER):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * REL_EPS:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ConvergenceError(f"incomplete gamma series did not converge (s={s}, x={x})")


def _gamma_cont_frac(s: float, x: float) -> float:
    # upper continued fraction (modified Lentz): Q(s,x)
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < REL_EPS:
            return h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge (s={s}, x={x})"
    )


def _gamma_wilson_hilferty(s: float, x: float) -> float:
    # Wilson-Hilferty cube-root normal approximation; relative error is
    # O(1/s), far below double-precision noise once s exceeds ~1e8
    z = 3.0 * math.sqrt(s) * ((x / s) ** (1.0 / 3.0) - 1.0 + 1.0 / (9.0 * s))
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


# shape above which the series / continued fraction become impractically slow
_GAMMA_LARGE_SHAPE = 1e8


def reg_lower_incomplete_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s,x) = gamma(s,x)/Gamma(s)."""
    if s <= 0:
        raise ValueError(f"shape must be positive, got {s}")
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if s > _GAMMA_LARGE_SHAPE:
        return _gamma_wilson_hilferty(s, x)
    if x < s + 1.0:
        return min(_gamma_series(s, x), 1.0)
    return max(1.0 - _gamma_cont_frac(s, x), 0.0)


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < REL_EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def reg_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a,b)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument must lie in [0,1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    # symmetry split keeps the continued fraction in its fast-converging region
    if x < (a + 1.0) / (a + b + 2.0):
        return min(front * _beta_cont_frac(a, b, x) / a, 1.0)
    return max(1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b, 0.0)


def sinc_corr(d: float, wavelength: float) -> float:
    """Sinc spatial correlation sin(2 pi d / lambda) / (2 pi d / lambda)."""
    if d < 0:
        raise ValueError(f"distance must be nonnegative, got {d}")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    if d == 0.0:
        return 1.0
    t = 2.0 * math.pi * d / wavelength
    return math.sin(t) / t
