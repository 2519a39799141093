"""Special functions backing the closed-form outage expressions.

Regularized incomplete gamma and beta via the standard series /
continued-fraction split.  Both continued fractions run through one
modified-Lentz loop (Thompson & Barnett 1986, J. Comput. Phys. 64), and every
iterative evaluation gets an iteration budget that grows with the square root
of its argument size, so any shape up to the Wilson-Hilferty cutover at 1e8
converges.  All functions are pure and safe for concurrent use.
"""

import math
from itertools import accumulate, count, repeat

# convergence control of the iterative evaluations
REL_EPS = 1e-15
MAX_ITER = 1000
_TINY = 1e-300


class ConvergenceError(RuntimeError):
    """Raised when an iterative evaluation exhausts its iteration budget."""


def _budget(size: float) -> int:
    # measured need over s = 1e2..1e8, worst case near x = s + 1: at most
    # 9.1 sqrt(s) series terms and 3.8 sqrt(s) continued-fraction steps
    return MAX_ITER + math.ceil(10.0 * math.sqrt(size))


def _lentz(c: float, d: float, steps, budget: int, what: str) -> float:
    # modified Lentz, resumed where the leading partial terms leave the ratios
    # C = c and D = 1/d, with convergent D; each step is a run of the next
    # partial terms (a_i, b_i), and convergence is checked after each step
    d = 1.0 / (_TINY if abs(d) < _TINY else d)
    h = d
    for _, step in zip(range(budget), steps):
        for a_i, b_i in step:
            d = a_i * d + b_i
            d = 1.0 / (_TINY if abs(d) < _TINY else d)
            c = b_i + a_i / c
            c = _TINY if abs(c) < _TINY else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < REL_EPS:
            return h
    raise ConvergenceError(f"{what} continued fraction did not converge")


def _gamma_series(s: float, x: float) -> float:
    # lower series: P(s,x) = x^s e^-x / Gamma(s) * sum_n x^n / (s (s+1)...(s+n))
    term = 1.0 / s
    total = term
    a = s
    for _ in range(_budget(s)):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * REL_EPS:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ConvergenceError(f"incomplete gamma series did not converge (s={s}, x={x})")


def _gamma_cont_frac(s: float, x: float) -> float:
    # upper fraction Q(s,x) = x^s e^-x / Gamma(s) / (x+1-s - 1(1-s)/(x+3-s - ...)),
    # whose first term leaves C = 1/tiny and D = 1/(x+1-s)
    b_0 = x + 1.0 - s
    steps = (
        ((-i * (i - s), b_i),)
        for i, b_i in zip(count(1), accumulate(repeat(2.0), initial=b_0 + 2.0))
    )
    h = _lentz(1.0 / _TINY, b_0, steps, _budget(s), f"incomplete gamma (s={s}, x={x})")
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _gamma_wilson_hilferty(s: float, x: float) -> float:
    # Wilson-Hilferty cube-root normal approximation: close in the bulk, but
    # at s = 1e8 its lower tail 6 sigma out is 0.4 off in relative terms
    z = 3.0 * math.sqrt(s) * ((x / s) ** (1.0 / 3.0) - 1.0 + 1.0 / (9.0 * s))
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


# shape above which the series / continued fraction become impractically slow
_GAMMA_LARGE_SHAPE = 1e8


def reg_lower_incomplete_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s,x) = gamma(s,x)/Gamma(s)."""
    if not s > 0:  # NaN fails this too
        raise ValueError(f"shape s must be positive, got {s}")
    if not x >= 0:
        raise ValueError(f"argument x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if s > _GAMMA_LARGE_SHAPE:
        return _gamma_wilson_hilferty(s, x)
    if x < s + 1.0:
        return min(_gamma_series(s, x), 1.0)
    return max(1.0 - _gamma_cont_frac(s, x), 0.0)


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    # I_x(a,b) = front/a / (1 + d_1/(1 + d_2/(1 + ...))), whose leading terms
    # leave C = 1 and D = 1/(1 + d_1); one step is the pair d_2m, d_2m+1, and
    # convergence is checked after both
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    steps = (
        (
            (m * (b - m) * x / ((qam + 2 * m) * (a + 2 * m)), 1.0),
            (-(a + m) * (qab + m) * x / ((a + 2 * m) * (qap + 2 * m)), 1.0),
        )
        for m in count(1)
    )
    what = f"incomplete beta (a={a}, b={b}, x={x})"
    return _lentz(1.0, 1.0 - qab * x / qap, steps, _budget(max(a, b)), what)


def reg_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a,b)."""
    if not (a > 0 and b > 0):  # NaN fails this too
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument x must lie in [0,1], got {x}")
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
