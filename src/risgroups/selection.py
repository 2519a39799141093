"""RIS modes and their data, EH and energy-need wiring, k-th-best order
statistics, the closed-form outage of the RGS / SBGS / EBGS group selection
schemes, and the per-group energy fits.  A selected group is in outage when
its Z lies below ``data_threshold`` (data) or its energy below e_req (energy).
Under RGS that is the single-group CDF F at the threshold (``GammaFit.cdf`` for
Z); the k-th best of B groups, by either ranking, is in outage with probability
I_F(B - k + 1, k) (``outage_sbgs``), which holds for iid groups only."""

import math
from dataclasses import dataclass

import numpy as np

from .channel import (DegenerateFitError, GammaFit, SystemParams, channel_law, check_count,
                      incident_power, mean_snr_scale, power_moments)
from .energy import EhModel
from .specfun import reg_incomplete_beta


@dataclass(frozen=True)
class RisMode:
    """PS(rho) or TS(zeta) self-sustainability configuration."""

    kind: str  # 'PS' | 'TS'
    rho: float = 0.0
    zeta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("PS", "TS"):
            raise ValueError(f"unknown mode {self.kind!r}")
        if not 0.0 <= self.rho <= 1.0 or not 0.0 <= self.zeta <= 1.0:
            raise ValueError("rho and zeta must lie in [0,1]")


@dataclass(frozen=True)
class SelectionStrategy:
    scheme: str  # 'RGS' | 'SBGS' | 'EBGS'
    k: int = 1

    def __post_init__(self):
        if self.scheme not in ("RGS", "SBGS", "EBGS"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        check_count("k", self.k)


def snr_threshold(r_req: float) -> float:
    """SNR 2^r - 1 that a rate of r bits/s/Hz needs; inf where 2^r overflows."""
    return 2.0 ** r_req - 1.0 if r_req < 1024.0 else np.inf


def data_wiring(params: SystemParams, mode: RisMode) -> tuple[float, float]:
    """(SNR per unit Z, pre-log factor f) of the data phase for the mode:
    ((1-rho) psi, 1) for PS and (psi, 1-zeta) for TS."""
    psi = mean_snr_scale(params)
    if mode.kind == "PS":
        return (1.0 - mode.rho) * psi, 1.0
    return psi, 1.0 - mode.zeta


def data_threshold(params: SystemParams, mode: RisMode, r_req: float) -> float:
    """Value of Z below which a group misses the rate r_req: 0 at r_req = 0, which
    is always met, and inf when the data phase has no SNR or no time."""
    if not r_req >= 0:  # NaN fails this too
        raise ValueError(f"required rate must be nonnegative, got {r_req}")
    snr_per_z, f = data_wiring(params, mode)
    if r_req == 0.0:
        return 0.0
    if snr_per_z == 0.0 or f == 0.0:
        return np.inf
    return snr_threshold(r_req / f) / snr_per_z


def outage_rgs(params: SystemParams, mode: RisMode, fit: GammaFit, r_req: float) -> float:
    """Closed-form data outage when one group is chosen uniformly at random."""
    return fit.cdf(data_threshold(params, mode, r_req))


def outage_sbgs(cdf_at_threshold: float, set_size: int, k: int) -> float:
    """Outage of the k-th best of set_size groups ranked by SNR."""
    check_count("set_size", set_size)
    check_count("k", k)
    if k > set_size:
        raise ValueError(f"k={k} out of range for set size {set_size}")
    if not 0.0 <= cdf_at_threshold <= 1.0:
        raise ValueError("cdf value must lie in [0,1]")
    return reg_incomplete_beta(cdf_at_threshold, set_size - k + 1, k)


def outage_ebgs(energy_cdf_at_ereq: float, set_size: int, k: int) -> float:
    """``outage_sbgs``, kept only for the benchmark's trace; ROADMAP item 1 deletes it."""
    return outage_sbgs(energy_cdf_at_ereq, set_size, k)


@dataclass(frozen=True)
class DegenerateDist:
    """Point mass, e.g. zero harvested energy at zero transmit power."""

    value: float

    def cdf(self, x: float) -> float:  # P(E < x), the event the simulator counts
        return 1.0 if x > self.value else 0.0


@dataclass(frozen=True)
class ShiftedInvGammaEnergyDist:
    """Harvested energy E = offset - slope * T with T inverse-Gamma (nonlinear law).

    T is the summed reciprocal term of the rational rectifier expansion, and
    ``recip`` the Gamma law of 1/T; the offset is the group saturation energy.
    """

    offset: float
    slope: float
    recip: GammaFit

    def cdf(self, x: float) -> float:  # P(E < x) = P(1/T < slope / (offset - x))
        if x >= self.offset:
            return 1.0
        if x <= 0:
            return 0.0
        return self.recip.cdf(self.slope / (self.offset - x))


def eh_wiring(params: SystemParams, mode: RisMode) -> tuple[float, float]:
    """(duration, per-element power factor) of the EH phase for the mode."""
    pl = incident_power(params)
    if mode.kind == "PS":
        return params.t_s, mode.rho * pl
    return mode.zeta * params.t_s, pl


def required_energy(params: SystemParams, mode: RisMode) -> float:
    """Energy a group needs per slot, t_s (on M p_t + p_ph): its M phase shifters
    draw p_t while the data phase is on, on = 1 - zeta for TS and 1 for PS."""
    on = 1.0 - mode.zeta if mode.kind == "TS" else 1.0
    return params.t_s * (on * params.m_per_group * params.p_t + params.p_ph)


# trapezoid nodes in y = ln(c u) for int_0^inf e^{-c u} f(u) du; the integrand
# is analytic for |Im y| < pi/2, so the error falls like exp(-pi^2 / step)
_Y_STEP = 0.3
_Y_NODES = np.arange(-36.0, 3.7, _Y_STEP)


def _recip_moments(mus: np.ndarray, cov: np.ndarray, w_p: float,
                   c: float) -> tuple[float, float]:
    """Mean and variance of T = sum_j 1/(w_p |h_j|^2 + c), h ~ CN(mus, cov).

    1/x = int_0^inf e^{-ux} du turns each moment into an integral of the
    Laplace transform of a complex Gaussian pair (Turin 1960): with a = w_p u,
    b = w_p v, C = cov[j, k] and the marginal variance s^2 = cov[j, j],
    E[e^{-a|h_j|^2 - b|h_k|^2}] = e^{-q}/D, D = (1+s^2 a)(1+s^2 b) - C^2 ab,
    q = (a(1+s^2 b) m_j^2 + b(1+s^2 a) m_k^2 - 2abC m_j m_k)/D.  The mean's
    integrand is flat in y wherever s^2 a >> 1, so its nodes reach 36 below
    lo = min(0, ln(c/(w_p max_j E|h_j|^2))), by whole steps below the fixed
    grid.  The covariance integrand, the marginal transforms times expm1 of
    the log of its ratio to them, keeps full relative accuracy at any drive
    and is O(ab) as a, b -> 0: nodes with y < lo - 20 add under e^-40 of it,
    so it drops them and keeps to the fixed grid.  It is written through
    u = 1/(1+s^2 a), so that no product of two a's forms and no term cancels
    as s^2 a grows."""
    lo = min(0.0, np.log(c / (w_p * np.max(np.diag(cov) + mus ** 2))))
    y = np.append(_Y_NODES[0] - _Y_STEP * np.arange(math.ceil(-lo / _Y_STEP), 0, -1), _Y_NODES)
    a = w_p * np.exp(y) / c
    wt = _Y_STEP * np.exp(y - np.exp(y)) / c
    s2 = cov[0, 0]  # R has a unit diagonal: every element shares it
    d1 = 1.0 + s2 * a
    lap = np.exp(-np.outer(mus ** 2, a / d1)) / d1
    keep = y >= max(lo - 20.0, _Y_NODES[0])
    lw = lap[:, keep] * wt[keep]  # transforms times node weights
    u, a_d = 1.0 / d1[keep], (a / d1)[keep]
    abdd = np.outer(a_d, a_d)  # ab / ((1+s^2 a)(1+s^2 b)), at most 1/s^4
    mu_u = np.outer(mus ** 2, u)
    # x = -C^2 abdd >= -(s^2 a u)(s^2 b u), whose factors rise with the node:
    # 1 + x keeps its accuracy unless both nodes lie past i0, where s^2 a u
    # passes 1/sqrt(2).  There x may near -1 or round below it, so 1 + x is
    # the sum of nonnegative terms (1 - s^4 abdd) + (s^4 - C^2) abdd, with
    # 1 - s^4 abdd = u_a + (1 - u_a) u_b, and ln(1 + x) is ln of that sum:
    # every diagonal term is at least expm1(ln 2) there, so an absolute
    # rounding error in the log is a relative one in the sum
    i0 = int(np.searchsorted(s2 * a_d, math.sqrt(0.5), side="right"))
    past = np.s_[:, i0:, i0:]
    near = u[i0:, None] + np.outer(s2 * a_d[i0:], u[i0:])
    buf, var_t = np.empty((3, len(mus), *abdd.shape)), 0.0  # row j, k >= j: buf[:, j:]
    for j, m_j in enumerate(mus):
        ck, m_k, (x, r, e) = cov[j, j:, None, None], mus[j:, None, None], buf[:, j:]
        np.multiply(-ck ** 2, abdd, out=x)  # D / ((1+s^2 a)(1+s^2 b)) - 1
        np.add(x, 1.0, out=r)
        np.multiply(s2 ** 2 - ck ** 2, abdd[i0:, i0:], out=r[past])
        r[past] += near
        # q_j(a) + q_k(b) - q = abC (2 m_j m_k - C (q_j(a) + q_k(b))) / D, whose
        # bracket is 2 (1 - rho) m_j m_k - rho (m_j - m_k)^2 + rho (m_j^2 u_a +
        # m_k^2 u_b) with rho = C/s^2: its constant part is 0 on the diagonal,
        # where the written bracket would cancel to its rounding error
        rho = ck / s2
        const = 2.0 * (s2 - ck) / s2 * m_j * m_k - rho * (m_j - m_k) ** 2
        np.add(ck * rho * mu_u[j, :, None], ck * (rho * mu_u[j:, None, :] + const), out=e)
        e *= abdd
        e /= r
        with np.errstate(divide="ignore", invalid="ignore"):  # overwritten past i0
            np.log1p(x, out=x)
        np.log(r[past], out=x[past])
        e -= x
        np.expm1(e, out=e)
        row = (e @ lw[j:, :, None])[..., 0] @ lw[j]
        var_t += row[0] + 2.0 * row[1:].sum()
    return float(np.sum(lap @ wt)), float(var_t)


def fit_energy_distribution(params: SystemParams, mode: RisMode, model: EhModel):
    """Moment-matched distribution of the per-group harvested energy.

    Linear law: ``GammaFit`` of the weighted power-gain sum.  Nonlinear law:
    an affine function of the summed reciprocal term T, whose inverse-Gamma
    fit matches the mean and variance from ``_recip_moments``."""
    dur, w_p = eh_wiring(params, mode)
    if dur == 0.0 or w_p == 0.0:
        return DegenerateDist(0.0)
    law = channel_law(params)
    if model.kind == "linear":
        mean_s, var_s = power_moments(law.mus, law.cov)
        return GammaFit.from_moments(dur * w_p * mean_s, (dur * w_p) ** 2 * var_s)

    # nonlinear: E = dur (ac - b) (M/c - T), T = sum_j 1/(w_p |h_j|^2 + c)
    try:  # a drive whose nodes or integrand overflow a double has no fit
        with np.errstate(over="raise", invalid="raise"):
            mean_t, var_t = _recip_moments(law.mus, law.cov, w_p, model.c)
    except FloatingPointError as exc:
        raise OverflowError(f"at p_tx = {params.p_tx!r} W: nonlinear energy fit: {exc}") from None
    if var_t <= 0:
        raise DegenerateFitError("vanishing variance in nonlinear energy fit")
    inv_shape = mean_t ** 2 / var_t + 2.0
    slope = dur * (model.a * model.c - model.b)
    return ShiftedInvGammaEnergyDist(offset=slope * params.m_per_group / model.c, slope=slope,
                                     recip=GammaFit(inv_shape, 1.0 / (mean_t * (inv_shape - 1.0))))
