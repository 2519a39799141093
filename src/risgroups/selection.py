"""RIS modes and their data, EH and energy-need wiring, k-th-best order
statistics, the closed-form outage of the RGS / SBGS / EBGS group selection
schemes, and the per-group energy fits.  A selected group is in outage when
its Z lies below ``data_threshold`` (data) or its energy below e_req (energy)."""

from dataclasses import dataclass

import numpy as np

from .channel import (DegenerateFitError, GammaFit, SystemParams, build_correlation_matrix,
                      check_count, element_law, power_moments)
from .energy import EhModel, PowerBudget
from .specfun import reg_incomplete_beta, reg_lower_incomplete_gamma


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


def mean_snr_scale(params: SystemParams) -> float:
    """End-to-end SNR per unit Z: P_tx rho_L^2 (d_sr d_rd)^-alpha / sigma0^2."""
    return (
        params.p_tx * params.rho_l ** 2
        * (params.d_sr * params.d_rd) ** -params.alpha
        / params.noise_power
    )


def incident_power(params: SystemParams) -> float:
    """Power incident on one element per unit |h|^2: P_tx rho_L d_sr^-alpha."""
    return params.p_tx * params.rho_l * params.d_sr ** -params.alpha


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

    T is the summed reciprocal term of the rational rectifier expansion; the
    offset is the group saturation energy.
    """

    offset: float
    slope: float
    inv_shape: float
    inv_scale: float

    def cdf(self, x: float) -> float:
        if x >= self.offset:
            return 1.0
        if x <= 0:
            return 0.0
        t = (self.offset - x) / self.slope
        return reg_lower_incomplete_gamma(self.inv_shape, self.inv_scale / t)


def eh_wiring(params: SystemParams, mode: RisMode) -> tuple[float, float]:
    """(duration, per-element power factor) of the EH phase for the mode."""
    pl = incident_power(params)
    if mode.kind == "PS":
        return params.t_s, mode.rho * pl
    return mode.zeta * params.t_s, pl


def required_energy(params: SystemParams, budget: PowerBudget, mode: RisMode) -> float:
    """Energy a group needs per slot, t_s (on M p_t + p_ph): its M phase shifters
    draw p_t while the data phase is on, on = 1 - zeta for TS and 1 for PS."""
    on = 1.0 - mode.zeta if mode.kind == "TS" else 1.0
    return params.t_s * (on * params.m_per_group * budget.p_t + budget.p_ph)


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
    q = (a(1+s^2 b) m_j^2 + b(1+s^2 a) m_k^2 - 2abC m_j m_k)/D.  The mean takes
    every node.  The covariance integrand, the marginal transforms times expm1
    of the log of its ratio to them, keeps full relative accuracy at any drive
    and is O(ab) as a, b -> 0: nodes with a max_j E|h_j|^2 < e^-20 and y < -20
    add under e^-40 of it, so it drops them."""
    a = w_p * np.exp(_Y_NODES) / c
    wt = _Y_STEP * np.exp(_Y_NODES - np.exp(_Y_NODES)) / c
    d1 = 1.0 + cov[0, 0] * a  # R has a unit diagonal: every element shares it
    q1 = np.outer(mus ** 2, a / d1)
    lap = np.exp(-q1) / d1
    keep = _Y_NODES >= min(0.0, np.log(c / (w_p * np.max(np.diag(cov) + mus ** 2)))) - 20.0
    q1, lw = q1[:, keep], lap[:, keep] * wt[keep]  # transforms times node weights
    abdd = np.outer(a[keep], a[keep]) / np.outer(d1[keep], d1[keep])
    buf, var_t = np.empty((3, len(mus), *abdd.shape)), 0.0  # row j, k >= j: buf[:, j:]
    for j, m_j in enumerate(mus):
        ck, (x, r, e) = cov[j, j:, None, None], buf[:, j:]
        np.multiply(-ck ** 2, abdd, out=x)  # D / ((1+s^2 a)(1+s^2 b)) - 1
        # q_j(a) + q_k(b) - q = abC (2 m_j m_k - C (q_j(a) + q_k(b))) / D
        np.add(q1[j, :, None], q1[j:, None, :], out=e)
        e *= -ck
        e += 2.0 * m_j * mus[j:, None, None]
        e *= ck
        e *= abdd
        e /= np.add(x, 1.0, out=r)
        e -= np.log1p(x, out=x)
        np.expm1(e, out=e)
        row = (e @ lw[j:, :, None])[..., 0] @ lw[j]
        var_t += row[0] + 2.0 * row[1:].sum()
    return float(np.sum(lap @ wt)), float(var_t)


def fit_energy_distribution(params: SystemParams, mode: RisMode, model: EhModel):
    """Moment-matched distribution of the per-group harvested energy.

    Linear law: ``GammaFit`` of the weighted power-gain sum.  Nonlinear law:
    an affine function of the summed reciprocal term T, whose inverse-Gamma
    fit matches the mean and variance from ``_recip_moments``: the mean on
    every trapezoid node, the variance on the nodes above double precision."""
    dur, w_p = eh_wiring(params, mode)
    if dur == 0.0 or w_p == 0.0:
        return DegenerateDist(0.0)
    corr = build_correlation_matrix(params)
    mus, cov = element_law(corr, params.k_h)
    if model.kind == "linear":
        mean_s, var_s = power_moments(mus, cov)
        return GammaFit.from_moments(dur * w_p * mean_s, (dur * w_p) ** 2 * var_s)

    # nonlinear: E = dur (ac - b) (M/c - T), T = sum_j 1/(w_p |h_j|^2 + c)
    mean_t, var_t = _recip_moments(mus, cov, w_p, model.c)
    if var_t <= 0:
        raise DegenerateFitError("vanishing variance in nonlinear energy fit")
    inv_shape = mean_t ** 2 / var_t + 2.0
    slope = dur * (model.a * model.c - model.b)
    return ShiftedInvGammaEnergyDist(
        offset=slope * params.m_per_group / model.c, slope=slope,
        inv_shape=inv_shape, inv_scale=mean_t * (inv_shape - 1.0))
