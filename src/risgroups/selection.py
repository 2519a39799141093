"""RIS modes, k-th-best order statistics, the closed-form outage of the
RGS / SBGS / EBGS group selection schemes, and the per-group energy fits."""

import math
from dataclasses import dataclass

import numpy as np

from .channel import GammaFit, SystemParams, build_correlation_matrix, gamma_cdf
from .energy import EhModel
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

    @property
    def rate_fraction(self) -> float:
        """Pre-log factor f: 1 for PS, 1-zeta for TS."""
        return 1.0 if self.kind == "PS" else 1.0 - self.zeta


@dataclass(frozen=True)
class SelectionStrategy:
    scheme: str  # 'RGS' | 'SBGS' | 'EBGS'
    k: int = 1

    def __post_init__(self):
        if self.scheme not in ("RGS", "SBGS", "EBGS"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.k < 1:
            raise ValueError("k must be a positive integer")


def mean_snr_scale(params: SystemParams) -> float:
    """End-to-end SNR per unit Z: P_tx rho_L^2 (d_sr d_rd)^-alpha / sigma0^2."""
    return (
        params.p_tx * params.rho_l ** 2
        * (params.d_sr * params.d_rd) ** -params.alpha
        / params.noise_power
    )


def kth_best_pdf(pdf_at_x: float, cdf_at_x: float, n: int, k: int) -> float:
    """Density of the k-th largest of n i.i.d. variables at a point."""
    if not 0.0 <= cdf_at_x <= 1.0:
        raise ValueError("cdf value must lie in [0,1]")
    if pdf_at_x < 0:
        raise ValueError("pdf value must be nonnegative")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    return (
        k * math.comb(n, k) * pdf_at_x
        * cdf_at_x ** (n - k) * (1.0 - cdf_at_x) ** (k - 1)
    )


def outage_rgs(params: SystemParams, mode: RisMode, fit: GammaFit, r_req: float) -> float:
    """Closed-form data outage when one group is chosen uniformly at random."""
    if r_req < 0:
        raise ValueError("required rate must be nonnegative")
    psi = mean_snr_scale(params)
    if mode.kind == "PS":
        if mode.rho >= 1.0:
            return 1.0
        threshold = (2.0 ** r_req - 1.0) / ((1.0 - mode.rho) * psi)
    else:
        if mode.zeta >= 1.0:
            return 1.0
        threshold = (2.0 ** (r_req / (1.0 - mode.zeta)) - 1.0) / psi
    return gamma_cdf(fit, threshold)


def outage_sbgs(cdf_at_threshold: float, set_size: int, k: int) -> float:
    """Outage of the k-th best of set_size groups ranked by SNR."""
    if not 1 <= k <= set_size:
        raise ValueError(f"k={k} out of range for set size {set_size}")
    if not 0.0 <= cdf_at_threshold <= 1.0:
        raise ValueError("cdf value must lie in [0,1]")
    return reg_incomplete_beta(cdf_at_threshold, set_size - k + 1, k)


def outage_ebgs(energy_cdf_at_ereq: float, set_size: int, k: int) -> float:
    """Energy outage of the k-th best of set_size groups ranked by energy."""
    return outage_sbgs(energy_cdf_at_ereq, set_size, k)


class EnergyFitError(ValueError):
    """The per-group energy distribution could not be moment-matched."""


@dataclass(frozen=True)
class DegenerateDist:
    """Point mass, e.g. zero harvested energy at zero transmit power."""

    value: float

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.value else 0.0

    def pdf(self, x: float) -> float:
        return math.inf if x == self.value else 0.0


@dataclass(frozen=True)
class GammaEnergyDist:
    """Gamma-distributed harvested energy (linear EH law)."""

    shape: float
    scale: float

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return reg_lower_incomplete_gamma(self.shape, x / self.scale)

    def pdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return math.exp(
            (self.shape - 1.0) * math.log(x)
            - x / self.scale
            - self.shape * math.log(self.scale)
            - math.lgamma(self.shape)
        )


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

    def pdf(self, x: float) -> float:
        if x >= self.offset or x <= 0:
            return 0.0
        t = (self.offset - x) / self.slope
        log_ft = (
            self.inv_shape * math.log(self.inv_scale)
            - math.lgamma(self.inv_shape)
            - (self.inv_shape + 1.0) * math.log(t)
            - self.inv_scale / t
        )
        return math.exp(log_ft) / self.slope


def _element_stats(params: SystemParams) -> tuple[np.ndarray, float, np.ndarray]:
    """Per-element mean, scattered variance, and covariance of tilde_h."""
    corr = build_correlation_matrix(
        params.m_per_group, params.spacing, params.wavelength
    )
    mu_scalar = math.sqrt(params.k_h / (params.k_h + 1.0))
    sigma_sq = 1.0 / (params.k_h + 1.0)
    mus = math.sqrt(params.beta_gain) * mu_scalar * corr.sqrt_entries.sum(axis=1)
    cov = params.beta_gain * sigma_sq * corr.entries
    return mus, params.beta_gain * sigma_sq, cov


def eh_wiring(params: SystemParams, mode: RisMode) -> tuple[float, float]:
    """(duration, per-element power factor) of the EH phase for the mode."""
    pl = params.p_tx * params.rho_l * params.d_sr ** -params.alpha
    if mode.kind == "PS":
        return params.t_s, mode.rho * pl
    return mode.zeta * params.t_s, pl


_GH_NODES = 24


def _gh_grid(n: int = _GH_NODES) -> tuple[np.ndarray, np.ndarray]:
    # probabilists' Gauss-Hermite, normalized to a standard normal measure
    x, w = np.polynomial.hermite_e.hermegauss(n)
    return x, w / math.sqrt(2.0 * math.pi)


def _recip_moments(mu: float, s_sq: float, w_p: float, c: float) -> tuple[float, float]:
    """First two moments of 1/(w_p*|h|^2 + c) for h ~ CN(mu, s_sq)."""
    x, w = _gh_grid()
    sr = math.sqrt(0.5 * s_sq)
    g = (mu + sr * x[:, None]) ** 2 + (sr * x[None, :]) ** 2
    phi = 1.0 / (w_p * g + c)
    w2 = w[:, None] * w[None, :]
    return float(np.sum(w2 * phi)), float(np.sum(w2 * phi ** 2))


def _recip_cross_moment(
    mu_j: float, mu_k: float, r: float, s_sq: float, w_p: float, c: float
) -> float:
    """E[phi_j phi_k] for jointly circular Gaussian elements with correlation r."""
    x, w = _gh_grid()
    sr = math.sqrt(0.5 * s_sq)
    u = x[:, None]
    v = x[None, :]
    g_j = (mu_j + sr * u) ** 2 + (sr * v) ** 2
    phi_j = 1.0 / (w_p * g_j + c)
    # conditional law of h_k given h_j: mean mu_k + r (h_j - mu_j), variance s_sq (1-r^2)
    amp = np.hypot(mu_k + r * sr * u, r * sr * v)
    sc = math.sqrt(0.5 * s_sq * (1.0 - r ** 2))
    g_k = (amp[:, :, None, None] + sc * x[None, None, :, None]) ** 2 \
        + (sc * x[None, None, None, :]) ** 2
    inner = np.einsum("ijkl,k,l->ij", 1.0 / (w_p * g_k + c), w, w)
    return float(np.einsum("ij,i,j->", phi_j * inner, w, w))


def fit_energy_distribution(params: SystemParams, mode: RisMode, model: EhModel):
    """Moment-matched distribution of the per-group harvested energy.

    Linear law: Gamma fit of the weighted power-gain sum.  Nonlinear law:
    the group energy is an affine function of the summed reciprocal term,
    which is fitted with an inverse-Gamma by matching its first two moments
    (pairwise element correlation included via nested quadrature).
    """
    dur, w_p = eh_wiring(params, mode)
    if dur == 0.0 or w_p == 0.0 or params.p_tx == 0.0:
        return DegenerateDist(0.0)
    mus, s_sq, cov = _element_stats(params)
    m = params.m_per_group
    if model.kind == "linear":
        mean_s = float(np.sum(mus ** 2)) + m * s_sq
        var_s = float(np.sum(2.0 * np.outer(mus, mus) * cov + cov ** 2))
        if var_s <= 0:
            raise EnergyFitError("vanishing variance in linear energy fit")
        mean_e = dur * w_p * mean_s
        var_e = (dur * w_p) ** 2 * var_s
        return GammaEnergyDist(shape=mean_e ** 2 / var_e, scale=var_e / mean_e)

    # nonlinear: E = dur (ac - b) (M/c - T), T = sum_j 1/(w_p |h_j|^2 + c)
    first = np.empty(m)
    second = np.empty(m)
    for j in range(m):
        first[j], second[j] = _recip_moments(float(mus[j]), s_sq, w_p, model.c)
    mean_t = float(np.sum(first))
    var_t = float(np.sum(second - first ** 2))
    corr_norm = cov / s_sq
    for j in range(m):
        for k in range(j + 1, m):
            r = float(corr_norm[j, k])
            if abs(r) < 1e-12:
                continue
            cross = _recip_cross_moment(
                float(mus[j]), float(mus[k]), r, s_sq, w_p, model.c
            )
            var_t += 2.0 * (cross - first[j] * first[k])
    if var_t <= 0:
        raise EnergyFitError("vanishing variance in nonlinear energy fit")
    inv_shape = mean_t ** 2 / var_t + 2.0
    inv_scale = mean_t * (inv_shape - 1.0)
    slope = dur * (model.a * model.c - model.b)
    offset = slope * m / model.c
    return ShiftedInvGammaEnergyDist(
        offset=offset, slope=slope, inv_shape=inv_shape, inv_scale=inv_scale
    )
