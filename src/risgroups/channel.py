"""Spatially correlated Rician channels and the Gamma law of Z = |g_c|^2 |h_c|^2.

A group's M elements are CN(mus, R/(K+1)) with the line-of-sight mean
mus = sqrt(K/(K+1)) R^(1/2) 1, R the sinc correlation, so E|h_j|^2 is
mus_j^2 + 1/(K+1): 1 where R = I, 1.63-2.73 at lambda/8 and K = 1; the path
loss alone carries all scaling.  ``element_law`` is the only statement of this
law and of K; ``composite_law`` and ``power_moments`` derive from it the law of
g_c, the Gamma fit of Z and the energy fits, and ``sample_channels`` draws it.

``sample_channels`` is the only code that turns normals into channels, and it
draws one shape, an (n, B) block of n trials of B groups, from the law of
``params``.  Its stream is fixed: one ``standard_normal`` call of shape
(n, M + 1, 2) per group column in turn, whose row i holds trial i's M
per-element h normals and then the pair of its composite g_c = sum_j tilde_g_j,
which alone enters Z and is drawn from its exact law CN(m_c, var_c).  A column
is reduced to |tilde_h_j|^2, |h_c|^2 = |sum_j tilde_h_j|^2 and |g_c|^2 before
the next is drawn.  Successive draws continue one stream, so the first b
columns of a draw are the (n, b) draw and the first n rows of column 0 are the
(n, 1) draw, bit for bit (from n = 2: numpy hands a one-row product to BLAS
gemv, which rounds differently).  The result is a ``ChannelSnapshot`` of the
real ``h_sq``, ``h_c_sq`` and ``g_c_sq`` whose h reductions run over the last
(element) axis; indexing its batch axes (``snaps[d, 0]``, ``snaps[:, j]``)
gives one group or one column.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import reg_lower_incomplete_gamma

logger = logging.getLogger(__name__)

# negative eigenvalues beyond this are treated as genuinely indefinite,
# not roundoff, and rejected
_CLAMP_LIMIT = 1e-8


def check_count(name: str, value, least: int = 1) -> None:
    """Raise naming ``name`` unless ``value`` is a non-bool integer >= ``least``;
    an integral float such as 2.0 fails too: numpy cannot size or partition by it."""
    if type(value) is bool or not (isinstance(value, (int, np.integer)) and value >= least):
        word = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")
        raise ValueError(f"{name} must be {word} and integral, got {value!r}")


class DegenerateFitError(ValueError):
    """Moment matching is undefined when the target variance vanishes."""


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the link and the surface's own draw, p_t per phase
    shifter and p_ph for the controller (powers in watts, distances in meters)."""

    p_tx: float = 1.0                # 30 dBm
    rho_l: float = 10.0 ** -3.53     # path loss at 1 m
    alpha: float = 2.0               # path-loss exponent
    t_s: float = 100e-6              # slot duration [s]
    wavelength: float = 0.1
    noise_power: float = 10.0 ** (-104.0 / 10.0) / 1000.0  # -104 dBm
    n_total: int = 400
    m_per_group: int = 20
    b_groups: int = 20
    d_sr: float = 15.0
    d_rd: float = 20.0
    k_h: float = 1.0
    k_g: float = 1.0
    spacing: float = 0.1 / 8.0       # lambda/8
    p_t: float = 10.0 ** (5.0 / 10.0) / 1000.0   # 5 dBm per phase shifter
    p_ph: float = 10.0 ** (5.0 / 10.0) / 1000.0  # 5 dBm for the controller

    def __post_init__(self):
        for name in ("m_per_group", "b_groups", "n_total"):
            check_count(name, getattr(self, name))
        if self.n_total != self.m_per_group * self.b_groups:
            raise ValueError(
                f"n_total={self.n_total} != m_per_group*b_groups="
                f"{self.m_per_group * self.b_groups}"
            )
        for name in ("p_tx", "rho_l", "t_s", "wavelength", "noise_power",
                     "d_sr", "d_rd", "spacing"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite")
        if not (0 <= self.k_h < math.inf and 0 <= self.k_g < math.inf):  # NaN fails too
            raise ValueError("Rician factors must be nonnegative and finite")
        if not (0 <= self.p_t < math.inf and 0 <= self.p_ph < math.inf):  # NaN fails too
            raise ValueError("powers p_t and p_ph must be nonnegative and finite")
        if not self.alpha >= 2:
            raise ValueError("path-loss exponent must be >= 2 and not NaN")
        try:  # the link budget; a term that underflows to 0 is fine, NaN is not
            finite = incident_power(self) < math.inf and mean_snr_scale(self) < math.inf
        except ArithmeticError:
            finite = False
        if not finite:
            raise ValueError(f"link budget overflows (p_tx={self.p_tx}, rho_l={self.rho_l}, "
                             f"d_sr={self.d_sr}, d_rd={self.d_rd}, alpha={self.alpha}, "
                             f"noise_power={self.noise_power})")


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


@dataclass(frozen=True)
class CorrelationMatrix:
    """Spatial correlation matrix with its precomputed principal square root."""

    entries: np.ndarray = field(repr=False)
    sqrt_entries: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class GammaFit:
    """Moment-matched Gamma(shape, scale) approximation."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):  # NaN fails this too
            raise ValueError("Gamma shape and scale must be positive and not NaN")

    @classmethod
    def from_moments(cls, mean: float, var: float) -> "GammaFit":
        """The Gamma law with the given mean and variance."""
        if var <= 0:
            raise DegenerateFitError(f"cannot moment-match a Gamma law to variance {var}")
        return cls(shape=mean ** 2 / var, scale=var / mean)

    def cdf(self, x: float) -> float:
        """The CDF at x >= 0, the regularized lower incomplete gamma P(shape, x/scale)."""
        return reg_lower_incomplete_gamma(self.shape, x / self.scale)


def build_correlation_matrix(params: SystemParams) -> CorrelationMatrix:
    """Sinc correlation R_ij = sin(t)/t, t = 2 pi |x_i - x_j| / lambda, of the
    uniform linear array of one group, with its principal square root."""
    x = np.arange(params.m_per_group) * params.spacing
    t = 2.0 * math.pi * np.abs(x[:, None] - x[None, :]) / params.wavelength
    entries = np.divide(np.sin(t), t, out=np.ones_like(t), where=t != 0)
    w, v = np.linalg.eigh(entries)
    worst = w.min()
    if worst < -_CLAMP_LIMIT:
        raise ValueError(
            f"correlation matrix is indefinite (min eigenvalue {worst:.3e})"
        )
    if worst < 0:
        logger.debug("clamping correlation eigenvalues by %.3e", -worst)
    sqrt_entries = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    return CorrelationMatrix(entries=entries, sqrt_entries=sqrt_entries)


def sample_rician_vector(noise: np.ndarray, mean: float, var: float) -> np.ndarray:
    """CN(mean, var) gains made in place from ``(..., 2)`` standard normals (the
    real ``mean`` goes to the real part), as their complex view; no rng.  Kept apart
    from ``sample_channels`` only for the benchmark's trace; ROADMAP item 1 deletes it."""
    if not (math.isfinite(mean) and 0 <= var < math.inf):  # NaN fails both
        raise ValueError(f"need a finite mean and a finite variance >= 0, got {mean}, {var}")
    noise *= math.sqrt(0.5 * var)  # per real dimension
    gains = noise.view(np.complex128)[..., 0]
    gains.real += mean
    return gains


def _abs_sq(x):
    """|x|^2 as one multiply, in place on |x| so it allocates no second array."""
    mag = np.abs(x)
    mag *= mag
    return mag


@dataclass(frozen=True)
class ChannelSnapshot:
    """Per-element gains h_sq = |tilde_h_j|^2 of shape (*batch, M) and the
    composite gains h_c_sq = |sum_j tilde_h_j|^2 (under the optimal common
    phase) and g_c_sq = |g_c|^2 of shape (*batch), all real.

    Every h reduction runs over the last (element) axis, so a batch reduces
    to the bits its rows would give one at a time.
    """

    h_sq: np.ndarray = field(repr=False)
    h_c_sq: np.ndarray = field(repr=False)
    g_c_sq: np.ndarray = field(repr=False)

    def __getitem__(self, key):
        """The snapshot at ``key`` of the batch axes, e.g. ``snaps[d, 0]``."""
        return ChannelSnapshot(h_sq=self.h_sq[key], h_c_sq=self.h_c_sq[key],
                               g_c_sq=self.g_c_sq[key])

    @property
    def sum_h_sq(self):
        return np.sum(self.h_sq, axis=-1)

    @property
    def h_min_sq(self):
        return np.min(self.h_sq, axis=-1)

    @property
    def h_max_sq(self):
        return np.max(self.h_sq, axis=-1)

    @property
    def z(self):
        return self.h_c_sq * self.g_c_sq


def element_law(corr: CorrelationMatrix, k: float) -> tuple[np.ndarray, np.ndarray]:
    """The law CN(mus, cov) of a group's M elements with Rician factor k: the LoS
    mean sqrt(K/(K+1)) R^(1/2) 1 and the scattered covariance R/(K+1)."""
    mus = math.sqrt(k / (k + 1.0)) * corr.sqrt_entries.sum(axis=1)
    return mus, (1.0 / (k + 1.0)) * corr.entries


def composite_law(corr: CorrelationMatrix, k: float) -> tuple[np.ndarray, np.ndarray]:
    """The 1x1 law (mean, variance) of the composite sum_j of the elements."""
    mus, cov = element_law(corr, k)
    return mus.sum(keepdims=True), cov.sum(keepdims=True)


def power_moments(mus: np.ndarray, cov: np.ndarray) -> tuple[float, float]:
    """Mean and variance of sum_j |x_j|^2 for x ~ CN(mus, cov) with a real mean;
    for a 1x1 law (m, v) these are m^2 + v and 2 m^2 v + v^2."""
    mean = float(np.sum(mus ** 2) + np.trace(cov))
    return mean, float(np.sum(2.0 * np.outer(mus, mus) * cov + cov ** 2))


def sample_channels(params: SystemParams, shape: tuple,
                    rng: np.random.Generator) -> ChannelSnapshot:
    """Draw an ``(n, B)`` block, one normal call per group column.  Row i holds
    trial i's M h normals w, so h = mus + w @ root, root = sqrt(cov[0, 0]/2)
    R^(1/2) (R's diagonal is 1), and then the pair of its g_c ~ CN(m_c, var_c)."""
    n, b = shape
    m = params.m_per_group
    corr = build_correlation_matrix(params)
    mus, cov = element_law(corr, params.k_h)
    m_c, var_c = (x.item() for x in composite_law(corr, params.k_g))
    root = math.sqrt(0.5 * cov[0, 0]) * corr.sqrt_entries
    h_sq, h_c_sq, g_c_sq = np.empty((n, b, m)), np.empty((n, b)), np.empty((n, b))
    for j in range(b):
        noise = rng.standard_normal((n, m + 1, 2))
        tilde_h = noise[:, :m].view(np.complex128)[..., 0] @ root
        tilde_h.real += mus
        h_sq[:, j] = _abs_sq(tilde_h)
        h_c_sq[:, j] = _abs_sq(np.sum(tilde_h, axis=-1))
        g_c_sq[:, j] = _abs_sq(sample_rician_vector(noise[:, m], m_c, var_c))
    return ChannelSnapshot(h_sq=h_sq, h_c_sq=h_c_sq, g_c_sq=g_c_sq)


def fit_gamma_product(params: SystemParams) -> GammaFit:
    """Moment-matched Gamma approximation of Z = |g_c|^2 |h_c|^2."""
    corr = build_correlation_matrix(params)
    mean_h, var_h = power_moments(*composite_law(corr, params.k_h))
    mean_g, var_g = power_moments(*composite_law(corr, params.k_g))
    mean_z = mean_h * mean_g
    second_z = (mean_h ** 2 + var_h) * (mean_g ** 2 + var_g)
    return GammaFit.from_moments(mean_z, second_z - mean_z ** 2)


def gamma_cdf(fit: GammaFit, x: float) -> float:
    """``fit.cdf(x)``, kept only for the benchmark's calls; ROADMAP item 1 deletes it."""
    return fit.cdf(x)
