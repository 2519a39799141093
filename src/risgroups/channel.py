"""Spatially correlated Rician channels and the Gamma law of Z = |g_c|^2 |h_c|^2.

Per-element channels are unit-second-moment complex Gaussians with a
deterministic line-of-sight mean sqrt(K/(K+1)) and scattered variance 1/(K+1);
the path loss alone carries all scaling.  Correlation follows the sinc model
through the principal square root of the correlation matrix.  ``element_law``
is the only statement of a group's law; ``composite_law`` and ``power_moments``
derive from it the law of g_c, the Gamma fit of Z and the energy fits.

``sample_channels`` is the only code that turns normals into channels, and it
draws one shape, an (n, B) block of n trials of B groups, from the law of
``params``.  Its stream layout is group-major and fixed: for each group column
j in turn, the (n, M, 2) normals of its per-element h, then the (n, 2)
normals of its composite g_c = sum_j tilde_g_j, which alone enters Z and is
drawn from its exact law CN(m_c, var_c).  A column's h and g normals are
contiguous in the stream, so one ``standard_normal`` call draws a slab of
whole columns, as many as fit in 2^12 complex h elements and at least one (a
wide column is a slab of its own), and the slab is reduced to |tilde_h_j|^2,
|h_c|^2 = |sum_j tilde_h_j|^2 and |g_c|^2 before the next is drawn; complex
values exist only within a slab, and the tiling never changes the stream.
Groups are iid and successive draws continue one stream, so the first b
columns of a draw are the (n, b) draw bit for bit: a narrower block is a
prefix of every wider one.  The result is a ``ChannelSnapshot`` of the real
``h_sq``, ``h_c_sq`` and ``g_c_sq`` whose h reductions run over the last
(element) axis; indexing its batch axes (``snaps[0, d]``, ``snaps[:, j]``)
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

# complex h elements per slab of whole columns drawn by one call (64 KiB); a
# wider column is a slab of one column
_SLAB_ELEMENTS = 2 ** 12


class DegenerateFitError(ValueError):
    """Moment matching is undefined when the target variance vanishes."""


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the link (powers in watts, distances in meters)."""

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

    def __post_init__(self):
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
        if not self.alpha >= 2:
            raise ValueError("path-loss exponent must be >= 2 and not NaN")
        if self.m_per_group < 1 or self.b_groups < 1:
            raise ValueError("group sizes must be positive")


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
        return gamma_cdf(self, x)


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


def sample_rician_vector(noise: np.ndarray, k_factor: float) -> np.ndarray:
    """I.i.d. unit-power Rician channel gains (LoS mean, scattered CN part) made
    in place from ``(..., 2)`` standard normals, as their complex view; no rng."""
    if not 0 <= k_factor < math.inf:  # NaN fails this too
        raise ValueError(f"Rician factor must be nonnegative and finite, got {k_factor}")
    los = math.sqrt(k_factor / (k_factor + 1.0))
    sigma = math.sqrt(0.5 / (k_factor + 1.0))  # per real dimension
    noise *= sigma
    gains = noise.view(np.complex128)[..., 0]
    gains.real += los
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
        """The snapshot at ``key`` of the batch axes, e.g. ``snaps[0, d]``."""
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
    """Mean vector and covariance of the M correlated elements x @ R^(1/2), x i.i.d.
    unit-power Rician with factor k: CN(sqrt(K/(K+1)) R^(1/2) 1, R/(K+1))."""
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
    """Draw an ``(n, B)`` block group by group, each column's h over ``(n, M)``
    then its g_c ~ CN(m_c, var_c), a slab of whole columns per normal call."""
    n, b = shape
    m = params.m_per_group
    corr = build_correlation_matrix(params)
    # sqrt(m^2 + v) times a unit-power Rician with K = m^2/v is CN(m, v)
    m_c, var_c = (x.item() for x in composite_law(corr, params.k_g))
    g_scale, g_k = math.sqrt(m_c ** 2 + var_c), m_c ** 2 / var_c
    h_sq = np.empty((n, b, m))
    h_c_sq = np.empty((n, b))
    g_c_sq = np.empty((n, b))
    cols = max(1, _SLAB_ELEMENTS // (n * m))
    for j in range(0, b, cols):  # one slab row per column: its h normals, then its g
        noise = rng.standard_normal((min(cols, b - j), n * (m + 1), 2))
        raw = sample_rician_vector(noise[:, :n * m].reshape(-1, n, m, 2), params.k_h)
        tilde_h = raw @ corr.sqrt_entries
        h_sq[:, j:j + cols] = _abs_sq(tilde_h).swapaxes(0, 1)
        h_c_sq[:, j:j + cols] = _abs_sq(np.sum(tilde_h, axis=-1)).T
        g_c_sq[:, j:j + cols] = _abs_sq(g_scale * sample_rician_vector(noise[:, n * m:], g_k)).T
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
    """CDF of the moment-matched Gamma law at x >= 0."""
    return reg_lower_incomplete_gamma(fit.shape, x / fit.scale)
