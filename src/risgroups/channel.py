"""Spatially correlated Rician channels and the Gamma law of Z = |g_c|^2 |h_c|^2.

A group's M elements are CN(mus, R/(K+1)) with the line-of-sight mean
mus = sqrt(K/(K+1)) R^(1/2) 1, R the sinc correlation of a uniform linear array
(Bjornson & Sanguinetti 2021), so E|h_j|^2 is mus_j^2 + 1/(K+1): 1 where R = I,
1.63-2.73 at lambda/8 and K = 1; the path loss alone carries all scaling.
``channel_law`` is the only statement of this law and of K: its ``ChannelLaw``
holds h's element law, the eigenpairs and rank of R, the eigenbasis mean nu
and the composite law of g_c, from which ``power_moments`` gives the Gamma fit
of Z and the energy fits, and which ``sample_channels`` draws.  The law's
``key`` is the tuple of the fields it reads, and ``sample_channels`` reads its
parameters only through ``channel_law``: a draw depends on them only through
that key.  R^(1/2) 1 = V Lambda^(1/2) V^T 1 is a fixed-order sum over the
eigenpairs, not a BLAS product: its bits ignore the thread count.  The link
budget is stated once, in ``incident_power`` and ``mean_snr_scale``, the only
readers of rho_l, d_rd and the noise power; ``SystemParams`` rejects a budget
that overflows a double.

``sample_channels`` is the only code that turns normals into channels, and it
draws one shape, an (n, B) block of n trials of B groups, from
``channel_law(params)`` in the eigenbasis R = V Lambda V^T: h's eigen-coordinate
c_i = (V^T h)_i is nu_i + s sqrt(lambda_i) u_i, with nu = V^T mus =
sqrt(K/(K+1)) Lambda^(1/2) V^T 1, s = sqrt(cov[0, 0]/2) and u_i a complex
normal of unit variance per real dimension.  Only the r leading coordinates
are drawn, r being the fewest whose dropped eigenvalues sum to at most
1e-12 tr R: at lambda/8, 13 of 20 and 9 of 10, and all M where R = I (the
aperture's degrees of freedom; Pizzo, Marzetta & Sanguinetti 2020); a dropped
coordinate is its mean nu_i.  Its stream is fixed: one ``standard_normal``
call of shape (n, r + 1, 2) per group column in turn, whose row i holds trial
i's r coordinate normals u and then the pair of its composite
g_c = sum_j tilde_g_j, which alone enters Z and is drawn from its exact law
CN(m_c, var_c).  Row by row, before the next column is drawn and with no
matrix product, a column reduces to sum_j |tilde_h_j|^2 = sum_i |c_i|^2 (V is
orthogonal), h_c = sum_j tilde_h_j = sum_i (V^T 1)_i c_i and |g_c|^2.  Only
when asked does it also form the per-element gains |tilde_h_j|^2 of
h = mus + u @ (s Lambda_r^(1/2) V_r^T), which only the nonlinear law reads (in
a sweep or a bounds run), leaving every other output's bits as they are.
Successive draws continue one stream, so the first b columns of a draw are the
(n, b) draw and the first n rows of column 0 are the (n, 1) draw, bit for bit
(the prefix property; for the per-element gains from n = 2: numpy hands a
one-row product to BLAS gemv, which rounds differently).  The block is
group-major in memory as in the stream: column j is written as one contiguous
(n,) or (n, M) slab of (B, n) and (B, n, M) arrays.  The result is a
``ChannelSnapshot`` of their transposed (n, B) and (n, B, M) views; indexing
its batch axes (``snaps[d, 0]``, ``snaps[:, j]``) gives one group or one column.
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
# the share of tr R that the eigen-directions a draw leaves out may carry
_DROPPED_TRACE = 1e-12


def check_count(name: str, value, least: int = 1) -> None:
    """Raise naming ``name`` unless ``value`` is a non-bool integer >= ``least``;
    an integral float such as 2.0 fails too: numpy cannot size or partition by it."""
    if type(value) is bool or not (isinstance(value, (int, np.integer)) and value >= least):
        word = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")
        raise ValueError(f"{name} must be {word} and integral, got {value!r}")


class DegenerateFitError(ValueError):
    """Moment matching is undefined when the target variance vanishes."""


class LinkBudgetError(ValueError):
    """The link budget of ``SystemParams`` overflows a double."""


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
            raise LinkBudgetError(f"link budget overflows (p_tx={self.p_tx}, rho_l={self.rho_l}, "
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
class ChannelLaw:
    """The law of one group's channels, built by ``channel_law`` from the
    ``SystemParams`` fields in ``key``: h's elements CN(mus, cov), the eigenpairs
    of R (eigenvalues clamped to >= 0, in descending order), its rank r, the
    eigenbasis mean nu = V^T mus, and ``g_c``, the 1x1 law (mean, variance) of
    g's composite sum_j g_j."""

    key: tuple
    mus: np.ndarray = field(repr=False)
    cov: np.ndarray = field(repr=False)
    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    rank: int
    nu: np.ndarray = field(repr=False)
    g_c: tuple = field(repr=False)


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
        """The CDF at x >= 0, P(shape, x/scale): the package's one Gamma CDF."""
        return reg_lower_incomplete_gamma(self.shape, x / self.scale)


def build_correlation_matrix(params: SystemParams) -> np.ndarray:
    """Sinc correlation R_ij = sin(t)/t, t = 2 pi |x_i - x_j| / lambda, of the
    uniform linear array of one group, as an (M, M) array."""
    x = np.arange(params.m_per_group) * params.spacing
    t = 2.0 * math.pi * np.abs(x[:, None] - x[None, :]) / params.wavelength
    return np.divide(np.sin(t), t, out=np.ones_like(t), where=t != 0)


def channel_law(params: SystemParams) -> ChannelLaw:
    """The ``ChannelLaw`` of a group, the law the module docstring states, with
    Rician factor K = k_h for h and k_g for g."""
    entries = build_correlation_matrix(params)
    w, v = np.linalg.eigh(entries)
    worst = w.min()
    if worst < -_CLAMP_LIMIT:
        raise ValueError(f"correlation matrix is indefinite (min eigenvalue {worst:.3e})")
    if worst < 0:
        logger.debug("clamping correlation eigenvalues by %.3e", -worst)
    w = np.clip(w, 0.0, None)
    root_w, ones = np.sqrt(w), np.sum(v, axis=0)  # Lambda^(1/2) and V^T 1
    root = np.einsum("ij,j->i", v, root_w * ones)  # R^(1/2) 1 in a fixed order, not by BLAS
    (los_h, scatter_h), (los_g, scatter_g) = (
        (math.sqrt(k / (k + 1.0)), 1.0 / (k + 1.0)) for k in (params.k_h, params.k_g))
    rank = int(np.count_nonzero(np.cumsum(w) > _DROPPED_TRACE * np.trace(entries)))
    return ChannelLaw(
        key=(params.m_per_group, params.spacing, params.wavelength, params.k_h, params.k_g),
        mus=los_h * root, cov=scatter_h * entries, eigenvalues=w[::-1], eigenvectors=v[:, ::-1],
        rank=rank, nu=(los_h * root_w * ones)[::-1],
        g_c=((los_g * root).sum(keepdims=True), (scatter_g * entries).sum(keepdims=True)))


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


@dataclass(frozen=True)
class ChannelSnapshot:
    """The composite gains h_c_sq = |sum_j tilde_h_j|^2 (under the optimal
    common phase) and g_c_sq = |g_c|^2 and the power sum sum_h_sq =
    sum_j |tilde_h_j|^2, of shape (*batch), and, where a reader needs them, the
    per-element gains h_sq = |tilde_h_j|^2 of shape (*batch, M), else None; all real.

    Every h_sq reduction runs over the last (element) axis, so a batch reduces
    to the bits its rows would give one at a time.  h_min_sq and h_max_sq are
    reduced from h_sq when read, unless ``extremes`` holds them already: the
    trial snapshots of ``trials`` carry theirs from one reduction of the batch.
    """

    h_c_sq: np.ndarray = field(repr=False)
    g_c_sq: np.ndarray = field(repr=False)
    sum_h_sq: np.ndarray = field(repr=False)
    h_sq: np.ndarray | None = field(default=None, repr=False)
    extremes: tuple | None = field(default=None, repr=False)  # (h_min_sq, h_max_sq)

    def __getitem__(self, key):
        """The snapshot at ``key`` of the batch axes, e.g. ``snaps[d, 0]``."""
        return ChannelSnapshot(h_c_sq=self.h_c_sq[key], g_c_sq=self.g_c_sq[key],
                               sum_h_sq=self.sum_h_sq[key],
                               h_sq=None if self.h_sq is None else self.h_sq[key])

    def trials(self):
        """The snapshots of a 1-D batch one trial at a time, of plain floats: each
        keeps its (M,) h_sq row, if any, and that row's extremes, reduced once
        over the batch.  They give a reader the bits of ``self[d]``."""
        fields = [self.h_c_sq.tolist(), self.g_c_sq.tolist(), self.sum_h_sq.tolist()]
        if self.h_sq is not None:
            fields += [self.h_sq, zip(self.h_min_sq.tolist(), self.h_max_sq.tolist())]
        return (ChannelSnapshot(*trial) for trial in zip(*fields))

    @property
    def h_min_sq(self):
        return np.min(self._elements(), axis=-1) if self.extremes is None else self.extremes[0]

    @property
    def h_max_sq(self):
        return np.max(self._elements(), axis=-1) if self.extremes is None else self.extremes[1]

    def _elements(self):
        if self.h_sq is None:
            raise ValueError("snapshot has no per-element gains: draw it with per_element=True")
        return self.h_sq

    @property
    def z(self):
        return self.h_c_sq * self.g_c_sq


def power_moments(mus: np.ndarray, cov: np.ndarray) -> tuple[float, float]:
    """Mean and variance of sum_j |x_j|^2 for x ~ CN(mus, cov) with a real mean;
    for a 1x1 law (m, v) these are m^2 + v and 2 m^2 v + v^2."""
    mean = float(np.sum(mus ** 2) + np.trace(cov))
    return mean, float(np.sum(2.0 * np.outer(mus, mus) * cov + cov ** 2))


def _element_gains(u: np.ndarray, factor: np.ndarray, mus: np.ndarray, out: np.ndarray):
    """re^2 + im^2 of h = mus + u @ factor into ``out``, from the (n, r, 2) normals u."""
    h = u.view(np.complex128)[..., 0] @ factor
    h.real += mus
    np.multiply(h.real, h.real, out=out)
    out += h.imag * h.imag


def sample_channels(params: SystemParams, shape: tuple, rng: np.random.Generator,
                    per_element: bool = False) -> ChannelSnapshot:
    """Draw an ``(n, B)`` block of ``channel_law(params)`` in the stream the module
    docstring states; ``per_element`` also forms every |h_j|^2."""
    n, b = shape
    law = channel_law(params)
    m_c, var_c = (x.item() for x in law.g_c)
    r, root_w, nu, vecs = law.rank, np.sqrt(law.eigenvalues), law.nu, law.eigenvectors
    ones = np.sum(vecs, axis=0)  # V^T 1
    scale = math.sqrt(0.5 * law.cov[0, 0]) * root_w[:r]
    factor = scale[:, None] * vecs[:, :r].T
    # each dropped coordinate is its mean
    dropped_sq, dropped_c = float(np.sum(nu[r:] ** 2)), float(np.sum(ones[r:] * nu[r:]))
    # per normal of a row: the scale s sqrt(lambda_i) and mean (nu_i, 0) of each
    # coordinate pair, then 1 and 0 for the g pair, which passes unchanged
    row_scale = np.append(np.repeat(scale, 2), [1.0, 1.0])
    row_mean = np.append(np.stack([nu[:r], np.zeros(r)], -1), [0.0, 0.0])
    h_c_sq, g_c_sq, sum_h_sq = np.empty((b, n)), np.empty((b, n)), np.empty((b, n))
    h_sq = np.empty((b, n, len(law.mus))) if per_element else None
    for j in range(b):
        noise = rng.standard_normal((n, r + 1, 2))
        if per_element:
            _element_gains(noise[:, :r], factor, law.mus, out=h_sq[j])
        row = noise.reshape(n, 2 * r + 2)  # c_i = nu_i + s sqrt(lambda_i) u_i, in place
        row *= row_scale
        row += row_mean
        coords = row[:, :2 * r]
        sum_h_sq[j] = np.einsum("ij,ij->i", coords, coords) + dropped_sq
        re = np.einsum("ij,j->i", coords[:, 0::2], ones[:r]) + dropped_c
        im = np.einsum("ij,j->i", coords[:, 1::2], ones[:r])
        h_c_sq[j] = re * re + im * im
        g_c = sample_rician_vector(noise[:, r], m_c, var_c)
        g_c_sq[j] = g_c.real * g_c.real + g_c.imag * g_c.imag
    return ChannelSnapshot(h_c_sq=h_c_sq.T, g_c_sq=g_c_sq.T, sum_h_sq=sum_h_sq.T,
                           h_sq=None if h_sq is None else h_sq.swapaxes(0, 1))


def fit_gamma_product(params: SystemParams) -> GammaFit:
    """Moment-matched Gamma approximation of Z = |g_c|^2 |h_c|^2."""
    law = channel_law(params)
    mean_h, var_h = power_moments(law.mus.sum(keepdims=True), law.cov.sum(keepdims=True))
    mean_g, var_g = power_moments(*law.g_c)
    mean_z = mean_h * mean_g
    second_z = (mean_h ** 2 + var_h) * (mean_g ** 2 + var_g)
    return GammaFit.from_moments(mean_z, second_z - mean_z ** 2)


def gamma_cdf(fit: GammaFit, x: float) -> float:
    """``fit.cdf(x)``, kept only for the benchmark's calls; ROADMAP item 1 deletes it."""
    return fit.cdf(x)
