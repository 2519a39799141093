"""Seeded Monte Carlo engine for per-group channel/energy/SNR realizations.

Trials are processed in fixed-size blocks; each block gets an independent
counter-based stream derived from (seed, block index), so results are
bit-identical for any worker count and any block execution order.  One block
of n trials draws, in this order: the h normals and then the g normals of
``channel.sample_channels`` over shape (n, B, M), then n uniforms that pick
the RGS group.

A block's draw depends only on the channel law (``m_per_group``, ``b_groups``,
``spacing``, ``wavelength``, ``k_h``, ``k_g``, ``beta_gain``), the seed and the
trial count; grid points that share these share each block's draw, so a sweep
over snr, p_tx, rho, zeta or k draws its channels once.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .channel import (
    SystemParams,
    build_correlation_matrix,
    fit_gamma_product,
    sample_channels,
)
from .energy import EhModel, harvest_rate
from .selection import (
    RisMode,
    SelectionStrategy,
    eh_wiring,
    fit_energy_distribution,
    mean_snr_scale,
    outage_ebgs,
    outage_rgs,
    outage_sbgs,
)

BLOCK_SIZE = 4096


@dataclass(frozen=True)
class TrialConfig:
    n_trials: int = 100_000
    seed: int = 0
    strategy: SelectionStrategy = SelectionStrategy("SBGS", k=1)
    mode: RisMode = RisMode("PS", rho=0.5)
    eh: EhModel = EhModel("linear")
    r_req: float = 1.0          # bits/s/Hz
    e_req: float = 0.0          # joules
    metric: str = "data"        # 'data' | 'energy'

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.metric not in ("data", "energy"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.r_req < 0 or self.e_req < 0:
            raise ValueError("r_req and e_req must be nonnegative")


@dataclass(frozen=True)
class OutageEstimate:
    p_hat: float
    ci_halfwidth: float
    n: int


@dataclass(frozen=True)
class OutageCurve:
    variable: str
    grid: list = field(default_factory=list)
    analytic: list = field(default_factory=list)
    estimates: list = field(default_factory=list)


def block_rng(seed: int, block_idx: int) -> np.random.Generator:
    """Independent counter-based stream for one trial block."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_idx,))
    return np.random.Generator(np.random.Philox(ss))


def simulate_block(params: SystemParams, n: int, rng: np.random.Generator):
    """Draw one block: per-group composite gain z, per-element |h|^2, RGS uniforms."""
    corr = build_correlation_matrix(params.m_per_group, params.spacing, params.wavelength)
    snap = sample_channels(params, corr, (n, params.b_groups), rng)
    return snap.z, snap.h_sq, rng.random(n)


def _realize(params: SystemParams, mode: RisMode, eh: EhModel, z, h_sq):
    """Per-group SNR, harvested energy and rate of one grid point on a drawn block."""
    # optimal common phase per group leaves the magnitude product |g_c||h_c|
    psi = mean_snr_scale(params)
    snr = ((1.0 - mode.rho) * psi if mode.kind == "PS" else psi) * z
    rate = mode.rate_fraction * np.log2(1.0 + snr)
    dur, w_p = eh_wiring(params, mode)
    harvested = dur * harvest_rate(eh, w_p * h_sq).sum(axis=-1)
    return snr, harvested, rate


def _kth_largest_index(values: np.ndarray, k: int) -> np.ndarray:
    return np.argpartition(-values, k - 1, axis=1)[:, k - 1]


def _point_failures(params: SystemParams, cfg: TrialConfig, z, h_sq, rgs_u) -> int:
    snr, harvested, rate = _realize(params, cfg.mode, cfg.eh, z, h_sq)
    if cfg.strategy.scheme == "RGS":
        idx = np.floor(rgs_u * params.b_groups).astype(np.int64)
    else:
        ranked = snr if cfg.strategy.scheme == "SBGS" else harvested
        idx = _kth_largest_index(ranked, cfg.strategy.k)
    value, req = (rate, cfg.r_req) if cfg.metric == "data" else (harvested, cfg.e_req)
    return int(np.sum(value[np.arange(len(rgs_u)), idx] < req))


def _block_failures(points: list, n: int, block_idx: int) -> list[int]:
    params, cfg = points[0]
    z, h_sq, rgs_u = simulate_block(params, n, block_rng(cfg.seed, block_idx))
    return [_point_failures(p, c, z, h_sq, rgs_u) for p, c in points]


def _law_key(params: SystemParams, cfg: TrialConfig) -> tuple:
    """Everything a block's draw depends on; points with equal keys share it."""
    return (params.m_per_group, params.b_groups, params.spacing, params.wavelength,
            params.k_h, params.k_g, params.beta_gain, cfg.seed, cfg.n_trials)


def _check_k(points: list) -> None:
    for params, cfg in points:
        if cfg.strategy.k > params.b_groups:
            raise ValueError(f"k={cfg.strategy.k} exceeds the number of groups {params.b_groups}")


def estimate_outage(points: Sequence, workers: int = 1) -> list[OutageEstimate]:
    """Empirical outage of each ``(params, cfg)`` point with a 95% normal-approximation
    binomial interval; each block is drawn once per channel law (``_law_key``)."""
    points = list(points)
    _check_k(points)
    groups = {}
    for i, (params, cfg) in enumerate(points):
        groups.setdefault(_law_key(params, cfg), []).append(i)
    members, args = [], []
    for idxs in groups.values():
        shared, n = [points[i] for i in idxs], points[idxs[0]][1].n_trials
        for block_idx, start in enumerate(range(0, n, BLOCK_SIZE)):
            members.append(idxs)
            args.append((shared, min(BLOCK_SIZE, n - start), block_idx))
    if workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_block_failures, *zip(*args)))
    else:
        counts = map(_block_failures, *zip(*args))
    failures = np.zeros(len(points), dtype=np.int64)
    for idxs, block_counts in zip(members, counts):
        failures[idxs] += block_counts
    estimates = []
    for f, (_, cfg) in zip(failures.tolist(), points):
        p_hat = f / cfg.n_trials
        ci = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / cfg.n_trials)
        estimates.append(OutageEstimate(p_hat=p_hat, ci_halfwidth=ci, n=cfg.n_trials))
    return estimates


def _apply_variable(params: SystemParams, cfg: TrialConfig, variable: str, value):
    if variable == "snr":
        # value is the mean SNR scale in dB; realized by adjusting P_tx
        psi = 10.0 ** (float(value) / 10.0)
        p_tx = psi * params.noise_power / (
            params.rho_l ** 2 * (params.d_sr * params.d_rd) ** -params.alpha
        )
        return replace(params, p_tx=p_tx), cfg
    if variable == "p_tx":
        return replace(params, p_tx=float(value)), cfg
    if variable == "rho":
        return params, replace(cfg, mode=replace(cfg.mode, rho=float(value)))
    if variable == "zeta":
        return params, replace(cfg, mode=replace(cfg.mode, zeta=float(value)))
    if variable == "spacing":
        return replace(params, spacing=float(value)), cfg
    if variable == "b":
        b = int(value)
        return replace(params, b_groups=b, n_total=params.m_per_group * b), cfg
    if variable == "k":
        return params, replace(cfg, strategy=replace(cfg.strategy, k=int(value)))
    raise ValueError(f"unknown sweep variable {variable!r}")


def analytic_outage(params: SystemParams, cfg: TrialConfig) -> float:
    """Closed-form outage for the configured scheme/metric; NaN when the
    combination has no closed form."""
    scheme = cfg.strategy.scheme
    if cfg.metric == "data":
        f_single = outage_rgs(params, cfg.mode, fit_gamma_product(params), cfg.r_req)
        if scheme == "RGS":
            return f_single
        if scheme == "SBGS":
            return outage_sbgs(f_single, params.b_groups, cfg.strategy.k)
        return math.nan
    dist = fit_energy_distribution(params, cfg.mode, cfg.eh)
    f_single = dist.cdf(cfg.e_req)
    if scheme == "RGS":
        return f_single
    if scheme == "EBGS":
        return outage_ebgs(f_single, params.b_groups, cfg.strategy.k)
    return math.nan


def sweep(params: SystemParams, cfg: TrialConfig, variable: str,
          grid: Sequence, workers: int = 1) -> OutageCurve:
    """One analytic value and one empirical estimate per grid point."""
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    diffs = np.diff(np.asarray(grid, dtype=float))
    if len(grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("sweep grid must be strictly monotone")
    points = [_apply_variable(params, cfg, variable, value) for value in grid]
    _check_k(points)
    analytic = [analytic_outage(p, c) for p, c in points]
    return OutageCurve(variable=variable, grid=grid, analytic=analytic,
                       estimates=estimate_outage(points, workers=workers))
