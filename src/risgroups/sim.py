"""Seeded Monte Carlo engine for the outage of the group selection schemes.

A trial fails on the outage event that ``selection`` states for its selected
group, the event of the closed forms, so both sides agree exactly at the edges.

Trials are processed in fixed-size blocks; each block gets an independent
SFC64 stream derived from (seed, block index), so results are bit-identical
for any worker count and any block execution order.  A block of n trials is
drawn by ``channel.sample_columns`` one group column at a time; the ``channel``
docstring states its stream, its law key and its prefix property.  Grid points
with equal law keys, seeds and trial counts share each block's draw, as wide
as their widest set of groups (``SelectionStrategy.order``), and each ranks
the first columns, its own set; so a sweep over snr, p_tx, rho, zeta, k or b
draws its channels once, and one over spacing once per point.  These common
random numbers keep the empirical outage of a sweep exactly monotone wherever
its failure event only grows.

Each point folds the block column by column (``_Fold``) and keeps per trial
only what its selection reads: where it ranks by its own metric, the count of
its columns that reach its threshold; a cross cell, its two (n, B)
statistics.  No other (n, B) or (n, B, M) array exists, so a block of
own-metric points takes O(n M) memory whatever B.  The linear EH law is
additive, so it harvests each group's power sum sum_j |h_j|^2, which the draw
returns; only the nonlinear law harvests per element, so a block forms the
per-element gains only if a point of its law uses that law.  Data points
still harvest energy, column by column, because the benchmark traces
``harvest_rate`` there.
"""

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channel import (SystemParams, channel_law, check_count, fit_gamma_product, mean_snr_scale,
                      sample_columns)
from .energy import EhModel, harvest_rate
from .selection import (
    RisMode,
    SelectionStrategy,
    data_threshold,
    eh_wiring,
    fit_energy_distribution,
    outage_ebgs,
    outage_rgs,
    outage_sbgs,
)

BLOCK_SIZE = 4096

# the metric each ranking scheme selects by; a one-group set ranks alike by any
RANKED_METRIC = {"SBGS": "data", "EBGS": "energy"}


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
        check_count("n_trials", self.n_trials)
        check_count("seed", self.seed, least=0)
        if self.metric not in ("data", "energy"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if not (self.r_req >= 0 and self.e_req >= 0):  # NaN fails this too
            raise ValueError("r_req and e_req must be nonnegative and not NaN")


@dataclass(frozen=True)
class OutageEstimate:
    p_hat: float
    ci_halfwidth: float


def block_rng(seed: int, block_idx: int) -> np.random.Generator:
    """Independent SFC64 stream for one trial block, seeded by the
    ``SeedSequence`` spawned at ``(block_idx,)`` from ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_idx,))
    return np.random.Generator(np.random.SFC64(ss))


def simulate_block(params: SystemParams, n: int, rng: np.random.Generator, folds=(),
                   per_element: bool = False) -> None:
    """Draw ``sample_columns``' n trials of ``params.b_groups`` columns one column at
    a time and hand each column to every fold whose set holds it; the benchmark
    traces it as one block and counts its draw."""
    for j, column in enumerate(sample_columns(params, n, params.b_groups, rng, per_element)):
        for fold in folds:
            if j < fold.size:
                fold.add(column)


def _group_energy(params: SystemParams, mode: RisMode, eh: EhModel, column):
    """Energy each trial's group harvests over the EH phase of one grid point,
    from one (n,) group column: the linear law from its power sum, the nonlinear
    law element by element."""
    dur, w_p = eh_wiring(params, mode)
    try:  # an incident power that overflows to inf fails harvest_rate's finiteness check
        with np.errstate(over="ignore"):
            if eh.kind == "linear":
                return dur * harvest_rate(eh, w_p * column.sum_h_sq)
            return dur * harvest_rate(eh, w_p * column.h_sq).sum(axis=-1)
    except ValueError as exc:
        raise OverflowError(f"at p_tx = {params.p_tx!r} W: {exc}") from None


def _kth_largest_index(values: np.ndarray, k: int) -> np.ndarray:
    return np.argpartition(-values, k - 1, axis=1)[:, k - 1]


class _Fold:
    """The failures of one point on one block of n trials, folded over the
    columns of its own set (``add`` each in turn): trials whose selected group
    has its statistic below the point's threshold t.  SBGS ranks by z, which
    the SNR snr_per_z z >= 0 never reorders.  Where the scheme ranks by the
    point's own metric, the k-th largest value lies below t exactly when fewer
    than k columns reach t, so only that count per trial is kept; a cross cell
    keeps both statistics of its set, trial-major, so that the k-th largest
    index partitions contiguous rows."""

    def __init__(self, params: SystemParams, cfg: TrialConfig, n: int):
        self.params, self.cfg = params, cfg
        self.size, self.k = cfg.strategy.order(params.b_groups)
        self.threshold = (data_threshold(params, cfg.mode, cfg.r_req) if cfg.metric == "data"
                          else cfg.e_req)
        self.ranked = RANKED_METRIC.get(cfg.strategy.scheme, cfg.metric)
        if self.ranked == cfg.metric:
            self.reached = np.zeros(n, dtype=np.intp)
        else:
            self.own, self.by_rank, self.j = np.empty((n, self.size)), np.empty((n, self.size)), 0

    def add(self, column) -> None:
        cfg = self.cfg
        stats = {"data": column.z, "energy": _group_energy(self.params, cfg.mode, cfg.eh, column)}
        if self.ranked == cfg.metric:
            self.reached += stats[cfg.metric] >= self.threshold
        else:
            self.own[:, self.j], self.by_rank[:, self.j] = stats[cfg.metric], stats[self.ranked]
            self.j += 1

    def failures(self) -> int:
        if self.ranked == self.cfg.metric:
            return int(np.count_nonzero(self.reached < self.k))
        idx = _kth_largest_index(self.by_rank, self.k)
        return int(np.count_nonzero(self.own[np.arange(len(idx)), idx] < self.threshold))


def _block_failures(points: list, n: int, block_idx: int) -> list[int]:
    """Failures of each point on one block, drawn as wide as the widest set
    among the points and folded column by column."""
    params, cfg = points[0]
    folds = [_Fold(p, c, n) for p, c in points]
    width = max(fold.size for fold in folds)
    nonlinear = any(c.eh.kind == "nonlinear" for _, c in points)
    simulate_block(replace(params, b_groups=width, n_total=params.m_per_group * width), n,
                   block_rng(cfg.seed, block_idx), folds=folds, per_element=nonlinear)
    return [fold.failures() for fold in folds]


def _check_k(points: list) -> None:
    for params, cfg in points:
        size, k = cfg.strategy.order(params.b_groups)
        if k > size:
            raise ValueError(f"k={k} exceeds the number of groups {size}")


def estimate_outage(points: Sequence, workers: int = 1) -> list[OutageEstimate]:
    """Empirical outage of each ``(params, cfg)`` point with a 95% normal-approximation
    binomial interval; one draw of each block serves all the points that share it."""
    points = list(points)
    _check_k(points)
    groups = {}
    for i, (params, cfg) in enumerate(points):
        groups.setdefault(channel_law(params).key + (cfg.seed, cfg.n_trials), []).append(i)
    members, args = [], []
    for idxs in groups.values():
        shared, n = [points[i] for i in idxs], points[idxs[0]][1].n_trials
        for block_idx, start in enumerate(range(0, n, BLOCK_SIZE)):
            members.append(idxs)
            args.append((shared, min(BLOCK_SIZE, n - start), block_idx))
    if workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(args))) as pool:
            counts = list(pool.map(_block_failures, *zip(*args)))
    else:
        counts = itertools.starmap(_block_failures, args)
    failures = np.zeros(len(points), dtype=np.int64)
    for idxs, block_counts in zip(members, counts):
        failures[idxs] += block_counts
    estimates = []
    for f, (_, cfg) in zip(failures.tolist(), points):
        p_hat = f / cfg.n_trials
        ci = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / cfg.n_trials)
        estimates.append(OutageEstimate(p_hat=p_hat, ci_halfwidth=ci))
    return estimates


def _apply_variable(params: SystemParams, cfg: TrialConfig, variable: str, value):
    if variable == "snr":
        # value is the mean SNR scale in dB; realized by adjusting P_tx
        try:  # the link at 1 W may itself overflow its budget (a ValueError)
            p_tx = 10.0 ** (float(value) / 10.0) / mean_snr_scale(replace(params, p_tx=1.0))
        except (ArithmeticError, ValueError):
            p_tx = math.nan
        if not 0.0 < p_tx < math.inf:
            raise ValueError(f"no finite p_tx gives snr = {value} dB with this "
                             "rho_l, alpha, d_sr, d_rd and noise power")
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
    """Closed-form outage for the configured scheme/metric; NaN, before any law
    is fitted, when the scheme ranks groups by the other metric."""
    if RANKED_METRIC.get(cfg.strategy.scheme, cfg.metric) != cfg.metric:
        return math.nan
    size, k = cfg.strategy.order(params.b_groups)
    if cfg.metric == "data":
        f_single = outage_rgs(params, cfg.mode, fit_gamma_product(params), cfg.r_req)
        return outage_sbgs(f_single, size, k)
    return outage_ebgs(fit_energy_distribution(params, cfg.mode, cfg.eh).cdf(cfg.e_req), size, k)


def sweep_points(params: SystemParams, cfg: TrialConfig, variable: str,
                 grid: Sequence) -> list:
    """The ``(params, cfg)`` point of each grid value, after checking the whole
    grid (nonempty, finite, strictly monotone, integral for ``b`` and ``k``,
    known variable, read by the mode and the scheme, ``k <= b`` everywhere)."""
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    values = np.asarray(grid, dtype=float)
    infinite = values[~np.isfinite(values)]
    if infinite.size:
        raise ValueError(f"sweep value {infinite[0]} is not finite")
    diffs = np.diff(values)
    if len(grid) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("sweep grid must be strictly monotone")
    if variable in ("b", "k") and np.any(values != np.round(values)):
        raise ValueError(f"{variable} sweep values must be integers")
    if {"rho": "TS", "zeta": "PS"}.get(variable) == cfg.mode.kind:
        raise ValueError(f"{cfg.mode.kind} mode does not read {variable}, so its sweep is flat")
    if variable in ("b", "k") and cfg.strategy.scheme == "RGS":
        raise ValueError(f"RGS takes group 0 and does not read {variable}, so its sweep is flat")
    points = [_apply_variable(params, cfg, variable, value) for value in grid]
    _check_k(points)
    return points
