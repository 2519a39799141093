"""Feasibility intervals for the power-splitting factor rho and the
time-switching factor zeta, for linear and nonlinear harvesting.

An interval runs from its energy end (inf where nothing is harvested) to its
rate end, written once per mode: x / (thr + x) for PS, thr = 2^r_req - 1, with
SNR term x = lower * psi * z, times h_max^2/h_min^2 for the nonlinear law (P_tx
cancels: lower falls and psi = ``mean_snr_scale`` grows in proportion to it);
1 - r_req / log2(1 + gamma) for TS.  The limit rule: a rate end is 0 where the
rate needs an infinite SNR (2^r_req overflows), else 1 where the SNR is
unbounded (an overflowed product, or h_min = 0); at zero SNR it is 0 unless
r_req = 0, which is always met.  Snapshot fields are read as plain floats, so
numpy scalars give the same bits; each end returned is a float in [0, 1].
Infeasibility is a machine-readable cause, since sweeps cross in and out of it;
an incident power that overflows a double raises ``OverflowError`` naming P_tx,
as in the simulator.
"""

import math
from dataclasses import dataclass

from .channel import ChannelSnapshot, SystemParams, incident_power, mean_snr_scale
from .energy import EhModel, harvest_rate
from .selection import snr_threshold


@dataclass(frozen=True)
class FeasibleInterval:
    lower: float
    upper: float
    cause: str | None = None  # 'energy-limited' | 'rate-limited' | 'saturation'

    @property
    def feasible(self) -> bool:
        return self.cause is None


def _interval(lower: float, upper: float) -> FeasibleInterval:
    """The ends clamped to [0, 1]: energy-limited where lower > 1 (inf where nothing
    is harvested), else rate-limited unless lower <= upper, which a NaN end fails."""
    cause = "energy-limited" if lower > 1.0 else None if lower <= upper else "rate-limited"
    return FeasibleInterval(min(max(lower, 0.0), 1.0), min(max(upper, 0.0), 1.0), cause)


def _over(num: float, den: float) -> float:
    """num / den, or its limit inf where den = 0: nothing harvested, or h_min = 0."""
    return num / den if den else math.inf


def _ps_rate_end(x: float, r_req: float) -> float:
    """The PS rate end, or its limit; a NaN x is a zero SNR times an unbounded factor."""
    thr = snr_threshold(r_req)
    if x == math.inf:
        return float(thr < math.inf)
    return x / (thr + x) if x > 0 else float(r_req == 0.0)


def _ts_rate_end(gamma: float, r_req: float) -> float:
    """The TS rate end, or its limit; log1p keeps an SNR below 2^-53 from dividing by 0."""
    if gamma == math.inf:
        return float(snr_threshold(r_req) < math.inf)
    return 1.0 - r_req / (math.log1p(gamma) / math.log(2.0)) if gamma > 0 else float(r_req == 0.0)


def _unless_overflowed(params: SystemParams, power: float) -> float:
    """``power``, a product of ``incident_power(params)``, unless it overflowed a
    double: an infinite gain would read as the zero-width interval [0, 0]."""
    if not power < math.inf:  # inf * 0 is NaN
        raise OverflowError(f"at p_tx = {params.p_tx!r} W: the incident power overflows a double")
    return power


def _group_need(params: SystemParams, r_req: float) -> tuple[int, float]:
    """Group size M and its power need w = M p_t + p_ph, after checking r_req."""
    if not r_req >= 0:  # NaN fails this too
        raise ValueError(f"required rate must be nonnegative, got {r_req}")
    return params.m_per_group, params.m_per_group * params.p_t + params.p_ph


def rho_bounds_linear(
    params: SystemParams,
    snap: ChannelSnapshot,
    r_req: float,
) -> FeasibleInterval:
    """PS feasibility interval under the linear harvesting law."""
    _, w = _group_need(params, r_req)
    lower = _over(w, _unless_overflowed(params, incident_power(params) * float(snap.sum_h_sq)))
    return _interval(lower, _ps_rate_end(lower * mean_snr_scale(params) * float(snap.z), r_req))


def rho_bounds_nonlinear(
    params: SystemParams,
    model: EhModel,
    snap: ChannelSnapshot,
    r_req: float,
) -> FeasibleInterval:
    """PS feasibility interval under the nonlinear harvesting law."""
    if model.kind != "nonlinear":
        raise ValueError("nonlinear EH model required")
    m, w = _group_need(params, r_req)
    headroom = model.a - w / m - model.b / model.c
    if headroom <= 0:
        # required per-element energy exceeds the rectifier saturation
        return FeasibleInterval(1.0, 0.0, "saturation")
    h_max_sq = float(snap.h_max_sq)
    denom = _unless_overflowed(params, m * incident_power(params) * h_max_sq * headroom)
    lower = _over(model.c * w, denom)
    kappa = lower * _over(h_max_sq, float(snap.h_min_sq)) * mean_snr_scale(params) * float(snap.z)
    return _interval(lower, _ps_rate_end(kappa, r_req))


def zeta_bounds_linear(
    params: SystemParams,
    snap: ChannelSnapshot,
    r_req: float,
) -> FeasibleInterval:
    """TS feasibility interval under the linear harvesting law."""
    m, w = _group_need(params, r_req)
    gain = _unless_overflowed(params, incident_power(params) * float(snap.sum_h_sq))
    lower = _over(w, m * params.p_t + gain)
    return _interval(lower, _ts_rate_end(mean_snr_scale(params) * float(snap.z), r_req))


def zeta_bounds_nonlinear(
    params: SystemParams,
    model: EhModel,
    snap: ChannelSnapshot,
    r_req: float,
) -> FeasibleInterval:
    """TS feasibility interval under the nonlinear harvesting law."""
    if model.kind != "nonlinear":
        raise ValueError("nonlinear EH model required")
    m, w = _group_need(params, r_req)
    phi = _unless_overflowed(params, incident_power(params) * float(snap.h_max_sq))
    lower = _over(w, m * (params.p_t + float(harvest_rate(model, phi))))
    # worst-case achievable rate: all elements at |h_min|, so |h_c|^2 = M^2 |h_min|^2
    gamma_min = mean_snr_scale(params) * m ** 2 * float(snap.h_min_sq) * float(snap.g_c_sq)
    return _interval(lower, _ts_rate_end(gamma_min, r_req))
