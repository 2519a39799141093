"""Feasibility intervals for the power-splitting factor rho and the
time-switching factor zeta, for linear and nonlinear harvesting.

The PS upper bounds eliminate the transmit power through the harvested-energy
budget taken at the operating point (harvested = required): their SNR term is
lower * psi * z, times h_max^2/h_min^2 for the nonlinear law, where lower falls
and psi = ``mean_snr_scale`` grows in proportion to P_tx.  Every interval is a
deterministic function of one channel snapshot, whose fields may be numpy
scalars or plain floats: every division is guarded against a zero divisor, so
both give the same bits.  Infeasible intervals are returned with a
machine-readable cause instead of raising, since parameter sweeps legitimately
cross in and out of feasibility; an incident power that overflows a double
raises ``OverflowError`` naming P_tx, as in the simulator.
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
    """The clamped interval; a NaN end fails the test, so it reads infeasible."""
    clamped_lower = min(max(lower, 0.0), 1.0)
    clamped_upper = min(max(upper, 0.0), 1.0)
    if lower <= 1.0 and lower <= upper:
        return FeasibleInterval(clamped_lower, clamped_upper)
    cause = "energy-limited" if lower > 1.0 else "rate-limited"
    return FeasibleInterval(clamped_lower, clamped_upper, cause)


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
    gain = _unless_overflowed(params, incident_power(params) * snap.sum_h_sq)
    if gain == 0.0:
        return FeasibleInterval(1.0, 0.0, "energy-limited")
    lower = w / gain
    eta = lower * mean_snr_scale(params) * snap.z
    upper = eta / (snr_threshold(r_req) + eta) if eta > 0 else 0.0
    return _interval(lower, upper)


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
    h_max_sq = snap.h_max_sq
    denom = _unless_overflowed(params, m * incident_power(params) * h_max_sq * headroom)
    if denom == 0.0:
        return FeasibleInterval(1.0, 0.0, "energy-limited")
    lower = model.c * w / denom
    if (h_min_sq := snap.h_min_sq) == 0.0:  # h_min -> 0 sends kappa to inf
        grows = lower * mean_snr_scale(params) * snap.z > 0 and snr_threshold(r_req) < math.inf
        return _interval(lower, 1.0 if grows else 0.0)
    kappa = lower * (h_max_sq / h_min_sq) * mean_snr_scale(params) * snap.z
    upper = kappa / (snr_threshold(r_req) + kappa) if kappa > 0 else 0.0
    return _interval(lower, upper)


def zeta_bounds_linear(
    params: SystemParams,
    snap: ChannelSnapshot,
    r_req: float,
) -> FeasibleInterval:
    """TS feasibility interval under the linear harvesting law."""
    m, w = _group_need(params, r_req)
    gain = _unless_overflowed(params, incident_power(params) * snap.sum_h_sq)
    denom = m * params.p_t + gain
    if denom == 0.0 or gain == 0.0:
        return FeasibleInterval(1.0, 0.0, "energy-limited")
    lower = w / denom
    gamma = mean_snr_scale(params) * snap.z
    upper = 1.0 - r_req / (math.log1p(gamma) / math.log(2.0)) if gamma > 0 else 0.0
    return _interval(lower, upper)


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
    phi = _unless_overflowed(params, incident_power(params) * snap.h_max_sq)
    denom = m * (params.p_t + float(harvest_rate(model, phi)))
    if denom == 0.0:
        return FeasibleInterval(1.0, 0.0, "energy-limited")
    lower = w / denom
    # worst-case achievable rate: all elements at |h_min|, so |h_c|^2 = M^2 |h_min|^2
    gamma_min = mean_snr_scale(params) * m ** 2 * snap.h_min_sq * snap.g_c_sq
    upper = 1.0 - r_req / (math.log1p(gamma_min) / math.log(2.0)) if gamma_min > 0 else 0.0
    return _interval(lower, upper)
