"""Feasibility intervals: boundary equalities and infeasibility causes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risgroups.bounds import (
    ChannelSnapshot,
    rho_bounds_linear,
    rho_bounds_nonlinear,
    zeta_bounds_linear,
    zeta_bounds_nonlinear,
)
from risgroups.channel import SystemParams, sample_channels
from risgroups.energy import (
    NONLINEAR_DEFAULT,
    EhModel,
    harvest_rate,
)
from risgroups.selection import RisMode, mean_snr_scale, required_energy

# short-range, high-gain, high-noise setup so both interval endpoints are
# interior: the far-field defaults are energy-infeasible (lower clamps to 1)
# and a thermal noise floor pushes the rate-limited upper bound within one
# ulp of 1, where the boundary equality cannot be evaluated in floats
PARAMS = SystemParams(rho_l=0.1, d_sr=2.0, d_rd=3.0, noise_power=0.05)


def snapshot(seed: int, params: SystemParams = PARAMS, per_element=True) -> ChannelSnapshot:
    return sample_channels(params, (1, 1), np.random.default_rng(seed),
                           per_element=per_element)[0, 0]


def _harvest(model, incident_powers, duration: float) -> float:
    """Energy a group harvests over ``duration``: the summed per-element rate."""
    return duration * float(np.sum(harvest_rate(model, incident_powers)))


class TestSnapshot:
    def test_derived_quantities(self):
        # tilde_h = (1, i)
        snap = ChannelSnapshot(h_c_sq=2.0, g_c_sq=4.0, sum_h_sq=2.0, h_sq=np.array([1.0, 1.0]))
        assert snap.h_min_sq == pytest.approx(1.0)
        assert snap.z == pytest.approx(8.0)


class TestPsLinear:
    def test_lower_bound_balances_energy(self):
        snap = snapshot(0)
        iv = rho_bounds_linear(PARAMS, snap, r_req=1.0)
        harvested = (
            PARAMS.t_s * iv.lower * PARAMS.p_tx * PARAMS.rho_l
            * PARAMS.d_sr ** -PARAMS.alpha * snap.sum_h_sq
        )
        e_req = required_energy(PARAMS, RisMode("PS"))
        assert harvested == pytest.approx(e_req, rel=1e-12)

    def test_upper_bound_meets_rate(self):
        snap = snapshot(1)
        r_req = 0.5
        iv = rho_bounds_linear(PARAMS, snap, r_req=r_req)
        e_req = required_energy(PARAMS, RisMode("PS"))
        eta = (
            PARAMS.rho_l * e_req * PARAMS.d_rd ** -PARAMS.alpha * snap.z
            / (PARAMS.t_s * PARAMS.noise_power * snap.sum_h_sq)
        )
        rate = math.log2(1.0 + (1.0 / iv.upper - 1.0) * eta)
        assert rate == pytest.approx(r_req, rel=1e-12)

    def test_energy_limited_infeasible(self):
        snap = snapshot(2)
        weak = SystemParams(p_tx=1e-12)
        iv = rho_bounds_linear(weak, snap, r_req=1.0)
        assert not iv.feasible
        assert iv.cause == "energy-limited"

    def test_rate_limited_infeasible(self):
        snap = snapshot(3)
        iv = rho_bounds_linear(PARAMS, snap, r_req=100.0)
        assert not iv.feasible
        assert iv.cause == "rate-limited"

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            rho_bounds_linear(PARAMS, snapshot(4), r_req=-1.0)


class TestPsNonlinear:
    def test_lower_bound_balances_energy(self):
        snap = snapshot(5)
        iv = rho_bounds_nonlinear(PARAMS, NONLINEAR_DEFAULT, snap, r_req=1.0)
        # derivation uses the best-element proxy: all M elements at |h_max|^2
        incident = (
            iv.lower * PARAMS.p_tx * PARAMS.rho_l * PARAMS.d_sr ** -PARAMS.alpha
            * snap.h_max_sq
        )
        harvested = _harvest(
            NONLINEAR_DEFAULT, [incident] * PARAMS.m_per_group, PARAMS.t_s
        )
        e_req = required_energy(PARAMS, RisMode("PS"))
        assert harvested == pytest.approx(e_req, rel=1e-12)

    def test_upper_bound_meets_rate(self):
        snap = snapshot(6)
        r_req = 0.25
        iv = rho_bounds_nonlinear(PARAMS, NONLINEAR_DEFAULT, snap, r_req=r_req)
        m = NONLINEAR_DEFAULT
        e_req = required_energy(PARAMS, RisMode("PS"))
        w = PARAMS.m_per_group * PARAMS.p_t + PARAMS.p_ph
        headroom = m.a - w / PARAMS.m_per_group - m.b / m.c
        kappa = (
            m.c * e_req * PARAMS.rho_l * PARAMS.d_rd ** -PARAMS.alpha * snap.z
            / (
                PARAMS.m_per_group * PARAMS.t_s * snap.h_min_sq * headroom
                * PARAMS.noise_power
            )
        )
        rate = math.log2(1.0 + (1.0 / iv.upper - 1.0) * kappa)
        assert rate == pytest.approx(r_req, rel=1e-12)

    def test_zero_gain_element_gives_the_limit(self):
        # h_max^2 / h_min^2 is unbounded as h_min -> 0, so upper reaches 1
        # there, the limit of ever weaker elements, instead of inf/inf
        params = replace(PARAMS, m_per_group=2, n_total=2 * PARAMS.b_groups)
        iv = rho_bounds_nonlinear(params, NONLINEAR_DEFAULT,
                                  ChannelSnapshot(h_c_sq=1.0, g_c_sq=1.0, sum_h_sq=1.0,
                                                  h_sq=np.array([0.0, 1.0])), 1.0)
        weak = rho_bounds_nonlinear(params, NONLINEAR_DEFAULT,
                                    ChannelSnapshot(h_c_sq=1.0, g_c_sq=1.0, sum_h_sq=1.0,
                                                    h_sq=np.array([1e-300, 1.0])), 1.0)
        assert iv == weak
        assert iv.feasible and 0.0 < iv.lower < 1.0 and iv.upper == 1.0
        # no SNR at all, or a rate that needs an infinite one, still reads 0
        for h_c_sq, r_req in ((0.0, 1.0), (1.0, 2000.0)):
            snap = ChannelSnapshot(h_c_sq=h_c_sq, g_c_sq=1.0, sum_h_sq=1.0,
                                   h_sq=np.array([0.0, 1.0]))
            iv = rho_bounds_nonlinear(params, NONLINEAR_DEFAULT, snap, r_req)
            assert iv.cause == "rate-limited" and iv.upper == 0.0

    def test_saturation_infeasible(self):
        big = replace(PARAMS, p_t=10.0, p_ph=10.0)  # beyond the rectifier ceiling
        iv = rho_bounds_nonlinear(big, NONLINEAR_DEFAULT, snapshot(7), 1.0)
        assert not iv.feasible
        assert iv.cause == "saturation"

    def test_linear_model_rejected(self):
        with pytest.raises(ValueError):
            rho_bounds_nonlinear(PARAMS, EhModel(), snapshot(8), 1.0)


class TestTsLinear:
    def test_lower_bound_balances_energy(self):
        snap = snapshot(9)
        iv = zeta_bounds_linear(PARAMS, snap, r_req=1.0)
        harvested = (
            iv.lower * PARAMS.t_s * PARAMS.p_tx * PARAMS.rho_l
            * PARAMS.d_sr ** -PARAMS.alpha * snap.sum_h_sq
        )
        e_req = required_energy(PARAMS, RisMode("TS", zeta=iv.lower))
        assert harvested == pytest.approx(e_req, rel=1e-12)

    def test_upper_bound_meets_rate(self):
        snap = snapshot(10)
        r_req = 2.0
        iv = zeta_bounds_linear(PARAMS, snap, r_req=r_req)
        gamma = (
            PARAMS.p_tx * PARAMS.rho_l ** 2
            * (PARAMS.d_sr * PARAMS.d_rd) ** -PARAMS.alpha * snap.z
            / PARAMS.noise_power
        )
        rate = (1.0 - iv.upper) * math.log2(1.0 + gamma)
        assert rate == pytest.approx(r_req, rel=1e-12)


class TestTsNonlinear:
    def test_lower_bound_balances_energy(self):
        snap = snapshot(11)
        iv = zeta_bounds_nonlinear(PARAMS, NONLINEAR_DEFAULT, snap, r_req=1.0)
        incident = (
            PARAMS.p_tx * PARAMS.rho_l * PARAMS.d_sr ** -PARAMS.alpha * snap.h_max_sq
        )
        harvested = _harvest(
            NONLINEAR_DEFAULT, [incident] * PARAMS.m_per_group, iv.lower * PARAMS.t_s
        )
        e_req = required_energy(PARAMS, RisMode("TS", zeta=iv.lower))
        assert harvested == pytest.approx(e_req, rel=1e-12)

    def test_upper_bound_meets_rate(self):
        snap = snapshot(12)
        r_req = 1.5
        iv = zeta_bounds_nonlinear(PARAMS, NONLINEAR_DEFAULT, snap, r_req=r_req)
        gamma_min = (
            PARAMS.p_tx * PARAMS.rho_l ** 2
            * (PARAMS.d_sr * PARAMS.d_rd) ** -PARAMS.alpha
            * PARAMS.m_per_group ** 2 * snap.h_min_sq * snap.g_c_sq
            / PARAMS.noise_power
        )
        rate = (1.0 - iv.upper) * math.log2(1.0 + gamma_min)
        assert rate == pytest.approx(r_req, rel=1e-12)


def _watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _with_fixed_snapshots(test):
    # the twenty snapshots every interval was first checked on, at PARAMS
    for seed in range(20):
        test = example(p_tx=PARAMS.p_tx, p_t=PARAMS.p_t, p_ph=PARAMS.p_ph,
                       r_req=1.0, seed=seed)(test)
    return test


class TestIntervalInvariants:
    # p_t and p_ph reach past the 0.484 W per element (27 dBm) that the nonlinear
    # law saturates at, so every cause is drawn; transmit powers reach SNRs
    # below 2^-53 and rates reach past 1024 bits/s/Hz, where 2^r overflows
    @settings(max_examples=200, deadline=None)
    @given(p_tx=st.floats(-200.0, 60.0).map(_watts),
           p_t=st.just(0.0) | st.floats(-60.0, 33.0).map(_watts),
           p_ph=st.just(0.0) | st.floats(-60.0, 33.0).map(_watts),
           r_req=st.floats(0.0, 2000.0),
           seed=st.integers(0, 2**32 - 1))
    @example(p_tx=1e-22, p_t=PARAMS.p_t, p_ph=PARAMS.p_ph, r_req=1.0, seed=3)
    @example(p_tx=PARAMS.p_tx, p_t=PARAMS.p_t, p_ph=PARAMS.p_ph, r_req=1100.0, seed=3)
    @_with_fixed_snapshots
    def test_clamps_and_verdicts(self, p_tx, p_t, p_ph, r_req, seed):
        params = replace(PARAMS, p_tx=p_tx, p_t=p_t, p_ph=p_ph)
        snap = snapshot(seed)
        for iv in (
            rho_bounds_linear(params, snap, r_req),
            rho_bounds_nonlinear(params, NONLINEAR_DEFAULT, snap, r_req),
            zeta_bounds_linear(params, snap, r_req),
            zeta_bounds_nonlinear(params, NONLINEAR_DEFAULT, snap, r_req),
        ):
            assert 0.0 <= iv.lower <= 1.0
            assert 0.0 <= iv.upper <= 1.0
            assert iv.feasible == (iv.cause is None)
            if iv.feasible:
                assert iv.lower <= iv.upper
            if iv.cause in ("energy-limited", "saturation"):
                assert iv.lower == 1.0

    @pytest.mark.parametrize("bounds", [
        lambda snap, r: rho_bounds_linear(PARAMS, snap, r),
        lambda snap, r: rho_bounds_nonlinear(PARAMS, NONLINEAR_DEFAULT, snap, r),
        lambda snap, r: zeta_bounds_linear(PARAMS, snap, r),
        lambda snap, r: zeta_bounds_nonlinear(PARAMS, NONLINEAR_DEFAULT, snap, r),
    ], ids=["rho-linear", "rho-nonlinear", "zeta-linear", "zeta-nonlinear"])
    def test_nan_rate_rejected(self, bounds):
        # a NaN r_req would read as an interval, with a NaN upper end for zeta
        with pytest.raises(ValueError, match="nan"):
            bounds(snapshot(4), math.nan)


class TestPerElementGains:
    # a linear bounds run draws its snapshots without the per-element gains
    @pytest.mark.parametrize("bounds", [rho_bounds_nonlinear, zeta_bounds_nonlinear],
                             ids=["rho", "zeta"])
    def test_nonlinear_bounds_ask_for_them(self, bounds):
        lean = snapshot(9, per_element=False)
        assert lean.h_sq is None
        with pytest.raises(ValueError, match="draw it with per_element=True"):
            bounds(PARAMS, NONLINEAR_DEFAULT, lean, 1.0)

    @pytest.mark.parametrize("bounds", [rho_bounds_linear, zeta_bounds_linear],
                             ids=["rho", "zeta"])
    def test_linear_bounds_do_not_read_them(self, bounds):
        lean, full = snapshot(9, per_element=False), snapshot(9)
        assert bounds(PARAMS, lean, 1.0) == bounds(PARAMS, full, 1.0)


TS_BOUNDS = pytest.mark.parametrize("bounds", [
    lambda p, snap: zeta_bounds_linear(p, snap, 1.0),
    lambda p, snap: zeta_bounds_nonlinear(p, NONLINEAR_DEFAULT, snap, 1.0),
], ids=["linear", "nonlinear"])


class TestZeroSnr:
    @pytest.mark.parametrize("p_tx, cause", [(1e-12, "energy-limited"), (1.0, "rate-limited")])
    @TS_BOUNDS
    def test_ts_cause_follows_lower(self, bounds, p_tx, cause):
        # |g_c|^2 = 0 leaves no rate at any zeta; the cause is energy-limited
        # whenever the energy bound alone already exceeds 1, as elsewhere
        snap = replace(snapshot(12), g_c_sq=0.0)
        iv = bounds(replace(PARAMS, p_tx=p_tx), snap)
        assert not iv.feasible
        assert iv.cause == cause
        assert iv.upper == 0.0
        assert (iv.lower == 1.0) == (cause == "energy-limited")

    @TS_BOUNDS
    def test_ts_snr_below_double_epsilon(self, bounds):
        # at 1e-22 W the SNR is below 2^-53, where log2(1 + snr) is 0 and the
        # upper bound once divided by it; log1p keeps every rate unreachable
        params = replace(PARAMS, p_tx=1e-22)
        snap = snapshot(3)
        psi = mean_snr_scale(params)
        for snr in (psi * snap.z, psi * PARAMS.m_per_group ** 2 * snap.h_min_sq * snap.g_c_sq):
            assert 0.0 < snr < 2.0 ** -53
        iv = bounds(params, snap)
        assert not iv.feasible
        assert iv.upper == 0.0


# zero, subnormal, ordinary and near-overflow gains; each of zero sum_h_sq,
# h_min_sq, h_max_sq and g_c_sq reaches a zero guard of some interval
_EDGE_GAIN = (st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                               1.7976931348623157e308])
              | st.floats(0.0, 1.7976931348623157e308))
_ALL_BOUNDS = [
    rho_bounds_linear,
    lambda p, snap, r: rho_bounds_nonlinear(p, NONLINEAR_DEFAULT, snap, r),
    zeta_bounds_linear,
    lambda p, snap, r: zeta_bounds_nonlinear(p, NONLINEAR_DEFAULT, snap, r),
]


def _outcome(bounds, params, snap, r_req):
    """The interval's ends as bits and its cause, or the message of an
    overflowing incident power; any other exception propagates.  Each end
    must be a Python float in [0, 1]."""
    try:
        iv = bounds(params, snap, r_req)
    except OverflowError as exc:
        return str(exc)
    for end in (iv.lower, iv.upper):
        assert type(end) is float and 0.0 <= end <= 1.0  # NaN fails this too
    return float.hex(iv.lower), float.hex(iv.upper), iv.cause


class TestFloatSnapshots:
    # risgroups bounds hands each interval a snapshot of plain floats, and every
    # bound reads a numpy-scalar snapshot's fields as floats too, so both give
    # the same bits: a limit taken in the bounds is taken for both
    @settings(max_examples=300, deadline=None)
    @given(p_tx=st.floats(-200.0, 60.0).map(_watts),
           p_t=st.just(0.0) | st.floats(-60.0, 33.0).map(_watts),
           p_ph=st.just(0.0) | st.floats(-60.0, 33.0).map(_watts),
           r_req=st.just(0.0) | st.floats(0.0, 2000.0),
           trials=st.lists(st.tuples(_EDGE_GAIN, _EDGE_GAIN, _EDGE_GAIN,
                                     st.lists(_EDGE_GAIN, min_size=3, max_size=3)),
                           min_size=1, max_size=3))
    @example(p_tx=1.0, p_t=0.0, p_ph=0.0, r_req=0.0,
             trials=[(0.0, 0.0, 0.0, [0.0, 0.0, 0.0]), (1.0, 0.0, 1.0, [0.0, 1.0, 2.0]),
                     (1.0, 0.0, 1.0, [1.0, 1.0, 2.0])])
    @example(p_tx=1e6, p_t=0.0, p_ph=0.0, r_req=1.0,
             trials=[(1e308, 1e308, 1e308, [5e-324, 1e308, 1e308])])
    # lower * psi * z overflows with a finite incident power: once a NaN upper end
    @example(p_tx=1.0, p_t=PARAMS.p_t, p_ph=PARAMS.p_ph, r_req=0.5,
             trials=[(1e308, 1.0, 1e-300, [1e-300, 1e-300, 1e-300])])
    def test_same_bits_as_numpy_scalars(self, p_tx, p_t, p_ph, r_req, trials):
        params = replace(PARAMS, m_per_group=3, n_total=3 * PARAMS.b_groups,
                         p_tx=p_tx, p_t=p_t, p_ph=p_ph)
        h_c_sq, g_c_sq, sum_h_sq, h_sq = (np.array(x) for x in zip(*trials))
        # an (n, 1) block, as sample_channels draws for risgroups bounds
        snaps = ChannelSnapshot(h_c_sq=h_c_sq[:, None], g_c_sq=g_c_sq[:, None],
                                sum_h_sq=sum_h_sq[:, None], h_sq=h_sq[:, None])
        for d, snap in enumerate(snaps[:, 0].trials()):
            assert all(type(getattr(snap, name)) is float for name in
                       ("h_c_sq", "g_c_sq", "sum_h_sq", "h_min_sq", "h_max_sq"))
            for bounds in _ALL_BOUNDS:
                # the numpy oracle warns on overflow and on inf / inf; floats do not
                with np.errstate(all="ignore"):
                    want = _outcome(bounds, params, snaps[d, 0], r_req)
                assert _outcome(bounds, params, snap, r_req) == want


# the link of test_cli.py::test_overflowing_snr_term_is_its_limit: an incident
# power of 2.5e-305 W per unit gain, at which lower is about 2e302 and the PS SNR
# term lower * psi * z overflows; and a link whose psi = 2.8e296 overflows
# psi * z itself at |h_c|^2 = 1e13
_PAIR = replace(PARAMS, m_per_group=2, n_total=2 * PARAMS.b_groups)
_FAINT = replace(_PAIR, p_tx=1e-303, noise_power=1e-311, d_rd=1.0)
_QUIET = replace(_PAIR, noise_power=1e-300)
IN, EL, RL = "interior", "energy-limited", "rate-limited"  # IN: an end inside (0, 1)


def _pair(h_sq, h_c_sq=1e6):
    # |h_c|^2 = 1e6 keeps the TS rate ends of a zero-harvest snapshot interior
    return ChannelSnapshot(h_c_sq=h_c_sq, g_c_sq=1.0, sum_h_sq=sum(h_sq), h_sq=np.array(h_sq))


# (params, snapshot, r_req, (lower, upper, cause) of PS linear, PS nonlinear,
# TS linear and TS nonlinear); each end takes its limit
DEGENERATE = {
    # nothing harvested: the energy end is inf, so PS reads its SNR term as
    # unbounded, and TS keeps its rate end; both TS laws agree on the cause
    "zero-harvest": (_PAIR, _pair([0.0, 0.0]), 0.5,
                     ((1.0, 1.0, EL), (1.0, 1.0, EL), (1.0, IN, EL), (1.0, 0.0, EL))),
    "zero-harvest-no-p_ph-r0": (replace(_PAIR, p_ph=0.0), _pair([0.0, 0.0]), 0.0,
                                ((1.0, 1.0, EL), (1.0, 1.0, EL), (1.0, 1.0, None),
                                 (1.0, 1.0, None))),
    "zero-harvest-no-p_ph": (replace(_PAIR, p_ph=0.0), _pair([0.0, 0.0]), 0.5,
                             ((1.0, 1.0, EL), (1.0, 1.0, EL), (1.0, IN, RL), (1.0, 0.0, RL))),
    "zero-harvest-no-p_t": (replace(_PAIR, p_t=0.0), _pair([0.0, 0.0]), 0.5,
                            ((1.0, 1.0, EL), (1.0, 1.0, EL), (1.0, IN, EL), (1.0, 0.0, EL))),
    # h_max^2 / h_min^2 is unbounded; the TS worst case has no SNR
    "h_min-zero": (_PAIR, _pair([0.0, 1.0]), 0.5,
                   ((IN, IN, None), (IN, 1.0, None), (IN, IN, None), (IN, 0.0, RL))),
    # |h_c|^2 = 0 leaves no SNR but TS-nonlinear's worst case, M^2 |h_min|^2 |g_c|^2;
    # a zero rate is always met, as in selection.data_threshold
    "zero-snr-r0": (_PAIR, _pair([1.0, 1.0], h_c_sq=0.0), 0.0,
                    ((IN, 1.0, None), (IN, 1.0, None), (IN, 1.0, None), (IN, 1.0, None))),
    "zero-snr": (_PAIR, _pair([1.0, 1.0], h_c_sq=0.0), 0.5,
                 ((IN, 0.0, RL), (IN, 0.0, RL), (IN, 0.0, RL), (IN, 0.0, RL))),
    # an SNR that overflows a double is unbounded, with a finite incident power
    "snr-term-overflow": (_FAINT, _pair([1.0, 1.0]), 0.5,
                          ((1.0, 1.0, EL), (1.0, 1.0, EL), (1.0, IN, EL), (1.0, IN, EL))),
    "snr-overflow": (_QUIET, _pair([1.0, 1.0], h_c_sq=1e13), 0.5,
                     ((IN, 1.0, None), (IN, 1.0, None), (IN, 1.0, None), (IN, IN, None))),
    # 2^r overflows: the rate needs an infinite SNR, even where the SNR is unbounded
    "rate-1100": (_PAIR, _pair([1.0, 1.0]), 1100.0,
                  ((IN, 0.0, RL), (IN, 0.0, RL), (IN, 0.0, RL), (IN, 0.0, RL))),
    "rate-1100-snr-term-overflow": (_FAINT, _pair([1.0, 1.0]), 1100.0,
                                    ((1.0, 0.0, EL), (1.0, 0.0, EL), (1.0, 0.0, EL),
                                     (1.0, 0.0, EL))),
    "rate-1100-snr-overflow": (_QUIET, _pair([1.0, 1.0], h_c_sq=1e13), 1100.0,
                               ((IN, 0.0, RL), (IN, 0.0, RL), (IN, 0.0, RL), (IN, 0.0, RL))),
}


@pytest.mark.parametrize("params, snap, r_req, want", DEGENERATE.values(), ids=DEGENERATE)
def test_degenerate_snapshot(params, snap, r_req, want):
    for bounds, (lower, upper, cause) in zip(_ALL_BOUNDS, want):
        iv = bounds(params, snap, r_req)
        assert iv.cause == cause
        for end, limit in ((iv.lower, lower), (iv.upper, upper)):
            assert type(end) is float
            assert 0.0 < end < 1.0 if limit == IN else end == limit
