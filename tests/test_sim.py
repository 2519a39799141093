"""Monte Carlo engine: reproducibility, closed-form agreement, sweeps."""

import math

import numpy as np
import pytest

from risgroups.channel import SystemParams
from risgroups.energy import LINEAR_DEFAULT, NONLINEAR_DEFAULT
from risgroups.selection import RisMode, SelectionStrategy
from risgroups import sim
from risgroups.sim import (
    BLOCK_SIZE,
    TrialConfig,
    analytic_outage,
    block_rng,
    estimate_outage,
    simulate_block,
    sweep,
)

PARAMS = SystemParams()


def cfg(**kw):
    base = dict(
        n_trials=20_000,
        seed=9,
        strategy=SelectionStrategy("RGS", k=1),
        mode=RisMode("PS", rho=0.5),
        eh=LINEAR_DEFAULT,
        r_req=22.0,
        e_req=0.0,
        metric="data",
    )
    base.update(kw)
    return TrialConfig(**base)


class TestBlockRng:
    def test_deterministic_per_block(self):
        a = block_rng(3, 0).random(4)
        b = block_rng(3, 0).random(4)
        np.testing.assert_array_equal(a, b)

    def test_blocks_differ(self):
        a = block_rng(3, 0).random(4)
        b = block_rng(3, 1).random(4)
        assert not np.array_equal(a, b)


class TestSimulateBlock:
    def test_shapes_and_signs(self):
        snr, harvested, rate, rgs_u = simulate_block(
            PARAMS, RisMode("PS", rho=0.5), LINEAR_DEFAULT, 7, block_rng(1, 0)
        )
        for values in (snr, harvested, rate):
            assert values.shape == (7, PARAMS.b_groups)
        assert rgs_u.shape == (7,)
        assert np.all(snr >= 0.0)
        assert np.all(harvested >= 0.0)


class TestEstimateOutage:
    def test_worker_count_does_not_change_result(self):
        c = cfg(n_trials=3 * BLOCK_SIZE + 17)
        serial = estimate_outage(PARAMS, c, workers=1)
        parallel = estimate_outage(PARAMS, c, workers=3)
        assert serial == parallel

    def test_matches_closed_form_rgs_data(self):
        c = cfg(n_trials=40_000)
        est = estimate_outage(PARAMS, c)
        ana = analytic_outage(PARAMS, c)
        assert abs(est.p_hat - ana) <= max(0.02, 3.0 * est.ci_halfwidth)

    def test_matches_closed_form_sbgs_data(self):
        c = cfg(n_trials=40_000, strategy=SelectionStrategy("SBGS", k=3), r_req=23.3)
        est = estimate_outage(PARAMS, c)
        ana = analytic_outage(PARAMS, c)
        assert abs(est.p_hat - ana) <= max(0.02, 3.0 * est.ci_halfwidth)

    def test_matches_closed_form_ebgs_energy(self):
        p = SystemParams(rho_l=0.1, d_sr=2.0, p_tx=10.0)
        c = cfg(
            n_trials=40_000,
            strategy=SelectionStrategy("EBGS", k=2),
            eh=NONLINEAR_DEFAULT,
            metric="energy",
            e_req=2.35e-4,
        )
        est = estimate_outage(p, c)
        ana = analytic_outage(p, c)
        assert abs(est.p_hat - ana) <= max(0.03, 3.0 * est.ci_halfwidth)

    def test_k_exceeding_groups_rejected(self):
        with pytest.raises(ValueError):
            estimate_outage(PARAMS, cfg(strategy=SelectionStrategy("SBGS", k=21)))

    def test_k_checked_before_any_block_or_pool(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("started work before validating k")

        monkeypatch.setattr(sim, "simulate_block", forbidden)
        monkeypatch.setattr(sim, "ProcessPoolExecutor", forbidden)
        c = cfg(n_trials=2 * BLOCK_SIZE, strategy=SelectionStrategy("SBGS", k=21))
        with pytest.raises(ValueError, match="k=21"):
            estimate_outage(PARAMS, c, workers=2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cfg(n_trials=0)
        with pytest.raises(ValueError):
            cfg(metric="latency")

    def test_negative_rate_requirement_rejected(self):
        with pytest.raises(ValueError, match="r_req"):
            cfg(r_req=-0.5)

    def test_negative_energy_requirement_rejected(self):
        with pytest.raises(ValueError, match="e_req"):
            cfg(e_req=-1e-6)


class TestAnalyticOutage:
    def test_unsupported_combinations_are_nan(self):
        assert math.isnan(
            analytic_outage(PARAMS, cfg(strategy=SelectionStrategy("EBGS", k=1)))
        )
        assert math.isnan(
            analytic_outage(
                PARAMS, cfg(strategy=SelectionStrategy("SBGS", k=1), metric="energy")
            )
        )


class TestSweep:
    def test_snr_sweep_monotone(self):
        c = cfg(n_trials=8_192, r_req=math.log2(1.0 + 10.0 ** 0.3))
        curve = sweep(PARAMS, c, "snr", [-56.0, -52.0, -48.0, -44.0])
        assert curve.variable == "snr"
        ana = curve.analytic
        assert all(a >= b for a, b in zip(ana, ana[1:]))
        emp = [e.p_hat for e in curve.estimates]
        # common random numbers make the empirical curve monotone too
        assert all(a >= b for a, b in zip(emp, emp[1:]))

    def test_rho_sweep_increases_outage(self):
        c = cfg(n_trials=4_096)
        curve = sweep(PARAMS, c, "rho", [0.1, 0.5, 0.9])
        ana = curve.analytic
        assert all(a <= b for a, b in zip(ana, ana[1:]))

    def test_group_count_sweep_updates_n_total(self):
        c = cfg(n_trials=4_096, strategy=SelectionStrategy("SBGS", k=1), r_req=23.3)
        curve = sweep(PARAMS, c, "b", [10, 20, 40])
        ana = curve.analytic
        assert all(a >= b for a, b in zip(ana, ana[1:]))

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(PARAMS, cfg(n_trials=1024), "snr", [0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            sweep(PARAMS, cfg(n_trials=1024), "snr", [])

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            sweep(PARAMS, cfg(n_trials=1024), "temperature", [1.0, 2.0])
