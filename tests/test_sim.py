"""Monte Carlo engine: reproducibility, closed-form agreement, sweeps."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from risgroups.channel import (
    SystemParams,
    build_correlation_matrix,
    sample_channels,
)
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
        z, h_sq, rgs_u = simulate_block(PARAMS, 7, block_rng(1, 0))
        assert z.shape == (7, PARAMS.b_groups)
        assert h_sq.shape == (7, PARAMS.b_groups, PARAMS.m_per_group)
        assert rgs_u.shape == (7,)
        assert np.all(z >= 0.0)
        assert np.all(h_sq >= 0.0)

    def test_stream_layout(self):
        # h normals, then g normals (both through sample_channels), then n uniforms
        z, h_sq, rgs_u = simulate_block(PARAMS, 7, block_rng(1, 0))
        rng = block_rng(1, 0)
        corr = build_correlation_matrix(PARAMS.m_per_group, PARAMS.spacing, PARAMS.wavelength)
        snap = sample_channels(PARAMS, corr, (7, PARAMS.b_groups), rng)
        np.testing.assert_array_equal(z, snap.z)
        np.testing.assert_array_equal(h_sq, snap.h_sq)
        np.testing.assert_array_equal(rgs_u, rng.random(7))


def one(params, c, workers=1):
    return estimate_outage([(params, c)], workers=workers)[0]


class TestEstimateOutage:
    def test_worker_count_does_not_change_result(self):
        c = cfg(n_trials=3 * BLOCK_SIZE + 17)
        serial = one(PARAMS, c, workers=1)
        parallel = one(PARAMS, c, workers=3)
        assert serial == parallel

    def test_matches_closed_form_rgs_data(self):
        c = cfg(n_trials=40_000)
        est = one(PARAMS, c)
        ana = analytic_outage(PARAMS, c)
        assert abs(est.p_hat - ana) <= max(0.02, 3.0 * est.ci_halfwidth)

    def test_matches_closed_form_sbgs_data(self):
        c = cfg(n_trials=40_000, strategy=SelectionStrategy("SBGS", k=3), r_req=23.3)
        est = one(PARAMS, c)
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
        est = one(p, c)
        ana = analytic_outage(p, c)
        assert abs(est.p_hat - ana) <= max(0.03, 3.0 * est.ci_halfwidth)

    def test_k_exceeding_groups_rejected(self):
        with pytest.raises(ValueError):
            one(PARAMS, cfg(strategy=SelectionStrategy("SBGS", k=21)))

    def test_k_checked_before_any_block_or_pool(self, monkeypatch):
        forbid_work(monkeypatch)
        ok = cfg(n_trials=2 * BLOCK_SIZE)
        bad = cfg(n_trials=2 * BLOCK_SIZE, strategy=SelectionStrategy("SBGS", k=21))
        with pytest.raises(ValueError, match="k=21"):
            estimate_outage([(PARAMS, ok), (PARAMS, bad)], workers=2)

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


def forbid_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("started work before validating k")

    monkeypatch.setattr(sim, "simulate_block", forbidden)
    monkeypatch.setattr(sim, "ProcessPoolExecutor", forbidden)


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

    def test_whole_grid_validated_before_any_work(self, monkeypatch):
        forbid_work(monkeypatch)
        c = cfg(n_trials=2 * BLOCK_SIZE, strategy=SelectionStrategy("SBGS", k=1))
        for workers in (1, 2):
            with pytest.raises(ValueError, match="k=21"):
                sweep(PARAMS, c, "k", [1, 5, 21], workers=workers)


# (variable, grid, scheme, metric, threshold) for sweeps that keep the channel law
SHARED_LAW_SWEEPS = [
    ("snr", [-56.0, -52.0, -48.0], "SBGS", "data", math.log2(1.0 + 10.0 ** 0.3)),
    ("snr", [-56.0, -52.0, -48.0], "RGS", "data", math.log2(1.0 + 10.0 ** 0.3)),
    ("p_tx", [9.0, 13.5, 20.0], "EBGS", "energy", 4e-4),
    ("p_tx", [9.0, 13.5, 20.0], "RGS", "energy", 2.5e-4),
    ("rho", [0.2, 0.5, 0.8], "SBGS", "data", 23.0),
    ("rho", [0.2, 0.5, 0.8], "EBGS", "energy", 3e-4),
    ("zeta", [0.2, 0.5, 0.8], "RGS", "data", 11.5),
    ("zeta", [0.2, 0.5, 0.8], "EBGS", "energy", 2e-4),
    ("k", [1, 2, 4], "SBGS", "data", 23.0),
    ("k", [1, 2, 4], "EBGS", "energy", 3e-4),
]
SMALL = SystemParams(b_groups=6, n_total=120)
SMALL_ENERGY = replace(SMALL, rho_l=0.1, d_sr=2.0, d_rd=3.0, p_tx=13.5)

# SystemParams fields a block's draw depends on; every other field, apart
# from the derived n_total, must leave the draw bit-identical
LAW_FIELDS = {
    "m_per_group": 10, "b_groups": 10, "spacing": 0.1 / 6.0, "wavelength": 0.12,
    "k_h": 2.0, "k_g": 3.0, "beta_gain": 2.0,
}
OTHER_FIELDS = {
    "p_tx": 3.0, "rho_l": 0.1, "alpha": 3.0, "t_s": 1e-3, "noise_power": 1e-9,
    "d_sr": 2.0, "d_rd": 3.0,
}


def sweep_points(variable, grid, scheme, metric, threshold):
    kind = "TS" if variable == "zeta" else "PS"
    c = cfg(
        n_trials=BLOCK_SIZE + 100,
        strategy=SelectionStrategy(scheme, k=2),
        mode=RisMode(kind, rho=0.5, zeta=0.5),
        eh=NONLINEAR_DEFAULT,
        r_req=threshold if metric == "data" else 0.0,
        e_req=threshold if metric == "energy" else 0.0,
        metric=metric,
    )
    base = SMALL_ENERGY if metric == "energy" else SMALL
    return [sim._apply_variable(base, c, variable, v) for v in grid]


def with_field(params, name, value):
    changed = {"m_per_group": params.m_per_group, "b_groups": params.b_groups, name: value}
    return replace(params, **changed, n_total=changed["m_per_group"] * changed["b_groups"])


def draw(params):
    corr = build_correlation_matrix(params.m_per_group, params.spacing, params.wavelength)
    return sample_channels(params, corr, (3, params.b_groups), block_rng(4, 0))


class TestDrawReuse:
    @pytest.mark.parametrize("sweep_case", SHARED_LAW_SWEEPS)
    def test_batched_equals_one_at_a_time(self, sweep_case):
        points = sweep_points(*sweep_case)
        batched = estimate_outage(points)
        assert batched == [estimate_outage([pt])[0] for pt in points]
        assert len({e.p_hat for e in batched}) > 1

    @pytest.mark.parametrize("variable, grid, calls", [
        ("snr", [-56.0, -52.0, -48.0, -44.0], 3),
        ("b", [10, 20, 40], 9),
    ])
    def test_one_draw_per_block_and_law(self, monkeypatch, variable, grid, calls):
        seen = []
        original = sim.simulate_block

        def counting(params, n, rng):
            seen.append(n)
            return original(params, n, rng)

        monkeypatch.setattr(sim, "simulate_block", counting)
        c = cfg(n_trials=3 * BLOCK_SIZE, strategy=SelectionStrategy("SBGS", k=1))
        sweep(PARAMS, c, variable, grid)
        assert len(seen) == calls

    def test_law_key_covers_every_field(self):
        names = {f.name for f in fields(SystemParams)}
        assert names == set(LAW_FIELDS) | set(OTHER_FIELDS) | {"n_total"}
        c = cfg()
        for name in LAW_FIELDS:
            assert sim._law_key(with_field(PARAMS, name, LAW_FIELDS[name]), c) != sim._law_key(PARAMS, c)
        for name in OTHER_FIELDS:
            assert sim._law_key(with_field(PARAMS, name, OTHER_FIELDS[name]), c) == sim._law_key(PARAMS, c)

    def test_fields_outside_the_key_leave_the_draw_unchanged(self):
        ref = draw(PARAMS)
        for name, value in OTHER_FIELDS.items():
            snap = draw(with_field(PARAMS, name, value))
            np.testing.assert_array_equal(snap.tilde_h, ref.tilde_h)
            np.testing.assert_array_equal(snap.tilde_g, ref.tilde_g)

    def test_fields_in_the_key_change_the_draw(self):
        ref = draw(PARAMS)
        for name, value in LAW_FIELDS.items():
            snap = draw(with_field(PARAMS, name, value))
            same = (snap.tilde_h.shape == ref.tilde_h.shape
                    and np.array_equal(snap.tilde_h, ref.tilde_h)
                    and np.array_equal(snap.tilde_g, ref.tilde_g))
            assert not same, name

    def test_worker_count_does_not_change_sweep(self):
        c = cfg(n_trials=2 * BLOCK_SIZE + 5, strategy=SelectionStrategy("SBGS", k=2))
        grid = [-56.0, -52.0, -48.0]
        serial = sweep(PARAMS, c, "snr", grid, workers=1)
        parallel = sweep(PARAMS, c, "snr", grid, workers=2)
        assert serial.estimates == parallel.estimates
