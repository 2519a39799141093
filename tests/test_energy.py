"""Harvesting laws and phase-shift energy budgets."""

import numpy as np
import pytest

from risgroups.channel import SystemParams, build_correlation_matrix, sample_channels
from risgroups.energy import (
    EhModel,
    LINEAR_DEFAULT,
    NONLINEAR_DEFAULT,
    PowerBudget,
    harvest_rate,
    required_energy_ps,
    required_energy_ts,
)
from risgroups.selection import RisMode
from risgroups.sim import _realize, block_rng, simulate_block


class TestEhModel:
    def test_linear_is_identity(self):
        p = np.array([0.0, 0.5, 2.0])
        np.testing.assert_allclose(harvest_rate(LINEAR_DEFAULT, p), p)

    def test_nonlinear_zero_at_zero(self):
        assert harvest_rate(NONLINEAR_DEFAULT, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_nonlinear_saturates(self):
        m = NONLINEAR_DEFAULT
        assert m.saturation == pytest.approx(m.a - m.b / m.c, rel=1e-14)
        assert float(harvest_rate(m, 1e9)) == pytest.approx(m.saturation, rel=1e-6)

    def test_nonlinear_reference_point(self):
        # (a*1 + b)/(1 + c) - b/c at the circuit constants  [TRIVIAL]
        m = NONLINEAR_DEFAULT
        expected = (m.a + m.b) / (1.0 + m.c) - m.b / m.c
        assert float(harvest_rate(m, 1.0)) == pytest.approx(expected, rel=1e-14)

    def test_nonlinear_monotone_concave(self):
        p = np.linspace(0.0, 10.0, 200)
        r = harvest_rate(NONLINEAR_DEFAULT, p)
        d = np.diff(r)
        assert np.all(d > 0)
        assert np.all(np.diff(d) < 0)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            EhModel("quadratic")
        with pytest.raises(ValueError):
            EhModel("nonlinear", a=1.0, b=2.0, c=1.0)  # a*c <= b
        with pytest.raises(ValueError):
            LINEAR_DEFAULT.saturation

    def test_negative_incident_rejected(self):
        with pytest.raises(ValueError):
            harvest_rate(LINEAR_DEFAULT, [-0.1])


class TestHarvest:
    def test_sums_over_elements(self):
        # a group harvests over the EH phase the sum of its elements' rates
        p = SystemParams()
        corr = build_correlation_matrix(p.m_per_group, p.spacing, p.wavelength)
        rng = block_rng(2, 0)
        snap = sample_channels(p, corr, (16, p.b_groups), rng)
        incident = p.p_tx * p.rho_l * p.d_sr ** -p.alpha * snap.h_sq
        # the block draws h, then g, then the RGS uniforms from one stream
        z, h_sq, rgs_u = simulate_block(p, 16, block_rng(2, 0))
        np.testing.assert_array_equal(h_sq, snap.h_sq)
        np.testing.assert_array_equal(z, snap.z)
        np.testing.assert_array_equal(rgs_u, rng.random(16))
        for eh in (LINEAR_DEFAULT, NONLINEAR_DEFAULT):
            _, harvested, _ = _realize(p, RisMode("TS", zeta=0.25), eh, z, h_sq)
            expected = 0.25 * p.t_s * harvest_rate(eh, incident).sum(axis=-1)
            np.testing.assert_allclose(harvested, expected, rtol=1e-12)


class TestRequiredEnergy:
    def test_ps_budget(self):
        b = PowerBudget(p_t=0.003, p_ph=0.002)
        # T_s (M p_t + p_ph)  [TRIVIAL]
        assert required_energy_ps(10, b, 1e-4) == pytest.approx(1e-4 * 0.032)

    def test_ts_budget_scales_transmit_part(self):
        b = PowerBudget(p_t=0.003, p_ph=0.002)
        full = required_energy_ts(10, b, 1e-4, zeta=0.0)
        assert full == pytest.approx(required_energy_ps(10, b, 1e-4))
        half = required_energy_ts(10, b, 1e-4, zeta=0.5)
        assert half == pytest.approx(1e-4 * (0.5 * 0.03 + 0.002))

    def test_invalid_inputs(self):
        b = PowerBudget(p_t=0.003, p_ph=0.002)
        with pytest.raises(ValueError):
            required_energy_ps(0, b, 1e-4)
        with pytest.raises(ValueError):
            required_energy_ts(10, b, 1e-4, zeta=1.5)
        with pytest.raises(ValueError):
            PowerBudget(p_t=-1.0, p_ph=0.0)
