"""Harvesting laws and the energy a group needs per slot."""

from fractions import Fraction

import numpy as np
import pytest

from risgroups.channel import SystemParams, sample_channels
from risgroups.energy import (
    EhModel,
    NONLINEAR_DEFAULT,
    harvest_rate,
)
from risgroups.selection import RisMode, required_energy
from risgroups.sim import _group_energy, block_rng, simulate_block


class TestEhModel:
    def test_linear_is_identity(self):
        p = np.array([0.0, 0.5, 2.0])
        np.testing.assert_allclose(harvest_rate(EhModel(), p), p)

    def test_nonlinear_zero_at_zero(self):
        assert harvest_rate(NONLINEAR_DEFAULT, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_nonlinear_saturates(self):
        m = NONLINEAR_DEFAULT
        assert float(harvest_rate(m, 1e9)) == pytest.approx(m.a - m.b / m.c, rel=1e-6)

    def test_nonlinear_reference_point(self):
        # (a*1 + b)/(1 + c) - b/c at the circuit constants  [TRIVIAL]
        m = NONLINEAR_DEFAULT
        expected = (m.a + m.b) / (1.0 + m.c) - m.b / m.c
        assert float(harvest_rate(m, 1.0)) == pytest.approx(expected, rel=1e-14)

    def test_nonlinear_matches_rational_oracle(self):
        # (a p + b)/(p + c) - b/c in exact rationals at the double inputs: the
        # law must not lose digits to cancellation as p falls far below c
        m = NONLINEAR_DEFAULT
        p = np.logspace(-9.0, 0.0, 2000)
        a, b, c = (Fraction(v) for v in (m.a, m.b, m.c))
        exact = [float((a * x + b) / (x + c) - b / c) for x in map(Fraction, p.tolist())]
        np.testing.assert_allclose(harvest_rate(m, p), exact, rtol=1e-15, atol=0.0)

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

    def test_negative_incident_rejected(self):
        with pytest.raises(ValueError):
            harvest_rate(EhModel(), [-0.1])

    @pytest.mark.parametrize("model", [EhModel(), NONLINEAR_DEFAULT], ids=["linear", "nonlinear"])
    def test_nan_incident_rejected(self, model):
        # a NaN harvest compares below no requirement, so it would count as no outage
        with pytest.raises(ValueError, match="NaN"):
            harvest_rate(model, [0.1, np.nan])
        with pytest.raises(ValueError, match="NaN"):
            harvest_rate(model, np.nan)

    @pytest.mark.parametrize("model", [EhModel(), NONLINEAR_DEFAULT], ids=["linear", "nonlinear"])
    def test_infinite_incident_rejected(self, model):
        # the nonlinear law gives inf/inf = NaN at an infinite incident power
        with pytest.raises(ValueError, match="finite"):
            harvest_rate(model, [0.1, np.inf])
        with pytest.raises(ValueError, match="finite"):
            harvest_rate(model, np.inf)


class TestHarvest:
    def test_sums_over_elements(self):
        # a group harvests over the EH phase the sum of its elements' rates
        p = SystemParams()
        # columns of 3281 rows, each drawn and reduced by its own normal call
        n = 3281
        # the block is the sampler's draw of group by group h and g, from one stream
        snap = sample_channels(p, (n, p.b_groups), block_rng(2, 0))
        incident = p.p_tx * p.rho_l * p.d_sr ** -p.alpha * snap.h_sq
        z, h_sq = simulate_block(p, n, block_rng(2, 0))
        np.testing.assert_array_equal(h_sq, snap.h_sq)
        np.testing.assert_array_equal(z, snap.z)
        for eh in (EhModel(), NONLINEAR_DEFAULT):
            harvested = _group_energy(p, RisMode("TS", zeta=0.25), eh, h_sq, h_sq.sum(axis=-1))
            expected = 0.25 * p.t_s * harvest_rate(eh, incident).sum(axis=-1)
            np.testing.assert_allclose(harvested, expected, rtol=1e-12)


class TestRequiredEnergy:
    P10 = SystemParams(m_per_group=10, b_groups=20, n_total=200, t_s=1e-4, p_t=0.003, p_ph=0.002)

    def test_ps_budget(self):
        # T_s (M p_t + p_ph)  [TRIVIAL]
        assert required_energy(self.P10, RisMode("PS")) == pytest.approx(1e-4 * 0.032)

    def test_ps_ignores_zeta(self):
        # a PS scenario still carries the default zeta = 0.5, which it must not read
        assert (required_energy(self.P10, RisMode("PS", zeta=0.9))
                == required_energy(self.P10, RisMode("PS", zeta=0.0)))

    def test_ts_budget_scales_transmit_part(self):
        full = required_energy(self.P10, RisMode("TS", zeta=0.0))
        assert full == pytest.approx(required_energy(self.P10, RisMode("PS")))
        half = required_energy(self.P10, RisMode("TS", zeta=0.5))
        assert half == pytest.approx(1e-4 * (0.5 * 0.03 + 0.002))

    def test_invalid_inputs(self):
        # the group size, the TS fraction and the powers are checked where they are stored
        with pytest.raises(ValueError):
            SystemParams(m_per_group=0, b_groups=20, n_total=0)
        with pytest.raises(ValueError):
            RisMode("TS", zeta=1.5)
        with pytest.raises(ValueError):
            SystemParams(p_t=-1.0, p_ph=0.0)
