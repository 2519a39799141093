"""Selection strategies, order-statistics formulas, and energy-distribution fits."""

import math

import numpy as np
import pytest
from scipy import special as sp

from risgroups.channel import (
    SystemParams,
    build_correlation_matrix,
    fit_gamma_product,
    gamma_cdf,
    sample_channels,
)
from risgroups.energy import LINEAR_DEFAULT, NONLINEAR_DEFAULT, harvest_rate
from risgroups.selection import (
    DegenerateDist,
    RisMode,
    SelectionStrategy,
    eh_wiring,
    fit_energy_distribution,
    kth_best_pdf,
    mean_snr_scale,
    outage_ebgs,
    outage_rgs,
    outage_sbgs,
)
from risgroups.sim import _kth_largest_index, _realize, block_rng, simulate_block


class TestModeAndStrategy:
    def test_rate_fraction(self):
        assert RisMode("PS", rho=0.3).rate_fraction == 1.0
        assert RisMode("TS", zeta=0.25).rate_fraction == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            RisMode("XS")
        with pytest.raises(ValueError):
            RisMode("PS", rho=1.5)
        with pytest.raises(ValueError):
            SelectionStrategy("BEST")
        with pytest.raises(ValueError):
            SelectionStrategy("RGS", k=0)


def _block_and_z(mode, n=64):
    """One grid point evaluated on simulate_block, and z, rgs_u drawn from a
    fresh copy of the block's stream.

    Equality pins the block's stream layout: h normals, then g normals (both
    through sample_channels), then n RGS uniforms.
    """
    p = SystemParams()
    z_block, h_sq, rgs_u = simulate_block(p, n, block_rng(5, 0))
    snr, _, rate = _realize(p, mode, LINEAR_DEFAULT, z_block, h_sq)
    rng = block_rng(5, 0)
    corr = build_correlation_matrix(p.m_per_group, p.spacing, p.wavelength)
    z = sample_channels(p, corr, (n, p.b_groups), rng).z
    np.testing.assert_array_equal(z_block, z)
    np.testing.assert_array_equal(rgs_u, rng.random(n))
    return snr, rate, z


class TestSnrAndRate:
    def test_ps_scaling(self):
        psi = mean_snr_scale(SystemParams())
        snr, _, z = _block_and_z(RisMode("PS", rho=0.3))
        np.testing.assert_array_equal(snr, (1.0 - 0.3) * psi * z)
        snr, _, z = _block_and_z(RisMode("TS", zeta=0.25))
        np.testing.assert_array_equal(snr, psi * z)

    def test_rate(self):
        for mode in (RisMode("PS", rho=0.3), RisMode("TS", zeta=0.25)):
            snr, rate, _ = _block_and_z(mode)
            np.testing.assert_array_equal(
                rate, mode.rate_fraction * np.log2(1.0 + snr)
            )


class TestKthBest:
    def test_index_selection(self):
        values = np.random.default_rng(3).random((50, 9))
        rows = np.arange(50)
        for k in range(1, 10):
            picked = values[rows, _kth_largest_index(values, k)]
            np.testing.assert_array_equal(picked, np.sort(values, axis=1)[:, -k])

    def test_pdf_integrates_to_one(self):
        # k-th largest of n standard uniforms is Beta(n-k+1, k)  [DERIVED]
        n, k = 7, 3
        xs = np.linspace(0.0, 1.0, 20001)
        pdf = np.array([kth_best_pdf(1.0, x, n, k) for x in xs])
        assert np.trapezoid(pdf, xs) == pytest.approx(1.0, rel=1e-6)

    def test_pdf_matches_beta_density(self):
        n, k = 9, 4
        for x in (0.2, 0.5, 0.8):
            beta_pdf = (
                x ** (n - k) * (1.0 - x) ** (k - 1)
                / sp.beta(n - k + 1, k)
            )
            assert kth_best_pdf(1.0, x, n, k) == pytest.approx(beta_pdf, rel=1e-12)


class TestClosedFormOutage:
    def test_sbgs_matches_binomial_sum(self):
        # fewer than k of n exceed the threshold  [DERIVED: binomial tail]
        f, n = 0.35, 9
        for k in range(1, n + 1):
            direct = sum(
                math.comb(n, j) * (1.0 - f) ** j * f ** (n - j) for j in range(k)
            )
            assert outage_sbgs(f, n, k) == pytest.approx(direct, rel=1e-12)

    def test_sbgs_monotone_in_k(self):
        vals = [outage_sbgs(0.6, 10, k) for k in range(1, 11)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_ebgs_same_order_statistics(self):
        assert outage_ebgs(0.4, 8, 2) == pytest.approx(outage_sbgs(0.4, 8, 2))

    def test_rgs_is_single_group_cdf(self):
        p = SystemParams()
        fit = fit_gamma_product(p)
        mode = RisMode("PS", rho=0.4)
        r = 21.0
        expected = gamma_cdf(
            fit, (2.0 ** r - 1.0) / ((1.0 - mode.rho) * mean_snr_scale(p))
        )
        assert outage_rgs(p, mode, fit, r) == pytest.approx(expected, rel=1e-12)

    def test_rgs_ts_threshold_uses_rate_fraction(self):
        p = SystemParams()
        fit = fit_gamma_product(p)
        mode = RisMode("TS", zeta=0.5)
        r = 10.0
        expected = gamma_cdf(fit, (2.0 ** (r / 0.5) - 1.0) / mean_snr_scale(p))
        assert outage_rgs(p, mode, fit, r) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_modes(self):
        p = SystemParams()
        fit = fit_gamma_product(p)
        assert outage_rgs(p, RisMode("PS", rho=1.0), fit, 1.0) == 1.0
        assert outage_rgs(p, RisMode("TS", zeta=1.0), fit, 1.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            outage_sbgs(1.2, 5, 1)
        with pytest.raises(ValueError):
            outage_sbgs(0.5, 5, 6)


class TestEhWiring:
    def test_ps_harvests_rho_fraction_over_full_slot(self):
        p = SystemParams()
        dur, w_p = eh_wiring(p, RisMode("PS", rho=0.3))
        assert dur == pytest.approx(p.t_s)
        assert w_p == pytest.approx(
            0.3 * p.p_tx * p.rho_l * p.d_sr ** -p.alpha
        )

    def test_ts_harvests_full_power_over_zeta_slot(self):
        p = SystemParams()
        dur, w_p = eh_wiring(p, RisMode("TS", zeta=0.25))
        assert dur == pytest.approx(0.25 * p.t_s)
        assert w_p == pytest.approx(p.p_tx * p.rho_l * p.d_sr ** -p.alpha)


def _simulate_group_energy(params, mode, eh, n, seed):
    corr = build_correlation_matrix(
        params.m_per_group, params.spacing, params.wavelength
    )
    snap = sample_channels(params, corr, (n,), np.random.default_rng(seed))
    dur, w_p = eh_wiring(params, mode)
    return dur * harvest_rate(eh, w_p * snap.h_sq).sum(axis=1)


class TestEnergyDistributionFit:
    def test_linear_moments_match_monte_carlo(self):
        p = SystemParams()
        mode = RisMode("PS", rho=0.5)
        dist = fit_energy_distribution(p, mode, LINEAR_DEFAULT)
        e = _simulate_group_energy(p, mode, LINEAR_DEFAULT, 300_000, seed=21)
        assert dist.shape * dist.scale == pytest.approx(float(e.mean()), rel=0.01)
        assert dist.shape * dist.scale ** 2 == pytest.approx(float(e.var()), rel=0.05)

    def test_nonlinear_moments_match_monte_carlo(self):
        # operate the rectifier around its knee so the reciprocal term varies
        p = SystemParams(rho_l=0.1, d_sr=2.0, p_tx=20.0)
        mode = RisMode("PS", rho=0.5)
        dist = fit_energy_distribution(p, mode, NONLINEAR_DEFAULT)
        e = _simulate_group_energy(p, mode, NONLINEAR_DEFAULT, 300_000, seed=22)
        # E = offset - slope * T with T ~ InvGamma(shape, scale)
        mean_t = dist.inv_scale / (dist.inv_shape - 1.0)
        var_t = dist.inv_scale ** 2 / (
            (dist.inv_shape - 1.0) ** 2 * (dist.inv_shape - 2.0)
        )
        assert dist.offset - dist.slope * mean_t == pytest.approx(
            float(e.mean()), rel=0.01
        )
        assert dist.slope ** 2 * var_t == pytest.approx(float(e.var()), rel=0.05)

    def test_nonlinear_cdf_matches_empirical(self):
        p = SystemParams(rho_l=0.1, d_sr=2.0, p_tx=20.0)
        mode = RisMode("TS", zeta=0.4)
        dist = fit_energy_distribution(p, mode, NONLINEAR_DEFAULT)
        e = _simulate_group_energy(p, mode, NONLINEAR_DEFAULT, 200_000, seed=23)
        for q in (0.1, 0.5, 0.9):
            x = float(np.quantile(e, q))
            assert dist.cdf(x) == pytest.approx(q, abs=0.03)

    def test_zero_power_degenerate(self):
        p = SystemParams()
        dist = fit_energy_distribution(p, RisMode("PS", rho=0.0), LINEAR_DEFAULT)
        assert isinstance(dist, DegenerateDist)
        assert dist.cdf(0.0) == 1.0
        assert dist.cdf(-1.0) == 0.0

    def test_cdf_support_boundaries(self):
        p = SystemParams(rho_l=0.1, d_sr=2.0, p_tx=20.0)
        dist = fit_energy_distribution(p, RisMode("PS", rho=0.5), NONLINEAR_DEFAULT)
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(dist.offset) == 1.0
        mid = dist.offset / 2.0
        assert 0.0 <= dist.cdf(mid) <= 1.0

    def test_pdf_consistent_with_cdf(self):
        p = SystemParams(rho_l=0.1, d_sr=2.0, p_tx=20.0)
        dist = fit_energy_distribution(p, RisMode("PS", rho=0.5), NONLINEAR_DEFAULT)
        x = dist.offset * 0.6
        h = dist.offset * 1e-7
        numeric = (dist.cdf(x + h) - dist.cdf(x - h)) / (2.0 * h)
        assert dist.pdf(x) == pytest.approx(numeric, rel=1e-4)
