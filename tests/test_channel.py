"""Correlated Rician channel construction and the Gamma law of Z."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special as sp
from scipy import stats

from risgroups.channel import (
    ChannelSnapshot,
    DegenerateFitError,
    GammaFit,
    SystemParams,
    build_correlation_matrix,
    composite_law,
    element_law,
    fit_gamma_product,
    gamma_cdf,
    power_moments,
    sample_channels,
    sample_rician_vector,
)
from risgroups.energy import EhModel
from risgroups.selection import SelectionStrategy


class TestSystemParams:
    def test_defaults_are_consistent(self):
        p = SystemParams()
        assert p.n_total == p.m_per_group * p.b_groups
        assert p.p_tx == pytest.approx(1.0)
        assert p.noise_power == pytest.approx(10.0 ** (-104.0 / 10.0) / 1000.0, abs=0.0)
        # 5 dBm per phase shifter and for the controller, as a scenario's default
        assert p.p_t == p.p_ph == 10.0 ** (5.0 / 10.0) / 1000.0

    def test_group_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(n_total=401)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(alpha=1.5)
        with pytest.raises(ValueError):
            SystemParams(k_h=-0.5)
        with pytest.raises(ValueError):
            SystemParams(spacing=0.0)
        for bad in (dict(wavelength=0.0), dict(wavelength=math.nan), dict(spacing=math.nan),
                    dict(m_per_group=0, n_total=0)):
            with pytest.raises(ValueError):
                SystemParams(**bad)
        with pytest.raises(ValueError, match="p_tx must be strictly positive and finite"):
            SystemParams(p_tx=math.inf)
        with pytest.raises(ValueError, match="p_t and p_ph must be nonnegative"):
            SystemParams(p_t=-1.0)
        # the edges stay valid: an idle surface, and a path gain that
        # underflows to 0, which the bounds and outages handle
        SystemParams(p_t=0.0, p_ph=0.0)
        SystemParams(d_sr=1e200, d_rd=1e200)  # (d_sr d_rd)^-2 is 0.0

    @pytest.mark.parametrize("counts", [
        dict(b_groups=2.5, n_total=50), dict(m_per_group=20.0), dict(n_total=400.0),
        dict(b_groups=np.float64(20.0)), dict(m_per_group=True, b_groups=20, n_total=20),
    ], ids=["fractional-b", "integral-float-m", "integral-float-n", "numpy-float-b", "bool-m"])
    def test_non_integer_count_rejected(self, counts):
        # a float count once gave an analytic outage and then a TypeError in
        # the simulator; the check names the field
        name = next(iter(counts))
        with pytest.raises(ValueError, match=f"{name} must be positive and integral, got"):
            SystemParams(**counts)

    def test_numpy_integer_counts_accepted(self):
        counts = dict(m_per_group=10, b_groups=140, n_total=1400)
        assert (SystemParams(**{k: np.int64(v) for k, v in counts.items()})
                == SystemParams(**counts))


@pytest.mark.parametrize("make", [
    lambda: SystemParams(k_h=math.nan),
    lambda: SystemParams(k_g=math.nan),
    # sqrt(K/(K+1)) is NaN at K = inf, so an infinite factor would draw NaN channels
    lambda: SystemParams(k_h=math.inf),
    lambda: SystemParams(alpha=math.nan),
    lambda: SystemParams(p_t=math.nan, p_ph=0.0),
    lambda: SystemParams(p_t=0.0, p_ph=math.nan),
    lambda: EhModel("nonlinear", a=math.nan, b=1.635, c=0.826),
    lambda: EhModel("nonlinear", a=2.463, b=math.nan, c=0.826),
    lambda: EhModel("nonlinear", a=2.463, b=1.635, c=math.nan),
    lambda: GammaFit(math.nan, 1.0),
    lambda: GammaFit(1.0, math.nan),
    lambda: SelectionStrategy("SBGS", k=math.nan),
    # an infinite constant makes the nonlinear saturation or the energy fit's
    # offset NaN or infinite, and an infinite power an infinite requirement
    lambda: EhModel("nonlinear", a=math.inf, b=1.635, c=0.826),
    lambda: EhModel("nonlinear", a=2.463, b=1.635, c=math.inf),
    lambda: SystemParams(p_t=math.inf, p_ph=0.0),
    lambda: SystemParams(p_t=0.0, p_ph=math.inf),
    # the simulator ranks groups by an integer partition index
    lambda: SelectionStrategy("SBGS", k=2.0),
    # a path gain beyond a double once raised OverflowError (d_sr^-alpha) or
    # ZeroDivisionError ((d_sr d_rd)^-alpha) only when a run evaluated it
    lambda: SystemParams(d_sr=1e-200),
    lambda: SystemParams(d_sr=1e-200, d_rd=1e-200),
    lambda: SystemParams(d_sr=0.5, alpha=math.inf),
    # finite path gains, but an incident power or an SNR per unit Z beyond a
    # double: the nonlinear harvest or the PS bounds once read NaN
    lambda: SystemParams(p_tx=1e308, rho_l=1.0, d_sr=0.5),
    lambda: SystemParams(p_tx=1e297, d_sr=1e-5, d_rd=1e-5),
], ids=["k_h", "k_g", "k_h_inf", "alpha", "p_t", "p_ph", "eh_a", "eh_b", "eh_c",
        "gamma_shape", "gamma_scale", "k", "eh_a_inf", "eh_c_inf", "p_t_inf", "p_ph_inf",
        "k_float", "gain_d_sr", "gain_d_sr_d_rd", "gain_alpha_inf", "budget_incident",
        "budget_snr"])
def test_config_types_reject_nan(make):
    # every check is written so that NaN fails it, not as x < 0, which NaN passes
    with pytest.raises(ValueError):
        make()


def _params(m, spacing, wavelength=0.1):
    return SystemParams(m_per_group=m, b_groups=1, n_total=m, spacing=spacing,
                        wavelength=wavelength)


class TestCorrelationMatrix:
    def test_half_wavelength_is_identity(self):
        corr = build_correlation_matrix(_params(8, 0.05))
        np.testing.assert_allclose(corr.entries, np.eye(8), atol=1e-14)
        np.testing.assert_allclose(corr.sqrt_entries, np.eye(8), atol=1e-7)

    def test_sqrt_reproduces_matrix(self):
        corr = build_correlation_matrix(_params(12, 0.1 / 8.0))
        np.testing.assert_allclose(
            corr.sqrt_entries @ corr.sqrt_entries, corr.entries, atol=1e-12
        )

    def test_entries_follow_sinc(self):
        # sin(2 pi d / lambda) / (2 pi d / lambda)  [TRIVIAL]
        lam = 0.1
        corr = build_correlation_matrix(_params(4, lam / 8.0, lam))
        t = math.pi / 4.0
        assert corr.entries[0, 1] == pytest.approx(math.sin(t) / t, rel=1e-14)
        assert corr.entries[0, 0] == 1.0
        half = build_correlation_matrix(_params(2, lam / 2.0, lam))
        assert half.entries[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_invalid_inputs(self):
        # the matrix reads m_per_group, spacing and wavelength and checks none
        # of them: an empty group, a zero spacing or wavelength and a NaN one
        # are stopped where the parameters are built
        for bad in (dict(m=0, spacing=0.0125), dict(m=4, spacing=0.0),
                    dict(m=4, spacing=math.nan), dict(m=4, spacing=0.0125, wavelength=0.0),
                    dict(m=4, spacing=0.0125, wavelength=math.nan)):
            with pytest.raises(ValueError):
                build_correlation_matrix(_params(**bad))

    @pytest.mark.parametrize("m", [10, 20])
    @pytest.mark.parametrize("spacing", [0.05, 0.033333333, 0.025, 0.016666667, 0.0125])
    def test_entries_match_scalar_sinc(self, m, spacing):
        # at the grid of data_spacing.cfg, each entry is the scalar sin(t)/t at
        # t = 2 pi d / lambda to within 1 ulp (numpy's vectorised sin may
        # round differently from libm's)
        p = _params(m, spacing)
        entries = build_correlation_matrix(p).entries
        x = np.arange(m) * p.spacing
        for i in range(m):
            for j in range(m):
                t = 2.0 * math.pi * abs(float(x[i] - x[j])) / p.wavelength
                ref = math.sin(t) / t if t != 0.0 else 1.0
                np.testing.assert_array_max_ulp(entries[i, j], ref, maxulp=1)


class TestRicianSampling:
    def test_moments(self):
        # CN(mean, var): the real and imaginary means, the power of h - mean
        # (exponential with mean var) and the correlation of the two parts,
        # each within 4 standard errors  [DERIVED: law of h]
        rng = np.random.default_rng(7)
        mean, var, n = 1.3, 0.4, 200_000
        h = sample_rician_vector(rng.standard_normal((n, 2)), mean, var)
        se = math.sqrt(0.5 * var / n)
        assert abs(float(np.mean(h.real)) - mean) <= 4.0 * se
        assert abs(float(np.mean(h.imag))) <= 4.0 * se
        dev = h - mean
        assert abs(float(np.mean(np.abs(dev) ** 2)) - var) <= 4.0 * var / math.sqrt(n)
        assert abs(float(np.mean(dev.real * dev.imag))) <= 4.0 * 0.5 * var / math.sqrt(n)

    def test_rayleigh_limit(self):
        # a zero mean, the scattered part each h is drawn from, gives the
        # normals scaled by sqrt(var/2) bit for bit
        normals = np.random.default_rng(8).standard_normal((1000, 2))
        h = sample_rician_vector(normals.copy(), 0.0, 0.3)
        np.testing.assert_array_equal(h.real, math.sqrt(0.15) * normals[:, 0])
        np.testing.assert_array_equal(h.imag, math.sqrt(0.15) * normals[:, 1])

    def test_zero_variance_is_the_mean(self):
        h = sample_rician_vector(np.random.default_rng(9).standard_normal((50, 2)), 2.5, 0.0)
        np.testing.assert_array_equal(h, np.full(50, 2.5 + 0.0j))

    @pytest.mark.parametrize("mean, var", [
        (0.0, -1.0), (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (math.inf, 1.0),
        (-math.inf, 1.0),
    ], ids=["negative-var", "nan-var", "inf-var", "nan-mean", "inf-mean", "minus-inf-mean"])
    def test_invalid_law_rejected(self, mean, var):
        # a NaN or infinite mean or variance would draw NaN or infinite gains
        with pytest.raises(ValueError, match="finite mean and a finite variance"):
            sample_rician_vector(np.random.default_rng(0).standard_normal((4, 2)), mean, var)


class TestCorrelateComposite:
    def test_correlate_applies_sqrt(self):
        p = SystemParams(m_per_group=5, n_total=5 * 20)
        one = sample_channels(p, (3, 2), np.random.default_rng(4))
        assert one.h_sq.shape == (3, 2, 5)
        assert one.h_c_sq.shape == one.g_c_sq.shape == (3, 2)

    def test_composite_is_sum(self):
        v = np.array([1 + 1j, 2 - 1j, -0.5 + 0.25j])
        h_c_sq = abs(np.sum(v)) ** 2
        snap = ChannelSnapshot(h_sq=np.abs(v) ** 2, h_c_sq=h_c_sq, g_c_sq=4.0 * h_c_sq)
        assert snap.z == pytest.approx(4.0 * abs(np.sum(v)) ** 4)


_gain = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False)


@st.composite
def _channel_gains(draw):
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 24)))
    return (draw(arrays(np.float64, shape, elements=_gain)),
            draw(arrays(np.float64, shape[:1], elements=_gain)),
            draw(arrays(np.float64, shape[:1], elements=_gain)))


class TestChannelSnapshot:
    @settings(max_examples=200, deadline=None)
    @given(_channel_gains())
    def test_batch_reductions_match_rows(self, gains):
        # one snapshot type serves a block of trials and a single group
        h_sq, h_c_sq, g_c_sq = gains
        batch = ChannelSnapshot(h_sq=h_sq, h_c_sq=h_c_sq, g_c_sq=g_c_sq)
        # every reduction runs over the last axis, so each row, and the batch
        # indexed at it, gives the bits of its batch row
        names = ("h_sq", "sum_h_sq", "h_min_sq", "h_max_sq", "h_c_sq", "g_c_sq", "z")
        for i in range(h_sq.shape[0]):
            row = ChannelSnapshot(h_sq=h_sq[i], h_c_sq=h_c_sq[i], g_c_sq=g_c_sq[i])
            for name in names:
                np.testing.assert_array_equal(
                    getattr(batch, name)[i], getattr(row, name), err_msg=name
                )
                np.testing.assert_array_equal(
                    getattr(batch[i], name), getattr(row, name), err_msg=name
                )


class TestElementLaw:
    @pytest.mark.parametrize("k_h, spacing", [(0.0, 0.1 / 8.0), (2.0, 0.1 / 5.0)])
    def test_matches_sample_moments(self, k_h, spacing):
        # E|h_j|^2 = mu_j^2 + C_jj and Cov(|h_j|^2, |h_k|^2) = 2 mu_j mu_k C_jk + C_jk^2,
        # and the composite |h_c|^2 has the mean and variance of power_moments,
        # each within 4 standard errors
        n = 200_000
        p = SystemParams(m_per_group=8, n_total=8 * 20, k_h=k_h, spacing=spacing)
        corr = build_correlation_matrix(p)
        mus, cov = element_law(corr, p.k_h)
        snap = sample_channels(p, (n, 1), np.random.default_rng(41))[:, 0]
        power_cov = 2.0 * np.outer(mus, mus) * cov + cov ** 2
        se_mean = np.sqrt(np.diag(power_cov) / n)
        h_sq = snap.h_sq
        assert np.all(np.abs(h_sq.mean(axis=0) - (mus ** 2 + np.diag(cov))) <= 4.0 * se_mean)
        dev = h_sq - h_sq.mean(axis=0)
        for j in range(p.m_per_group):
            prod = dev[:, j, None] * dev
            est = prod.mean(axis=0)
            se = np.sqrt(np.mean((prod - est) ** 2, axis=0) / n)
            assert np.all(np.abs(est - power_cov[j]) <= 4.0 * se), j
        mean_c, var_c = power_moments(*composite_law(corr, p.k_h))
        h_c_sq = snap.h_c_sq
        dev_sq = (h_c_sq - h_c_sq.mean()) ** 2
        m2, m4 = float(dev_sq.mean()), float(np.mean(dev_sq ** 2))
        assert abs(float(h_c_sq.mean()) - mean_c) <= 4.0 * math.sqrt(m2 / n)
        assert abs(m2 - var_c) <= 4.0 * math.sqrt((m4 - m2 ** 2) / n)

    def test_composite_law_sums_the_elements(self):
        p = SystemParams(k_g=3.0)
        corr = build_correlation_matrix(p)
        mus, cov = element_law(corr, p.k_g)
        m_c, var_c = composite_law(corr, p.k_g)
        assert m_c.shape == (1,) and var_c.shape == (1, 1)
        assert m_c[0] == mus.sum() and var_c[0, 0] == cov.sum()

    @pytest.mark.parametrize("m, v", [(0.0, 1.0), (1.7, 0.3), (12.5, 4e-3)])
    def test_power_moments_of_one_by_one_law(self, m, v):
        mean, var = power_moments(np.array([m]), np.array([[v]]))
        assert mean == pytest.approx(m ** 2 + v, rel=1e-15)
        assert var == pytest.approx(2.0 * m ** 2 * v + v ** 2, rel=1e-15)


def composite_moments(p, side):
    """Mean and variance of |h_c|^2 (side 'S') or |g_c|^2 (side 'D')."""
    corr = build_correlation_matrix(p)
    return power_moments(*composite_law(corr, p.k_h if side == "S" else p.k_g))


class TestCompositeMoments:
    @pytest.mark.parametrize("spacing_frac", [0.5, 0.125])
    def test_against_monte_carlo(self, spacing_frac):
        p = SystemParams(spacing=0.1 * spacing_frac)
        mean, var = composite_moments(p, "S")
        g = sample_channels(p, (400_000, 1), np.random.default_rng(11))[:, 0].h_c_sq
        assert mean == pytest.approx(float(g.mean()), rel=0.01)
        assert var == pytest.approx(float(g.var()), rel=0.03)

    @pytest.mark.parametrize("k_g", [1.0, 0.0, 3.0])
    def test_destination_composite_moments(self, k_g):
        # g_c is drawn from its composite law, so |g_c|^2 has the closed-form
        # mean and variance to within 4 standard errors
        p = SystemParams(m_per_group=8, n_total=8 * 20, k_g=k_g)
        g = sample_channels(p, (400_000, 1), np.random.default_rng(12))[:, 0].g_c_sq
        mean, var = composite_moments(p, "D")
        dev_sq = (g - g.mean()) ** 2
        m2, m4 = float(dev_sq.mean()), float(np.mean(dev_sq ** 2))
        assert abs(float(g.mean()) - mean) <= 4.0 * math.sqrt(m2 / g.size)
        assert abs(m2 - var) <= 4.0 * math.sqrt((m4 - m2 ** 2) / g.size)

    def test_identity_closed_form(self):
        # spacing lambda/2 gives i.i.d. elements: E|h_c|^2 = mu^2 M^2 + sigma^2 M
        p = SystemParams(spacing=0.05)
        mean, _ = composite_moments(p, "S")
        m = p.m_per_group
        mu_sq = p.k_h / (p.k_h + 1.0)
        sig_sq = 1.0 / (p.k_h + 1.0)
        assert mean == pytest.approx(mu_sq * m * m + sig_sq * m, rel=1e-10)


def _per_element(p, corr, k, n, rng):
    """Composite sum_j of raw @ R^(1/2) over M drawn elements, with the LoS mean
    sqrt(K/(K+1)) inside the product: the same law, built independently of
    ``sample_channels``' mean added after the product."""
    raw = sample_rician_vector(rng.standard_normal((n, p.m_per_group, 2)),
                               math.sqrt(k / (k + 1.0)), 1.0 / (k + 1.0))
    return np.sum(raw @ corr.sqrt_entries, axis=-1)


class TestCompositeLaw:
    @pytest.mark.parametrize("k_g, k_h, spacing", [
        (1.0, 1.0, 0.1 / 8.0), (0.0, 1.0, 0.1 / 8.0), (3.0, 2.5, 0.1 / 5.0),
    ])
    def test_z_matches_per_element_reference(self, k_g, k_h, spacing):
        # the composite g_c has the law of the sum of M correlated elements
        n = 50_000
        p = SystemParams(m_per_group=10, n_total=10 * 20, k_g=k_g, k_h=k_h, spacing=spacing)
        corr = build_correlation_matrix(p)
        snap = sample_channels(p, (n, 1), np.random.default_rng(31))[:, 0]
        rng = np.random.default_rng(32)
        h_c = _per_element(p, corr, p.k_h, n, rng)
        g_c = _per_element(p, corr, p.k_g, n, rng)
        assert stats.ks_2samp(snap.g_c_sq, np.abs(g_c) ** 2).pvalue > 1e-3
        assert stats.ks_2samp(snap.z, np.abs(h_c) ** 2 * np.abs(g_c) ** 2).pvalue > 1e-3


class TestGammaFit:
    def test_moment_match_is_exact(self):
        p = SystemParams()
        fit = fit_gamma_product(p)
        mh, vh = composite_moments(p, "S")
        mg, vg = composite_moments(p, "D")
        assert fit.shape * fit.scale == pytest.approx(mh * mg, rel=1e-12)
        assert fit.shape * fit.scale ** 2 == pytest.approx(
            (mh ** 2 + vh) * (mg ** 2 + vg) - (mh * mg) ** 2, rel=1e-12
        )

    @pytest.mark.parametrize("mean, var", [(1.0, 0.5), (3.7e-9, 2.1e-20), (250.0, 4e5)])
    def test_from_moments_round_trip(self, mean, var):
        fit = GammaFit.from_moments(mean, var)
        assert fit.shape * fit.scale == pytest.approx(mean, rel=1e-14, abs=0.0)
        assert fit.shape * fit.scale ** 2 == pytest.approx(var, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("var", [0.0, -1e-3])
    def test_from_moments_degenerate(self, var):
        with pytest.raises(DegenerateFitError):
            GammaFit.from_moments(1.0, var)

    def test_cdf_matches_scipy(self):
        fit = GammaFit(shape=3.2, scale=1.7)
        for x in (0.5, 3.0, 10.0):
            assert gamma_cdf(fit, x) == pytest.approx(
                float(sp.gammainc(3.2, x / 1.7)), abs=1e-12
            )
        assert gamma_cdf(fit, 0.0) == 0.0

    def test_invalid_fit(self):
        with pytest.raises(ValueError):
            GammaFit(shape=-1.0, scale=1.0)
        with pytest.raises(ValueError):
            gamma_cdf(GammaFit(1.0, 1.0), -0.5)
