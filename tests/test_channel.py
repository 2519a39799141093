"""Correlated Rician channel construction and the Gamma law of Z."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import linalg, stats
from scipy import special as sp

from risgroups import channel
from risgroups.channel import (
    ChannelSnapshot,
    DegenerateFitError,
    GammaFit,
    SystemParams,
    build_correlation_matrix,
    channel_law,
    fit_gamma_product,
    power_moments,
    sample_channels,
    sample_columns,
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


def _sqrtm(p):
    """R^(1/2) by scipy's Schur method, independent of the eigenpairs the law
    uses; its imaginary part, where R is numerically singular, is roundoff."""
    return np.real(linalg.sqrtm(build_correlation_matrix(p)))


def _los_mean(p, k):
    """The LoS mean sqrt(K/(K+1)) R^(1/2) 1 with scipy's R^(1/2)."""
    return math.sqrt(k / (k + 1.0)) * _sqrtm(p) @ np.ones(p.m_per_group)


class TestCorrelationMatrix:
    def test_half_wavelength_is_identity(self):
        p = _params(8, 0.05)
        np.testing.assert_allclose(build_correlation_matrix(p), np.eye(8), atol=1e-14)
        # R = I: the LoS mean is sqrt(K/(K+1)) on every element
        law = channel_law(p)
        np.testing.assert_allclose(law.mus, _los_mean(p, p.k_h), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(law.mus, np.full(8, math.sqrt(0.5)), rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("m", [12, 100, 200])
    def test_sqrt_reproduces_matrix(self, m):
        # the law's mean is sqrt(K/(K+1)) R^(1/2) 1 for the principal root of R,
        # summed in a fixed order from the clamped eigenpairs, at lambda/8 where
        # R is near-singular, up to the sizes where a BLAS product rounded by
        # the thread count
        p = replace(_params(m, 0.1 / 8.0), k_h=2.0)
        np.testing.assert_allclose(channel_law(p).mus, _los_mean(p, 2.0), rtol=0.0, atol=1e-12)

    def test_entries_follow_sinc(self):
        # sin(2 pi d / lambda) / (2 pi d / lambda)  [TRIVIAL]
        lam = 0.1
        entries = build_correlation_matrix(_params(4, lam / 8.0, lam))
        assert entries.shape == (4, 4)
        t = math.pi / 4.0
        assert entries[0, 1] == pytest.approx(math.sin(t) / t, rel=1e-14)
        assert entries[0, 0] == 1.0
        half = build_correlation_matrix(_params(2, lam / 2.0, lam))
        assert half[0, 1] == pytest.approx(0.0, abs=1e-15)

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
        entries = build_correlation_matrix(p)
        x = np.arange(m) * p.spacing
        for i in range(m):
            for j in range(m):
                t = 2.0 * math.pi * abs(float(x[i] - x[j])) / p.wavelength
                ref = math.sin(t) / t if t != 0.0 else 1.0
                np.testing.assert_array_max_ulp(entries[i, j], ref, maxulp=1)


SHIPPED_SPACINGS = [0.05, 0.033333333, 0.025, 0.016666667, 0.0125]


def _factor(law):
    """F = s Lambda_r^(1/2) V_r^T with s = sqrt(cov[0, 0]/2): h = mus + u @ F."""
    r = law.rank
    scale = math.sqrt(0.5 * law.cov[0, 0]) * np.sqrt(law.eigenvalues[:r])
    return scale[:, None] * law.eigenvectors[:, :r].T


class TestEigenDraw:
    @pytest.mark.parametrize("m", [10, 20])
    @pytest.mark.parametrize("spacing", SHIPPED_SPACINGS)
    def test_factor_reproduces_the_covariance(self, m, spacing):
        # the r kept eigen-directions carry the law to within 1e-12 tr R: u @ F
        # has the per-dimension covariance F^T F of cov / 2
        p = _params(m, spacing)
        law = channel_law(p)
        factor = _factor(law)
        trace = np.trace(build_correlation_matrix(p))
        assert np.max(np.abs(factor.T @ factor - 0.5 * law.cov)) <= 1e-12 * trace
        assert np.all(np.diff(law.eigenvalues) <= 0.0) and law.eigenvalues[-1] >= 0.0
        if spacing == 0.05:
            assert law.rank == m  # R = I keeps every direction

    def test_ranks_at_lambda_over_8(self):
        # the line aperture's degrees of freedom: 13 of 20 and 9 of 10
        assert [channel_law(_params(m, 0.0125)).rank for m in (20, 10)] == [13, 9]

    @pytest.mark.parametrize("k_h, spacing", [(1.0, 0.0125), (2.0, 0.025), (0.5, 0.05)])
    def test_coordinate_sums_equal_the_element_sums(self, k_h, spacing):
        # the coordinates' power sum and composite are those of the per-element
        # gains drawn from the same normals
        p = replace(_params(20, spacing), k_h=k_h)
        law = channel_law(p)
        n, r = 3000, law.rank
        snap = sample_channels(p, (n, 1), np.random.default_rng(5), per_element=True)[:, 0]
        noise = np.random.default_rng(5).standard_normal((n, r + 1, 2))
        h = (noise[:, :r, 0] + 1j * noise[:, :r, 1]) @ _factor(law) + law.mus
        np.testing.assert_allclose(snap.h_sq, np.abs(h) ** 2, rtol=1e-12)
        np.testing.assert_allclose(snap.sum_h_sq, np.sum(np.abs(h) ** 2, axis=-1), rtol=1e-12)
        np.testing.assert_allclose(snap.sum_h_sq, np.sum(snap.h_sq, axis=-1), rtol=1e-12)
        np.testing.assert_allclose(snap.h_c_sq, np.abs(np.sum(h, axis=-1)) ** 2, rtol=1e-12)

    @pytest.mark.parametrize("m", [10, 20])
    def test_per_element_gains_leave_the_rest_unchanged(self, m):
        # a point's z and power sum never depend on whether a nonlinear point
        # sharing its law made the block form per-element gains
        p = SystemParams(m_per_group=m, n_total=m * 20)
        lean = sample_channels(p, (500, 20), np.random.default_rng(6))
        full = sample_channels(p, (500, 20), np.random.default_rng(6), per_element=True)
        for name in ("z", "sum_h_sq", "h_c_sq", "g_c_sq"):
            np.testing.assert_array_equal(getattr(lean, name), getattr(full, name), err_msg=name)

    def test_draw_reads_its_parameters_only_through_the_law(self, monkeypatch):
        # sample_channels reads no SystemParams field itself: handed the law of
        # q for the parameters p, it draws q's bits, per-element gains included
        p = SystemParams()
        q = SystemParams(m_per_group=10, b_groups=40, n_total=400, spacing=0.02,
                         wavelength=0.12, k_h=2.5, k_g=0.5, p_tx=3.0, d_sr=9.0)
        want = sample_channels(q, (300, 3), np.random.default_rng(8), per_element=True)
        law = channel_law(q)
        monkeypatch.setattr(channel, "channel_law", lambda params: law)
        got = sample_channels(p, (300, 3), np.random.default_rng(8), per_element=True)
        assert got.h_sq.shape == (300, 3, 10)
        for name in ("h_sq", "sum_h_sq", "h_c_sq", "g_c_sq"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    @pytest.mark.parametrize("per_element", [False, True])
    def test_block_stacks_the_columns(self, per_element):
        # sample_channels stores the generator's columns, group-major, bit for
        # bit; every column's per-element gains are the one reused buffer
        p = SystemParams(m_per_group=10, n_total=10 * 20)
        block = sample_channels(p, (300, 20), np.random.default_rng(9), per_element)
        buffers = []
        for j, column in enumerate(sample_columns(p, 300, 20, np.random.default_rng(9),
                                                  per_element)):
            assert column.h_c_sq.shape == (300,)
            for name in ("h_sq", "sum_h_sq", "h_c_sq", "g_c_sq"):
                if per_element or name != "h_sq":
                    np.testing.assert_array_equal(getattr(column, name),
                                                  getattr(block, name)[:, j], err_msg=name)
            buffers.append(column.h_sq)
        assert len(buffers) == 20
        if per_element:
            assert all(h is buffers[0] for h in buffers)
        else:
            assert block.h_sq is None and buffers == [None] * 20

    def test_block_of_no_groups_rejected(self):
        with pytest.raises(ValueError, match="B must be positive"):
            sample_channels(SystemParams(), (3, 0), np.random.default_rng(9))

    @pytest.mark.parametrize("k_h, spacing", [(1.0, 0.0125), (0.0, 0.025), (3.0, 0.05)])
    def test_drawn_moments_match_the_law(self, k_h, spacing):
        # drawn without per-element gains, the power sum has the mean and
        # variance of power_moments over the law's elements, and the composite
        # those over their sum, each within 4 standard errors
        n = 200_000
        p = replace(_params(20, spacing), k_h=k_h)
        law = channel_law(p)
        snap = sample_channels(p, (n, 1), np.random.default_rng(43))[:, 0]
        for drawn, moments in ((snap.sum_h_sq, (law.mus, law.cov)),
                               (snap.h_c_sq, (law.mus.sum(keepdims=True),
                                              law.cov.sum(keepdims=True)))):
            mean, var = power_moments(*moments)
            dev_sq = (drawn - drawn.mean()) ** 2
            m2, m4 = float(dev_sq.mean()), float(np.mean(dev_sq ** 2))
            assert abs(float(drawn.mean()) - mean) <= 4.0 * math.sqrt(m2 / n)
            assert abs(m2 - var) <= 4.0 * math.sqrt((m4 - m2 ** 2) / n)


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
        # the per-element gains are formed only when asked for
        p = SystemParams(m_per_group=5, n_total=5 * 20)
        one = sample_channels(p, (3, 2), np.random.default_rng(4), per_element=True)
        assert one.h_sq.shape == (3, 2, 5)
        assert one.h_c_sq.shape == one.g_c_sq.shape == one.sum_h_sq.shape == (3, 2)
        lean = sample_channels(p, (3, 2), np.random.default_rng(4))
        assert lean.h_sq is None
        # a reader of the per-element gains says how to get them, rather than
        # failing on None deep inside a bound
        for name in ("h_min_sq", "h_max_sq"):
            with pytest.raises(ValueError, match="per_element=True"):
                getattr(lean[0, 0], name)

    def test_composite_is_sum(self):
        v = np.array([1 + 1j, 2 - 1j, -0.5 + 0.25j])
        h_c_sq = abs(np.sum(v)) ** 2
        snap = ChannelSnapshot(h_c_sq=h_c_sq, g_c_sq=4.0 * h_c_sq,
                               sum_h_sq=float(np.sum(np.abs(v) ** 2)), h_sq=np.abs(v) ** 2)
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
        batch = ChannelSnapshot(h_c_sq=h_c_sq, g_c_sq=g_c_sq, sum_h_sq=np.sum(h_sq, axis=-1),
                                h_sq=h_sq)
        # every reduction runs over the last axis, so each row, the batch
        # indexed at it and its trial of plain floats (the extremes reduced
        # once over the batch) give the bits of its batch row
        names = ("h_sq", "sum_h_sq", "h_min_sq", "h_max_sq", "h_c_sq", "g_c_sq", "z")
        trials = list(batch.trials())
        assert len(trials) == h_sq.shape[0]
        for i, trial in enumerate(trials):
            row = ChannelSnapshot(h_c_sq=h_c_sq[i], g_c_sq=g_c_sq[i],
                                  sum_h_sq=np.sum(h_sq[i], axis=-1), h_sq=h_sq[i])
            for name in names:
                np.testing.assert_array_equal(
                    getattr(batch, name)[i], getattr(row, name), err_msg=name
                )
                np.testing.assert_array_equal(
                    getattr(batch[i], name), getattr(row, name), err_msg=name
                )
                np.testing.assert_array_equal(getattr(trial, name), getattr(row, name),
                                              err_msg=name)
                assert name == "h_sq" or type(getattr(trial, name)) is float, name
            assert np.shares_memory(trial.h_sq, h_sq)


class TestElementLaw:
    @pytest.mark.parametrize("k_h, spacing", [(0.0, 0.1 / 8.0), (2.0, 0.1 / 5.0)])
    def test_matches_sample_moments(self, k_h, spacing):
        # E|h_j|^2 = mu_j^2 + C_jj and Cov(|h_j|^2, |h_k|^2) = 2 mu_j mu_k C_jk + C_jk^2,
        # and the composite |h_c|^2 has the mean and variance of power_moments,
        # each within 4 standard errors
        n = 200_000
        p = SystemParams(m_per_group=8, n_total=8 * 20, k_h=k_h, spacing=spacing)
        law = channel_law(p)
        mus, cov = law.mus, law.cov
        snap = sample_channels(p, (n, 1), np.random.default_rng(41), per_element=True)[:, 0]
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
        mean_c, var_c = power_moments(mus.sum(keepdims=True), cov.sum(keepdims=True))
        h_c_sq = snap.h_c_sq
        dev_sq = (h_c_sq - h_c_sq.mean()) ** 2
        m2, m4 = float(dev_sq.mean()), float(np.mean(dev_sq ** 2))
        assert abs(float(h_c_sq.mean()) - mean_c) <= 4.0 * math.sqrt(m2 / n)
        assert abs(m2 - var_c) <= 4.0 * math.sqrt((m4 - m2 ** 2) / n)

    def test_composite_law_sums_the_elements(self):
        # g's composite law is the 1x1 sum of its element law, which is h's
        # where the two Rician factors are equal
        law = channel_law(SystemParams(k_h=3.0, k_g=3.0))
        m_c, var_c = law.g_c
        assert m_c.shape == (1,) and var_c.shape == (1, 1)
        assert m_c[0] == law.mus.sum() and var_c[0, 0] == law.cov.sum()
        p = SystemParams(k_g=3.0)
        m_c, var_c = channel_law(p).g_c
        assert m_c[0] == pytest.approx(_los_mean(p, 3.0).sum(), rel=1e-12)
        assert var_c[0, 0] == np.sum(build_correlation_matrix(p) / 4.0)

    @pytest.mark.parametrize("m, v", [(0.0, 1.0), (1.7, 0.3), (12.5, 4e-3)])
    def test_power_moments_of_one_by_one_law(self, m, v):
        mean, var = power_moments(np.array([m]), np.array([[v]]))
        assert mean == pytest.approx(m ** 2 + v, rel=1e-15)
        assert var == pytest.approx(2.0 * m ** 2 * v + v ** 2, rel=1e-15)


def composite_moments(p, side):
    """Mean and variance of |h_c|^2 (side 'S') or |g_c|^2 (side 'D')."""
    law = channel_law(p)
    if side == "S":
        return power_moments(law.mus.sum(keepdims=True), law.cov.sum(keepdims=True))
    return power_moments(*law.g_c)


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


def _per_element(p, k, n, rng):
    """Composite sum_j of raw @ R^(1/2) over M drawn elements, with scipy's
    R^(1/2) and the LoS mean sqrt(K/(K+1)) inside the product: the same law,
    built independently of ``channel_law`` and ``sample_channels``."""
    raw = sample_rician_vector(rng.standard_normal((n, p.m_per_group, 2)),
                               math.sqrt(k / (k + 1.0)), 1.0 / (k + 1.0))
    return np.sum(raw @ _sqrtm(p), axis=-1)


class TestCompositeLaw:
    @pytest.mark.parametrize("k_g, k_h, spacing", [
        (1.0, 1.0, 0.1 / 8.0), (0.0, 1.0, 0.1 / 8.0), (3.0, 2.5, 0.1 / 5.0),
    ])
    def test_z_matches_per_element_reference(self, k_g, k_h, spacing):
        # the composite g_c has the law of the sum of M correlated elements
        n = 50_000
        p = SystemParams(m_per_group=10, n_total=10 * 20, k_g=k_g, k_h=k_h, spacing=spacing)
        snap = sample_channels(p, (n, 1), np.random.default_rng(31))[:, 0]
        rng = np.random.default_rng(32)
        h_c = _per_element(p, p.k_h, n, rng)
        g_c = _per_element(p, p.k_g, n, rng)
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
            assert fit.cdf(x) == pytest.approx(
                float(sp.gammainc(3.2, x / 1.7)), abs=1e-12
            )
        assert fit.cdf(0.0) == 0.0

    def test_invalid_fit(self):
        with pytest.raises(ValueError):
            GammaFit(shape=-1.0, scale=1.0)
        with pytest.raises(ValueError):
            GammaFit(1.0, 1.0).cdf(-0.5)
