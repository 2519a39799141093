"""Selection strategies, order-statistics formulas, and energy-distribution fits."""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate, special

from risgroups.channel import (
    ChannelSnapshot,
    GammaFit,
    SystemParams,
    channel_law,
    fit_gamma_product,
    gamma_cdf,
    sample_channels,
)
from risgroups.energy import NONLINEAR_DEFAULT, EhModel, harvest_rate
from risgroups.selection import (
    _Y_NODES,
    _Y_STEP,
    DegenerateDist,
    RisMode,
    SelectionStrategy,
    _recip_moments,
    data_threshold,
    data_wiring,
    eh_wiring,
    fit_energy_distribution,
    mean_snr_scale,
    outage_ebgs,
    outage_rgs,
    outage_sbgs,
)
from risgroups.cli import load_scenario
from risgroups import sim
from risgroups.sim import TrialConfig, _kth_largest_index, block_rng

ROOT = Path(__file__).resolve().parent.parent


class TestModeAndStrategy:
    def test_data_wiring(self):
        p = SystemParams()
        psi = mean_snr_scale(p)
        assert data_wiring(p, RisMode("PS", rho=0.3)) == ((1.0 - 0.3) * psi, 1.0)
        assert data_wiring(p, RisMode("TS", zeta=0.25)) == (psi, 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            RisMode("XS")
        with pytest.raises(ValueError):
            RisMode("PS", rho=1.5)
        with pytest.raises(ValueError):
            SelectionStrategy("BEST")
        with pytest.raises(ValueError):
            SelectionStrategy("RGS", k=0)
        # a fractional k would get a closed form from the incomplete beta,
        # while the simulator cannot rank a group 2.5th
        with pytest.raises(ValueError, match="2.5"):
            SelectionStrategy("SBGS", k=2.5)
        # a bool is a flag, not a selection order
        with pytest.raises(ValueError, match="k must be positive and integral, got True"):
            SelectionStrategy("SBGS", k=True)

    @pytest.mark.parametrize("scheme, k, b, order", [
        ("SBGS", 1, 20, (20, 1)), ("SBGS", 6, 140, (140, 6)),
        ("EBGS", 2, 8, (8, 2)), ("EBGS", 1, 1, (1, 1)),
        # RGS ignores the channels, so its pick is the best of group 0 alone
        ("RGS", 1, 20, (1, 1)), ("RGS", 3, 20, (1, 1)), ("RGS", 1, 1, (1, 1)),
    ])
    def test_order_is_the_set_and_rank_selected(self, scheme, k, b, order):
        assert SelectionStrategy(scheme, k=k).order(b) == order


class TestDataThreshold:
    @pytest.mark.parametrize("mode", [RisMode("PS", rho=0.5), RisMode("TS", zeta=0.5)],
                             ids=["PS", "TS"])
    def test_failures_match_rate_form(self, mode):
        # on one sweep block's draw, at each data_snr_sbgs point, the groups
        # below the Z threshold are those whose rate misses r_req
        sc = load_scenario(str(ROOT / "scenarios" / "data_snr_sbgs.cfg"))
        z = sample_channels(sc.params, (4096, sc.params.b_groups), block_rng(5, 0)).z
        counts = []
        for p, c in sc.points:
            snr_per_z, f = data_wiring(p, mode)
            rate = f * np.log2(1.0 + snr_per_z * z)
            counts.append(int(np.sum(z < data_threshold(p, mode, c.r_req))))
            assert counts[-1] == int(np.sum(rate < c.r_req))
        assert any(0 < n < z.size for n in counts)

    def test_edges(self):
        p = SystemParams()
        assert data_threshold(p, RisMode("PS", rho=0.5), 0.0) == 0.0
        for mode in (RisMode("PS", rho=1.0), RisMode("TS", zeta=1.0)):
            assert data_threshold(p, mode, 0.0) == 0.0
            assert data_threshold(p, mode, 1.0) == math.inf
        for r_req in (-1.0, math.nan):
            with pytest.raises(ValueError, match="required rate"):
                data_threshold(p, RisMode("PS"), r_req)


class TestKthBest:
    def test_index_selection(self):
        values = np.random.default_rng(3).random((50, 9))
        rows = np.arange(50)
        for k in range(1, 10):
            picked = values[rows, _kth_largest_index(values, k)]
            np.testing.assert_array_equal(picked, np.sort(values, axis=1)[:, -k])


@st.composite
def _ranked_stats(draw):
    """An (n, B) statistic from a few integers, so that groups tie, in either
    memory layout, and a threshold equal to one of its values, 0 or inf."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 8)))
    stat = draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])))
    if draw(st.booleans()):
        stat = np.ascontiguousarray(stat.T).T  # group-major, as a drawn block
    return stat, draw(st.sampled_from([0.0, math.inf, *np.unique(stat).tolist()]))


class TestRankedCount:
    @settings(max_examples=200, deadline=None)
    @given(_ranked_stats())
    def test_count_equals_kth_largest_selection(self, case):
        # where a scheme ranks by the point's own metric, a trial fails when
        # fewer than k groups reach t: the count of its k-th largest below t
        stat, t = case
        n, b = stat.shape
        p = SystemParams(m_per_group=1, b_groups=b, n_total=b)
        rows = np.arange(n)
        # the block's columns carry the statistic as z (times a unit g_c) and as energy
        columns = (lambda params, n, b, rng, per_element: (
            ChannelSnapshot(h_c_sq=stat[:, j], g_c_sq=np.ones(n), sum_h_sq=stat[:, j])
            for j in range(b)))
        with mock.patch.object(sim, "sample_columns", columns), \
                mock.patch.object(sim, "_group_energy", lambda *args: args[-1].sum_h_sq), \
                mock.patch.object(sim, "data_threshold", return_value=t):
            for k in range(1, b + 1):
                expected = int(np.count_nonzero(stat[rows, _kth_largest_index(stat, k)] < t))
                for scheme, metric in (("SBGS", "data"), ("EBGS", "energy")):
                    c = TrialConfig(n_trials=n, strategy=SelectionStrategy(scheme, k=k),
                                    metric=metric, e_req=t)
                    assert sim._block_failures([(p, c)], n, 0) == [expected]


class TestClosedFormOutage:
    def test_sbgs_matches_binomial_sum(self):
        # fewer than k of n exceed the threshold  [DERIVED: binomial tail]
        f, n = 0.35, 9
        for k in range(1, n + 1):
            direct = sum(
                math.comb(n, j) * (1.0 - f) ** j * f ** (n - j) for j in range(k)
            )
            assert outage_sbgs(f, n, k) == pytest.approx(direct, rel=1e-12)

    @given(st.floats(0.0, 1.0))
    def test_one_group_set_is_the_cdf_bit_for_bit(self, f):
        # I_F(1, 1) = F: RGS's closed form is the single-group CDF as it is
        assert outage_sbgs(f, 1, 1) == f
        assert outage_ebgs(f, 1, 1) == f

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
        expected = fit.cdf(
            (2.0 ** r - 1.0) / ((1.0 - mode.rho) * mean_snr_scale(p))
        )
        assert outage_rgs(p, mode, fit, r) == pytest.approx(expected, rel=1e-12)

    def test_rgs_ts_threshold_uses_rate_fraction(self):
        p = SystemParams()
        fit = fit_gamma_product(p)
        mode = RisMode("TS", zeta=0.5)
        r = 10.0
        expected = fit.cdf((2.0 ** (r / 0.5) - 1.0) / mean_snr_scale(p))
        assert outage_rgs(p, mode, fit, r) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "scenarios").glob("data_*.cfg")))
    def test_gamma_cdf_is_the_fit_cdf(self, name):
        # the free gamma_cdf that the benchmark calls is GammaFit.cdf, bit for bit
        sc = load_scenario(str(ROOT / "scenarios" / f"{name}.cfg"))
        for params, cfg in sc.points:
            fit = fit_gamma_product(params)
            mean = fit.shape * fit.scale
            for x in (0.0, data_threshold(params, cfg.mode, cfg.r_req), 0.5 * mean, 3.0 * mean):
                assert gamma_cdf(fit, x) == fit.cdf(x)

    def test_degenerate_modes(self):
        p = SystemParams()
        fit = fit_gamma_product(p)
        for mode in (RisMode("PS", rho=1.0), RisMode("TS", zeta=1.0)):
            assert outage_rgs(p, mode, fit, 1.0) == 1.0
            # a zero rate is met even without a data phase
            assert outage_rgs(p, mode, fit, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            outage_sbgs(1.2, 5, 1)
        with pytest.raises(ValueError, match=r"k=6 out of range for set size 5"):
            outage_sbgs(0.5, 5, 6)
        # the incomplete beta would give a fractional order a value
        with pytest.raises(ValueError, match="k must be positive and integral, got 1.5"):
            outage_sbgs(0.5, 20, 1.5)
        with pytest.raises(ValueError, match="set_size must be positive and integral, got 20.5"):
            outage_ebgs(0.5, 20.5, 2)


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
    snap = sample_channels(params, (n, 1), np.random.default_rng(seed), per_element=True)[:, 0]
    dur, w_p = eh_wiring(params, mode)
    return dur * harvest_rate(eh, w_p * snap.h_sq).sum(axis=1)


def _t_moments(dist):
    """Mean and variance of the fitted inverse-Gamma T, whose reciprocal is Gamma."""
    shape, scale = dist.recip.shape, dist.recip.scale
    mean_t = 1.0 / (scale * (shape - 1.0))
    return mean_t, mean_t ** 2 / (shape - 2.0)


def _check_nonlinear_moments(p_tx):
    p = SystemParams(rho_l=0.1, d_sr=2.0, p_tx=p_tx)
    mode = RisMode("PS", rho=0.5)
    dist = fit_energy_distribution(p, mode, NONLINEAR_DEFAULT)
    e = _simulate_group_energy(p, mode, NONLINEAR_DEFAULT, 300_000, seed=22)
    # E = offset - slope * T with T ~ InvGamma(shape, scale)
    mean_t, var_t = _t_moments(dist)
    assert dist.offset - dist.slope * mean_t == pytest.approx(float(e.mean()), rel=0.01)
    assert dist.slope ** 2 * var_t == pytest.approx(float(e.var()), rel=0.05)


class TestEnergyDistributionFit:
    def test_linear_moments_match_monte_carlo(self):
        p = SystemParams()
        mode = RisMode("PS", rho=0.5)
        dist = fit_energy_distribution(p, mode, EhModel())
        e = _simulate_group_energy(p, mode, EhModel(), 300_000, seed=21)
        assert dist.shape * dist.scale == pytest.approx(float(e.mean()), rel=0.01)
        assert dist.shape * dist.scale ** 2 == pytest.approx(float(e.var()), rel=0.05, abs=0.0)

    def test_linear_fit_is_a_gamma_fit(self):
        p = SystemParams()
        dist = fit_energy_distribution(p, RisMode("TS", zeta=0.4), EhModel())
        assert isinstance(dist, GammaFit)
        mean = dist.shape * dist.scale
        for x in (0.0, 0.5 * mean, mean, 3.0 * mean):
            assert dist.cdf(x) == gamma_cdf(dist, x)

    def test_nonlinear_moments_match_monte_carlo(self):
        # operate the rectifier around its knee so the reciprocal term varies
        _check_nonlinear_moments(p_tx=20.0)

    def test_nonlinear_moments_match_monte_carlo_saturated(self):
        # the rectifier saturates: w_p s^2 / c ~ 15
        _check_nonlinear_moments(p_tx=2000.0)

    @pytest.mark.parametrize("p_tx", [20.0, 2000.0])
    @pytest.mark.parametrize("k_h", [0.0, 1.0, 3.0])
    def test_nonlinear_single_element_matches_quadrature(self, k_h, p_tx):
        # one element: T = 1/(w_p |h|^2 + c), and |h|^2 is a scaled
        # noncentral chi-square with 2 degrees of freedom
        p = SystemParams(rho_l=0.1, d_sr=2.0, p_tx=p_tx, k_h=k_h,
                         m_per_group=1, b_groups=400)
        mode = RisMode("PS", rho=0.5)
        _, w_p = eh_wiring(p, mode)
        c = NONLINEAR_DEFAULT.c
        mu, s_sq = math.sqrt(k_h / (k_h + 1.0)), 1.0 / (k_h + 1.0)

        def pdf(x):
            r = math.sqrt(x)
            return (math.exp(-(r - mu) ** 2 / s_sq)
                    * special.i0e(2.0 * mu * r / s_sq) / s_sq)

        def moment(n):
            return integrate.quad(lambda x: pdf(x) / (w_p * x + c) ** n, 0.0,
                                  math.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        m1, m2 = moment(1), moment(2)
        mean_t, var_t = _t_moments(
            fit_energy_distribution(p, mode, NONLINEAR_DEFAULT))
        assert mean_t == pytest.approx(m1, rel=1e-9, abs=0.0)
        assert var_t == pytest.approx(m2 - m1 ** 2, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("p_tx", [1e10, 1e16, 1e160])
    @pytest.mark.parametrize("k_h", [0.0, 3.0])
    def test_nonlinear_single_element_under_strong_drive(self, k_h, p_tx):
        # E[T] ~ ln(w_p)/w_p takes the Laplace integrand over every y from
        # ln(c/w_p) to 0, and var T ~ 1/(w_p c) its region where w_p |h|^2 ~ c;
        # the quadrature runs in ln |h|^2, which resolves |h|^2 ~ c/w_p
        law = channel_law(SystemParams(k_h=k_h, m_per_group=1, b_groups=400))
        (mu,), ((s_sq,),) = law.mus, law.cov
        w_p, c = 0.5 * p_tx, NONLINEAR_DEFAULT.c

        def moment(n):
            def integrand(t):  # |h|^2 = e^t
                x = math.exp(t)
                pdf = (math.exp(-(math.sqrt(x) - mu) ** 2 / s_sq)
                       * special.i0e(2.0 * mu * math.sqrt(x) / s_sq) / s_sq)
                return pdf * x * (1.0 / (w_p * x + c)) ** n

            edges = np.linspace(math.log(c / w_p) - 40.0, math.log(60.0), 80)
            return sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13)[0]
                       for lo, hi in zip(edges[:-1], edges[1:]))

        m1, m2 = moment(1), moment(2)
        mean_t, var_t = _recip_moments(law.mus, law.cov, w_p, c)
        assert mean_t == pytest.approx(m1, rel=1e-9, abs=0.0)
        assert var_t == pytest.approx(m2 - m1 ** 2, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("p_tx", [1e-3, 1e-2])
    def test_nonlinear_variance_under_weak_drive(self, p_tx):
        # T ~ M/c - (w_p/c^2) sum_j |h_j|^2 as w_p -> 0, so var T tends to
        # (w_p/c^2)^2 times the linear law's variance, with a relative error
        # that falls in proportion to w_p (1e-8 and 1e-7 here), while
        # var T / E[T]^2 is only 1e-19 to 1e-17
        p = SystemParams(p_tx=p_tx)
        mode = RisMode("PS", rho=0.5)
        dur, w_p = eh_wiring(p, mode)
        c = NONLINEAR_DEFAULT.c
        linear = fit_energy_distribution(p, mode, EhModel())
        var_s = linear.shape * linear.scale ** 2 / (dur * w_p) ** 2
        _, var_t = _t_moments(fit_energy_distribution(p, mode, NONLINEAR_DEFAULT))
        assert var_t == pytest.approx((w_p / c ** 2) ** 2 * var_s, rel=1e-6, abs=0.0)

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
        dist = fit_energy_distribution(p, RisMode("PS", rho=0.0), EhModel())
        assert isinstance(dist, DegenerateDist)
        # P(E < x): zero energy meets a zero need and misses any positive one
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(1e-300) == 1.0
        assert dist.cdf(-1.0) == 0.0

    def test_cdf_support_boundaries(self):
        p = SystemParams(rho_l=0.1, d_sr=2.0, p_tx=20.0)
        dist = fit_energy_distribution(p, RisMode("PS", rho=0.5), NONLINEAR_DEFAULT)
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(dist.offset) == 1.0
        mid = dist.offset / 2.0
        assert 0.0 <= dist.cdf(mid) <= 1.0


def _reference_recip_moments(mus, cov, w_p, c):
    """Mean and variance of T = sum_j 1/(w_p |h_j|^2 + c), h ~ CN(mus, cov):
    the Laplace-transform integrals, the mean on nodes reaching 90 below the
    lowest of ``_Y_NODES`` (its integrand is flat in y wherever w_p u |h_j|^2
    is large), the variance on every node, pair (j, k) by pair."""

    def transforms(y):
        a = w_p * np.exp(y) / c
        d = 1.0 + cov[0, 0] * a
        q = [m ** 2 * a / d for m in mus]
        return a, d, q, [np.exp(-q_j) / d for q_j in q], _Y_STEP * np.exp(y - np.exp(y)) / c

    *_, lap, wt = transforms(np.arange(_Y_NODES[0] - 90.0, 3.7, _Y_STEP))
    mean = sum(float(lap_j @ wt) for lap_j in lap)
    a, d, q, lap, wt = transforms(_Y_NODES)
    ab, dd = np.outer(a, a), np.outer(d, d)
    var = 0.0
    for j in range(len(mus)):
        for k in range(len(mus)):
            cjk = cov[j, k]
            r = cjk ** 2 * ab / dd
            dq = (ab * cjk * (cjk * (q[j][:, None] + q[k][None, :]) - 2.0 * mus[j] * mus[k])
                  / (dd * (1.0 - r)))
            var += wt @ (np.outer(lap[j], lap[k]) * np.expm1(-dq - np.log1p(-r))) @ wt
    return mean, var


class TestRecipMoments:
    # the covariance drops the nodes below min(0, ln(c / (w_p lambda))) - 20;
    # weak drive (1e-3 W) needs the min(0, .) and strong drive (2e4 W) keeps
    # nodes far below y = -20
    @pytest.mark.parametrize("p_tx, m, k_h, per_wavelength, kind", [
        (1e-3, 1, 0.0, 16, "PS"),
        (1e-3, 20, 10.0, 2, "TS"),
        (1e-3, 40, 0.0, 16, "TS"),
        (20.0, 1, 10.0, 2, "TS"),
        (20.0, 20, 0.0, 16, "PS"),
        (20.0, 40, 10.0, 2, "PS"),
        (2e4, 1, 0.0, 2, "PS"),
        (2e4, 20, 10.0, 16, "TS"),
        (2e4, 40, 0.0, 2, "TS"),
    ])
    def test_matches_every_pair_on_every_node(self, p_tx, m, k_h, per_wavelength, kind):
        p = SystemParams(rho_l=0.1, d_sr=2.0, p_tx=p_tx, k_h=k_h, m_per_group=m,
                         b_groups=400 // m, spacing=0.1 / per_wavelength)
        _, w_p = eh_wiring(p, RisMode(kind, rho=0.5, zeta=0.4))
        law = channel_law(p)
        mus, cov = law.mus, law.cov
        c = NONLINEAR_DEFAULT.c
        mean_t, var_t = _recip_moments(mus, cov, w_p, c)
        ref_mean, ref_var = _reference_recip_moments(mus, cov, w_p, c)
        # abs=0: var_t is as small as 1e-19 at 1e-3 W
        assert mean_t == pytest.approx(ref_mean, rel=1e-13, abs=0.0)
        assert var_t == pytest.approx(ref_var, rel=1e-13, abs=0.0)
