"""Gumbel asymptotics: limit CDFs, normalizing constants, domain checks."""

import math

import numpy as np
import pytest
from scipy import special, stats

from risgroups.evt import (
    BisectionError,
    EvtConstants,
    check_gumbel_domain,
    kth_limit_cdf,
    normalizing_constants,
    outage_evt,
    _quantile_bisect,
)


def gumbel_cdf(x):
    """Standard Gumbel CDF exp(-exp(-x)), the k = 1 limit."""
    return math.exp(-math.exp(-x))


class TestGumbelCdf:
    def test_reference_values(self):
        assert kth_limit_cdf(0.0, 1) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert kth_limit_cdf(10.0, 1) == pytest.approx(1.0, abs=1e-4)
        assert kth_limit_cdf(-3.0, 1) == pytest.approx(math.exp(-math.exp(3.0)), rel=1e-12)


class TestKthLimitCdf:
    def test_k1_reduces_to_gumbel(self):
        for x in (-1.0, 0.0, 2.0):
            assert kth_limit_cdf(x, 1) == pytest.approx(gumbel_cdf(x), rel=1e-14)

    def test_truncated_poisson_form(self):
        # H(x) sum_{j<k} e^{-jx}/j!  [TRIVIAL]
        x, k = 0.5, 4
        expected = gumbel_cdf(x) * sum(
            math.exp(-j * x) / math.factorial(j) for j in range(k)
        )
        assert kth_limit_cdf(x, k) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_upper_incomplete_gamma(self, k):
        # P(fewer than k of Poisson(e^-x) points) = Q(k, e^-x)
        for x in np.linspace(-6.5, 40.0, 94):
            expected = special.gammaincc(k, math.exp(-x))
            assert kth_limit_cdf(float(x), k) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("x", [-700.0, -710.0, -1e4])
    def test_far_left_tail_is_zero(self, x):
        # e^-x overflows below x = -709.78, where 0 * inf would give NaN
        assert kth_limit_cdf(x, 6) == 0.0
        assert kth_limit_cdf(x, 1) == 0.0

    def test_right_end_is_one(self):
        assert kth_limit_cdf(math.inf, 1) == 1.0
        assert kth_limit_cdf(math.inf, 6) == 1.0

    def test_monotone_in_k(self):
        vals = [kth_limit_cdf(0.3, k) for k in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kth_limit_cdf(0.0, 0)
        # the limit sums range(1, k) terms, so the order must be whole
        with pytest.raises(ValueError, match="k must be positive and integral, got 2.5"):
            kth_limit_cdf(0.0, 2.5)
        with pytest.raises(ValueError, match="k must be positive and integral, got 2.5"):
            outage_evt(1.0, 2.5, EvtConstants(0.0, 1.0))


class TestQuantileBisect:
    def test_exponential_quantiles(self):
        cdf = lambda x: 1.0 - math.exp(-x) if x > 0 else 0.0
        for p in (0.1, 0.5, 0.95, 0.999):
            assert _quantile_bisect(cdf, p) == pytest.approx(
                -math.log(1.0 - p), rel=1e-9
            )

    def test_quantile_below_zero_rejected(self):
        # the group laws live on [0, inf); a quantile below 0 is a caller error
        cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        with pytest.raises(ValueError, match="below 0"):
            _quantile_bisect(cdf, 0.2)
        assert _quantile_bisect(cdf, 0.8) == pytest.approx(
            float(stats.norm.ppf(0.8)), rel=1e-8
        )

    @pytest.mark.parametrize("scale", [10.0 ** e for e in range(-20, 7)])
    def test_stopping_rule_is_relative(self, scale):
        cdf = lambda x: -math.expm1(-x / scale) if x > 0 else 0.0
        assert _quantile_bisect(cdf, 0.5) == pytest.approx(
            scale * math.log(2.0), rel=1e-12, abs=0.0
        )

    def test_quantile_at_zero_terminates(self):
        # uniform on [-1, 1]: the median is exactly 0, where no relative width is reached
        cdf = lambda x: min(max(0.5 * (x + 1.0), 0.0), 1.0)
        assert _quantile_bisect(cdf, 0.5) == 0.0


class TestNormalizingConstants:
    def test_exponential_closed_form(self):
        # exponential tail: location = ln B, scale = 1  [DERIVED]
        cdf = lambda x: 1.0 - math.exp(-x) if x > 0 else 0.0
        pdf = lambda x: math.exp(-x) if x > 0 else 0.0
        con = normalizing_constants(cdf, pdf, 50)
        assert con.location == pytest.approx(math.log(50.0), rel=1e-9)
        assert con.scale == pytest.approx(1.0, rel=1e-9)

    def test_maximum_law_converges(self):
        # empirical max of B exponentials vs the Gumbel limit
        cdf = lambda x: 1.0 - math.exp(-x) if x > 0 else 0.0
        pdf = lambda x: math.exp(-x) if x > 0 else 0.0
        b = 500
        con = normalizing_constants(cdf, pdf, b)
        rng = np.random.default_rng(5)
        mx = rng.exponential(size=(200_00, b)).max(axis=1)
        for x in (-1.0, 0.0, 1.0, 2.0):
            emp = float(np.mean(mx <= con.location + con.scale * x))
            assert emp == pytest.approx(gumbel_cdf(x), abs=0.02)

    def test_validation(self):
        cdf = lambda x: 1.0 - math.exp(-x) if x > 0 else 0.0
        pdf = lambda x: math.exp(-x) if x > 0 else 0.0
        with pytest.raises(ValueError):
            normalizing_constants(cdf, pdf, 1)
        with pytest.raises(ValueError):
            # a pdf that vanishes at the location leaves no reciprocal hazard
            normalizing_constants(cdf, lambda x: 0.0, 50)
        with pytest.raises(ValueError):
            EvtConstants(location=0.0, scale=0.0)


class TestDomainCheck:
    def test_exponential_accepted(self):
        cdf = lambda x: 1.0 - math.exp(-x) if x > 0 else 0.0
        pdf = lambda x: math.exp(-x) if x > 0 else 0.0
        assert check_gumbel_domain(cdf, pdf, 20) is True

    def test_heavy_tail_warns(self):
        # Pareto(1.5) lies in the Frechet domain: hazard ratio grows like x
        cdf = lambda x: 1.0 - x ** -1.5 if x > 1 else 0.0
        pdf = lambda x: 1.5 * x ** -2.5 if x > 1 else 0.0
        with pytest.warns(RuntimeWarning):
            assert check_gumbel_domain(cdf, pdf, 20) is False


class TestOutageEvt:
    def test_standardizes_threshold(self):
        con = EvtConstants(location=2.0, scale=0.5)
        assert outage_evt(2.0, 1, con) == pytest.approx(gumbel_cdf(0.0), rel=1e-13)
        assert outage_evt(3.0, 2, con) == pytest.approx(
            kth_limit_cdf(2.0, 2), rel=1e-13
        )
