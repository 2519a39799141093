"""Special functions against scipy oracles and analytic edge cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from risgroups import specfun
from risgroups.selection import outage_sbgs
from risgroups.specfun import (
    ConvergenceError,
    reg_incomplete_beta,
    reg_lower_incomplete_gamma,
)


class TestRegLowerIncompleteGamma:
    def test_matches_scipy_on_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            s = float(rng.uniform(0.05, 60.0))
            x = float(rng.uniform(0.0, 150.0))
            assert reg_lower_incomplete_gamma(s, x) == pytest.approx(
                float(sp.gammainc(s, x)), abs=1e-12
            )

    def test_exponential_special_case(self):
        # s=1 reduces to 1 - e^-x  [TRIVIAL]
        for x in (0.1, 1.0, 5.0):
            assert reg_lower_incomplete_gamma(1.0, x) == pytest.approx(
                1.0 - math.exp(-x), rel=1e-14
            )

    def test_limits(self):
        assert reg_lower_incomplete_gamma(2.5, 0.0) == 0.0
        assert reg_lower_incomplete_gamma(2.5, 1e6) == pytest.approx(1.0)

    def test_large_shape_branch(self):
        # normal-regime shapes exercise the Wilson-Hilferty path
        for s, x in ((1e9, 1e9), (4e12, 4e12 * 1.000001), (1e10, 0.999 * 1e10)):
            got = reg_lower_incomplete_gamma(s, x)
            z = (x - s) / math.sqrt(s)
            ref = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
            assert got == pytest.approx(ref, abs=5e-4)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_lower_incomplete_gamma(1.0, -1.0)

    def test_convergence_budget_enforced(self, monkeypatch):
        # MAX_ITER = 2 alone no longer exhausts anything: the budget adds
        # ceil(10 sqrt(s)) steps, which still converge at s = 5
        monkeypatch.setattr(specfun, "MAX_ITER", 2)
        assert reg_lower_incomplete_gamma(5.0, 30.0) == pytest.approx(
            float(sp.gammainc(5.0, 30.0)), abs=1e-12
        )
        monkeypatch.setattr(specfun, "_budget", lambda size: 2)
        for s, x in ((5.0, 30.0), (30.0, 5.0)):  # continued fraction, series
            with pytest.raises(ConvergenceError):
                reg_lower_incomplete_gamma(s, x)
        with pytest.raises(ConvergenceError):
            reg_incomplete_beta(0.5, 40.0, 40.0)

    # a fixed cap of 1000 iterations stopped every shape from about 1e5 on;
    # the absolute error against scipy, measured at these points, is 1.9e-10,
    # 3.4e-10, 8.3e-9 and 2.7e-8, set by the cancellation in the prefactor
    # exp(s ln x - x - lnGamma(s)), so the tolerance is 1e-9 up to 1e6 and
    # 1e-7 above
    @pytest.mark.parametrize("s", [1e5, 1e6, 1e7, 9.9e7])
    @pytest.mark.parametrize("z", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_large_shape_bulk_matches_scipy(self, s, z):
        x = s + z * math.sqrt(s)
        assert reg_lower_incomplete_gamma(s, x) == pytest.approx(
            float(sp.gammainc(s, x)), abs=1e-9 if s <= 1e6 else 1e-7
        )


class TestRegIncompleteBeta:
    def test_matches_scipy_on_grid(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            a = float(rng.uniform(0.1, 40.0))
            b = float(rng.uniform(0.1, 40.0))
            x = float(rng.uniform(0.0, 1.0))
            assert reg_incomplete_beta(x, a, b) == pytest.approx(
                float(sp.betainc(a, b, x)), abs=1e-12
            )

    def test_symmetry(self):
        # I_x(a,b) = 1 - I_{1-x}(b,a)  [TRIVIAL]
        assert reg_incomplete_beta(0.3, 2.0, 5.0) == pytest.approx(
            1.0 - reg_incomplete_beta(0.7, 5.0, 2.0), rel=1e-13
        )

    def test_uniform_special_case(self):
        # a=b=1 is the identity  [TRIVIAL]
        for x in (0.0, 0.25, 1.0):
            assert reg_incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            reg_incomplete_beta(0.5, -1.0, 2.0)
        with pytest.raises(ValueError):
            reg_incomplete_beta(1.5, 1.0, 2.0)


# Identities that hold exactly, checked to within TOL_ULPS units of 2**-52
# times max(1, s): the prefactor exponent s ln x - x - lnGamma(s) is of size
# s ln s and carries a few roundings of that size.  Measured worst, over 15000
# examples of these strategies for the gamma identities and 3000 plus 4500
# random draws of s up to 1e7 for the beta ones: 15 for the recurrence, 33
# across the series / continued-fraction split and 12 for the beta identities.
TOL_ULPS = 64
EPS = 2.0 ** -52
shapes = st.floats(0.05, 1e7)
bulk_offsets = st.floats(-12.0, 12.0)
unit = st.floats(0.0, 1.0)


def _tol(size: float) -> float:
    return TOL_ULPS * EPS * max(1.0, size)


class TestIdentities:
    # shapes up to 1e7 need tens of thousands of series terms, so these also
    # pin the iteration budget that grows with sqrt(s)
    @settings(max_examples=150, deadline=None)
    @given(s=shapes, z=bulk_offsets)
    def test_gamma_recurrence(self, s, z):
        # P(s+1, x) = P(s, x) - x^s e^-x / Gamma(s+1)
        x = s + z * math.sqrt(s)
        if x <= 0.0:
            x = s
        step = math.exp(s * math.log(x) - x - math.lgamma(s + 1.0))
        assert reg_lower_incomplete_gamma(s + 1.0, x) == pytest.approx(
            reg_lower_incomplete_gamma(s, x) - step, abs=_tol(s)
        )

    @settings(max_examples=150, deadline=None)
    @given(s=shapes)
    def test_gamma_continuous_across_split(self, s):
        # x = s + 1 goes to the continued fraction, the double below it to the series
        split = s + 1.0
        assert reg_lower_incomplete_gamma(s, split) == pytest.approx(
            reg_lower_incomplete_gamma(s, math.nextafter(split, 0.0)), abs=_tol(s)
        )

    @settings(max_examples=150, deadline=None)
    @given(a=shapes, x=unit)
    def test_beta_unit_second_parameter(self, a, x):
        assert reg_incomplete_beta(x, a, 1.0) == pytest.approx(x ** a, abs=_tol(a))

    @settings(max_examples=150, deadline=None)
    @given(b=shapes, x=unit)
    def test_beta_unit_first_parameter(self, b, x):
        assert reg_incomplete_beta(x, 1.0, b) == pytest.approx(
            1.0 - (1.0 - x) ** b, abs=_tol(b)
        )

    @settings(max_examples=150, deadline=None)
    @given(b=st.integers(1, 10**6), f=unit)
    def test_best_of_b_outage_is_power(self, b, f):
        # the best of B i.i.d. groups fails only when all B do: I_F(B, 1) = F^B
        assert outage_sbgs(f, b, 1) == pytest.approx(f ** b, abs=_tol(b))


NAN = math.nan


@pytest.mark.parametrize("func, args, name", [
    (reg_lower_incomplete_gamma, (2.0, NAN), "argument x"),
    (reg_lower_incomplete_gamma, (NAN, 1.0), "shape s"),
    (reg_lower_incomplete_gamma, (2e8, NAN), "argument x"),
    (reg_incomplete_beta, (0.5, NAN, 1.0), "a=nan"),
    (reg_incomplete_beta, (0.5, 1.0, NAN), "b=nan"),
    (reg_incomplete_beta, (NAN, 1.0, 1.0), "argument x"),
])
def test_nan_argument_rejected(func, args, name):
    # NaN fails every ordered comparison, so each check is written to pass
    # only for a number inside the domain
    with pytest.raises(ValueError, match=name):
        func(*args)
