"""Special functions against scipy oracles and analytic edge cases."""

import math

import numpy as np
import pytest
from scipy import special as sp

from risgroups import specfun
from risgroups.specfun import (
    ConvergenceError,
    reg_incomplete_beta,
    reg_lower_incomplete_gamma,
    sinc_corr,
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
        monkeypatch.setattr(specfun, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError):
            reg_lower_incomplete_gamma(5.0, 30.0)


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


class TestSincCorr:
    def test_reference_values(self):
        # sin(2 pi d / lambda) / (2 pi d / lambda)  [TRIVIAL]
        lam = 0.1
        assert sinc_corr(0.0, lam) == 1.0
        assert sinc_corr(lam / 2.0, lam) == pytest.approx(0.0, abs=1e-15)
        t = math.pi / 4.0
        assert sinc_corr(lam / 8.0, lam) == pytest.approx(math.sin(t) / t, rel=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sinc_corr(-0.1, 0.1)
        with pytest.raises(ValueError):
            sinc_corr(0.1, 0.0)

