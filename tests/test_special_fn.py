"""Tests for the t-distribution primitives against quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from interval_lab.special_fn import t_cdf, t_pdf, t_quantile, t_two_sided


def oracle_pdf(x, q):
    """Directly coded t density, independent of the package implementation."""
    c = math.gamma((q + 1.0) / 2.0) / (math.gamma(q / 2.0) * math.sqrt(q * math.pi))
    return c * (1.0 + x * x / q) ** (-(q + 1.0) / 2.0)


def oracle_cdf(x, q):
    """Adaptive-quadrature CDF oracle built on the directly coded density."""
    val, err = quad(oracle_pdf, -np.inf, x, args=(q,), epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    return val


def oracle_two_sided(alpha, q):
    """Bisection for the two-sided critical value using the quadrature CDF."""
    target = 1.0 - alpha / 2.0
    lo, hi = 0.0, 1.0
    while oracle_cdf(hi, q) < target:
        lo, hi = hi, hi * 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if oracle_cdf(mid, q) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPdf:
    def test_cauchy_central_value(self):
        assert t_pdf(0.0, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-14)

    def test_matches_direct_formula(self):
        xs = np.linspace(-8.0, 8.0, 33)
        for q in (0.7, 1.0, 2.0, 4.0, 30.0, 150.0):
            expect = [oracle_pdf(x, q) for x in xs]
            np.testing.assert_allclose(t_pdf(xs, q), expect, rtol=1e-12)

    @given(
        x=st.floats(-30.0, 30.0, allow_nan=False),
        q=st.floats(0.1, 200.0, allow_nan=False),
    )
    def test_symmetry(self, x, q):
        assert t_pdf(x, q) == pytest.approx(t_pdf(-x, q), rel=1e-12, abs=0.0)

    def test_extreme_argument_underflows_to_zero(self):
        assert t_pdf(1e300, 4.0) == 0.0

    def test_rejects_nonpositive_dof(self):
        with pytest.raises(ValueError):
            t_pdf(0.0, 0.0)
        with pytest.raises(ValueError):
            t_pdf(0.0, -3.0)


class TestCdf:
    def test_center(self):
        assert t_cdf(0.0, 7.0) == 0.5

    def test_limit(self):
        assert t_cdf(1e8, 4.0) == pytest.approx(1.0, abs=1e-12)
        assert t_cdf(-1e8, 4.0) == pytest.approx(0.0, abs=1e-12)

    def test_against_quadrature_oracle(self):
        assert t_cdf(2.0, 4.0) == pytest.approx(oracle_cdf(2.0, 4.0), abs=1e-10)
        for x, q in [(-3.5, 1.0), (0.3, 2.5), (1.7, 11.0), (5.0, 100.0)]:
            assert t_cdf(x, q) == pytest.approx(oracle_cdf(x, q), abs=1e-10)

    def test_pdf_quadrature_consistency_window(self):
        # adaptive quadrature over [-50, 50] must match the CDF increment;
        # the window itself misses ~1e-6 of t_4 mass, so the absolute
        # normalization check is looser
        val, _ = quad(oracle_pdf, -50.0, 50.0, args=(4.0,), epsabs=1e-13, limit=200)
        assert val == pytest.approx(t_cdf(50.0, 4.0) - t_cdf(-50.0, 4.0), abs=1e-10)
        assert val == pytest.approx(1.0, abs=1e-5)

    def test_monotone(self):
        xs = np.linspace(-20.0, 20.0, 2001)
        for q in (1.0, 4.0, 60.0):
            vals = t_cdf(xs, q)
            assert np.all(np.diff(vals) >= 0.0)

    @given(
        x=st.floats(-30.0, 30.0, allow_nan=False),
        q=st.floats(0.1, 200.0, allow_nan=False),
    )
    def test_reflection(self, x, q):
        assert t_cdf(-x, q) == pytest.approx(1.0 - t_cdf(x, q), abs=1e-14)

    def test_rejects_nonpositive_dof(self):
        with pytest.raises(ValueError):
            t_cdf(0.0, -1.0)


class TestQuantile:
    def test_median(self):
        for q in (0.5, 1.0, 7.0, 123.0):
            assert t_quantile(0.5, q) == 0.0

    def test_two_sided_m4(self):
        crit = t_two_sided(0.05, 4.0)
        assert crit == pytest.approx(2.7764, abs=5e-5)
        assert crit == pytest.approx(oracle_two_sided(0.05, 4.0), abs=1e-9)

    def test_inverse_identity(self):
        assert t_cdf(t_quantile(0.9, 11.0), 11.0) == pytest.approx(0.9, abs=1e-10)

    def test_round_trip_grid(self):
        ps = np.concatenate(([0.001], np.linspace(0.01, 0.99, 25), [0.999]))
        for q in (1.0, 2.0, 4.0, 30.0, 100.0):
            for p in ps:
                assert t_cdf(t_quantile(p, q), q) == pytest.approx(p, abs=1e-9)

    def test_symmetry(self):
        for q in (1.0, 4.0, 30.0):
            for p in (0.001, 0.2, 0.4, 0.45):
                assert t_quantile(1.0 - p, q) == pytest.approx(
                    -t_quantile(p, q), abs=1e-9
                )

    def test_cauchy_far_tail(self):
        # Cauchy quantile has the closed form tan(pi (p - 1/2))
        p = 0.9999
        assert t_quantile(p, 1.0) == pytest.approx(
            math.tan(math.pi * (p - 0.5)), rel=1e-9
        )

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                t_quantile(p, 4.0)
        with pytest.raises(ValueError):
            t_two_sided(0.0, 4.0)


class TestNormalization:
    @pytest.mark.parametrize("q", [1.0, 2.0, 5.0, 20.0, 200.0])
    def test_wide_window_mass(self, q):
        eps = 1e-10
        lo = t_quantile(eps, q)
        hi = t_quantile(1.0 - eps, q)
        val, _ = quad(
            t_pdf, lo, hi, args=(q,), epsabs=1e-12, epsrel=1e-12, limit=400
        )
        assert val == pytest.approx(1.0 - 2.0 * eps, abs=1e-8)


class TestClosedForms:
    """Closed forms at small and very large degrees of freedom."""

    XS = np.array([-40.0, -3.0, -1.0, -0.2, 0.0, 0.5, 1.0, 2.5, 7.0, 1e3])

    def test_cauchy_cdf(self):
        expect = 0.5 + np.arctan(self.XS) / math.pi
        np.testing.assert_allclose(t_cdf(self.XS, 1.0), expect, rtol=1e-14, atol=1e-16)

    def test_two_dof_cdf(self):
        expect = 0.5 + self.XS / (2.0 * np.sqrt(2.0 + self.XS**2))
        np.testing.assert_allclose(t_cdf(self.XS, 2.0), expect, rtol=1e-14, atol=1e-16)

    def test_normal_limit_cdf(self):
        xs = np.linspace(-6.0, 6.0, 25)
        np.testing.assert_allclose(t_cdf(xs, 1e16), special.ndtr(xs), rtol=1e-14, atol=0.0)

    def test_normal_limit_pdf(self):
        # the true relative gap to the normal density, (x^4 - 2 x^2 - 1) / (4 q),
        # stays below 3.1e-12 on this window
        xs = np.linspace(-6.0, 6.0, 25)
        expect = np.exp(-0.5 * xs**2) / math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(t_pdf(xs, 1e14), expect, rtol=1e-11, atol=0.0)


@settings(max_examples=60)
@given(
    p=st.floats(0.005, 0.995, allow_nan=False),
    q=st.floats(0.5, 150.0, allow_nan=False),
)
def test_round_trip_property(p, q):
    assert t_cdf(t_quantile(p, q), q) == pytest.approx(p, abs=1e-9)
