"""Spline interval machinery: evaluation, risk quadrature, serialization.

The risk integrals are validated two independent ways: exact values for
the standard pair (whose corrections vanish identically) and Monte
Carlo simulation for randomized non-trivial pairs.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from interval_lab.kg_core import (
    GammaGrid,
    SplinePair,
    coverage_and_sel_grid,
    coverage_probability,
    eval_b,
    eval_s,
    expected_w,
    kg_interval,
    scaled_expected_length,
    spline_pair_from_json,
    spline_pair_to_json,
    _RiskKernel,
)
from interval_lab.mc_oracle import KGProcedure, SimConfig, simulate
from interval_lab.model_prep import SufficientStats
from interval_lab.special_fn import t_two_sided

GOLDEN = Path(__file__).parent / "golden" / "designed_pair.json"

KNOTS = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)


def hand_pair(m=4, alpha=0.05, rho=-1.0 / np.sqrt(2.0)) -> SplinePair:
    crit = t_two_sided(alpha, m)
    return SplinePair(
        d=12.0,
        knots=KNOTS,
        b_values=(0.0, -0.1, 0.15, 0.05, -0.02, 0.01, 0.0),
        s_values=(0.9 * crit, 1.1 * crit, crit, 0.95 * crit, 1.02 * crit, crit, crit),
        m=m,
        alpha=alpha,
        rho=rho,
    )


def random_pair(rng) -> SplinePair:
    m = int(rng.choice([3, 4, 6]))
    alpha = 0.05
    crit = t_two_sided(alpha, m)
    nk = len(KNOTS)
    b = np.concatenate(([0.0], rng.uniform(-0.5, 0.5, nk - 2), [0.0]))
    s = np.concatenate((crit * rng.uniform(0.85, 1.25, nk - 1), [crit]))
    return SplinePair(
        d=12.0,
        knots=KNOTS,
        b_values=tuple(b),
        s_values=tuple(s),
        m=m,
        alpha=alpha,
        rho=float(rng.uniform(-0.9, 0.9)),
    )


class TestSplinePair:
    def test_standard_factory(self):
        sp = SplinePair.standard(m=4, alpha=0.05, rho=0.0)
        assert sp.t_crit == pytest.approx(2.7764451051977939, abs=1e-12)
        assert set(sp.s_values) == {sp.t_crit}
        assert set(sp.b_values) == {0.0}

    def test_validation(self):
        crit = t_two_sided(0.05, 4)
        good = dict(
            d=12.0, knots=KNOTS, b_values=(0.0,) * 7,
            s_values=(crit,) * 7, m=4, alpha=0.05, rho=0.0,
        )
        for bad in (
            {"knots": (0.0, 2.0)},
            {"knots": (1.0,) + KNOTS[1:]},
            {"b_values": (0.5,) + (0.0,) * 6},
            {"b_values": (0.0,) * 6 + (0.1,)},
            {"s_values": (0.0,) + (crit,) * 6},
            {"s_values": (crit,) * 6 + (crit + 1e-3,)},
            {"m": 0},
            {"alpha": 0.0},
            {"rho": -1.0},
        ):
            with pytest.raises(ValueError):
                SplinePair(**{**good, **bad})

    def test_knot_values_reproduced_exactly(self):
        sp = hand_pair()
        for k, bv, sv in zip(sp.knots, sp.b_values, sp.s_values):
            assert eval_b(sp, k) == bv
            assert eval_s(sp, k) == sv
            assert eval_b(sp, -k) == -bv
            assert eval_s(sp, -k) == sv


class TestEvaluation:
    def test_parity(self):
        sp = hand_pair()
        x = np.linspace(-15.0, 15.0, 301)
        np.testing.assert_allclose(eval_b(sp, x), -eval_b(sp, -x), atol=1e-14)
        np.testing.assert_allclose(eval_s(sp, x), eval_s(sp, -x), atol=1e-14)

    def test_constant_outside_d(self):
        sp = hand_pair()
        assert eval_b(sp, sp.d + 7.0) == 0.0
        assert eval_b(sp, -(sp.d + 7.0)) == 0.0
        assert eval_s(sp, sp.d + 7.0) == sp.t_crit
        assert eval_s(sp, 1e9) == sp.t_crit

    def test_smooth_inside(self):
        sp = hand_pair()
        x = np.linspace(0.0, sp.d, 977)
        b = eval_b(sp, x)
        s = eval_s(sp, x)
        assert np.all(np.isfinite(b)) and np.all(np.isfinite(s))
        assert np.max(np.abs(b)) < 1.0 and np.all(s > 0.0)


class TestKgInterval:
    def test_reverts_to_standard_for_large_r(self):
        sp = hand_pair()
        crit = sp.t_crit
        for r in (sp.d, sp.d + 7.0, -40.0):
            stats = SufficientStats(theta_hat=1.0, tau_hat=r * 0.5, sigma_hat=0.5, m=4, rho=sp.rho)
            iv = kg_interval(stats, sp)
            assert iv.lower == 1.0 - crit * 0.5
            assert iv.upper == 1.0 + crit * 0.5

    def test_uses_spline_inside(self):
        sp = hand_pair()
        stats = SufficientStats(theta_hat=0.0, tau_hat=3.0, sigma_hat=1.0, m=4, rho=sp.rho)
        iv = kg_interval(stats, sp)
        b3, s3 = float(eval_b(sp, 3.0)), float(eval_s(sp, 3.0))
        assert iv.center == pytest.approx(-b3, abs=1e-14)
        assert iv.length == pytest.approx(2.0 * s3, rel=1e-14)

    def test_m_mismatch(self):
        sp = hand_pair(m=4)
        stats = SufficientStats(theta_hat=0.0, tau_hat=0.0, sigma_hat=1.0, m=6, rho=0.0)
        with pytest.raises(ValueError, match="mismatch"):
            kg_interval(stats, sp)


class TestExpectedW:
    def test_against_quadrature(self):
        for m in (1, 2, 4, 17, 150):
            def integrand(w, m=m):
                logf = (
                    math.log(2.0)
                    + 0.5 * m * math.log(m / 2.0)
                    - math.lgamma(m / 2.0)
                    + (m - 1.0) * math.log(w)
                    - 0.5 * m * w * w
                )
                return w * math.exp(logf)

            val, _ = quad(integrand, 0.0, np.inf)
            assert expected_w(m) == pytest.approx(val, rel=1e-10)

    def test_second_moment_is_one(self):
        # E[W^2] = 1 exactly; the SEL denominator relies on it
        for m in (1, 4, 33):
            def integrand(w, m=m):
                logf = (
                    math.log(2.0)
                    + 0.5 * m * math.log(m / 2.0)
                    - math.lgamma(m / 2.0)
                    + (m - 1.0) * math.log(w)
                    - 0.5 * m * w * w
                )
                return w * w * math.exp(logf)

            val, _ = quad(integrand, 0.0, np.inf)
            assert val == pytest.approx(1.0, rel=1e-10)

    def test_large_m_expansion(self):
        # E[W] = 1 - 1/(4m) + O(1/m^2); the next term is below 1e-16 here
        m = 1e8
        assert expected_w(m) == pytest.approx(1.0 - 1.0 / (4.0 * m), rel=1e-15)
        assert expected_w(m) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            expected_w(0.0)


class TestRiskQuadrature:
    def test_standard_pair_is_exact(self):
        sp = SplinePair.standard(m=4, alpha=0.05, rho=-1.0 / np.sqrt(2.0))
        for gamma in (0.0, 1.7, 6.0, 25.0):
            assert coverage_probability(gamma, sp) == 1.0 - sp.alpha
            assert scaled_expected_length(gamma, sp) == 1.0

    def test_even_in_gamma(self):
        sp = hand_pair()
        for gamma in (0.5, 3.2, 7.7):
            assert coverage_probability(gamma, sp, tol=1e-9) == pytest.approx(
                coverage_probability(-gamma, sp, tol=1e-9), abs=1e-8
            )
            assert scaled_expected_length(gamma, sp, tol=1e-9) == pytest.approx(
                scaled_expected_length(-gamma, sp, tol=1e-9), abs=1e-8
            )

    def test_far_gamma_reverts_to_standard(self):
        sp = spline_pair_from_json(GOLDEN.read_text())
        gamma = sp.d + 8.0
        e2 = scaled_expected_length(gamma, sp) ** 2
        assert abs(e2 - 1.0) < 1e-3
        assert coverage_probability(gamma, sp) == pytest.approx(1.0 - sp.alpha, abs=1e-3)

    def test_grid_matches_scalar_calls(self):
        sp = hand_pair()
        grid = GammaGrid.regular(4.0, 1.0)
        cov, sel = coverage_and_sel_grid(sp, grid.as_array(), tol=1e-8)
        for i, gamma in enumerate(grid.points):
            assert cov[i] == pytest.approx(coverage_probability(gamma, sp, tol=1e-8), abs=1e-7)
            assert sel[i] == pytest.approx(scaled_expected_length(gamma, sp, tol=1e-8), abs=1e-7)

    def test_refinement_failure_reports_trace(self):
        sp = hand_pair()
        with pytest.raises(RuntimeError, match="refinement trace"):
            coverage_probability(1.0, sp, tol=0.0)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            sp = random_pair(rng)
            gamma = float(rng.uniform(0.0, 10.0))
            cov, sel = coverage_and_sel_grid(sp, [gamma], tol=1e-8)
            res = simulate(
                KGProcedure(sp),
                SimConfig(n_rep=1_000_000, seed=int(rng.integers(2**31)), gamma=gamma,
                          m=sp.m, rho=sp.rho),
            )
            assert abs(res.coverage_estimate - cov[0]) <= 3.0 * res.coverage_se
            assert abs(res.sel_estimate - sel[0]) <= 3.0 * res.sel_se


class TestRiskKernel:
    def test_jacobian_matches_central_differences(self):
        sp = spline_pair_from_json(GOLDEN.read_text())
        kernel = _RiskKernel(sp.knots, sp.m, sp.rho, sp.alpha,
                             GammaGrid.regular(20.0, 0.5).as_array(), 8, 10)
        b, s = np.array(sp.b_values), np.array(sp.s_values)
        cov, d_b, d_s = kernel.jacobian(b, s)
        assert np.array_equal(cov, kernel(b, s)[0])
        h = 1e-6
        for values, deriv, at in ((b, d_b, lambda u: kernel(u, s)), (s, d_s, lambda u: kernel(b, u))):
            for j in range(values.size):
                step = np.zeros(values.size)
                step[j] = h
                central = (at(values + step)[0] - at(values - step)[0]) / (2.0 * h)
                np.testing.assert_allclose(deriv[:, j], central, rtol=0.0, atol=1e-7)


class TestGammaGrid:
    def test_regular(self):
        grid = GammaGrid.regular(20.0, 0.5)
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 20.0
        assert len(grid.points) == 41

    def test_regular_rejects_nondivisible_step(self):
        with pytest.raises(ValueError):
            GammaGrid.regular(20.0, 0.3)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            GammaGrid(points=(1.0, 2.0))

    def test_require_span(self):
        grid = GammaGrid.regular(10.0, 1.0)
        grid.require_span(10.0)
        with pytest.raises(ValueError):
            grid.require_span(20.0)


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        sp = spline_pair_from_json(GOLDEN.read_text())
        text = spline_pair_to_json(sp)
        again = spline_pair_from_json(text)
        assert again == sp
        assert spline_pair_to_json(again) == text

    def test_hand_pair_round_trip(self):
        sp = hand_pair()
        assert spline_pair_from_json(spline_pair_to_json(sp)) == sp

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            spline_pair_from_json('{"d": 12.0}')

    def test_golden_pair_sanity(self):
        sp = spline_pair_from_json(GOLDEN.read_text())
        assert sp.m == 4
        assert sp.alpha == pytest.approx(0.05)
        assert sp.rho == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-12)
        assert sp.s_values[-1] == pytest.approx(sp.t_crit, abs=1e-12)
