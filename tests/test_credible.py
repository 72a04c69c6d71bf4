"""Credible-interval solvers checked against grid inversion and eta scans.

Quantiles are cross-checked by inverting a brute-force CDF table; the
shortest interval is cross-checked by scanning the tail-split family
[l(eta), u(alpha - eta)] on a dense eta grid, which contains the
optimum by construction.
"""

import numpy as np
import pytest

from interval_lab.credible import (
    IntervalSet,
    RealInterval,
    ScaledSummary,
    equi_tailed,
    hpd_set,
    lower_quantile,
    scaled_summary,
    shortest,
    upper_quantile,
)
from interval_lab.credible import _std_quantiles
from interval_lab.model_prep import SufficientStats
from interval_lab.posterior_mixture import (
    PosteriorMixture,
    PriorFamily,
    PriorSpec,
    TComponent,
    build_posterior,
    posterior_cdf,
    posterior_pdf,
)
from interval_lab.special_fn import t_cdf, t_two_sided

FIG_STATS = SufficientStats(theta_hat=0.0, tau_hat=0.3, sigma_hat=0.1, m=100, rho=0.98)
FIG_PRIOR = PriorSpec(family=PriorFamily.SLAB_SPIKE_VARIANCE, xi=0.8)

TWO_BY_TWO = dict(m=4, rho=-1.0 / np.sqrt(2.0))


def two_by_two_mix(family, r, sigma_hat, xi=1.0 / 1.2, g=1.0):
    stats = SufficientStats(
        theta_hat=0.0, tau_hat=r * sigma_hat, sigma_hat=sigma_hat, **TWO_BY_TWO
    )
    return build_posterior(stats, PriorSpec(family, xi=xi, g=g))


def random_mixtures(n, seed=7, m_range=(2, 30)):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        stats = SufficientStats(
            theta_hat=rng.normal(),
            tau_hat=rng.normal() * 2.5,
            sigma_hat=float(rng.uniform(0.3, 3.0)),
            m=int(rng.integers(*m_range)),
            rho=float(rng.uniform(-0.9, 0.9)),
        )
        family = PriorFamily.SLAB_SPIKE_VARIANCE if rng.random() < 0.5 else (
            PriorFamily.SLAB_SPIKE_SCALE
        )
        prior = PriorSpec(family, xi=float(rng.uniform(0.05, 0.95)), g=float(rng.uniform(0.5, 2.0)))
        out.append(build_posterior(stats, prior))
    return out


def grid_shortest_length(mix, alpha, n_grid):
    """Best tail split on a dense eta grid; an upper bound for the optimum."""
    etas = alpha * np.linspace(1.0 / n_grid, 1.0 - 1.0 / n_grid, n_grid - 1)
    w_lo = _std_quantiles(mix, etas)
    w_hi = _std_quantiles(mix, 1.0 - alpha + etas)
    return float(np.min(w_hi - w_lo)) * mix.sigma_hat


class TestQuantiles:
    def test_residuals(self):
        for mix in random_mixtures(10):
            for eta in (1e-4, 0.025, 0.3, 0.5, 0.8, 0.975):
                lq = lower_quantile(mix, eta)
                assert posterior_cdf(mix, lq) == pytest.approx(eta, abs=1e-9)

    def test_grid_inversion_oracle(self):
        mix = build_posterior(FIG_STATS, FIG_PRIOR)
        step = 1e-5
        w = np.arange(-8.0, 6.0, step)
        cdf = posterior_cdf(mix, FIG_STATS.theta_hat + FIG_STATS.sigma_hat * w)
        for eta in (0.025, 0.5, 0.975):
            w_grid = w[int(np.searchsorted(cdf, eta))]
            target = FIG_STATS.theta_hat + FIG_STATS.sigma_hat * w_grid
            assert lower_quantile(mix, eta) == pytest.approx(
                target, abs=2.0 * step * FIG_STATS.sigma_hat
            )

    def test_upper_is_reflected_lower(self):
        mix = build_posterior(FIG_STATS, FIG_PRIOR)
        for delta in (0.025, 0.4):
            assert upper_quantile(mix, delta) == lower_quantile(mix, 1.0 - delta)

    def test_monotone_in_eta(self):
        mix = two_by_two_mix(PriorFamily.SLAB_SPIKE_VARIANCE, r=2.0, sigma_hat=1.0)
        etas = np.linspace(0.01, 0.99, 25)
        vals = [lower_quantile(mix, e) for e in etas]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("dof", [1.0, 4.0, 37.0])
    def test_far_tail_single_component(self, dof):
        # the component quantile alone misses eta = 1e-12 by 2e-5 relative, on
        # the wrong side of the target, so the bracket must be widened
        comp = TComponent(loc=0.0, scale=1.0, dof=dof)
        mix = PosteriorMixture(
            weight_spike=1.0, comp_spike=comp, comp_slab=comp, theta_hat=0.0, sigma_hat=1.0
        )
        eta = 1e-12
        w = lower_quantile(mix, eta)
        assert abs(t_cdf(w, dof) / eta - 1.0) <= 1e-12

    def test_domain_errors(self):
        mix = build_posterior(FIG_STATS, FIG_PRIOR)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                lower_quantile(mix, bad)
            with pytest.raises(ValueError):
                upper_quantile(mix, bad)


class TestEquiTailed:
    def test_xi_zero_is_standard(self):
        stats = SufficientStats(theta_hat=2.0, tau_hat=1.0, sigma_hat=0.5, m=8, rho=0.3)
        mix = build_posterior(stats, PriorSpec(PriorFamily.SLAB_SPIKE_VARIANCE, xi=0.0))
        iv = equi_tailed(mix, 0.05)
        crit = t_two_sided(0.05, 8)
        assert iv.lower == pytest.approx(2.0 - crit * 0.5, abs=1e-8 * 0.5)
        assert iv.upper == pytest.approx(2.0 + crit * 0.5, abs=1e-8 * 0.5)

    def test_xi_one_variance_flat(self):
        stats = SufficientStats(theta_hat=1.0, tau_hat=-2.0, sigma_hat=1.5, m=6, rho=-0.4)
        mix = build_posterior(stats, PriorSpec(PriorFamily.SLAB_SPIKE_VARIANCE, xi=1.0))
        iv = equi_tailed(mix, 0.05)
        crit = t_two_sided(0.05, 7)
        mu1 = stats.theta_hat - stats.rho * stats.tau_hat
        half = crit * mix.comp_spike.scale
        assert iv.lower == pytest.approx(mu1 - half, abs=1e-8 * stats.sigma_hat)
        assert iv.upper == pytest.approx(mu1 + half, abs=1e-8 * stats.sigma_hat)

    def test_far_constraint_reverts_to_standard(self):
        for sign in (1.0, -1.0):
            mix = two_by_two_mix(PriorFamily.SLAB_SPIKE_SCALE, r=sign * 50.0, sigma_hat=2.0)
            iv = equi_tailed(mix, 0.05)
            crit = t_two_sided(0.05, 4)
            assert iv.lower == pytest.approx(-crit * 2.0, abs=1e-3 * 2.0)
            assert iv.upper == pytest.approx(crit * 2.0, abs=1e-3 * 2.0)

    def test_tail_masses(self):
        for mix in random_mixtures(6, seed=11):
            iv = equi_tailed(mix, 0.1)
            assert posterior_cdf(mix, iv.lower) == pytest.approx(0.05, abs=1e-9)
            assert posterior_cdf(mix, iv.upper) == pytest.approx(0.95, abs=1e-9)


class TestShortest:
    def test_never_longer_than_equi(self):
        for mix in random_mixtures(12, seed=3):
            assert shortest(mix, 0.05).length <= equi_tailed(mix, 0.05).length + 1e-9

    def test_symmetric_case_matches_equi(self):
        stats = SufficientStats(theta_hat=0.7, tau_hat=0.0, sigma_hat=1.2, m=5, rho=0.6)
        mix = build_posterior(stats, PriorSpec(PriorFamily.SLAB_SPIKE_VARIANCE, xi=0.7))
        sh = shortest(mix, 0.05)
        eq = equi_tailed(mix, 0.05)
        assert sh.lower == pytest.approx(eq.lower, abs=1e-8 * stats.sigma_hat)
        assert sh.upper == pytest.approx(eq.upper, abs=1e-8 * stats.sigma_hat)

    @pytest.mark.parametrize("sigma_hat", [1.0, 10.0])
    @pytest.mark.parametrize("r", [0.5, 2.0, 5.0])
    def test_matches_dense_eta_scan(self, sigma_hat, r):
        mix = two_by_two_mix(PriorFamily.SLAB_SPIKE_VARIANCE, r=r, sigma_hat=sigma_hat)
        best = shortest(mix, 0.05).length
        grid = grid_shortest_length(mix, 0.05, 2000)
        assert best <= grid + 1e-12
        assert grid - best <= 1e-6 * sigma_hat

    def test_randomized_optimality(self):
        for mix in random_mixtures(200, seed=19):
            best = shortest(mix, 0.05).length
            grid = grid_shortest_length(mix, 0.05, 400)
            assert grid >= best - 1e-6 * mix.sigma_hat

    def test_mass_is_exact(self):
        for mix in random_mixtures(5, seed=23):
            iv = shortest(mix, 0.05)
            mass = posterior_cdf(mix, iv.upper) - posterior_cdf(mix, iv.lower)
            assert mass == pytest.approx(0.95, abs=1e-9)


class TestHpd:
    def test_mass_and_common_level(self):
        for mix in random_mixtures(8, seed=31):
            hpd = hpd_set(mix, 0.05)
            mass = sum(
                posterior_cdf(mix, iv.upper) - posterior_cdf(mix, iv.lower)
                for iv in hpd.intervals
            )
            assert mass == pytest.approx(0.95, abs=1e-6)
            ends = [e for iv in hpd.intervals for e in (iv.lower, iv.upper)]
            dens = posterior_pdf(mix, np.asarray(ends))
            peak = posterior_pdf(mix, mix.theta_hat)
            assert np.max(dens) - np.min(dens) <= 1e-6 * max(peak, np.max(dens))

    def test_xi_zero_matches_equi(self):
        stats = SufficientStats(theta_hat=-1.0, tau_hat=2.0, sigma_hat=0.8, m=7, rho=0.2)
        mix = build_posterior(stats, PriorSpec(PriorFamily.SLAB_SPIKE_VARIANCE, xi=0.0))
        hpd = hpd_set(mix, 0.05)
        eq = equi_tailed(mix, 0.05)
        assert len(hpd.intervals) == 1
        assert hpd.intervals[0].lower == pytest.approx(eq.lower, abs=1e-6 * stats.sigma_hat)
        assert hpd.intervals[0].upper == pytest.approx(eq.upper, abs=1e-6 * stats.sigma_hat)

    def test_bimodal_fixture_gives_two_intervals(self):
        mix = build_posterior(FIG_STATS, FIG_PRIOR)
        hpd = hpd_set(mix, 0.05)
        assert len(hpd.intervals) == 2
        assert hpd.intervals[0].upper < hpd.intervals[1].lower
        mass = sum(
            posterior_cdf(mix, iv.upper) - posterior_cdf(mix, iv.lower) for iv in hpd.intervals
        )
        assert mass == pytest.approx(0.95, abs=1e-6)

    def test_unimodal_fixture_matches_shortest(self):
        stats = SufficientStats(theta_hat=0.0, tau_hat=0.4, sigma_hat=1.0, m=10, rho=0.5)
        mix = build_posterior(stats, PriorSpec(PriorFamily.SLAB_SPIKE_VARIANCE, xi=0.4))
        hpd = hpd_set(mix, 0.05)
        sh = shortest(mix, 0.05)
        assert len(hpd.intervals) == 1
        assert hpd.intervals[0].lower == pytest.approx(sh.lower, abs=1e-5)
        assert hpd.intervals[0].upper == pytest.approx(sh.upper, abs=1e-5)


class TestScaledSummary:
    def test_standard_interval(self):
        stats = SufficientStats(theta_hat=3.0, tau_hat=0.0, sigma_hat=2.0, m=4, rho=0.0)
        crit = t_two_sided(0.05, 4)
        iv = RealInterval(3.0 - crit * 2.0, 3.0 + crit * 2.0)
        summ = scaled_summary(iv, stats)
        assert summ.scaled_offset == pytest.approx(0.0, abs=1e-14)
        assert summ.scaled_half_length == pytest.approx(crit, rel=1e-14)

    def test_shift_and_scale(self):
        stats = SufficientStats(theta_hat=1.0, tau_hat=0.5, sigma_hat=0.25, m=9, rho=0.1)
        iv = RealInterval(0.5, 2.0)
        summ = scaled_summary(iv, stats)
        assert summ.scaled_half_length == pytest.approx(0.75 / 0.25)
        assert summ.scaled_offset == pytest.approx((1.25 - 1.0) / 0.25)


class TestContainers:
    def test_interval_order(self):
        with pytest.raises(ValueError):
            RealInterval(1.0, 0.0)
        assert RealInterval(1.0, 1.0).length == 0.0

    def test_interval_set_sorted_disjoint(self):
        a = RealInterval(0.0, 1.0)
        b = RealInterval(2.0, 3.0)
        assert IntervalSet((a, b)).total_length == 2.0
        with pytest.raises(ValueError):
            IntervalSet((b, a))
        with pytest.raises(ValueError):
            IntervalSet((a, RealInterval(0.5, 2.0)))
        with pytest.raises(ValueError):
            IntervalSet(())

    def test_scaled_summary_validation(self):
        with pytest.raises(ValueError):
            ScaledSummary(scaled_half_length=0.0, scaled_offset=0.0)
