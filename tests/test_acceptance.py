"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  The designed-interval fixture runs the full optimization once per
session (about half a minute); everything else is fast.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from interval_lab.credible import equi_tailed, hpd_set, lower_quantile, scaled_summary, shortest
from interval_lab.kg_core import (
    SplinePair,
    coverage_and_sel_grid,
    coverage_probability,
    kg_interval,
    scaled_expected_length,
)
from interval_lab.kg_design import DesignConfig, design
from interval_lab.mc_oracle import KGProcedure, SimConfig, StandardProcedure, simulate
from interval_lab.model_prep import SufficientStats
from interval_lab.posterior_mixture import (
    PriorFamily,
    PriorSpec,
    build_posterior,
    posterior_cdf,
    posterior_pdf,
)
from interval_lab.special_fn import t_cdf, t_quantile, t_two_sided

RHO_2X2 = -1.0 / math.sqrt(2.0)
XI_2X2 = 1.0 / 1.2

FIG1_STATS = SufficientStats(theta_hat=0.0, tau_hat=0.3, sigma_hat=0.1, m=100, rho=0.98)
FIG1_PRIOR = PriorSpec(PriorFamily.SLAB_SPIKE_VARIANCE, xi=0.8)


def report(num: int, label: str, checks) -> None:
    """Print one acceptance line, then fail with the offending details."""
    bad = [detail for ok, detail in checks if not ok]
    print(f"\nACCEPTANCE {num} ({label}): {'FAIL' if bad else 'PASS'}")
    assert not bad, f"criterion {num} ({label}): {bad}"


@pytest.fixture(scope="session")
def designed_pair():
    return design(DesignConfig())


def mixture_mass(mix) -> float:
    locs = sorted((mix.comp_spike.loc, mix.comp_slab.loc))
    span = 60.0 * max(mix.comp_spike.scale, mix.comp_slab.scale)
    lo, hi = locs[0] - span, locs[-1] + span
    mid, _ = integrate.quad(
        lambda th: posterior_pdf(mix, th), lo, hi, points=locs, limit=200
    )
    left, _ = integrate.quad(lambda th: posterior_pdf(mix, th), -np.inf, lo)
    right, _ = integrate.quad(lambda th: posterior_pdf(mix, th), hi, np.inf)
    return left + mid + right


class TestDesignRiskProfile:
    def test_designed_interval_hits_reference_risk_values(self, designed_pair):
        sp = designed_pair
        gammas = np.arange(0.0, 20.0 + 1e-9, 0.05)
        cov, sel = coverage_and_sel_grid(sp, gammas, tol=1e-7)
        e2 = sel**2
        checks = [
            (abs(e2[0] - 0.8524) <= 0.01, f"e2(0) = {e2[0]:.6f} not within 0.01 of 0.8524"),
            (abs(e2.max() - 1.0852) <= 0.01, f"max e2 = {e2.max():.6f} not within 0.01 of 1.0852"),
            (cov.min() >= 0.9495, f"min coverage {cov.min():.6f} < 0.9495"),
        ]
        report(1, "designed-interval risk profile", checks)


class TestQuadratureMatchesMonteCarlo:
    def test_coverage_and_sel_within_three_se(self, designed_pair):
        sp = designed_pair
        procs = [
            ("standard", StandardProcedure(m=4, alpha=0.05)),
            ("designed", KGProcedure(designed_pair)),
        ]
        checks = []
        for name, proc in procs:
            for gamma in (0.0, 1.0, 2.0, 4.0, 8.0, 14.0):
                cfg = SimConfig(n_rep=1_000_000, seed=20240 + int(gamma), gamma=gamma,
                                m=4, rho=sp.rho)
                res = simulate(proc, cfg)
                if name == "standard":
                    cov_q, sel_q = 0.95, 1.0
                else:
                    cov_q = coverage_probability(gamma, sp)
                    sel_q = scaled_expected_length(gamma, sp)
                checks.append((
                    abs(res.coverage_estimate - cov_q) <= 3.0 * res.coverage_se,
                    f"{name} coverage at gamma={gamma}: mc {res.coverage_estimate:.5f}"
                    f" vs quad {cov_q:.5f} (se {res.coverage_se:.2e})",
                ))
                checks.append((
                    abs(res.sel_estimate - sel_q) <= 3.0 * res.sel_se,
                    f"{name} sel at gamma={gamma}: mc {res.sel_estimate:.5f}"
                    f" vs quad {sel_q:.5f} (se {res.sel_se:.2e})",
                ))
        report(2, "quadrature vs Monte Carlo", checks)


class TestExtremeCaseIdentities:
    def test_closed_form_limits(self):
        stats = SufficientStats(theta_hat=1.3, tau_hat=0.7, sigma_hat=2.0, m=6, rho=0.42)
        s, m = stats.sigma_hat, stats.m
        tol = 1e-8 * s
        mu1 = stats.theta_hat - stats.rho * stats.tau_hat
        q2 = (m * s**2 + stats.tau_hat**2) * (1.0 - stats.rho**2)
        checks = []

        iv = equi_tailed(build_posterior(stats, PriorSpec(FIG1_PRIOR.family, xi=0.0)), 0.05)
        crit = t_two_sided(0.05, m)
        checks.append((abs(iv.lower - (stats.theta_hat - crit * s)) <= tol
                       and abs(iv.upper - (stats.theta_hat + crit * s)) <= tol,
                       "xi=0 interval != standard interval"))

        iv = equi_tailed(build_posterior(stats, PriorSpec(FIG1_PRIOR.family, xi=1.0)), 0.05)
        half = t_two_sided(0.05, m + 1) * math.sqrt(q2 / (m + 1))
        checks.append((abs(iv.lower - (mu1 - half)) <= tol and abs(iv.upper - (mu1 + half)) <= tol,
                       "variance-flat xi=1 interval != m+1 dof pivot"))

        mix = build_posterior(stats, PriorSpec(PriorFamily.SLAB_SPIKE_SCALE, xi=1.0, g=1.0))
        scale1 = math.sqrt(q2 / m)
        half = t_two_sided(0.05, m) * scale1
        iv = equi_tailed(mix, 0.05)
        checks.append((abs(iv.lower - (mu1 - half)) <= tol and abs(iv.upper - (mu1 + half)) <= tol,
                       "scale-graded g=1 xi=1 interval != m dof pivot"))
        theta_probe = mu1 + np.array([-2.1, -0.3, 0.8, 1.7]) * scale1
        dens = posterior_pdf(mix, theta_probe)
        from interval_lab.special_fn import t_pdf

        ref = t_pdf((theta_probe - mu1) / scale1, m) / scale1
        checks.append((bool(np.allclose(dens, ref, rtol=1e-9)),
                       "scale-graded g=1 xi=1 density != m dof density"))
        report(3, "extreme-case identities", checks)


class TestBimodalHpd:
    def test_two_interval_hpd_with_exact_mass(self):
        mix = build_posterior(FIG1_STATS, FIG1_PRIOR)
        theta = np.linspace(-0.5, 0.35, 2001)
        dens = posterior_pdf(mix, theta)
        signs = np.sign(np.diff(dens))
        flips = int(np.sum(signs[:-1] * signs[1:] < 0))
        hpd = hpd_set(mix, 0.05)
        mass = sum(
            posterior_cdf(mix, iv.upper) - posterior_cdf(mix, iv.lower)
            for iv in hpd.intervals
        )
        checks = [
            (flips == 3, f"density has {flips} turning points, expected 3 (bimodal)"),
            (len(hpd.intervals) == 2, f"hpd has {len(hpd.intervals)} intervals, expected 2"),
            (abs(mass - 0.95) <= 1e-5, f"hpd mass {mass:.7f} not within 1e-5 of 0.95"),
        ]
        report(4, "bimodal posterior and two-interval hpd", checks)


class TestScaleInvarianceDichotomy:
    @staticmethod
    def summaries(family, sigma_hat, kind):
        out = []
        for r in np.arange(-10.0, 10.0 + 1e-9, 0.5):
            stats = SufficientStats(theta_hat=0.0, tau_hat=r * sigma_hat,
                                    sigma_hat=sigma_hat, m=4, rho=RHO_2X2)
            prior = PriorSpec(family, xi=XI_2X2, g=1.0)
            mix = build_posterior(stats, prior)
            iv = equi_tailed(mix, 0.05) if kind == "equi" else shortest(mix, 0.05)
            sm = scaled_summary(iv, stats)
            out.append((sm.scaled_offset, sm.scaled_half_length))
        return np.array(out)

    def test_scale_graded_family_invariant_variance_flat_not(self):
        checks = []
        for kind in ("equi", "shortest"):
            a = self.summaries(PriorFamily.SLAB_SPIKE_SCALE, 1.0, kind)
            b = self.summaries(PriorFamily.SLAB_SPIKE_SCALE, 10.0, kind)
            checks.append((bool(np.allclose(a, b, atol=1e-9)),
                           f"scale-graded {kind} summaries moved more than 1e-9 with sigma_hat"))
        a = self.summaries(PriorFamily.SLAB_SPIKE_VARIANCE, 1.0, "equi")
        b = self.summaries(PriorFamily.SLAB_SPIKE_VARIANCE, 10.0, "equi")
        i = 24  # r = 2.0 on the half-unit grid from -10
        gap = np.max(np.abs(a[i] - b[i]))
        checks.append((gap > 1e-3,
                       f"variance-flat summaries at r=2 differ by only {gap:.2e}"))
        report(5, "sigma-hat invariance dichotomy", checks)


class TestPropertySuite:
    def test_bundle_of_invariants(self, designed_pair):
        checks = []
        rng = np.random.default_rng(11)

        ps = np.concatenate(([1e-3], np.linspace(0.01, 0.99, 41), [1 - 1e-3],
                             rng.uniform(1e-3, 1 - 1e-3, size=20)))
        for m in (1, 2, 4, 37, 400):
            err = max(abs(float(t_cdf(t_quantile(p, m), m)) - p) for p in ps)
            checks.append((err <= 1e-9, f"t round-trip error {err:.2e} at m={m}"))

        fixtures = []
        for _ in range(6):
            stats = SufficientStats(
                theta_hat=float(rng.normal(0, 2)), tau_hat=float(rng.normal(0, 3)),
                sigma_hat=float(rng.uniform(0.3, 4.0)), m=int(rng.integers(2, 40)),
                rho=float(rng.uniform(-0.95, 0.95)),
            )
            family = PriorFamily.SLAB_SPIKE_VARIANCE if rng.random() < 0.5 else PriorFamily.SLAB_SPIKE_SCALE
            prior = PriorSpec(family, xi=float(rng.uniform(0.05, 0.95)), g=float(rng.uniform(0.5, 3.0)))
            fixtures.append(build_posterior(stats, prior))

        norm_err = max(abs(mixture_mass(mix) - 1.0) for mix in fixtures)
        checks.append((norm_err <= 1e-8, f"posterior normalization error {norm_err:.2e}"))

        qres = max(
            abs(posterior_cdf(mix, lower_quantile(mix, eta)) - eta)
            for mix in fixtures
            for eta in (0.01, 0.025, 0.2, 0.5, 0.9, 0.975)
        )
        checks.append((qres <= 1e-9, f"quantile-equation residual {qres:.2e}"))

        worst = max(
            shortest(mix, 0.05).length - equi_tailed(mix, 0.05).length for mix in fixtures
        )
        checks.append((worst <= 1e-9, f"shortest exceeds equi-tailed by {worst:.2e}"))

        sp = designed_pair
        even_err = max(
            max(abs(coverage_probability(g, sp) - coverage_probability(-g, sp)),
                abs(scaled_expected_length(g, sp) - scaled_expected_length(-g, sp)))
            for g in (0.7, 3.3, 9.1)
        )
        checks.append((even_err <= 1e-8, f"coverage/sel evenness error {even_err:.2e}"))

        tail = scaled_expected_length(20.0, sp) ** 2
        checks.append((abs(tail - 1.0) < 1e-3, f"e2(20) = {tail:.6f} not within 1e-3 of 1"))

        crit = t_two_sided(0.05, 4)
        reverted = True
        for r in (12.0, 13.7, -40.0):
            stats = SufficientStats(theta_hat=0.4, tau_hat=r * 1.7, sigma_hat=1.7,
                                    m=4, rho=sp.rho)
            iv = kg_interval(stats, sp)
            reverted &= iv.lower == 0.4 - crit * 1.7 and iv.upper == 0.4 + crit * 1.7
        checks.append((reverted, "designed interval did not revert exactly for |r| >= d"))
        report(6, "property suite", checks)


class TestLargeMLimit:
    def test_central_interval_length_ratio(self):
        stats = SufficientStats(theta_hat=0.0, tau_hat=1.4, sigma_hat=1.0, m=400, rho=0.6)
        mix_scale = build_posterior(stats, PriorSpec(PriorFamily.SLAB_SPIKE_SCALE, xi=1.0, g=1.0))
        mix_var = build_posterior(stats, PriorSpec(PriorFamily.SLAB_SPIKE_VARIANCE, xi=1.0))
        ratio = equi_tailed(mix_var, 0.05).length / equi_tailed(mix_scale, 0.05).length
        checks = [(abs(ratio - 1.0) <= 0.01, f"central-interval length ratio {ratio:.6f}")]
        report(7, "large-m agreement of the two families", checks)
