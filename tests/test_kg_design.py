"""Design criterion and constrained spline optimization.

The closed-form gamma integral of the SEL excess is cross-checked by
numerically integrating the quadrature SEL curve, a dual route that
shares no code with the spline antiderivative.
"""

from pathlib import Path

import numpy as np
import pytest

from interval_lab.kg_core import (
    GammaGrid,
    SplinePair,
    coverage_and_sel_grid,
    scaled_expected_length,
    spline_pair_from_json,
)
from interval_lab import kg_design
from interval_lab.kg_design import DesignConfig, _PenaltyModel, _densify, design, objective
from interval_lab.special_fn import t_two_sided

GOLDEN = Path(__file__).parent / "golden" / "designed_pair.json"


def golden_pair() -> SplinePair:
    return spline_pair_from_json(GOLDEN.read_text())


def small_config(**overrides) -> DesignConfig:
    base = dict(
        d=6.0,
        knots=(0.0, 3.0, 6.0),
        gamma_constraint_grid=GammaGrid.regular(14.0, 0.5),
        penalty_stages=5,
        max_iter=50,
        constraint_tol=1e-4,
    )
    base.update(overrides)
    return DesignConfig(**base)


class TestObjective:
    def test_standard_pair_scores_zero(self):
        cfg = DesignConfig()
        sp = SplinePair.standard(m=cfg.m, alpha=cfg.alpha, rho=cfg.rho, d=cfg.d, knots=cfg.knots)
        assert objective(sp, cfg) == 0.0

    def test_pure_local_weight(self):
        sp = golden_pair()
        cfg = DesignConfig(xi_tilde=1.0)
        e0 = scaled_expected_length(0.0, sp, tol=1e-9)
        assert objective(sp, cfg) == pytest.approx(e0 - 1.0, abs=1e-14)

    def test_integral_route_matches_quadrature_curve(self):
        # closed form from the spline antiderivative vs trapezoid over the
        # even SEL excess computed by adaptive quadrature
        sp = golden_pair()
        cfg = DesignConfig(xi_tilde=0.0)
        closed = objective(sp, cfg)
        gammas = np.arange(0.0, 25.0 + 1e-12, 0.05)
        _, sel = coverage_and_sel_grid(sp, gammas, tol=1e-9)
        numeric = 2.0 * np.trapezoid(sel - 1.0, gammas)
        assert closed == pytest.approx(numeric, abs=5e-5)

    def test_inconsistent_pair_rejected(self):
        cfg = DesignConfig()
        sp = SplinePair.standard(m=cfg.m, alpha=cfg.alpha, rho=0.0, d=cfg.d, knots=cfg.knots)
        with pytest.raises(ValueError, match="inconsistent"):
            objective(sp, cfg)

    def test_golden_pair_improves_on_standard(self):
        assert objective(golden_pair(), DesignConfig()) < 0.0


class TestDesignConfig:
    def test_defaults(self):
        cfg = DesignConfig()
        assert cfg.m == 4
        assert cfg.rho == pytest.approx(-1.0 / np.sqrt(2.0))
        assert cfg.xi_tilde == pytest.approx(1.0 / 1.2)
        assert cfg.t_crit == pytest.approx(t_two_sided(0.05, 4), abs=1e-14)
        assert cfg.gamma_constraint_grid.points[-1] == 20.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"xi_tilde": 1.2},
            {"xi_tilde": -0.1},
            {"alpha": 1.0},
            {"rho": 1.0},
            {"m": 0},
            {"knots": (0.0, 12.0)},
            {"knots": (0.0, 2.0, 11.0)},
            {"gamma_constraint_grid": GammaGrid.regular(10.0, 0.5)},
            {"knots": (0.0, 6.0, 4.0, 12.0)},
            {"penalty_stages": 0},
            {"penalty_stages": 2.5},
            {"penalty_stages": "3"},
            {"max_iter": 0},
            {"max_iter": 15.0},
            {"constraint_tol": -1.0},
            {"constraint_tol": 0.0},
            {"constraint_tol": float("inf")},
            {"constraint_tol": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DesignConfig(**kwargs)


class TestPenaltyModel:
    def test_matches_adaptive_quadrature(self):
        cfg = DesignConfig()
        model = _PenaltyModel(cfg)
        sp = golden_pair()
        v = np.asarray(sp.b_values[1:-1] + sp.s_values[:-1])
        obj, _, cov = model.terms(v)
        assert obj == pytest.approx(objective(sp, DesignConfig()), abs=1e-6)
        grid_cov, _ = coverage_and_sel_grid(
            sp, cfg.gamma_constraint_grid.as_array(), tol=1e-9
        )
        np.testing.assert_allclose(cov, grid_cov, atol=1e-6)

    def test_standard_values_are_exact(self):
        cfg = DesignConfig()
        model = _PenaltyModel(cfg)
        v = np.concatenate([np.zeros(model.n_b), np.full(model.knots.size - 1, cfg.t_crit)])
        obj, pen, cov = model.terms(v)
        assert obj == 0.0
        assert pen <= 1e-30  # one-ulp coverage dips from reassociated products
        np.testing.assert_allclose(cov, 1.0 - cfg.alpha, atol=1e-15)


class TestPenaltyGradient:
    MU = 1e4

    def golden_vector(self) -> np.ndarray:
        sp = golden_pair()
        return np.asarray(sp.b_values[1:-1] + sp.s_values[:-1])

    def check_gradient(self, model, v):
        _, grad = model.value_and_grad(v, self.MU)
        h = 1e-6
        central = np.empty(v.size)
        for i in range(v.size):
            step = np.zeros(v.size)
            step[i] = h
            obj_p, pen_p, _ = model.terms(v + step)
            obj_m, pen_m, _ = model.terms(v - step)
            central[i] = ((obj_p + self.MU * pen_p) - (obj_m + self.MU * pen_m)) / (2.0 * h)
        np.testing.assert_allclose(grad, central, rtol=0.0, atol=1e-6 * np.max(np.abs(grad)))

    def test_gradient_at_golden_point(self):
        self.check_gradient(_PenaltyModel(DesignConfig()), self.golden_vector())

    def test_gradient_where_every_gamma_is_short(self):
        model = _PenaltyModel(DesignConfig())
        v = self.golden_vector()
        v[model.n_b :] -= 0.3
        _, _, cov = model.terms(v)
        assert np.all(cov < 1.0 - model.cfg.alpha)
        self.check_gradient(model, v)

    def test_value_matches_terms(self):
        model = _PenaltyModel(DesignConfig())
        v = self.golden_vector()
        value, _ = model.value_and_grad(v, self.MU)
        obj, pen, _ = model.terms(v)
        assert value == pytest.approx(obj + self.MU * pen, rel=0.0, abs=1e-14)


class TestDesign:
    def test_deterministic(self):
        cfg = small_config()
        first = design(cfg)
        second = design(cfg)
        assert first == second

    def test_zero_global_weight_returns_near_standard(self):
        cfg = small_config(xi_tilde=0.0)
        sp = design(cfg)
        crit = cfg.t_crit
        assert objective(sp, cfg) <= 1e-4
        assert max(abs(b) for b in sp.b_values) <= 0.1
        assert max(abs(s - crit) for s in sp.s_values) <= 0.01 * crit

    def test_no_feasible_perturbation_improves(self):
        cfg = small_config(xi_tilde=0.0)
        sp = design(cfg)
        model = _PenaltyModel(cfg)
        v_opt = np.asarray(sp.b_values[1:-1] + sp.s_values[:-1])
        obj_opt, _, _ = model.terms(v_opt)
        rng = np.random.default_rng(5)
        n_feasible = 0
        for _ in range(40):
            v = v_opt + rng.normal(0.0, 0.05, v_opt.size)
            v[model.n_b :] += abs(rng.normal(0.0, 0.05))
            obj, _, cov = model.terms(v)
            if float(cov.min()) >= 1.0 - cfg.alpha:
                n_feasible += 1
                assert obj >= obj_opt - 1e-6
        assert n_feasible >= 5

    def test_stall_raises_with_diagnostics(self):
        cfg = small_config(penalty_stages=1, max_iter=8)
        with pytest.raises(RuntimeError, match="violation"):
            design(cfg)

    def test_one_verification_pass_on_the_dense_grid(self, monkeypatch):
        calls = []
        adaptive = kg_design.coverage_and_sel_grid

        def counted(sp, gammas, **kwargs):
            calls.append(np.array(gammas))
            return adaptive(sp, gammas, **kwargs)

        monkeypatch.setattr(kg_design, "coverage_and_sel_grid", counted)
        cfg = small_config()
        design(cfg)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], _densify(cfg.gamma_constraint_grid))


@pytest.mark.parametrize(
    "grid",
    [
        GammaGrid.regular(20.0, 0.5),
        GammaGrid.regular(14.0, 0.5),
        GammaGrid.regular(20.0, 0.25),
        GammaGrid(points=(0.0, 0.3, 1.0, 2.5, 7.0, 13.1, 20.0)),
    ],
)
def test_dense_grid_holds_every_grid_point(grid):
    # the design reads its grid coverage off every 10th dense gamma
    np.testing.assert_array_equal(_densify(grid)[::10], grid.as_array())
