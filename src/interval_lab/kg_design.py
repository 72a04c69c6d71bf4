"""Design of the spline pair (b, s) by constrained minimization.

The criterion is xi_tilde * (e(0; s) - 1) + (1 - xi_tilde) * int (e - 1) dgamma
subject to min over gamma of coverage >= 1 - alpha.  Decision variables
are the b values at interior knots (b is pinned to 0 at 0 and d) and
the s values at all knots except s(d) = t(m).

The gamma integral of e - 1 has a closed form: integrating the SEL
correction over the real line makes the Gaussian factor integrate to
one and leaves E[W^2] = 1, giving
2 * int_0^d (s(x) - t(m)) dx / (t(m) E[W]), evaluated exactly from the
spline.

Coverage on the constraint grid and e(0) come from kg_core's risk
kernel at fixed quadrature orders (_ORDER_X, _ORDER_W), the same
integrand the adaptive quadrature refines; the kernel is built once per
design, so an evaluation only maps the knot values through the fixed
spline basis.

The constraint is enforced by a sequential quadratic penalty on the
coverage shortfall over a finite gamma grid, with an L-BFGS-B inner
solver.  The objective is linear in s, and the kernel's Jacobian gives
the exact gradient of the coverage, so one kernel pass per evaluation
yields the penalized value and its exact gradient.  The penalty target
is exactly 1 - alpha: a padded target would move the mu -> infinity
limit away from the true constrained optimum, whereas with the exact
target the equilibrium shortfall shrinks like 1/mu and the iterates
converge to it.  Every returned design is re-verified on a 10x denser
grid.  The whole procedure is deterministic and starts no thread pool.
"""

from __future__ import annotations

import math
# unused: bench/layers.py wraps this name to count the design's thread pools (none)
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from interval_lab.kg_core import (
    GammaGrid,
    SplinePair,
    coverage_and_sel_grid,
    expected_w,
    scaled_expected_length,
    _RiskKernel,
    _spline_integral_weights,
)
from interval_lab.special_fn import t_two_sided

__all__ = ["DesignConfig", "design", "objective"]

# fixed quadrature orders of the design's coverage and e(0) evaluations
_ORDER_X = 8
_ORDER_W = 10


def _default_grid() -> GammaGrid:
    return GammaGrid.regular(20.0, 0.5)


@dataclass(frozen=True)
class DesignConfig:
    """Problem data plus optimizer tuning for the spline-pair design."""

    m: int = 4
    rho: float = -1.0 / math.sqrt(2.0)
    alpha: float = 0.05
    xi_tilde: float = 1.0 / 1.2
    d: float = 12.0
    knots: tuple = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    gamma_constraint_grid: GammaGrid = field(default_factory=_default_grid)
    penalty_init: float = 1e4
    penalty_growth: float = math.sqrt(10.0)
    penalty_stages: int = 12
    max_iter: int = 150
    obj_tol: float = 1e-7
    constraint_tol: float = 1e-6

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "knots", tuple(float(x) for x in self.knots))
        if not 0.0 <= self.xi_tilde <= 1.0:
            raise ValueError(f"xi_tilde must lie in [0, 1], got {self.xi_tilde!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha!r}")
        if not abs(self.rho) < 1.0:
            raise ValueError(f"|rho| must be < 1, got {self.rho!r}")
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        k = np.asarray(self.knots)
        if k.size < 3 or np.any(np.diff(k) <= 0.0):
            raise ValueError("knots must be at least three strictly ascending values")
        if k[0] != 0.0 or k[-1] != float(self.d):
            raise ValueError("knots must start at 0 and end at d")
        self.gamma_constraint_grid.require_span(float(self.d) + 8.0)

    @property
    def t_crit(self) -> float:
        return t_two_sided(self.alpha, self.m)


def _sel_integral(knots: tuple, s_values, crit: float, e_w: float) -> float:
    """Exact value of int over the real line of (e(gamma) - 1) dgamma."""
    excess = _spline_integral_weights(knots) @ (np.asarray(s_values) - crit)
    return 2.0 * float(excess) / (crit * e_w)


def objective(sp: SplinePair, cfg: DesignConfig) -> float:
    """Weighted SEL criterion: xi_tilde*(e(0)-1) + (1-xi_tilde)*int(e-1)dgamma."""
    if (
        sp.m != cfg.m
        or sp.alpha != cfg.alpha
        or sp.rho != cfg.rho
        or sp.d != float(cfg.d)
        or sp.knots != cfg.knots
    ):
        raise ValueError("spline pair is inconsistent with the design configuration")
    e0 = scaled_expected_length(0.0, sp, tol=1e-9)
    integral = _sel_integral(sp.knots, sp.s_values, sp.t_crit, expected_w(cfg.m))
    return cfg.xi_tilde * (e0 - 1.0) + (1.0 - cfg.xi_tilde) * integral


class _PenaltyModel:
    """Objective, penalty and grid coverage of the decision vector.

    The vector holds b at the interior knots, then s at every knot but d.
    One risk kernel over the constraint grid serves every evaluation; the
    grid starts at gamma = 0, so its first SEL term is e(0) - 1.  The
    objective is obj_w @ (s - t(m)) over all knots.
    """

    def __init__(self, cfg: DesignConfig):
        self.cfg = cfg
        self.crit = cfg.t_crit
        self.knots = np.asarray(cfg.knots)
        self.n_b = self.knots.size - 2
        self.kernel = _RiskKernel(cfg.knots, cfg.m, cfg.rho, cfg.alpha,
                                  cfg.gamma_constraint_grid.as_array(), _ORDER_X, _ORDER_W)
        e0_w = self.kernel.sel_w[0] @ self.kernel.basis_s
        integral_w = 2.0 * _spline_integral_weights(cfg.knots)
        self.obj_w = (cfg.xi_tilde * e0_w + (1.0 - cfg.xi_tilde) * integral_w) / (
            self.crit * expected_w(cfg.m)
        )

    def _split(self, v: np.ndarray):
        b_full = np.concatenate(([0.0], v[: self.n_b], [0.0]))
        return b_full, np.concatenate((v[self.n_b :], [self.crit]))

    def terms(self, v: np.ndarray):
        b_full, s_full = self._split(v)
        cov, _ = self.kernel(b_full, s_full)
        cov += 1.0 - self.cfg.alpha
        obj = float(self.obj_w @ (s_full - self.crit))
        shortfall = np.clip((1.0 - self.cfg.alpha) - cov, 0.0, None)
        return obj, float(shortfall @ shortfall), cov

    def value_and_grad(self, v: np.ndarray, mu: float):
        """obj + mu * |shortfall|^2 and its exact gradient, from one kernel pass."""
        b_full, s_full = self._split(v)
        cov, d_b, d_s = self.kernel.jacobian(b_full, s_full)
        cov += 1.0 - self.cfg.alpha
        obj = float(self.obj_w @ (s_full - self.crit))
        shortfall = np.clip((1.0 - self.cfg.alpha) - cov, 0.0, None)
        jac = np.concatenate((d_b[:, 1:-1], d_s[:, :-1]), axis=1)
        grad = -2.0 * mu * (shortfall @ jac)
        grad[self.n_b :] += self.obj_w[:-1]
        return obj + mu * float(shortfall @ shortfall), grad

    def to_pair(self, v: np.ndarray) -> SplinePair:
        return SplinePair(
            d=self.cfg.d,
            knots=self.cfg.knots,
            b_values=(0.0, *v[: self.n_b], 0.0),
            s_values=(*v[self.n_b :], self.crit),
            m=self.cfg.m,
            alpha=self.cfg.alpha,
            rho=self.cfg.rho,
        )


def _densify(grid: GammaGrid, factor: int = 10) -> np.ndarray:
    pts = grid.as_array()
    pieces = [
        np.linspace(pts[i], pts[i + 1], factor + 1)[:-1] for i in range(pts.size - 1)
    ]
    return np.concatenate(pieces + [pts[-1:]])


def design(cfg: DesignConfig) -> SplinePair:
    """Minimize the weighted SEL criterion subject to minimum coverage 1 - alpha.

    Sequential quadratic penalty with an L-BFGS-B inner solver fed the
    exact gradient from the risk kernel's Jacobian, started from the
    standard pair (b = 0, s = t(m)).  Stops once the stage-to-stage
    objective change drops below obj_tol with grid constraint violation
    below constraint_tol, then re-verifies coverage on a 10x denser grid.
    """
    model = _PenaltyModel(cfg)
    crit = cfg.t_crit
    n_b = model.n_b
    n_s = model.knots.size - 1
    v = np.concatenate([np.zeros(n_b), np.full(n_s, crit)])
    bounds = [(-2.0 * crit, 2.0 * crit)] * n_b + [(0.2 * crit, 2.5 * crit)] * n_s

    mu = cfg.penalty_init
    obj_prev = None
    for _stage in range(cfg.penalty_stages):
        res = minimize(
            model.value_and_grad,
            v,
            args=(mu,),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={
                "maxiter": cfg.max_iter,
                "ftol": 1e-12,
                "gtol": 1e-9,
                "maxls": 30,
                "maxcor": 20,
            },
        )
        v = res.x
        obj, _, cov = model.terms(v)
        violation = max(0.0, (1.0 - cfg.alpha) - float(cov.min()))
        if (
            obj_prev is not None
            and abs(obj_prev - obj) < cfg.obj_tol
            and violation < cfg.constraint_tol
        ):
            break
        obj_prev = obj
        mu *= cfg.penalty_growth

    obj, _, cov = model.terms(v)
    violation = max(0.0, (1.0 - cfg.alpha) - float(cov.min()))
    if violation >= cfg.constraint_tol:
        raise RuntimeError(
            "design optimizer stalled with constraint violation "
            f"{violation:.3e}; last iterate objective={obj:.6e}, "
            f"min grid coverage={float(cov.min()):.6f}, values={v.tolist()}"
        )

    sp = model.to_pair(v)
    grid_cov, _ = coverage_and_sel_grid(
        sp, cfg.gamma_constraint_grid.as_array(), tol=1e-7
    )
    dense_cov, _ = coverage_and_sel_grid(sp, _densify(cfg.gamma_constraint_grid), tol=1e-7)
    floor_grid = 1.0 - cfg.alpha - 1e-4
    floor_dense = 1.0 - cfg.alpha - 5e-4
    if float(grid_cov.min()) < floor_grid or float(dense_cov.min()) < floor_dense:
        raise RuntimeError(
            "designed pair failed coverage verification: "
            f"min grid coverage={float(grid_cov.min()):.6f} (floor {floor_grid}), "
            f"min dense coverage={float(dense_cov.min()):.6f} (floor {floor_dense}); "
            f"values={v.tolist()}"
        )
    return sp
