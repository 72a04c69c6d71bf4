"""The spline-based confidence interval J(b, s) and its frequentist risk.

J(b, s) is centered at theta_hat - sigma_hat * b(tau_hat/sigma_hat)
with half-width sigma_hat * s(tau_hat/sigma_hat), where b is odd and
vanishes for |x| >= d while s is even and equals the two-sided critical
value t(m) for |x| >= d.  Inside [0, d] both functions are natural
cubic splines on a shared knot grid.

Coverage probability and scaled expected length are computed as exact
"standard interval" baselines plus correction integrals supported on
|h/w| < d, where h is the constraint statistic in sigma units and w the
scale estimate in sigma units:

    cov(gamma) = (1 - alpha)
        + int f_W(w) w int_{-d}^{d} phi(wx - gamma) [Psi - Psi_0] dx dw
    e(gamma)   = 1
        + int f_W(w) w^2 int_{-d}^{d} phi(wx - gamma) (s(x) - t(m)) dx dw
          / (t(m) E[W])

(one factor of w is the h = wx Jacobian; the length integrand carries
another)

with Psi the conditional hit probability of J and Psi_0 the same for
the standard interval.  Both integrands are smooth except for spline
kinks at the knots, so panels are aligned with the (reflected) knot
grid and Gauss-Legendre panels are doubled until the estimate is
stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import special
from scipy.interpolate import CubicSpline

from interval_lab.credible import RealInterval
from interval_lab.model_prep import SufficientStats
from interval_lab.special_fn import t_two_sided

__all__ = [
    "SplinePair",
    "GammaGrid",
    "eval_b",
    "eval_s",
    "kg_interval",
    "coverage_probability",
    "scaled_expected_length",
    "coverage_and_sel_grid",
    "expected_w",
    "spline_pair_to_json",
    "spline_pair_from_json",
]


def expected_w(m: float) -> float:
    """E[W] with m W^2 ~ chi-square(m): sqrt(2/m) Gamma((m+1)/2) / Gamma(m/2)."""
    m = float(m)
    if m <= 0.0:
        raise ValueError(f"m must be positive, got {m!r}")
    return math.sqrt(2.0 / m) * float(special.poch(m / 2.0, 0.5))


@dataclass(frozen=True)
class SplinePair:
    """Natural cubic splines (b, s) on [0, d] plus the ambient (m, alpha, rho).

    Parameters
    ----------
    d : float
        Transition abscissa; both functions are constant for |x| >= d.
    knots : tuple of float
        Ascending knot abscissae from 0 to d.
    b_values : tuple of float
        Spline values of the odd offset function b; b(0) = b(d) = 0.
    s_values : tuple of float
        Spline values of the even half-length function s, all positive;
        s(d) must equal the two-sided critical value t(m).
    m : int
        Residual degrees of freedom.
    alpha : float
        Nominal noncoverage, 0 < alpha < 1.
    rho : float
        Correlation of the two estimators, |rho| < 1.
    """

    d: float
    knots: tuple
    b_values: tuple
    s_values: tuple
    m: int
    alpha: float
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", float(self.d))
        object.__setattr__(self, "knots", tuple(float(x) for x in self.knots))
        object.__setattr__(self, "b_values", tuple(float(x) for x in self.b_values))
        object.__setattr__(self, "s_values", tuple(float(x) for x in self.s_values))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "rho", float(self.rho))
        if not self.d > 0.0:
            raise ValueError(f"d must be positive, got {self.d!r}")
        k = np.asarray(self.knots)
        if k.size < 2 or np.any(np.diff(k) <= 0.0):
            raise ValueError("knots must be at least two strictly ascending values")
        if k[0] != 0.0 or k[-1] != self.d:
            raise ValueError("knots must start at 0 and end at d")
        if len(self.b_values) != k.size or len(self.s_values) != k.size:
            raise ValueError("b_values and s_values must match the knot count")
        if self.b_values[0] != 0.0 or self.b_values[-1] != 0.0:
            raise ValueError("b must vanish at 0 and at d")
        if min(self.s_values) <= 0.0:
            raise ValueError("s must be positive at every knot")
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha!r}")
        if not abs(self.rho) < 1.0:
            raise ValueError(f"|rho| must be < 1, got {self.rho!r}")
        if abs(self.s_values[-1] - self.t_crit) > 1e-6:
            raise ValueError(
                f"s(d) = {self.s_values[-1]!r} must equal the two-sided critical "
                f"value {self.t_crit!r}"
            )

    @property
    def t_crit(self) -> float:
        """Two-sided critical value t(m) at this pair's alpha."""
        return _t_crit_cached(self.alpha, self.m)

    @cached_property
    def _spline_b(self) -> CubicSpline:
        return CubicSpline(self.knots, self.b_values, bc_type="natural")

    @cached_property
    def _spline_s(self) -> CubicSpline:
        return CubicSpline(self.knots, self.s_values, bc_type="natural")

    @classmethod
    def standard(cls, m: int, alpha: float, rho: float, d: float = 12.0,
                 knots=None) -> "SplinePair":
        """The pair (b = 0, s = t(m)) whose interval is the usual t interval."""
        if knots is None:
            knots = tuple(np.linspace(0.0, d, 7))
        crit = t_two_sided(alpha, m)
        n = len(tuple(knots))
        return cls(
            d=d,
            knots=tuple(knots),
            b_values=(0.0,) * n,
            s_values=(crit,) * n,
            m=m,
            alpha=alpha,
            rho=rho,
        )


@lru_cache(maxsize=256)
def _t_crit_cached(alpha: float, m: int) -> float:
    return t_two_sided(alpha, m)


@dataclass(frozen=True)
class GammaGrid:
    """Ascending nonnegative gamma points starting at 0."""

    points: tuple

    def __post_init__(self) -> None:
        pts = tuple(float(x) for x in self.points)
        object.__setattr__(self, "points", pts)
        arr = np.asarray(pts)
        if arr.size < 2 or arr[0] != 0.0:
            raise ValueError("gamma grid must start at 0 and contain at least two points")
        if np.any(np.diff(arr) <= 0.0):
            raise ValueError("gamma grid must be strictly ascending")

    @classmethod
    def regular(cls, upper: float, step: float) -> "GammaGrid":
        n = int(round(upper / step))
        if abs(n * step - upper) > 1e-9:
            raise ValueError(f"step {step!r} does not divide upper bound {upper!r}")
        return cls(points=tuple(np.linspace(0.0, upper, n + 1)))

    def require_span(self, upper: float) -> None:
        if self.points[-1] < upper:
            raise ValueError(
                f"gamma grid must span at least [0, {upper!r}], ends at {self.points[-1]!r}"
            )

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points)


def eval_b(sp: SplinePair, x):
    """Odd offset function b(x): spline inside (-d, d), zero outside."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    inside = ax < sp.d
    val = sp._spline_b(np.clip(ax, 0.0, sp.d))
    out = np.where(inside, np.sign(x) * val, 0.0)
    return out if out.ndim else float(out)


def eval_s(sp: SplinePair, x):
    """Even half-length function s(x): spline inside (-d, d), t(m) outside."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    inside = ax < sp.d
    val = sp._spline_s(np.clip(ax, 0.0, sp.d))
    out = np.where(inside, val, sp.s_values[-1])
    return out if out.ndim else float(out)


def kg_interval(stats: SufficientStats, sp: SplinePair) -> RealInterval:
    """Apply J(b, s) to the sufficient statistics.

    The scaled offset is -b(r) and the scaled half-length s(r) with
    r = tau_hat / sigma_hat; for |r| >= d this is the standard interval.
    """
    if stats.m != sp.m:
        raise ValueError(f"degrees of freedom mismatch: stats m={stats.m}, spline m={sp.m}")
    r = stats.tau_hat / stats.sigma_hat
    center = stats.theta_hat - stats.sigma_hat * eval_b(sp, r)
    half = stats.sigma_hat * eval_s(sp, r)
    return RealInterval(center - half, center + half)


def _log_fw(w: np.ndarray, m: float) -> np.ndarray:
    """log density of W = sigma_hat/sigma, with m W^2 ~ chi-square(m)."""
    return (
        math.log(2.0)
        + 0.5 * m * math.log(m / 2.0)
        - special.gammaln(m / 2.0)
        + (m - 1.0) * np.log(w)
        - 0.5 * m * w * w
    )


@lru_cache(maxsize=32)
def _gl_nodes(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _panel_rule(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights on a union of panels."""
    nodes, weights = _gl_nodes(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return x, wts


@lru_cache(maxsize=128)
def _w_rule(m: int, order: int):
    """Quadrature for int_0^inf f_W(w) w g(w) dw: nodes and f_W(w) w weights.

    Panel edges follow W quantiles so the rule adapts to the sharpening
    of the W distribution as m grows; tail truncation holds < 1e-13 mass.
    """
    probs = np.array([1 - 1e-14, 0.9999, 0.995, 0.95, 0.75, 0.5, 0.25, 0.05, 0.005, 1e-4, 1e-14])
    edges = np.sqrt(special.chdtri(float(m), probs) / m)
    w, wts = _panel_rule(edges, order)
    fw = np.exp(_log_fw(w, float(m)))
    return w, wts * fw * w


@lru_cache(maxsize=512)
def _x_rule_cached(knots: tuple, order: int):
    """Quadrature on the reflected knot panels of [-d, d] and the spline basis there.

    Returns nodes x, weights, and the matrix whose column j is the natural
    cubic spline with value 1 at knot j and 0 at the others, evaluated at
    |x|; a spline with knot values v takes the values basis @ v at |x|.
    """
    k = np.asarray(knots)
    edges = np.concatenate((-k[::-1], k[1:]))
    x, wts = _panel_rule(edges, order)
    basis = CubicSpline(k, np.eye(k.size), bc_type="natural")(np.abs(x))
    return x, wts, basis


@lru_cache(maxsize=128)
def _spline_integral_weights(knots: tuple) -> np.ndarray:
    """Weights u with int_0^d s(x) dx = u @ v for the natural spline with knot values v."""
    k = np.asarray(knots)
    return CubicSpline(k, np.eye(k.size), bc_type="natural").integrate(0.0, k[-1])


class _RiskKernel:
    """Coverage and SEL correction integrals at fixed orders for given knot values.

    For fixed knots, (m, rho, alpha) and gammas, the Gaussian factor
    phi(w x - gamma), the quadrature weights, the standard-pair coverage
    baseline and the spline basis at the x nodes do not depend on the
    knot values, so each call costs two normal-CDF array evaluations and
    weighted sums, and the Jacobian adds two normal densities.  The s
    values enter as s - t(m), so the standard pair gives exactly zero
    corrections.
    """

    def __init__(self, knots, m: int, rho: float, alpha: float, gammas: np.ndarray,
                 order_x: int, order_w: int):
        xg, xw, basis = _x_rule_cached(tuple(knots), order_x)
        wg, ww = _w_rule(m, order_w)
        self.crit = _t_crit_cached(alpha, m)
        root = math.sqrt(1.0 - rho * rho)
        self.basis_b = np.sign(xg)[:, None] * basis
        self.basis_s = basis
        self.w_over_root = wg[:, None] / root
        # the (gamma, w, x) arrays dominate memory: build them in place
        z = wg[None, :, None] * xg[None, None, :] - np.asarray(gammas)[:, None, None]
        self.zr = (rho / root) * z
        phi = np.exp(np.multiply(z, -0.5 * z, out=z), out=z)
        phi *= 1.0 / math.sqrt(2.0 * math.pi)
        self.sel_w = ((ww * wg) @ phi) * xw
        phi *= ww[:, None]
        phi *= xw
        self.phiw = phi
        self.base_cov = self._hit_mass(*self._limits(0.0, self.crit))

    def _limits(self, bs, ss):
        """Standardized hit limits (hi, lo) of J for b, s at the x nodes."""
        hi = np.subtract(self.w_over_root * (bs + ss), self.zr)
        lo = np.subtract(self.w_over_root * (bs - ss), self.zr)
        return hi, lo

    def _hit_mass(self, hi, lo) -> np.ndarray:
        """phi-weighted integral of the hit probability Phi(hi) - Phi(lo); overwrites both."""
        psi = special.ndtr(hi, out=hi)
        psi -= special.ndtr(lo, out=lo)
        return np.einsum("gij,gij->g", self.phiw, psi)

    def __call__(self, b_values, s_values):
        """(coverage correction, SEL correction) for every gamma."""
        ds = self.basis_s @ (np.asarray(s_values, dtype=float) - self.crit)
        hi, lo = self._limits(self.basis_b @ np.asarray(b_values, dtype=float), self.crit + ds)
        return self._hit_mass(hi, lo) - self.base_cov, self.sel_w @ ds

    def jacobian(self, b_values, s_values):
        """(coverage correction, d cov / d b values, d cov / d s values).

        The derivatives have one row per gamma and one column per knot.
        The hit probability is Phi(hi) - Phi(lo) with hi, lo = (w (b +- s)
        - rho z) / root, so its b-derivative is w / root (phi(hi) - phi(lo))
        and its s-derivative w / root (phi(hi) + phi(lo)).
        """
        ds = self.basis_s @ (np.asarray(s_values, dtype=float) - self.crit)
        hi, lo = self._limits(self.basis_b @ np.asarray(b_values, dtype=float), self.crit + ds)
        dens_hi = np.exp(-0.5 * hi * hi)
        dens_lo = np.exp(-0.5 * lo * lo)
        cov = self._hit_mass(hi, lo) - self.base_cov
        dens_hi *= self.phiw
        dens_lo *= self.phiw
        scale = self.w_over_root[:, 0] / math.sqrt(2.0 * math.pi)
        d_s = scale @ (dens_hi + dens_lo)
        d_b = scale @ np.subtract(dens_hi, dens_lo, out=dens_hi)
        return cov, d_b @ self.basis_b, d_s @ self.basis_s


def _correction_terms(sp: SplinePair, gammas: np.ndarray, order_x: int, order_w: int):
    """Coverage and SEL correction integrals for every gamma at fixed orders."""
    cells = _x_rule_cached(sp.knots, order_x)[0].size * _w_rule(sp.m, order_w)[0].size
    chunk = max(1, int(4e6 // cells))
    cov = np.empty(gammas.shape)
    sel = np.empty(gammas.shape)
    for start in range(0, gammas.size, chunk):
        part = slice(start, start + chunk)
        kernel = _RiskKernel(sp.knots, sp.m, sp.rho, sp.alpha, gammas[part], order_x, order_w)
        cov[part], sel[part] = kernel(sp.b_values, sp.s_values)
    return cov, sel


def _refined_corrections(sp: SplinePair, gammas: np.ndarray, tol: float):
    """Double panel orders until both corrections stabilize within tol."""
    prev = None
    trace = []
    for order_x, order_w in ((8, 8), (16, 16), (32, 32), (64, 64)):
        cur = _correction_terms(sp, gammas, order_x, order_w)
        if prev is not None:
            err = max(
                float(np.max(np.abs(cur[0] - prev[0]))),
                float(np.max(np.abs(cur[1] - prev[1]))),
            )
            trace.append((order_x, order_w, err))
            if err < tol:
                return cur
        prev = cur
    raise RuntimeError(f"quadrature failed to reach tol={tol!r}; refinement trace: {trace}")


def coverage_probability(gamma: float, sp: SplinePair, tol: float = 1e-6) -> float:
    """P(theta in J(b, s)) at constraint position gamma = tau / sigma.

    Exact 1 - alpha for the standard pair; otherwise 1 - alpha plus a
    correction integral refined to absolute tolerance tol.
    """
    cov, _ = _refined_corrections(sp, np.atleast_1d(float(gamma)), tol)
    return (1.0 - sp.alpha) + float(cov[0])


def scaled_expected_length(gamma: float, sp: SplinePair, tol: float = 1e-7) -> float:
    """E[length of J] / E[length of the standard interval] at gamma."""
    _, sel = _refined_corrections(sp, np.atleast_1d(float(gamma)), tol)
    return 1.0 + float(sel[0]) / (sp.t_crit * expected_w(sp.m))


def coverage_and_sel_grid(sp: SplinePair, gammas, tol: float = 1e-7):
    """Vectorized (coverage, scaled expected length) over a gamma grid."""
    gammas = np.asarray(gammas, dtype=float)
    cov, sel = _refined_corrections(sp, gammas, tol)
    return (1.0 - sp.alpha) + cov, 1.0 + sel / (sp.t_crit * expected_w(sp.m))


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def spline_pair_to_json(sp: SplinePair) -> str:
    """Serialize with 17 significant decimal digits (bit-exact round trip)."""
    fields = [
        f'"d":{_fmt17(sp.d)}',
        '"knots":[' + ",".join(_fmt17(x) for x in sp.knots) + "]",
        '"b":[' + ",".join(_fmt17(x) for x in sp.b_values) + "]",
        '"s":[' + ",".join(_fmt17(x) for x in sp.s_values) + "]",
        f'"m":{sp.m}',
        f'"alpha":{_fmt17(sp.alpha)}',
        f'"rho":{_fmt17(sp.rho)}',
    ]
    return "{" + ",".join(fields) + "}"


def spline_pair_from_json(text: str) -> SplinePair:
    """Parse the JSON produced by spline_pair_to_json."""
    doc = json.loads(text)
    missing = [k for k in ("d", "knots", "b", "s", "m", "alpha", "rho") if k not in doc]
    if missing:
        raise ValueError(f"spline document is missing fields: {', '.join(missing)}")
    return SplinePair(
        d=doc["d"],
        knots=tuple(doc["knots"]),
        b_values=tuple(doc["b"]),
        s_values=tuple(doc["s"]),
        m=doc["m"],
        alpha=doc["alpha"],
        rho=doc["rho"],
    )
