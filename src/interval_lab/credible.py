"""Credible intervals from the two-component t-mixture posterior.

Quantiles are solved in the standardized coordinate
w = (v - theta_hat) / sigma_hat, where the mixture CDF is a fixed
function of (r, m, rho, weight) and the solver tolerance is uniform
across scales; results map back through v = theta_hat + sigma_hat * w.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from interval_lab.model_prep import SufficientStats
from interval_lab.posterior_mixture import PosteriorMixture, posterior_cdf, posterior_pdf
from interval_lab.special_fn import t_quantile

__all__ = [
    "RealInterval",
    "IntervalSet",
    "ScaledSummary",
    "lower_quantile",
    "upper_quantile",
    "equi_tailed",
    "shortest",
    "hpd_set",
    "scaled_summary",
]


@dataclass(frozen=True)
class RealInterval:
    """Closed interval [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not self.lower <= self.upper:
            raise ValueError(f"interval endpoints out of order: {self.lower!r} > {self.upper!r}")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    @property
    def center(self) -> float:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class IntervalSet:
    """Ordered union of pairwise disjoint intervals."""

    intervals: tuple

    def __post_init__(self) -> None:
        ivs = tuple(self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise ValueError("interval set must be nonempty")
        for iv in ivs:
            if not isinstance(iv, RealInterval):
                raise TypeError(f"expected RealInterval, got {type(iv).__name__}")
        for left, right in zip(ivs, ivs[1:]):
            if not left.upper < right.lower:
                raise ValueError("intervals must be disjoint and sorted by lower endpoint")

    @property
    def total_length(self) -> float:
        return sum(iv.length for iv in self.intervals)


@dataclass(frozen=True)
class ScaledSummary:
    """Dimensionless interval summaries: length/(2 sigma_hat), (center - theta_hat)/sigma_hat."""

    scaled_half_length: float
    scaled_offset: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "scaled_half_length", float(self.scaled_half_length))
        object.__setattr__(self, "scaled_offset", float(self.scaled_offset))
        if not self.scaled_half_length > 0.0:
            raise ValueError("scaled half-length must be positive")


def _std_cdf(mix: PosteriorMixture, w):
    return posterior_cdf(mix, mix.theta_hat + mix.sigma_hat * np.asarray(w, dtype=float))


def _std_pdf(mix: PosteriorMixture, w):
    # density in w units: sigma_hat * density at v
    return mix.sigma_hat * posterior_pdf(
        mix, mix.theta_hat + mix.sigma_hat * np.asarray(w, dtype=float)
    )


def _std_pdf_deriv(mix: PosteriorMixture, w):
    """d/dw of the standardized mixture density."""
    w = np.asarray(w, dtype=float)
    out = 0.0
    for weight, comp in (
        (mix.weight_spike, mix.comp_spike),
        (1.0 - mix.weight_spike, mix.comp_slab),
    ):
        sc = comp.scale / mix.sigma_hat
        loc = (comp.loc - mix.theta_hat) / mix.sigma_hat
        z = (w - loc) / sc
        q = comp.dof
        fz = mix.sigma_hat * comp.pdf(mix.theta_hat + mix.sigma_hat * w)
        out = out + weight * fz * (-(q + 1.0) * z / (q + z * z)) / sc
    return out


def _component_quantile_w(mix: PosteriorMixture, comp, p: float) -> float:
    return (comp.loc + comp.scale * t_quantile(p, comp.dof) - mix.theta_hat) / mix.sigma_hat


def _std_quantiles(mix: PosteriorMixture, targets) -> np.ndarray:
    """Vectorized bisection for mixture quantiles in the w coordinate.

    For each target eta, returns w with F(w) = eta.  The common bracket
    [min_c Q_c(min eta), max_c Q_c(max eta)] holds in exact arithmetic, but
    far-tail component quantiles are not exact (t_quantile reflects p < 0.5
    through stdtrit(q, 1 - p), and 1 - p rounds: at 1e-12 the tail mass is
    off by 2e-5), so the bracket is widened until it encloses every target.
    Bisection runs until the bracket is no longer representable, so
    accuracy is limited by t_cdf itself.
    """
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    if np.any((targets <= 0.0) | (targets >= 1.0)):
        raise ValueError("quantile targets must lie strictly in (0, 1)")
    tmin = float(targets.min())
    tmax = float(targets.max())
    comps = (mix.comp_spike, mix.comp_slab)
    lo0 = min(_component_quantile_w(mix, c, tmin) for c in comps)
    hi0 = max(_component_quantile_w(mix, c, tmax) for c in comps)
    span = max(hi0 - lo0, 1.0)
    lo0 -= 1e-9 * span
    hi0 += 1e-9 * span

    # needed: an inexact tail quantile can leave a target just outside the bracket
    for _ in range(60):
        if _std_cdf(mix, lo0) <= tmin and _std_cdf(mix, hi0) >= tmax:
            break
        lo0 -= span
        hi0 += span
        span *= 2.0
    else:
        raise RuntimeError(
            f"quantile bracketing failed for targets in [{tmin}, {tmax}] "
            f"with bracket [{lo0}, {hi0}]"
        )

    lo = np.full(targets.shape, lo0)
    hi = np.full(targets.shape, hi0)
    for _ in range(160):
        mid = 0.5 * (lo + hi)
        stuck = (mid <= lo) | (mid >= hi)
        if np.all(stuck):
            break
        below = _std_cdf(mix, mid) < targets
        lo = np.where(below & ~stuck, mid, lo)
        hi = np.where(~below & ~stuck, mid, hi)
    return 0.5 * (lo + hi)


def lower_quantile(mix: PosteriorMixture, eta: float) -> float:
    """Solution of P(theta < l | data) = eta.

    Parameters
    ----------
    mix : PosteriorMixture
        Marginal posterior of theta.
    eta : float
        Lower-tail mass, 0 < eta < 1.

    Returns
    -------
    float
        The posterior eta-quantile.
    """
    eta = float(eta)
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie strictly in (0, 1), got {eta!r}")
    w = _std_quantiles(mix, [eta])[0]
    return mix.theta_hat + mix.sigma_hat * float(w)


def upper_quantile(mix: PosteriorMixture, delta: float) -> float:
    """Solution of P(theta > u | data) = delta; equals lower_quantile(mix, 1 - delta)."""
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie strictly in (0, 1), got {delta!r}")
    return lower_quantile(mix, 1.0 - delta)


def equi_tailed(mix: PosteriorMixture, alpha: float) -> RealInterval:
    """Credible interval leaving posterior mass alpha/2 in each tail."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    w = _std_quantiles(mix, [alpha / 2.0, 1.0 - alpha / 2.0])
    return RealInterval(
        mix.theta_hat + mix.sigma_hat * float(w[0]),
        mix.theta_hat + mix.sigma_hat * float(w[1]),
    )


def _newton_pair_polish(mix, alpha, w_lo, w_hi):
    """Newton iteration on (F(u)-F(l) = 1-alpha, f(u) = f(l)) from a warm start."""
    l, u = float(w_lo), float(w_hi)
    for _ in range(40):
        pts = np.array([l, u])
        Fl, Fu = _std_cdf(mix, pts)
        fl, fu = _std_pdf(mix, pts)
        dfl, dfu = _std_pdf_deriv(mix, pts)
        g1 = (Fu - Fl) - (1.0 - alpha)
        g2 = fu - fl
        det = (-fl) * dfu - fu * (-dfl)
        if det == 0.0 or not np.isfinite(det):
            return None
        dl = (g1 * dfu - g2 * fu) / det
        du = ((-fl) * g2 - (-dfl) * g1) / det
        if not (np.isfinite(dl) and np.isfinite(du)):
            return None
        l_new, u_new = l - dl, u - du
        if u_new <= l_new:
            return None
        step = max(abs(dl), abs(du))
        l, u = l_new, u_new
        if step <= 1e-13 * max(1.0, abs(l), abs(u)):
            resid = abs((_std_cdf(mix, u) - _std_cdf(mix, l)) - (1.0 - alpha))
            if resid < 1e-10:
                return l, u
            return None
    return None


def shortest(mix: PosteriorMixture, alpha: float) -> RealInterval:
    """Shortest interval [l(eta*), u(alpha - eta*)] over the tail split eta.

    A grid scan over eta locates the basin of the global minimum (the
    length is not assumed unimodal in eta), a Newton polish solves the
    stationarity system f(l) = f(u) with mass 1 - alpha, and a
    derivative-sign bracketing fallback covers Newton failures.  The
    result is never worse than the best grid candidate nor the
    equi-tailed interval.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    frac = np.concatenate((np.linspace(1e-4, 1.0 - 1e-4, 81), [0.5]))
    frac.sort()
    etas = alpha * frac
    w_lo = _std_quantiles(mix, etas)
    w_hi = _std_quantiles(mix, 1.0 - alpha + etas)
    lengths = w_hi - w_lo
    i_best = int(np.argmin(lengths))
    best = (float(w_lo[i_best]), float(w_hi[i_best]))
    best_len = float(lengths[i_best])

    if i_best in (0, len(etas) - 1):
        warnings.warn(
            "shortest-interval tail split is at the search boundary; "
            "returning the boundary-limit candidate",
            RuntimeWarning,
            stacklevel=2,
        )
    else:
        polished = _newton_pair_polish(mix, alpha, *best)
        if polished is None:
            # derivative of length in eta changes sign at the minimum:
            # L'(eta) has the sign of f(l(eta)) - f(u(alpha - eta))
            dsign = _std_pdf(mix, w_hi) - _std_pdf(mix, w_lo)

            def stationarity_gap(eta: float) -> float:
                lo = _std_quantiles(mix, [eta, 1.0 - alpha + eta])
                return float(_std_pdf(mix, lo[1]) - _std_pdf(mix, lo[0]))

            for k in range(max(0, i_best - 1), min(len(etas) - 1, i_best + 1)):
                if dsign[k] >= 0.0 >= dsign[k + 1] and etas[k] < etas[k + 1]:
                    eta_star = brentq(
                        stationarity_gap, etas[k], etas[k + 1], xtol=1e-16, rtol=8.9e-16
                    )
                    w = _std_quantiles(mix, [eta_star, 1.0 - alpha + eta_star])
                    polished = (float(w[0]), float(w[1]))
                    break
        if polished is not None and polished[1] - polished[0] <= best_len + 1e-12:
            best = polished
            best_len = polished[1] - polished[0]

    eq = equi_tailed(mix, alpha)
    cand = RealInterval(
        mix.theta_hat + mix.sigma_hat * best[0],
        mix.theta_hat + mix.sigma_hat * best[1],
    )
    return cand if cand.length <= eq.length else eq


def _critical_points(mix: PosteriorMixture) -> np.ndarray:
    """Roots of the mixture density derivative.

    Outside [min loc, max loc] both component derivatives share a sign,
    so every critical point lies between the component locations; the
    scan grid is padded and refined against the smaller component scale.
    """
    locs = np.array(
        [
            (mix.comp_spike.loc - mix.theta_hat) / mix.sigma_hat,
            (mix.comp_slab.loc - mix.theta_hat) / mix.sigma_hat,
        ]
    )
    scales = np.array(
        [mix.comp_spike.scale / mix.sigma_hat, mix.comp_slab.scale / mix.sigma_hat]
    )
    pad = 6.0 * float(scales.max())
    lo = float(locs.min()) - pad
    hi = float(locs.max()) + pad
    n = int(np.clip((hi - lo) / (0.02 * float(scales.min())), 4001, 200001))
    grid = np.linspace(lo, hi, n)
    dvals = _std_pdf_deriv(mix, grid)
    sign = np.sign(dvals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    roots = [
        brentq(lambda w: float(_std_pdf_deriv(mix, w)), grid[i], grid[i + 1],
               xtol=1e-14, rtol=8.9e-16)
        for i in idx
    ]
    roots.extend(grid[1:-1][dvals[1:-1] == 0.0])
    return np.unique(np.asarray(roots, dtype=float))


def _superlevel_intervals(mix, level, segments):
    """Crossing points of pdf = level on each monotone segment, paired up."""
    crossings = []
    for a, b in segments:
        fa = float(_std_pdf(mix, a)) - level
        fb = float(_std_pdf(mix, b)) - level
        if fa == 0.0:
            crossings.append(a)
        if fa * fb < 0.0:
            crossings.append(
                brentq(lambda w: float(_std_pdf(mix, w)) - level, a, b,
                       xtol=1e-14, rtol=8.9e-16)
            )
        if fb == 0.0 and b == segments[-1][1]:
            crossings.append(b)
    crossings = sorted(crossings)
    if len(crossings) % 2 != 0:
        raise RuntimeError(f"unpaired density crossings at level {level!r}")
    return [(crossings[i], crossings[i + 1]) for i in range(0, len(crossings), 2)]


def hpd_set(mix: PosteriorMixture, alpha: float) -> IntervalSet:
    """Highest-density credible set {theta : pdf >= c} with mass 1 - alpha.

    The density level c is found by root-finding on the superlevel-set
    mass, which is continuous and strictly decreasing in c.  For a
    two-component t mixture the set is one interval or a union of two;
    more pieces indicate an internal error.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")

    eps = 1e-12
    w_min = float(_std_quantiles(mix, [eps])[0]) - 1.0
    w_max = float(_std_quantiles(mix, [1.0 - eps])[0]) + 1.0
    crit = _critical_points(mix)
    breaks = np.concatenate(([w_min], crit, [w_max]))
    segments = list(zip(breaks[:-1], breaks[1:]))

    peak = float(np.max(_std_pdf(mix, breaks)))
    edge = max(float(_std_pdf(mix, w_min)), float(_std_pdf(mix, w_max)))
    c_lo = max(peak * 1e-9, 4.0 * edge)
    c_hi = peak * (1.0 - 1e-9)

    def mass_minus_target(level: float) -> float:
        total = 0.0
        for a, b in _superlevel_intervals(mix, level, segments):
            total += float(_std_cdf(mix, b)) - float(_std_cdf(mix, a))
        return total - (1.0 - alpha)

    if mass_minus_target(c_lo) < 0.0:
        raise RuntimeError("density window too narrow for the requested mass")
    level = brentq(mass_minus_target, c_lo, c_hi, xtol=peak * 1e-14, rtol=8.9e-16)

    pieces = _superlevel_intervals(mix, level, segments)
    merged = []
    for a, b in pieces:
        if merged and a - merged[-1][1] <= 1e-10:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    if len(merged) > 2:
        raise RuntimeError(
            f"superlevel set has {len(merged)} components; "
            "a two-component t mixture admits at most two"
        )
    th, sh = mix.theta_hat, mix.sigma_hat
    return IntervalSet(tuple(RealInterval(th + sh * a, th + sh * b) for a, b in merged))


def scaled_summary(iv: RealInterval, stats: SufficientStats) -> ScaledSummary:
    """Scaled half-length and scaled offset of an interval."""
    return ScaledSummary(
        scaled_half_length=iv.length / (2.0 * stats.sigma_hat),
        scaled_offset=(iv.center - stats.theta_hat) / stats.sigma_hat,
    )
