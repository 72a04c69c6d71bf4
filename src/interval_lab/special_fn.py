"""Student-t density, distribution, and quantile primitives.

Every downstream computation (posterior mixtures, credible-interval
solvers, coverage quadrature) bottoms out in evaluations of the t_q
density, its CDF, and the inverse CDF.  Degrees of freedom may be any
positive real, not just an integer.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = ["t_pdf", "t_cdf", "t_quantile", "t_two_sided"]


def _check_dof(q: float) -> float:
    q = float(q)
    if not math.isfinite(q) or q <= 0.0:
        raise ValueError(f"degrees of freedom must be a positive real, got {q!r}")
    return q


def t_pdf(x, q: float):
    """Density of the t distribution with q degrees of freedom.

    Parameters
    ----------
    x : float or array_like
        Evaluation point(s).
    q : float
        Degrees of freedom, q > 0.

    Returns
    -------
    float or ndarray
        Density value(s).  Symmetric in x.
    """
    q = _check_dof(q)
    x = np.asarray(x, dtype=float)
    log_norm = -special.betaln(q / 2.0, 0.5) - 0.5 * math.log(q)
    with np.errstate(over="ignore"):
        out = np.exp(log_norm - 0.5 * (q + 1.0) * np.log1p(x * x / q))
    return out if out.ndim else float(out)


def t_cdf(x, q: float):
    """CDF of the t distribution with q degrees of freedom.

    Computed by scipy.special.stdtr, which stays accurate for large q
    where the incomplete-beta route loses x^2/q.

    Parameters
    ----------
    x : float or array_like
        Evaluation point(s).
    q : float
        Degrees of freedom, q > 0.

    Returns
    -------
    float or ndarray
        Probability value(s) in [0, 1].
    """
    q = _check_dof(q)
    out = special.stdtr(q, np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def t_quantile(p: float, q: float) -> float:
    """Inverse CDF of the t distribution with q degrees of freedom.

    Parameters
    ----------
    p : float
        Target probability, 0 < p < 1.
    q : float
        Degrees of freedom, q > 0.

    Returns
    -------
    float
        The point x with t_cdf(x, q) = p (scipy.special.stdtrit).  Lower
        quantiles are reflected from the upper ones, so
        t_quantile(p, q) == -t_quantile(1 - p, q) exactly.
    """
    q = _check_dof(q)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p!r}")
    if p < 0.5:
        return -float(special.stdtrit(q, 1.0 - p))
    return float(special.stdtrit(q, p))


def t_two_sided(alpha: float, q: float) -> float:
    """Two-sided critical value t(q): P(-t(q) <= T <= t(q)) = 1 - alpha."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    return t_quantile(1.0 - alpha / 2.0, q)

