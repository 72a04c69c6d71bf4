"""Regression-problem ingestion and reduction to sufficient statistics.

A problem consists of a design matrix X (n x p), a response y, a vector
a_star defining the parameter of interest theta_star = a_star' beta, a
vector c_star and offset t_star defining the constraint statistic
tau_star = c_star' beta - t_star about which the uncertain prior
information "tau_star = 0" exists.  After rescaling both vectors so
that the corresponding estimators have variance sigma^2, everything
downstream depends on the data only through
(theta_hat, tau_hat, sigma_hat, m, rho).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IllConditionedDesignError",
    "ZeroResidualError",
    "RegressionProblem",
    "SufficientStats",
    "scale_problem",
    "reduce_problem",
    "factorial_2x2",
    "load_problem",
]


class IllConditionedDesignError(ValueError):
    """The design matrix is rank deficient or numerically singular."""


class ZeroResidualError(ValueError):
    """The response lies in the column span of X, so sigma_hat = 0."""


@dataclass(frozen=True)
class RegressionProblem:
    """A linear regression y = X beta + noise with two linear functionals.

    Parameters
    ----------
    X : ndarray, shape (n, p)
        Design matrix with linearly independent columns, n > p >= 2.
    y : ndarray, shape (n,)
        Response vector.
    a_star : ndarray, shape (p,)
        Coefficients of the parameter of interest, nonzero.
    c_star : ndarray, shape (p,)
        Coefficients of the constraint functional; must be linearly
        independent of a_star.
    t_star : float
        Offset in tau_star = c_star' beta - t_star.
    """

    X: np.ndarray
    y: np.ndarray
    a_star: np.ndarray
    c_star: np.ndarray
    t_star: float

    def __post_init__(self) -> None:
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        a = np.asarray(self.a_star, dtype=float).ravel()
        c = np.asarray(self.c_star, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "a_star", a)
        object.__setattr__(self, "c_star", c)
        object.__setattr__(self, "t_star", float(self.t_star))
        n, p = X.shape
        if p < 2:
            raise ValueError(f"need at least two regression coefficients, got p={p}")
        if n <= p:
            raise ValueError(f"need n > p for residual degrees of freedom, got n={n}, p={p}")
        if y.shape != (n,):
            raise ValueError(f"response length {y.shape[0]} does not match n={n}")
        if a.shape != (p,) or c.shape != (p,):
            raise ValueError("a_star and c_star must have length p")
        if not np.any(a):
            raise ValueError("a_star must be nonzero")
        if np.linalg.matrix_rank(np.column_stack([a, c])) < 2:
            raise ValueError("a_star and c_star must be linearly independent")
        if np.linalg.matrix_rank(X) < p:
            raise IllConditionedDesignError("columns of X are linearly dependent")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SufficientStats:
    """Reduced data (theta_hat, tau_hat, sigma_hat, m, rho) in scaled units.

    The sampling model is (theta_hat, tau_hat) bivariate normal with
    means (theta, tau), common variance sigma^2, correlation rho,
    independent of m sigma_hat^2 / sigma^2 ~ chi-square(m).
    """

    theta_hat: float
    tau_hat: float
    sigma_hat: float
    m: int
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_hat", float(self.theta_hat))
        object.__setattr__(self, "tau_hat", float(self.tau_hat))
        object.__setattr__(self, "sigma_hat", float(self.sigma_hat))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "rho", float(self.rho))
        if self.sigma_hat <= 0.0:
            raise ValueError(f"sigma_hat must be positive, got {self.sigma_hat!r}")
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not abs(self.rho) < 1.0:
            raise ValueError(f"|rho| must be < 1, got {self.rho!r}")

    @property
    def r(self) -> float:
        """The constraint statistic in sigma_hat units, tau_hat / sigma_hat."""
        return self.tau_hat / self.sigma_hat


def _factor(X: np.ndarray):
    """Reduced QR factorization of X and (X'X)^{-1} computed from it."""
    n, p = X.shape
    q, rmat = np.linalg.qr(X, mode="reduced")
    diag = np.abs(np.diag(rmat))
    if diag.min() <= np.finfo(float).eps * max(X.shape) * diag.max():
        raise IllConditionedDesignError("design matrix is numerically singular")
    rinv = np.linalg.solve(rmat, np.eye(p))
    return q, rmat, rinv @ rinv.T


def _scale(prob: RegressionProblem, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    v11 = float(prob.a_star @ g @ prob.a_star)
    v22 = float(prob.c_star @ g @ prob.c_star)
    if v11 <= 0.0 or v22 <= 0.0:
        raise IllConditionedDesignError("variance quadratic form is not positive")
    a = prob.a_star / np.sqrt(v11)
    c = prob.c_star / np.sqrt(v22)
    t = prob.t_star / np.sqrt(v22)
    return a, c, t


def scale_problem(prob: RegressionProblem) -> tuple[np.ndarray, np.ndarray, float]:
    """Rescale (a_star, c_star, t_star) so both estimators have variance sigma^2.

    Returns (a, c, t) with a = a_star / sqrt(v11), c = c_star / sqrt(v22)
    and t = t_star / sqrt(v22), where v11 = a_star' (X'X)^{-1} a_star and
    v22 = c_star' (X'X)^{-1} c_star.  After scaling,
    a' (X'X)^{-1} a = c' (X'X)^{-1} c = 1.
    """
    return _scale(prob, _factor(prob.X)[2])


def reduce_problem(prob: RegressionProblem) -> SufficientStats:
    """Least-squares reduction of a problem to its sufficient statistics.

    beta_hat is computed through the QR factorization; sigma_hat^2 is
    RSS / (n - p); theta_hat = a' beta_hat and tau_hat = c' beta_hat - t
    use the scaled vectors from scale_problem; rho = a' (X'X)^{-1} c.
    One factorization of X serves all of these.
    """
    q, rmat, g = _factor(prob.X)
    a, c, t = _scale(prob, g)
    beta_hat = np.linalg.solve(rmat, q.T @ prob.y)
    resid = prob.y - prob.X @ beta_hat
    rss = float(resid @ resid)
    n, p = prob.X.shape
    m = n - p
    yty = float(prob.y @ prob.y)
    if rss <= np.finfo(float).eps * n * max(1.0, yty):
        raise ZeroResidualError("response lies in the column span of X; sigma_hat = 0")
    sigma_hat = np.sqrt(rss / m)
    rho = float(a @ g @ c)
    if abs(rho) >= 1.0 - 1e-10:
        raise IllConditionedDesignError(
            f"a and c are collinear after scaling (rho = {rho!r})"
        )
    return SufficientStats(
        theta_hat=float(a @ beta_hat),
        tau_hat=float(c @ beta_hat) - t,
        sigma_hat=sigma_hat,
        m=m,
        rho=rho,
    )


def factorial_2x2(responses) -> RegressionProblem:
    """Two-replicate 2x2 factorial with theta = 2(beta_1 - beta_12).

    The model is y = beta_0 + beta_1 x1 + beta_2 x2 + beta_12 x1 x2 with
    coded levels x1, x2 in {-1, +1}, two replicates per cell (8 runs).
    theta is the effect of factor 1 at the low level of factor 2; the
    uncertain prior information is "no interaction", tau proportional
    to beta_12 with offset zero.
    """
    y = np.asarray(responses, dtype=float).ravel()
    if y.shape != (8,):
        raise ValueError(f"need exactly 8 responses (2 replicates of 4 cells), got {y.shape[0]}")
    cells = [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]
    rows = [[1.0, x1, x2, x1 * x2] for _ in range(2) for (x1, x2) in cells]
    X = np.array(rows)
    a_star = np.array([0.0, 2.0, 0.0, -2.0])
    c_star = np.array([0.0, 0.0, 0.0, 1.0])
    return RegressionProblem(X=X, y=y, a_star=a_star, c_star=c_star, t_star=0.0)


def load_problem(source) -> RegressionProblem:
    """Build a RegressionProblem from a JSON file path, file object, or dict.

    Expected document: {"X": [[...], ...], "y": [...], "a": [...],
    "c": [...], "t": 0.0} with X in row-major order.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    missing = [k for k in ("X", "y", "a", "c") if k not in doc]
    if missing:
        raise ValueError(f"problem document is missing fields: {', '.join(missing)}")
    return RegressionProblem(
        X=np.asarray(doc["X"], dtype=float),
        y=np.asarray(doc["y"], dtype=float),
        a_star=np.asarray(doc["a"], dtype=float),
        c_star=np.asarray(doc["c"], dtype=float),
        t_star=float(doc.get("t", 0.0)),
    )
