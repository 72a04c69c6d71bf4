"""Credible and frequentist confidence intervals for a scalar linear
functional of regression coefficients under slab-and-spike prior
information on a second linear functional.

The library reduces a regression problem to sufficient statistics,
builds the exact two-component t-mixture posterior for the parameter of
interest, solves equi-tailed / shortest / highest-density credible
sets, and designs and evaluates a frequentist interval whose center and
half-width are spline functions of the prior-constraint statistic.
"""

from interval_lab.special_fn import t_cdf, t_pdf, t_quantile, t_two_sided
from interval_lab.model_prep import (
    RegressionProblem,
    SufficientStats,
    factorial_2x2,
    reduce_problem,
    scale_problem,
)
from interval_lab.posterior_mixture import (
    PosteriorMixture,
    PriorFamily,
    PriorSpec,
    build_posterior,
    posterior_cdf,
    posterior_pdf,
    weight_scaled,
    weight_slab_spike,
)
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
from interval_lab.kg_core import (
    GammaGrid,
    SplinePair,
    coverage_probability,
    eval_b,
    eval_s,
    kg_interval,
    scaled_expected_length,
    spline_pair_from_json,
    spline_pair_to_json,
)
from interval_lab.kg_design import DesignConfig, design, objective
from interval_lab.mc_oracle import KGProcedure, SimConfig, SimResult, StandardProcedure, simulate

__version__ = "0.1.0"

__all__ = [
    "t_pdf",
    "t_cdf",
    "t_quantile",
    "t_two_sided",
    "RegressionProblem",
    "SufficientStats",
    "scale_problem",
    "reduce_problem",
    "factorial_2x2",
    "PriorFamily",
    "PriorSpec",
    "PosteriorMixture",
    "weight_slab_spike",
    "weight_scaled",
    "build_posterior",
    "posterior_pdf",
    "posterior_cdf",
    "RealInterval",
    "IntervalSet",
    "ScaledSummary",
    "lower_quantile",
    "upper_quantile",
    "equi_tailed",
    "shortest",
    "hpd_set",
    "scaled_summary",
    "SplinePair",
    "GammaGrid",
    "eval_b",
    "eval_s",
    "kg_interval",
    "coverage_probability",
    "scaled_expected_length",
    "spline_pair_to_json",
    "spline_pair_from_json",
    "DesignConfig",
    "objective",
    "design",
    "SimConfig",
    "SimResult",
    "StandardProcedure",
    "KGProcedure",
    "simulate",
    "__version__",
]
