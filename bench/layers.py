"""Where the traced run cuts interval_lab into layers, and the metrics per layer.

Layers are the package modules.  ``install`` wraps the benchmark's own
entry points (``api``) and the names one module imports from another;
``layer_metrics`` turns the recorded spans and counts into the per-layer
metrics.  A metric whose span could not be installed (the name was
removed from the library) is left out rather than reported as zero.
"""

from __future__ import annotations

import numpy as np

import interval_lab.cli as cli
import interval_lab.credible as credible
import interval_lab.kg_design as kg_design
import interval_lab.mc_oracle as mc_oracle
import interval_lab.posterior_mixture as posterior_mixture
from tracer import Tracer, self_times, union_length

SOLVES = ("credible.equi", "credible.shortest", "credible.hpd")


def _count_points(key: str, index: int):
    """Counter that adds the size of positional argument ``index`` to ``key``."""
    return lambda args, kwargs, out: {key: int(np.size(args[index]))}


def install(tracer: Tracer, api) -> None:
    # benchmark -> library
    tracer.wrap(api, "reduce_problem", "model_prep.reduce")
    tracer.wrap(api, "build_posterior", "posterior_mixture.build")
    tracer.wrap(api, "equi_tailed", "credible.equi")
    tracer.wrap(api, "shortest", "credible.shortest")
    tracer.wrap(api, "hpd_set", "credible.hpd",
                count=lambda a, k, out: {"credible.hpd.two_piece": out is not None
                                                         and len(out.intervals) == 2})
    tracer.wrap(api, "coverage_and_sel_grid", "kg_core.grid",
                count=_count_points("kg_core.grid.gammas", 1))
    tracer.wrap(api, "coverage_probability", "kg_core.scalar")
    tracer.wrap(api, "scaled_expected_length", "kg_core.scalar")
    tracer.wrap(api, "simulate", "mc_oracle.simulate",
                count=lambda a, k, out: {"mc_oracle.reps": a[1].n_rep})
    tracer.wrap(api, "design", "kg_design.design")
    tracer.wrap(api, "cli_main", "cli.main")
    # layer -> layer
    tracer.wrap(credible, "posterior_cdf", "posterior_mixture.cdf",
                count=_count_points("posterior_mixture.cdf.points", 1))
    tracer.wrap(credible, "posterior_pdf", "posterior_mixture.pdf",
                count=_count_points("posterior_mixture.pdf.points", 1))
    tracer.wrap(credible, "t_quantile", "special_fn.t_quantile")
    tracer.wrap(credible, "brentq", "credible.brentq")
    tracer.wrap_warnings(credible, "credible.boundary_warnings")
    tracer.wrap(posterior_mixture, "t_cdf", "special_fn.t_cdf",
                count=_count_points("special_fn.t_cdf.points", 0))
    tracer.wrap(cli, "shortest", "credible.shortest")
    tracer.wrap(cli, "equi_tailed", "credible.equi")
    tracer.wrap(cli, "build_posterior", "posterior_mixture.build")
    tracer.wrap_pool(cli, "cli")

    def stage(args, kwargs, res):
        if res is None:
            return {}
        tracer.sample("kg_design.stage_nfev", res.nfev)
        return {"kg_design.nit": res.nit, "kg_design.nfev": res.nfev}

    tracer.wrap(kg_design, "minimize", "kg_design.minimize", count=stage)
    tracer.wrap(kg_design, "coverage_and_sel_grid", "kg_core.grid",
                count=_count_points("kg_core.grid.gammas", 1))
    tracer.wrap(kg_design, "scaled_expected_length", "kg_core.scalar")
    tracer.wrap_pool(kg_design, "kg_design")
    tracer.wrap(mc_oracle, "eval_b", "kg_core.eval", count=_count_points("kg_core.eval.points", 1))
    tracer.wrap(mc_oracle, "eval_s", "kg_core.eval", count=_count_points("kg_core.eval.points", 1))


# metric name -> the spans it needs (units are in BENCHMARK.json)
PER_LAYER = {
    "special_fn.t_quantile.calls": ["special_fn.t_quantile"],
    "special_fn.t_quantile.s": ["special_fn.t_quantile"],
    "special_fn.t_cdf.points": ["special_fn.t_cdf"],
    "special_fn.t_cdf.s": ["special_fn.t_cdf"],
    "special_fn.t_cdf.points_per_s": ["special_fn.t_cdf"],
    "model_prep.reduce.calls": ["model_prep.reduce"],
    "model_prep.reduce.ms": ["model_prep.reduce"],
    "posterior_mixture.build.calls": ["posterior_mixture.build"],
    "posterior_mixture.build.ms": ["posterior_mixture.build"],
    "posterior_mixture.cdf.calls": ["posterior_mixture.cdf"],
    "posterior_mixture.cdf.points": ["posterior_mixture.cdf"],
    "posterior_mixture.cdf.s": ["posterior_mixture.cdf"],
    "posterior_mixture.pdf.calls": ["posterior_mixture.pdf"],
    "posterior_mixture.pdf.points": ["posterior_mixture.pdf"],
    "posterior_mixture.pdf.s": ["posterior_mixture.pdf"],
    "credible.equi.ms": ["credible.equi"],
    "credible.shortest.ms": ["credible.shortest"],
    "credible.hpd.ms": ["credible.hpd"],
    "credible.self_s": [*SOLVES, "credible.brentq"],
    "credible.cdf_points_per_solve": [*SOLVES, "posterior_mixture.cdf"],
    "credible.brentq.calls": ["credible.brentq"],
    "credible.boundary_warnings": ["credible.boundary_warnings"],
    "credible.hpd_two_piece_frac": ["credible.hpd"],
    "kg_core.grid.calls": ["kg_core.grid"],
    "kg_core.grid.gammas": ["kg_core.grid"],
    "kg_core.grid.s": ["kg_core.grid"],
    "kg_core.grid.gammas_per_s": ["kg_core.grid"],
    "kg_core.scalar.calls": ["kg_core.scalar"],
    "kg_core.scalar.ms": ["kg_core.scalar"],
    "kg_core.errors": ["kg_core.grid", "kg_core.scalar"],
    "kg_core.eval.points": ["kg_core.eval"],
    "kg_design.design.s": ["kg_design.design"],
    "kg_design.stages": ["kg_design.minimize"],
    "kg_design.nit": ["kg_design.minimize"],
    "kg_design.nfev": ["kg_design.minimize"],
    "kg_design.max_stage_nfev": ["kg_design.minimize"],
    "kg_design.optimizer_s": ["kg_design.minimize"],
    "kg_design.ms_per_fev": ["kg_design.minimize"],
    "kg_design.verify_s": ["kg_design.design", "kg_core.grid"],
    "kg_design.pools": ["kg_design.task"],
    "mc_oracle.simulate.calls": ["mc_oracle.simulate"],
    "mc_oracle.reps": ["mc_oracle.simulate"],
    "mc_oracle.simulate.s": ["mc_oracle.simulate"],
    "mc_oracle.reps_per_s": ["mc_oracle.simulate"],
    "mc_oracle.interval_eval_s": ["kg_core.eval"],
    "cli.main.calls": ["cli.main"],
    "cli.main.s": ["cli.main"],
    "cli.self_s": ["cli.main", "cli.task"],
    "cli.pools": ["cli.task"],
    "cli.solver_busy_s": ["cli.task", "credible.equi", "credible.shortest"],
    "cli.parallelism": ["cli.task", "credible.equi", "credible.shortest"],
    "trace.overhead_frac": [],
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced_wall: float, traced_wall: float) -> dict[str, float]:
    sp = tracer.arrays()
    counts = tracer.counts()
    ids = {name: i for i, name in enumerate(tracer.names)}
    dur = sp["end"] - sp["start"]
    own = self_times(sp)

    def mask(*names):
        wanted = [ids[n] for n in names if n in ids]
        return np.isin(sp["name"], wanted)

    def calls(name):
        return int(np.count_nonzero(mask(name)))

    def total(name):
        return float(dur[mask(name)].sum())

    def mean_ms(name):
        return 1000.0 * _ratio(total(name), calls(name))

    def children_of(parent_names, child_names):
        kids = mask(*child_names)
        parents = sp["parent"][kids]
        has = parents >= 0
        hit = np.zeros(kids.sum(), dtype=bool)
        hit[has] = mask(*parent_names)[parents[has]]
        return np.nonzero(kids)[0][hit]

    solver_spans = children_of(["cli.task", "cli.main"], ["credible.equi", "credible.shortest"])
    busy = float(dur[solver_spans].sum())
    nfev = counts["kg_design.nfev"]
    stage_nfev = tracer.samples.get("kg_design.stage_nfev", [])
    n_solves = sum(calls(n) for n in SOLVES)
    values = {
        "special_fn.t_quantile.calls": calls("special_fn.t_quantile"),
        "special_fn.t_quantile.s": total("special_fn.t_quantile"),
        "special_fn.t_cdf.points": counts["special_fn.t_cdf.points"],
        "special_fn.t_cdf.s": total("special_fn.t_cdf"),
        "special_fn.t_cdf.points_per_s": _ratio(counts["special_fn.t_cdf.points"],
                                                total("special_fn.t_cdf")),
        "model_prep.reduce.calls": calls("model_prep.reduce"),
        "model_prep.reduce.ms": mean_ms("model_prep.reduce"),
        "posterior_mixture.build.calls": calls("posterior_mixture.build"),
        "posterior_mixture.build.ms": mean_ms("posterior_mixture.build"),
        "posterior_mixture.cdf.calls": calls("posterior_mixture.cdf"),
        "posterior_mixture.cdf.points": counts["posterior_mixture.cdf.points"],
        "posterior_mixture.cdf.s": total("posterior_mixture.cdf"),
        "posterior_mixture.pdf.calls": calls("posterior_mixture.pdf"),
        "posterior_mixture.pdf.points": counts["posterior_mixture.pdf.points"],
        "posterior_mixture.pdf.s": total("posterior_mixture.pdf"),
        "credible.equi.ms": mean_ms("credible.equi"),
        "credible.shortest.ms": mean_ms("credible.shortest"),
        "credible.hpd.ms": mean_ms("credible.hpd"),
        "credible.self_s": float(own[mask(*SOLVES, "credible.brentq")].sum()),
        "credible.cdf_points_per_solve": _ratio(counts["posterior_mixture.cdf.points"], n_solves),
        "credible.brentq.calls": calls("credible.brentq"),
        "credible.boundary_warnings": counts["credible.boundary_warnings"],
        "credible.hpd_two_piece_frac": _ratio(counts["credible.hpd.two_piece"],
                                              calls("credible.hpd")),
        "kg_core.grid.calls": calls("kg_core.grid"),
        "kg_core.grid.gammas": counts["kg_core.grid.gammas"],
        "kg_core.grid.s": total("kg_core.grid"),
        "kg_core.grid.gammas_per_s": _ratio(counts["kg_core.grid.gammas"], total("kg_core.grid")),
        "kg_core.scalar.calls": calls("kg_core.scalar"),
        "kg_core.scalar.ms": mean_ms("kg_core.scalar"),
        "kg_core.errors": counts["kg_core.grid.errors"] + counts["kg_core.scalar.errors"],
        "kg_core.eval.points": counts["kg_core.eval.points"],
        "kg_design.design.s": total("kg_design.design"),
        "kg_design.stages": calls("kg_design.minimize"),
        "kg_design.nit": counts["kg_design.nit"],
        "kg_design.nfev": nfev,
        "kg_design.max_stage_nfev": max(stage_nfev, default=0),
        "kg_design.optimizer_s": total("kg_design.minimize"),
        "kg_design.ms_per_fev": 1000.0 * _ratio(total("kg_design.minimize"), nfev),
        "kg_design.verify_s": float(dur[children_of(["kg_design.design"], ["kg_core.grid"])].sum()),
        "kg_design.pools": counts["kg_design.pools"],
        "mc_oracle.simulate.calls": calls("mc_oracle.simulate"),
        "mc_oracle.reps": counts["mc_oracle.reps"],
        "mc_oracle.simulate.s": total("mc_oracle.simulate"),
        "mc_oracle.reps_per_s": _ratio(counts["mc_oracle.reps"], total("mc_oracle.simulate")),
        "mc_oracle.interval_eval_s": total("kg_core.eval"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.s": total("cli.main"),
        "cli.self_s": float(own[mask("cli.main", "cli.task")].sum()),
        "cli.pools": counts["cli.pools"],
        "cli.solver_busy_s": busy,
        "cli.parallelism": _ratio(busy, union_length(sp["start"][solver_spans],
                                                      sp["end"][solver_spans])),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    absent = set(tracer.absent)
    return {k: float(v) for k, v in values.items()
            if not absent.intersection(PER_LAYER[k])}
