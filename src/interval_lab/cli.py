"""Command-line surface: ingestion, posterior analysis, design, figures.

Subcommands: posterior, credible, design, evaluate, apply, simulate,
figure.  Tabular results go out as CSV with a single provenance comment
line (command line, package and library versions, seed); structured
results go out as JSON.  All numeric output is printed with 12
significant digits.  Grid sweeps fan out over a thread pool capped by
the INTERVAL_LAB_THREADS environment variable; chunk boundaries are
fixed, so results do not depend on the number of workers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from interval_lab.credible import equi_tailed, hpd_set, scaled_summary, shortest
from interval_lab.kg_core import (
    GammaGrid,
    SplinePair,
    coverage_and_sel_grid,
    eval_b,
    eval_s,
    kg_interval,
    spline_pair_from_json,
    spline_pair_to_json,
)
from interval_lab.kg_design import DesignConfig, _constraint_grid, design
from interval_lab.mc_oracle import KGProcedure, SimConfig, StandardProcedure, simulate
from interval_lab.model_prep import (
    SufficientStats,
    factorial_2x2,
    load_problem,
    reduce_problem,
)
from interval_lab.posterior_mixture import PriorFamily, PriorSpec, build_posterior

__all__ = ["main"]

_GAMMA_CHUNK = 64


def _version() -> str:
    from interval_lab import __version__

    return __version__


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _round12(obj):
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write(path, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_json(path, doc) -> None:
    _write(path, json.dumps(_round12(doc), indent=2) + "\n")


def _provenance(args) -> str:
    import scipy

    seed = getattr(args, "seed", None)
    cmd = "interval-lab " + " ".join(str(t) for t in args._argv)
    return (
        f"# {cmd} | interval-lab {_version()} numpy {np.__version__} "
        f"scipy {scipy.__version__} | seed: {'-' if seed is None else seed}"
    )


def _max_workers() -> int:
    """Thread cap for the evaluate and figure sweeps, from INTERVAL_LAB_THREADS if set."""
    env = os.environ.get("INTERVAL_LAB_THREADS")
    if env is None:
        return min(8, os.cpu_count() or 1)
    n = int(env)
    if n < 1:
        raise ValueError(f"INTERVAL_LAB_THREADS must be a positive integer, got {env!r}")
    return n


def _pmap(fn, items):
    items = list(items)
    workers = _max_workers()
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _floats(text: str):
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _read_spline(path) -> SplinePair:
    return spline_pair_from_json(Path(path).read_text(encoding="utf-8"))


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", metavar="FILE", help="problem JSON file with X, y, a, c, t")
    p.add_argument(
        "--factorial2x2",
        metavar="Y1,...,Y8",
        help="two-replicate 2x2 factorial with the given 8 responses",
    )
    p.add_argument("--theta-hat", type=float, help="estimate of the parameter of interest")
    p.add_argument("--tau-hat", type=float, help="estimate of the constraint functional")
    p.add_argument("--sigma-hat", type=float, help="residual scale estimate")
    p.add_argument("--m", type=int, help="residual degrees of freedom")
    p.add_argument("--rho", type=float, help="correlation of the two estimators")


def _resolve_stats(args) -> SufficientStats:
    direct = (args.theta_hat, args.tau_hat, args.sigma_hat, args.m, args.rho)
    n_sources = (
        (args.problem is not None)
        + (args.factorial2x2 is not None)
        + any(v is not None for v in direct)
    )
    if n_sources != 1:
        raise ValueError(
            "provide exactly one data source: --problem, --factorial2x2, or the "
            "direct statistics flags"
        )
    if args.problem is not None:
        return reduce_problem(load_problem(args.problem))
    if args.factorial2x2 is not None:
        return reduce_problem(factorial_2x2(_floats(args.factorial2x2)))
    if any(v is None for v in direct):
        raise ValueError(
            "direct statistics need all of --theta-hat, --tau-hat, --sigma-hat, --m, --rho"
        )
    return SufficientStats(
        theta_hat=args.theta_hat,
        tau_hat=args.tau_hat,
        sigma_hat=args.sigma_hat,
        m=args.m,
        rho=args.rho,
    )


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        choices=["s3", "s4"],
        default="s3",
        help="prior family: s3 pairs the spike with a 1/sigma^2 scale prior; "
        "s4 uses 1/sigma^g with the spike and 1/sigma^(g+1) without",
    )
    p.add_argument("--xi", type=float, default=0.5, help="prior mass on tau = 0")
    p.add_argument("--g", type=float, default=1.0, help="scale exponent (family s4 only)")


def _prior_from_args(args) -> PriorSpec:
    return PriorSpec(family=PriorFamily(args.family), xi=args.xi, g=args.g)


def _density_grid(mix, points: int, step: float | None) -> np.ndarray:
    locs = (mix.comp_spike.loc, mix.comp_slab.loc)
    scales = (mix.comp_spike.scale, mix.comp_slab.scale)
    lo = min(locs) - 8.0 * max(scales)
    hi = max(locs) + 8.0 * max(scales)
    if step is not None:
        return np.arange(lo, hi + 0.5 * step, step)
    return np.linspace(lo, hi, points)


def cmd_posterior(args) -> int:
    stats = _resolve_stats(args)
    mix = build_posterior(stats, _prior_from_args(args))
    grid = _density_grid(mix, args.points, None)
    dens = np.atleast_1d(mix.pdf(grid))
    lines = [_provenance(args), "theta,density"]
    lines.extend(f"{_fmt(t)},{_fmt(d)}" for t, d in zip(grid, dens))
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _interval_doc(iv, stats) -> dict:
    summ = scaled_summary(iv, stats)
    return {
        "lower": iv.lower,
        "upper": iv.upper,
        "scaled_offset": summ.scaled_offset,
        "scaled_half_length": summ.scaled_half_length,
    }


def cmd_credible(args) -> int:
    stats = _resolve_stats(args)
    mix = build_posterior(stats, _prior_from_args(args))
    if args.kind == "equi":
        ivs = [equi_tailed(mix, args.alpha)]
    elif args.kind == "shortest":
        ivs = [shortest(mix, args.alpha)]
    else:
        ivs = list(hpd_set(mix, args.alpha).intervals)
    doc = {
        "kind": args.kind,
        "alpha": args.alpha,
        "family": args.family,
        "xi": args.xi,
        "g": args.g,
        "theta_hat": stats.theta_hat,
        "sigma_hat": stats.sigma_hat,
        "m": stats.m,
        "rho": stats.rho,
        "intervals": [_interval_doc(iv, stats) for iv in ivs],
        "total_length": sum(iv.length for iv in ivs),
    }
    _write_json(args.output, doc)
    return 0


# a design config file holds DesignConfig's fields, giving the constraint grid by its bounds
_GRID_KEYS = ("gamma_upper", "gamma_step")
_CONFIG_KEYS = {f.name for f in dataclasses.fields(DesignConfig)} - {"gamma_constraint_grid"}
_CONFIG_KEYS |= set(_GRID_KEYS)


def _design_config(path) -> DesignConfig:
    if path is None:
        return DesignConfig()
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("design config must be a JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown design config fields: {', '.join(unknown)}")
    kwargs = {k: v for k, v in doc.items() if k not in _GRID_KEYS}
    try:
        grid = _constraint_grid(**{k: float(doc[k]) for k in _GRID_KEYS if k in doc})
        return DesignConfig(**kwargs, gamma_constraint_grid=grid)
    except TypeError as exc:
        raise ValueError(f"invalid design config: {exc}") from exc


def cmd_design(args) -> int:
    sp = design(_design_config(args.config))
    _write(args.output, spline_pair_to_json(sp) + "\n")
    return 0


def _grid_curves(sp: SplinePair, gammas: np.ndarray):
    chunks = [gammas[i : i + _GAMMA_CHUNK] for i in range(0, gammas.size, _GAMMA_CHUNK)]
    parts = _pmap(lambda g: coverage_and_sel_grid(sp, g, tol=1e-7), chunks)
    cov = np.concatenate([p[0] for p in parts])
    sel = np.concatenate([p[1] for p in parts])
    return cov, sel


def cmd_evaluate(args) -> int:
    sp = _read_spline(args.spline)
    gammas = GammaGrid.regular(args.gamma_upper, args.gamma_step).as_array()
    cov, sel = _grid_curves(sp, gammas)
    lines = [_provenance(args), "gamma,coverage,e,e2"]
    lines.extend(
        f"{_fmt(g)},{_fmt(c)},{_fmt(e)},{_fmt(e * e)}"
        for g, c, e in zip(gammas, cov, sel)
    )
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_apply(args) -> int:
    sp = _read_spline(args.spline)
    stats = _resolve_stats(args)
    iv = kg_interval(stats, sp)
    doc = {
        "r": stats.r,
        "reverted_to_standard": bool(abs(stats.r) >= sp.d),
        **_interval_doc(iv, stats),
    }
    _write_json(args.output, doc)
    return 0


def cmd_simulate(args) -> int:
    if (args.spline is None) == (not args.standard):
        raise ValueError("provide exactly one of --spline or --standard")
    if args.spline is not None:
        sp = _read_spline(args.spline)
        proc = KGProcedure(sp)
        m = sp.m if args.m is None else args.m
        rho = sp.rho if args.rho is None else args.rho
    else:
        if args.m is None or args.rho is None:
            raise ValueError("--standard needs --m and --rho")
        proc = StandardProcedure(args.m, args.alpha)
        m, rho = args.m, args.rho
    cfg = SimConfig(n_rep=args.n_rep, seed=args.seed, gamma=args.gamma, m=m, rho=rho)
    res = simulate(proc, cfg, alpha=args.alpha)
    doc = {
        "coverage_estimate": res.coverage_estimate,
        "coverage_se": res.coverage_se,
        "sel_estimate": res.sel_estimate,
        "sel_se": res.sel_se,
        "n_rep": res.n_rep,
        "seed": res.seed,
        "gamma": res.gamma,
        "procedure_id": res.procedure_id,
        "generator": res.generator,
    }
    _write_json(args.output, doc)
    return 0


_FIG_CREDIBLE = {
    "fig2": ("s3", "equi"),
    "fig3": ("s3", "shortest"),
    "fig4": ("s4", "equi"),
    "fig5": ("s4", "shortest"),
}


def _figure_credible(args, family_code: str, kind: str) -> list[str]:
    step = args.step if args.step is not None else 0.05
    r_grid = np.arange(-10.0, 10.0 + 0.5 * step, step)
    sigmas = _floats(args.sigma_values)
    prior = PriorSpec(family=PriorFamily(family_code), xi=1.0 / 1.2, g=1.0)
    m, rho, alpha = 4, -1.0 / math.sqrt(2.0), 0.05
    solver = equi_tailed if kind == "equi" else shortest

    def one(r: float):
        row = [r]
        for sig in sigmas:
            stats = SufficientStats(theta_hat=0.0, tau_hat=r * sig, sigma_hat=sig, m=m, rho=rho)
            iv = solver(build_posterior(stats, prior), alpha)
            summ = scaled_summary(iv, stats)
            row.extend((summ.scaled_offset, summ.scaled_half_length))
        return row

    header = "r," + ",".join(f"offset_sigma{sig:g},halflen_sigma{sig:g}" for sig in sigmas)
    rows = _pmap(one, r_grid)
    return [header] + [",".join(_fmt(v) for v in row) for row in rows]


def _figure_density(args) -> list[str]:
    stats = SufficientStats(theta_hat=0.0, tau_hat=0.3, sigma_hat=0.1, m=100, rho=0.98)
    prior = PriorSpec(family=PriorFamily.SLAB_SPIKE_VARIANCE, xi=0.8)
    mix = build_posterior(stats, prior)
    grid = _density_grid(mix, 2001, args.step)
    dens = np.atleast_1d(mix.pdf(grid))
    return ["theta,density"] + [f"{_fmt(t)},{_fmt(d)}" for t, d in zip(grid, dens)]


def _figure_sel(args) -> list[str]:
    sp = _read_spline(args.spline)
    step = args.step if args.step is not None else 0.05
    gammas = GammaGrid.regular(20.0, step).as_array()
    _, sel = _grid_curves(sp, gammas)
    return ["gamma,e2"] + [f"{_fmt(g)},{_fmt(e * e)}" for g, e in zip(gammas, sel)]


def _figure_spline(args) -> list[str]:
    sp = _read_spline(args.spline)
    step = args.step if args.step is not None else 0.05
    r_grid = np.arange(-10.0, 10.0 + 0.5 * step, step)
    offset = -np.atleast_1d(eval_b(sp, r_grid)) + 0.0
    halflen = np.atleast_1d(eval_s(sp, r_grid))
    knots = np.asarray(sp.knots)
    is_knot = np.any(np.abs(np.abs(r_grid)[:, None] - knots[None, :]) < 1e-9, axis=1)
    return ["r,offset,halflen,is_knot"] + [
        f"{_fmt(r)},{_fmt(o)},{_fmt(h)},{int(k)}"
        for r, o, h, k in zip(r_grid, offset, halflen, is_knot)
    ]


def cmd_figure(args) -> int:
    fid = args.figure_id
    if fid in ("fig6", "fig7") and args.spline is None:
        raise ValueError(f"figure {fid} needs --spline")
    if fid == "fig1":
        lines = _figure_density(args)
    elif fid in _FIG_CREDIBLE:
        lines = _figure_credible(args, *_FIG_CREDIBLE[fid])
    elif fid == "fig6":
        lines = _figure_sel(args)
    else:
        lines = _figure_spline(args)
    _write(args.output, "\n".join([_provenance(args)] + lines) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interval-lab",
        description="Credible intervals under slab-and-spike priors and the "
        "spline-based confidence interval J(b, s).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("posterior", help="emit the marginal posterior density as CSV")
    _add_data_flags(p)
    _add_prior_flags(p)
    p.add_argument("--points", type=int, default=2001, help="number of grid points")
    p.add_argument("--output", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("credible", help="compute a credible interval as JSON")
    _add_data_flags(p)
    _add_prior_flags(p)
    p.add_argument("--alpha", type=float, default=0.05, help="posterior tail mass")
    p.add_argument(
        "--kind", choices=["equi", "shortest", "hpd"], default="equi", help="interval type"
    )
    p.add_argument("--output", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(func=cmd_credible)

    p = sub.add_parser("design", help="solve for the spline pair (b, s)")
    p.add_argument("--config", metavar="FILE", help="design config JSON (defaults if omitted)")
    p.add_argument("--output", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("evaluate", help="coverage and scaled expected length over gamma")
    p.add_argument("--spline", metavar="FILE", required=True, help="spline pair JSON")
    p.add_argument("--gamma-upper", type=float, default=20.0, help="grid upper bound")
    p.add_argument("--gamma-step", type=float, default=0.05, help="grid step")
    p.add_argument("--output", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("apply", help="apply the interval J(b, s) to data")
    p.add_argument("--spline", metavar="FILE", required=True, help="spline pair JSON")
    _add_data_flags(p)
    p.add_argument("--output", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("simulate", help="Monte Carlo coverage and length estimates")
    p.add_argument("--spline", metavar="FILE", help="spline pair JSON for J(b, s)")
    p.add_argument("--standard", action="store_true", help="simulate the standard t interval")
    p.add_argument("--gamma", type=float, required=True, help="constraint position tau/sigma")
    p.add_argument("--n-rep", type=int, default=1_000_000, help="number of replications")
    p.add_argument("--seed", type=int, default=1, help="random seed")
    p.add_argument("--m", type=int, help="degrees of freedom (standard procedure)")
    p.add_argument("--rho", type=float, help="estimator correlation (standard procedure)")
    p.add_argument("--alpha", type=float, default=0.05, help="nominal noncoverage")
    p.add_argument("--output", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("figure", help="emit the data behind one of the figures")
    p.add_argument(
        "figure_id",
        choices=[f"fig{i}" for i in range(1, 8)],
        help="fig1 posterior density; fig2-5 credible-interval summaries vs r; "
        "fig6 squared scaled expected length vs gamma; fig7 spline pair vs r",
    )
    p.add_argument("--spline", metavar="FILE", help="spline pair JSON (fig6, fig7)")
    p.add_argument("--step", type=float, help="grid step override")
    p.add_argument(
        "--sigma-values", default="1,10", help="comma-separated sigma-hat values (fig2-5)"
    )
    p.add_argument("--output", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
