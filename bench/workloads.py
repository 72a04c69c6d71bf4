"""Seeded workloads of the interval_lab benchmark.

Each workload turns ``--seed`` and ``--seconds`` into a fixed, ordered
list of inputs (the op count follows from ``--seconds`` through a
constant rate, never from a measurement), runs one op per input through
the library's public API, and checks every output after the timed pass.

Inputs are drawn in strata with fixed counts, so two seeds differ in the
values drawn but not in the mix of expensive and cheap cases; that keeps
a run's total work steady across seeds without dropping hard inputs.

Known defects of the library are part of the input ranges on purpose and
count as failed ops.  ``classify_error`` and the checks name their class
(described under ``known_defects`` in baseline.json); any other failure
marks the run as incorrect.
"""

from __future__ import annotations

import csv
import io
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import gammaln

import interval_lab as il
from interval_lab import cli as il_cli
from interval_lab.model_prep import RegressionProblem
from interval_lab.posterior_mixture import PriorFamily, PriorSpec


def classify_error(exc: BaseException) -> str | None:
    """Known-defect class of an exception raised by an op, or None."""
    text = str(exc)
    if isinstance(exc, RuntimeError):
        if "quadrature failed to reach tol" in text:
            return "quadrature_tol"
        if "design optimizer stalled" in text or "failed coverage verification" in text:
            return "design_stalled"
    return None


@dataclass
class Failure:
    """Ops lost to one exception or failed check, with its known-defect class."""

    ops: int
    reason: str
    known: str | None = None


@dataclass
class Item:
    """One timed unit of work: ``ops`` ops on ``data``."""

    data: dict
    ops: int = 1
    props: dict = field(default_factory=dict)


def _api():
    """The library entry points the workloads call; the traced run wraps these."""
    from types import SimpleNamespace

    names = (
        "factorial_2x2 reduce_problem build_posterior equi_tailed shortest hpd_set "
        "kg_interval coverage_probability scaled_expected_length "
        "simulate design objective"
    ).split()
    api = SimpleNamespace(**{n: getattr(il, n) for n in names})
    api.coverage_and_sel_grid = il.kg_core.coverage_and_sel_grid
    api.cli_main = il_cli.main
    return api


API = _api()
ALPHAS = (0.01, 0.05, 0.1, 0.2)
GOLDEN_REL = Path("tests") / "golden" / "designed_pair.json"


def _strata(n: int, shares: dict[str, float]) -> list[str]:
    """Exactly apportioned stratum labels for n items (largest remainder)."""
    raw = {k: n * v for k, v in shares.items()}
    counts = {k: int(math.floor(x)) for k, x in raw.items()}
    left = n - sum(counts.values())
    for k in sorted(raw, key=lambda k: counts[k] - raw[k])[:left]:
        counts[k] += 1
    return [k for k in shares for _ in range(counts[k])]


def _jittered_strata(rng, n: int, lo: float, hi: float, jitter: float = 0.2) -> np.ndarray:
    """Centres of n equal sub-intervals of [lo, hi], each moved by up to
    +-jitter/2 of the sub-interval width.

    Few, costly ops make a run's total work sensitive to where in a
    stratum each draw falls; drawing near the centres keeps that total
    steady across seeds while the values still change with the seed.
    """
    width = (hi - lo) / n
    centres = lo + width * (np.arange(n) + 0.5)
    return centres + width * jitter * (rng.random(n) - 0.5)


class Workload:
    """A seeded list of items, the op that runs one item, and its check."""

    name = ""
    salt = 0  # separates the random streams of the workloads

    def __init__(self, seed: int, seconds: float, root: Path):
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.rng = np.random.default_rng([seed, self.salt])

    def generate(self) -> list[Item]:
        raise NotImplementedError

    def warmup(self) -> Item:
        raise NotImplementedError

    def run(self, item: Item, api) -> object:
        raise NotImplementedError

    def check(self, item: Item, out) -> list[Failure]:
        raise NotImplementedError

    def result_props(self, out) -> dict[str, float]:
        """Properties of one op's output, reported as shares like input properties."""
        return {}

    def input_shares(self, items: list[Item]) -> dict[str, float]:
        keys = sorted({k for it in items for k in it.props})
        total = sum(it.ops for it in items)
        return {k: sum(it.ops for it in items if it.props.get(k)) / total for k in keys}

    def close(self) -> None:
        pass


def _golden_pair(root: Path):
    return il.spline_pair_from_json((root / GOLDEN_REL).read_text(encoding="utf-8"))


# -- analyze ---------------------------------------------------------------


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _regression(rng, m: int, p: int, rho: float, theta_hat: float, tau_hat: float,
                sigma_hat: float) -> dict:
    """Raw (X, y, a, c, t) whose least-squares reduction has the given statistics.

    c is built at G-angle acos(rho) from a, where G = (X'X)^-1; beta is
    moved along G a and G c to hit theta_hat and tau_hat; the residual is a
    random vector orthogonal to the columns of X with norm sqrt(m) sigma_hat.
    """
    n = m + p
    X = rng.standard_normal((n, p))
    G = np.linalg.inv(X.T @ X)
    a = rng.standard_normal(p)
    v = rng.standard_normal(p)
    v -= (a @ G @ v) / (a @ G @ a) * a
    c = rho * a / math.sqrt(a @ G @ a) + math.sqrt(1.0 - rho * rho) * v / math.sqrt(v @ G @ v)
    c *= rng.uniform(0.5, 2.0)
    t = float(rng.normal())
    beta0 = rng.standard_normal(p)
    Ga, Gc = G @ a, G @ c
    lhs = np.array([[a @ Ga, a @ Gc], [c @ Ga, c @ Gc]])
    rhs = np.array([
        theta_hat * math.sqrt(a @ Ga) - a @ beta0,
        tau_hat * math.sqrt(c @ Gc) + t - c @ beta0,
    ])
    u, w = np.linalg.solve(lhs, rhs)
    beta = beta0 + u * Ga + w * Gc
    e = rng.standard_normal(n)
    e -= X @ np.linalg.lstsq(X, e, rcond=None)[0]
    e *= math.sqrt(m) * sigma_hat / np.linalg.norm(e)
    return {"X": X, "y": X @ beta + e, "a": a, "c": c, "t": t}


class Analyze(Workload):
    """The analyst's per-dataset latency: one dataset at a time through
    model_prep, posterior_mixture, credible and special_fn, nothing in
    kg_design or mc_oracle.  A batched credible solver must not slow it.
    A quarter of the datasets are made bimodal (large m, |rho| near 1,
    moderate r, spike weight 0.2-0.6 under both priors), because plain
    random regressions almost never give a two-piece HPD set.
    """

    name = "analyze"
    salt = 1
    RATE = 14.0  # datasets per second at the seed commit, 2 threads

    def __init__(self, seed, seconds, root):
        super().__init__(seed, seconds, root)
        self.golden = _golden_pair(root)

    def _dataset(self, kind: str, j: int) -> Item:
        rng = self.rng
        alpha = ALPHAS[j % len(ALPHAS)]
        props = {}
        if kind == "factorial":
            beta = rng.standard_normal(4) * 2.0
            cells = np.array([[1.0, x1, x2, x1 * x2] for _ in range(2)
                              for (x1, x2) in ((-1, -1), (-1, 1), (1, -1), (1, 1))])
            sig = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            y = cells @ beta + sig * rng.standard_normal(8)
            xi = float(rng.uniform(0.05, 0.95))
            data = {"factorial": y, "xi": xi, "alpha": alpha}
            m = 4
        elif kind == "bimodal":
            m = int(rng.integers(20, 201))
            rho = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.97, 0.995))
            r = float(rng.choice((-1.0, 1.0)) * rng.uniform(2.5, 3.5))
            # solve the spike-weight formulas of posterior_mixture for the xi
            # that gives s4 (g = 1) weight lam4, then for the sigma_hat that
            # gives s3 weight lam3 at that xi
            lam4 = rng.uniform(0.2, 0.6)
            lam3 = rng.uniform(0.2, 0.6)
            odds_xi = _logit(1.0 - lam4) - 0.5 * math.log(2.0 * math.pi) \
                - 0.5 * m * math.log((m + r * r) / m)
            xi = 1.0 / (1.0 + math.exp(odds_xi))
            log_k3 = (odds_xi + 0.5 * math.log(math.pi) + gammaln(m / 2.0)
                      - gammaln((m + 1.0) / 2.0) - 0.5 * m * math.log(m))
            sigma_hat = math.exp(_logit(1.0 - lam3) - log_k3
                                 - 0.5 * (m + 1.0) * math.log(m + r * r))
            p = int(rng.integers(2, 6))
            data = _regression(rng, m, p, rho, sigma_hat * rng.normal(), r * sigma_hat,
                               sigma_hat)
            data.update(xi=xi, alpha=alpha)
        else:
            m = int(round(math.exp(rng.uniform(0.0, math.log(60.0)))))
            p = int(rng.integers(2, 6))
            rho = float(rng.uniform(-0.95, 0.95))
            sigma_hat = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            r = float(rng.uniform(-4.0, 4.0))
            data = _regression(rng, m, p, rho, sigma_hat * 2.0 * rng.normal(),
                               r * sigma_hat, sigma_hat)
            # two in five plain datasets put the prior spike mass at an endpoint
            xi = (0.0, 1.0)[j % 5] if j % 5 < 2 else float(rng.uniform(0.05, 0.95))
            data.update(xi=xi, alpha=alpha)
        props["xi_endpoint"] = data["xi"] in (0.0, 1.0)
        props["m_eq_4"] = m == 4
        props["bimodal_stratum"] = kind == "bimodal"
        props["factorial_2x2"] = kind == "factorial"
        return Item(data=data, props=props)

    def generate(self) -> list[Item]:
        n = max(8, round(self.seconds * self.RATE))
        kinds = _strata(n, {"factorial": 0.25, "bimodal": 0.25, "plain": 0.5})
        seen: dict[str, int] = {}
        items = []
        for kind in kinds:
            j = seen.get(kind, 0)
            seen[kind] = j + 1
            items.append(self._dataset(kind, j))
        return [items[i] for i in self.rng.permutation(n)]

    def warmup(self) -> Item:
        return self._dataset("plain", 2)

    def run(self, item: Item, api):
        d = item.data
        if "factorial" in d:
            prob = api.factorial_2x2(d["factorial"])
        else:
            prob = RegressionProblem(X=d["X"], y=d["y"], a_star=d["a"], c_star=d["c"],
                                     t_star=d["t"])
        stats = api.reduce_problem(prob)
        out = {"stats": stats}
        for fam in (PriorFamily.SLAB_SPIKE_VARIANCE, PriorFamily.SLAB_SPIKE_SCALE):
            mix = api.build_posterior(stats, PriorSpec(fam, xi=d["xi"], g=1.0))
            out[fam.value] = (
                api.equi_tailed(mix, d["alpha"]),
                api.shortest(mix, d["alpha"]),
                api.hpd_set(mix, d["alpha"]),
            )
        if stats.m == 4:
            out["kg"] = api.kg_interval(stats, self.golden)
        return out

    def check(self, item: Item, out) -> list[Failure]:
        d = item.data
        bad = []
        stats = out["stats"]
        if "factorial" in d:
            prob = il.factorial_2x2(d["factorial"])
            X, y, a, c, t = prob.X, prob.y, prob.a_star, prob.c_star, prob.t_star
        else:
            X, y, a, c, t = d["X"], d["y"], d["a"], d["c"], d["t"]
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        G = np.linalg.pinv(X) @ np.linalg.pinv(X).T
        theta = a @ beta / math.sqrt(a @ G @ a)
        tau = (c @ beta - t) / math.sqrt(c @ G @ c)
        scale = abs(theta) + abs(tau) + stats.sigma_hat
        if abs(theta - stats.theta_hat) > 1e-8 * scale or abs(tau - stats.tau_hat) > 1e-8 * scale:
            bad.append(f"lstsq disagrees: theta {theta!r} vs {stats.theta_hat!r}, "
                       f"tau {tau!r} vs {stats.tau_hat!r}")
        target = 1.0 - d["alpha"]
        for fam in (PriorFamily.SLAB_SPIKE_VARIANCE, PriorFamily.SLAB_SPIKE_SCALE):
            mix = il.build_posterior(stats, PriorSpec(fam, xi=d["xi"], g=1.0))
            equi, short, hpd = out[fam.value]
            for label, ivs in (("equi", [equi]), ("shortest", [short]), ("hpd", hpd.intervals)):
                mass = sum(il.posterior_cdf(mix, iv.upper) - il.posterior_cdf(mix, iv.lower)
                           for iv in ivs)
                if abs(mass - target) > 1e-8:
                    bad.append(f"{fam.value} {label} mass {mass!r} != {target!r}")
            dens = [il.posterior_pdf(mix, x) for iv in hpd.intervals for x in (iv.lower, iv.upper)]
            if max(dens) - min(dens) > 1e-6 * max(dens):
                bad.append(f"{fam.value} hpd endpoint densities differ: {dens}")
            if short.length > equi.length * (1.0 + 1e-12):
                bad.append(f"{fam.value} shortest {short.length!r} longer than equi {equi.length!r}")
        return [Failure(1, "; ".join(bad))] if bad else []

    def result_props(self, out) -> dict[str, float]:
        return {"hpd_two_piece": sum(len(out[f][2].intervals) == 2 for f in ("s3", "s4")) / 2}


# -- sweep -----------------------------------------------------------------

_FIGURES = {"fig2": ("s3", "equi"), "fig3": ("s3", "shortest"),
            "fig4": ("s4", "equi"), "fig5": ("s4", "shortest")}
_FIG_M, _FIG_RHO, _FIG_ALPHA, _FIG_XI = 4, -1.0 / math.sqrt(2.0), 0.05, 1.0 / 1.2


class Sweep(Workload):
    """The batch use of the credible layer: the CLI figure command solves one
    credible interval per r row and sigma_hat column.  It is the only
    workload through the cli layer and its _pmap thread pool, so batching
    the solvers should move it while analyze stays flat.
    """

    name = "sweep"
    salt = 2
    STEP = 0.25
    SOLVES_PER_S = 95.0  # mean over fig2-fig5 at the seed commit, 2 threads

    def __init__(self, seed, seconds, root):
        super().__init__(seed, seconds, root)
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=out)
        self.tmp = Path(self._tmp.name)
        self.rows = np.arange(-10.0, 10.0 + 0.5 * self.STEP, self.STEP)

    def _figure(self, fig: str, sigmas, step: float, rows: int) -> Item:
        text = ",".join(format(s, ".6g") for s in sigmas)
        return Item(data={"fig": fig, "sigmas": text, "step": step},
                    ops=rows * len(sigmas),
                    props={"s4_family": _FIGURES[fig][0] == "s4"})

    def generate(self) -> list[Item]:
        per_fig = self.seconds * self.SOLVES_PER_S / (len(_FIGURES) * self.rows.size)
        k = max(2, round(per_fig))
        items = []
        for fig in _FIGURES:
            # one sigma_hat near the centre of each equal slice of log10 sigma in [-1, 1.5]
            sig = 10.0 ** self.rng.permutation(_jittered_strata(self.rng, k, -1.0, 1.5))
            items.append(self._figure(fig, sig, self.STEP, self.rows.size))
        return items

    def warmup(self) -> Item:
        return self._figure("fig3", [1.0], 5.0, 5)

    def run(self, item: Item, api):
        d = item.data
        path = self.tmp / f"{d['fig']}.csv"
        argv = ["figure", d["fig"], "--sigma-values", d["sigmas"], "--step",
                format(d["step"], "g"), "--output", str(path)]
        code = api.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"interval-lab {' '.join(argv)} exited with {code}")
        return path.read_text(encoding="utf-8")

    def check(self, item: Item, out) -> list[Failure]:
        d = item.data
        fam, kind = _FIGURES[d["fig"]]
        sigmas = [float(s) for s in d["sigmas"].split(",")]
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        table = np.array([[float(v) for v in row] for row in csv.reader(io.StringIO("\n".join(lines[1:])))])
        if table.shape != (self.rows.size, 1 + 2 * len(sigmas)):
            return [Failure(item.ops, f"{d['fig']} table shape {table.shape}")]
        fails = []
        if fam == "s4":
            # acceptance criterion 5: scaled s4 summaries do not depend on sigma_hat
            off, half = table[:, 1::2], table[:, 2::2]
            spread = np.maximum(np.ptp(off, axis=1), np.ptp(half, axis=1))
            for i in np.nonzero(spread > 1e-9 * (1.0 + np.abs(half).max(axis=1)))[0]:
                fails.append(Failure(len(sigmas), f"{d['fig']} r={table[i, 0]:g} not sigma-invariant"))
        solver = il.equi_tailed if kind == "equi" else il.shortest
        prior = PriorSpec(PriorFamily(fam), xi=_FIG_XI, g=1.0)
        rng = np.random.default_rng([self.seed, self.salt, int(d["fig"][3:])])
        for i in rng.choice(self.rows.size, size=3, replace=False):
            r = table[i, 0]
            for j, sig in enumerate(sigmas):
                stats = il.SufficientStats(0.0, r * sig, sig, _FIG_M, _FIG_RHO)
                mix = il.build_posterior(stats, prior)
                summ = il.scaled_summary(solver(mix, _FIG_ALPHA), stats)
                off, half = table[i, 1 + 2 * j], table[i, 2 + 2 * j]
                lo, hi = sig * (off - half), sig * (off + half)
                mass = il.posterior_cdf(mix, hi) - il.posterior_cdf(mix, lo)
                if (abs(summ.scaled_offset - off) > 1e-9 * (1.0 + abs(off))
                        or abs(summ.scaled_half_length - half) > 1e-9 * half
                        or abs(mass - (1.0 - _FIG_ALPHA)) > 1e-8):
                    fails.append(Failure(1, f"{d['fig']} r={r:g} sigma={sig:g}: csv "
                                            f"({off}, {half}) vs re-solve {summ}, mass {mass}"))
        return fails

    def close(self) -> None:
        self._tmp.cleanup()


# -- risk ------------------------------------------------------------------


def _perturbed_pair(rng, golden, m: int, alpha: float, rho: float):
    """Golden pair with s rescaled to t(m) at alpha and both curves jittered."""
    crit = il.t_two_sided(alpha, m)
    k = len(golden.knots)
    b = np.array(golden.b_values) * rng.uniform(0.5, 1.5) + np.r_[0.0, rng.normal(0.0, 0.02, k - 2), 0.0]
    s = np.array(golden.s_values) / golden.s_values[-1] * crit
    s[:-1] *= 1.0 + rng.normal(0.0, 0.03, k - 1)
    return il.SplinePair(d=golden.d, knots=golden.knots, b_values=tuple(b),
                         s_values=tuple(s), m=m, alpha=alpha, rho=rho)


class Risk(Workload):
    """Frequentist risk of a spline pair: almost all time is kg_core
    quadrature and the mc_oracle, nothing in credible; a faster or
    sturdier risk kernel should move it.  The cost of a pair depends on the
    quadrature order it needs, so every run holds the same strata: regular
    pairs (m >= 2, |rho| <= 0.9, quadrature order 16), two hard pairs (one
    with m = 1, one with |rho| in [0.97, 0.98); both need order 32) and one
    edge pair with |rho| in [0.9997, 0.9999], where the quadrature is known
    to raise after refining to order 64 (at |rho| = 0.999 it raises for
    most pair shapes, not all).  |rho| in [0.98, 0.9997) is left out:
    there the grid needs order 32 or 64 depending on the draw (about 8 s
    or 32 s), so one draw would decide the cost of a run.  An op runs its
    scalar calls first, so the edge pair raises after refining two single
    gammas rather than the whole grid.
    """

    name = "risk"
    salt = 3
    REGULAR_S = 2.5  # one regular pair (~2.3 s) per 2.5 s of --seconds; hard + edge pairs add ~17 s
    N_REP = 1_000_000
    GRID = np.linspace(0.0, 20.0, 401)

    def __init__(self, seed, seconds, root):
        super().__init__(seed, seconds, root)
        self.golden = _golden_pair(root)

    def _pair(self, m: int, alpha: float, rho: float, stratum: str) -> Item:
        sp = _perturbed_pair(self.rng, self.golden, m, alpha, rho)
        gammas = (0.0, float(self.GRID[self.rng.integers(1, 161)]))
        sim_seed = int(self.rng.integers(2**31))
        return Item(data={"pair": sp, "gammas": gammas, "sim_seed": sim_seed},
                    props={"abs_rho_ge_0.99": abs(rho) >= 0.99, "m_eq_1": m == 1,
                           f"stratum_{stratum}": True})

    def generate(self) -> list[Item]:
        rng = self.rng
        n = max(2, round(self.seconds / self.REGULAR_S))
        rhos = _jittered_strata(rng, n, -0.9, 0.9)
        # pair the m strata with the rho strata in a fixed interleaved order
        log_m = _jittered_strata(rng, n, math.log(2.0), math.log(500.0))[np.r_[0:n:2, 1:n:2]]
        items = [self._pair(int(round(math.exp(lm))), ALPHAS[j % 4], float(r), "regular")
                 for j, (lm, r) in enumerate(zip(log_m, rhos))]
        sign = float(rng.choice((-1.0, 1.0)))
        items.append(self._pair(1, ALPHAS[int(rng.integers(4))],
                                float(rng.uniform(-0.9, 0.9)), "hard"))
        m = int(round(math.exp(rng.uniform(math.log(2.0), math.log(500.0)))))
        items.append(self._pair(m, ALPHAS[int(rng.integers(4))],
                                sign * float(rng.uniform(0.97, 0.98)), "hard"))
        items.append(self._pair(int(rng.integers(2, 31)), ALPHAS[int(rng.integers(4))],
                                -sign * float(rng.uniform(0.9997, 0.9999)), "edge"))
        return [items[i] for i in rng.permutation(len(items))]

    def warmup(self) -> Item:
        return self._pair(4, 0.05, -1.0 / math.sqrt(2.0), "warmup")

    def run(self, item: Item, api):
        sp = item.data["pair"]
        out = {"scalar": [], "mc": []}
        for g in item.data["gammas"]:
            out["scalar"].append((api.coverage_probability(g, sp),
                                  api.scaled_expected_length(g, sp)))
        out["grid"] = api.coverage_and_sel_grid(sp, self.GRID, tol=1e-7)
        proc = il.KGProcedure(sp)
        for g in item.data["gammas"]:
            cfg = il.SimConfig(n_rep=self.N_REP, seed=item.data["sim_seed"], gamma=g,
                               m=sp.m, rho=sp.rho)
            res = api.simulate(proc, cfg)
            out["mc"].append((res.coverage_estimate, res.coverage_se,
                              res.sel_estimate, res.sel_se))
        return out

    def check(self, item: Item, out) -> list[Failure]:
        bad = []
        cov, sel = out["grid"]
        for g, (c_q, e_q), (c_mc, c_se, e_mc, e_se) in zip(item.data["gammas"], out["scalar"], out["mc"]):
            i = int(np.argmin(np.abs(self.GRID - g)))
            if abs(c_q - cov[i]) > 2e-6 or abs(e_q - sel[i]) > 2e-7:
                bad.append(f"gamma={g:g}: scalar ({c_q}, {e_q}) vs grid ({cov[i]}, {sel[i]})")
            if abs(c_mc - c_q) > 4.0 * c_se or abs(e_mc - e_q) > 4.0 * e_se:
                bad.append(f"gamma={g:g}: MC ({c_mc}+-{c_se}, {e_mc}+-{e_se}) "
                           f"vs quadrature ({c_q}, {e_q})")
        return [Failure(1, "; ".join(bad))] if bad else []


# -- design ----------------------------------------------------------------

_KNOT_SHAPES = ((0.0, 3.0, 6.0), (0.0, 2.0, 4.0, 6.0))
# m strata of the design configs; m <= 2 is left out because at the capped
# settings below m = 1 (and m = 2 at alpha = 0.05) end their penalty stages
# with a constraint violation of 2e-4 to 3e-4, which measures the cap
# rather than the library
_M_STRATA = ((3, 4), (5, 8), (9, 16), (17, 30))


class Design(Workload):
    """Spline-pair design: almost all time is kg_design's finite-difference
    penalty model and its L-BFGS-B stages; kg_core only runs the final
    verification; exact penalty gradients should move it.  Small shape of
    the tests (d = 6, gamma grid [0, 14] step 0.5), one design per knot
    shape and m stratum.  The optimizer is capped (``SETTINGS``: 3 penalty
    stages of at most 15 L-BFGS-B iterations, violation tolerance 1e-4, the
    floor the design's own grid verification applies) so that one design
    takes 3-7 s instead of 10-60 s on the 2-vCPU host of baseline.json;
    every other setting is the default.
    """

    name = "design"
    salt = 4
    SETTINGS = {"penalty_stages": 3, "max_iter": 15, "constraint_tol": 1e-4}
    PAIR_S = 7.0  # one 3-knot and one 4-knot design (~9 s together) per 7 s of --seconds
    N_REP = 200_000
    CHECK_GRID = np.linspace(0.0, 14.0, 141)  # 5x denser than the design's own

    def _config(self, knots, m: int, rho: float, alpha: float, xi_tilde: float) -> Item:
        cfg = il.DesignConfig(m=m, rho=rho, alpha=alpha, xi_tilde=xi_tilde, d=6.0,
                              knots=knots,
                              gamma_constraint_grid=il.GammaGrid.regular(14.0, 0.5),
                              **self.SETTINGS)
        return Item(data={"cfg": cfg, "sim_seed": int(self.rng.integers(2**31))},
                    props={"four_knots": len(knots) == 4})

    def generate(self) -> list[Item]:
        rng = self.rng
        n = 2 * max(1, round(self.seconds / self.PAIR_S))
        rhos = _jittered_strata(rng, n, -0.95, 0.95)[np.r_[0:n:2, 1:n:2]]
        xis = _jittered_strata(rng, n, 0.2, 1.0)[::-1]
        items = []
        for j in range(n):
            lo, hi = _M_STRATA[j % len(_M_STRATA)]
            items.append(self._config(_KNOT_SHAPES[j % 2], int(rng.integers(lo, hi + 1)),
                                      float(rhos[j]), (0.05, 0.1)[(j // 2) % 2],
                                      float(xis[j])))
        return items

    def warmup(self) -> Item:
        return self._config(_KNOT_SHAPES[0], 4, -1.0 / math.sqrt(2.0), 0.05, 1.0 / 1.2)

    def run(self, item: Item, api):
        cfg = item.data["cfg"]
        sp = api.design(cfg)
        return {"pair": sp, "objective": api.objective(sp, cfg)}

    def check(self, item: Item, out) -> list[Failure]:
        cfg = item.data["cfg"]
        sp = out["pair"]
        fails = []
        if out["objective"] > 1e-9:
            fails.append(Failure(1, f"objective {out['objective']:.3e} > 0 for {cfg}",
                                 "design_objective_positive"))
        cov, _ = il.kg_core.coverage_and_sel_grid(sp, self.CHECK_GRID, tol=1e-7)
        i = int(np.argmin(cov))
        floor = 1.0 - cfg.alpha - 5e-4
        res = il.simulate(il.KGProcedure(sp), il.SimConfig(
            n_rep=self.N_REP, seed=item.data["sim_seed"], gamma=float(self.CHECK_GRID[i]),
            m=cfg.m, rho=cfg.rho))
        if cov[i] < floor or abs(res.coverage_estimate - cov[i]) > 4.0 * res.coverage_se:
            fails.append(Failure(1, f"min dense coverage {cov[i]:.6f} at gamma "
                                    f"{self.CHECK_GRID[i]:g} (floor {floor}), MC "
                                    f"{res.coverage_estimate:.6f}+-{res.coverage_se:.1e}"))
        return fails


WORKLOADS = {w.name: w for w in (Analyze, Sweep, Risk, Design)}
