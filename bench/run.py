"""Benchmark of interval_lab: seeded workloads, end-to-end metrics, checks, traced run.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload analyze --seed 1 --seconds 14 --trace 0

One process runs one workload as a single closed-loop client: each op
starts when the previous one has returned.  The library is imported from
``src/`` of the checkout with INTERVAL_LAB_THREADS pinned to 2.

With ``--trace 0`` the run sets up three times (this process and two
fresh ones; each imports the library, generates the inputs and runs one
warm-up op) and reports the median as ``setup_s``, times one pass over
the inputs, then checks every output.  With ``--trace 1`` it times the
same pass untraced and then traced (see tracer.py), checks that both
passes produced identical outputs, and reports the per-layer metrics.

Informational lines go to standard output first; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  A run
is correct when every failed op belongs to a known-defect class
(``known_defects`` in baseline.json).  Metric names and units come from
BENCHMARK.json.  The program exits with 2 when the checkout holds no
``src/interval_lab``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREADS = 2
SETUP_RUNS = 3


@dataclass
class Pass:
    wall: float
    cpu: float
    latencies: list
    outputs: list
    errors: list


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def timed_pass(workload, items, api, tracer=None) -> Pass:
    latencies, outputs, errors = [], [], []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.begin_op(i)
        t = time.perf_counter()
        try:
            out, err = workload.run(item, api), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, err = None, exc
        latencies.append(time.perf_counter() - t)
        outputs.append(out)
        errors.append(err)
    return Pass(time.perf_counter() - t0, _cpu_s() - cpu0, latencies, outputs, errors)


def tally(wl, workload, items, p: Pass):
    """Run the checks; return (failed ops, failures) with failures as (item, Failure)."""
    failed = 0
    failures = []
    for i, (item, out, err) in enumerate(zip(items, p.outputs, p.errors)):
        if err is not None:
            found = [wl.Failure(item.ops, f"{type(err).__name__}: {err}", wl.classify_error(err))]
        else:
            try:
                found = workload.check(item, out)
            except Exception as exc:  # a check that cannot run fails its op
                found = [wl.Failure(item.ops, f"check raised {type(exc).__name__}: {exc}")]
        failed += min(item.ops, sum(f.ops for f in found))
        failures.extend((i, f) for f in found)
    return failed, failures


def same(a, b) -> bool:
    """Exact equality of two op outputs, numpy arrays included."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if hasattr(a, "shape"):
        return hasattr(b, "shape") and a.shape == b.shape and bool((a == b).all())
    return a == b


def _setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"setup process failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _percentile_tail(latencies):
    """Highest percentile with at least ten samples above it: (label, value)."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return f"p{100.0 * (n - 10) / n:.4g} of {n}", ordered[n - 11]


def _line(tag: str, doc) -> None:
    print(f"{tag} {json.dumps(doc, sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "interval_lab" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'interval_lab'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.environ["INTERVAL_LAB_THREADS"] = str(THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    warnings.filterwarnings("ignore", message="shortest-interval tail split")
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    import_s = time.perf_counter() - T_START

    workload = wl.WORKLOADS[args.workload](args.seed, args.seconds, ROOT)
    try:
        t0 = time.perf_counter()
        items = workload.generate()
        workload.run(workload.warmup(), wl.API)
        setup = import_s + time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        return _measure(args, wl, workload, items, setup)
    finally:
        workload.close()


def _measure(args, wl, workload, items, own_setup: float) -> int:
    import numpy
    import scipy

    _line("machine", {
        "nproc": os.cpu_count(), "INTERVAL_LAB_THREADS": THREADS,
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
    })
    setups = [own_setup]
    if not args.trace:
        setups += [_setup_in_child(args) for _ in range(SETUP_RUNS - 1)]

    untraced = timed_pass(workload, items, wl.API)
    attempted = sum(item.ops for item in items)
    failed, failures = tally(wl, workload, items, untraced)
    correct = all(f.known for _, f in failures)

    shares = workload.input_shares(items)
    props = [workload.result_props(out) for out in untraced.outputs if out is not None]
    for key in set().union(*props):
        shares[key] = statistics.fmean(p[key] for p in props)
    _line("inputs", {"workload": args.workload, "seed": args.seed,
                     "ops": attempted, "items": len(items), "shares": shares})
    for i, f in failures[:20]:
        _line("failure", {"item": i, "ops": f.ops, "known_defect": f.known, "reason": f.reason[:400]})

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        metrics, unchanged = _traced(args, wl, workload, items, untraced)
        correct = correct and unchanged
        result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in bench["per_layer"] if m["name"] in metrics}
    else:
        report = _report(args, untraced, attempted, failed, setups)
        for name, (value, unit) in report.items():
            print(f"metric {args.workload} {name} = {value!r} {unit}")
        result_metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]}
                          for m in bench["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


def _report(args, p: Pass, attempted: int, failed: int, setups) -> dict:
    """Every end-to-end metric that applies to the workload: name -> (value, unit)."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (p.wall, "s"),
        "ops_per_s": ((attempted - failed) / p.wall, "1/s"),
        "cpu_s": (p.cpu, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "fail_frac": (failed / attempted, "ratio"),
    }
    if args.workload in ("analyze", "risk", "design"):
        out["op_p50_ms"] = (1000.0 * statistics.median(p.latencies), "ms")
    tail = _percentile_tail(p.latencies)
    if args.workload == "analyze" and tail is not None:
        out["op_tail_ms"] = (1000.0 * tail[1], f"ms  # {tail[0]} ops")
    if args.workload == "design":
        objs = [o["objective"] for o in p.outputs if o is not None]
        out["design_obj"] = (statistics.fmean(objs) if objs else float("nan"), "dimensionless")
    return out


def _traced(args, wl, workload, items, untraced: Pass):
    """Traced pass over the same items: (per-layer metrics, outputs unchanged)."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer, wl.API)
    try:
        traced = timed_pass(workload, items, wl.API, tracer)
    finally:
        tracer.restore()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{args.workload}.npz")
    if tracer.absent:
        _line("absent", sorted(set(tracer.absent)))
    unchanged = all(same(a, b) for a, b in zip(untraced.outputs, traced.outputs)) and [
        type(e) for e in untraced.errors] == [type(e) for e in traced.errors]
    if not unchanged:
        _line("failure", {"reason": "the traced pass changed an output the checks read"})
    return layers.layer_metrics(tracer, untraced.wall, traced.wall), unchanged


if __name__ == "__main__":
    sys.exit(main())
