"""The library names and settings the benchmark in ``bench/`` relies on.

The traced benchmark run wraps library functions by name and leaves out
every per-layer metric whose wrap point has gone; its workloads build
their inputs through the public API.  These checks read ``bench/``
without changing it, so a rename in the library fails here rather than
as a silently shorter benchmark report.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from interval_lab import cli
from interval_lab.kg_design import DesignConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_wrap_point_installs():
    tr = tracer.Tracer()
    try:
        layers.install(tr, workloads.API)
        assert tr.absent == []
    finally:
        tr.restore()


def test_traced_metrics_complete():
    # every per-layer metric the benchmark declares is reported by a traced run
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    tr = tracer.Tracer()
    try:
        layers.install(tr, workloads.API)
        reported = layers.layer_metrics(tr, 1.0, 1.0)
    finally:
        tr.restore()
    assert set(reported) == {metric["name"] for metric in declared}


def test_cli_config_keys_match_design_config():
    # a knob deleted from DesignConfig cannot linger in the design config file format
    fields = {f.name for f in dataclasses.fields(DesignConfig)}
    assert cli._CONFIG_KEYS == fields - {"gamma_constraint_grid"} | {"gamma_upper", "gamma_step"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_build(name):
    # the design workload passes its capped optimizer SETTINGS to DesignConfig
    wl = workloads.WORKLOADS[name](1, 14, ROOT)
    assert wl.generate()
    assert wl.warmup() is not None
