"""The library names and settings the benchmark in ``bench/`` relies on.

The traced benchmark run wraps library functions by name and leaves out
every per-layer metric whose wrap point has gone; its workloads build
their inputs through the public API.  These checks read ``bench/``
without changing it, so a rename in the library fails here rather than
as a silently shorter benchmark report.
"""

import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_build(name):
    # the design workload passes its capped optimizer SETTINGS to DesignConfig
    wl = workloads.WORKLOADS[name](1, 14, ROOT)
    assert wl.generate()
    assert wl.warmup() is not None
