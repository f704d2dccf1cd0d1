"""Smoke test of the benchmark in perfbench/: every workload, untraced and
traced, at quick scale.  It fails when a rename breaks the trace shim's patch
table or when a quick-scale output check or digest no longer matches.  The
shim's rejection counter is also checked against the guard's error contract."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radabound.errors import DomainError
from radabound.guard import Guard, GuardConfig, HoldoutSample

ROOT = Path(__file__).resolve().parent.parent


def test_quick_benchmark_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke_failures": 0}


def test_trace_shim_counts_every_malformed_query_as_rejected():
    # The shim counts guard.rejected by the exact type name DomainError, so
    # a malformed query of any kind must raise exactly that type.
    spec = importlib.util.spec_from_file_location(
        "trace_shim", ROOT / "perfbench" / "trace_shim.py"
    )
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    tracer = shim.Tracer()
    with tracer.installed():
        guard = Guard(HoldoutSample(points=np.linspace(0.0, 1.0, 10), m=10),
                      GuardConfig(epsilon=0.5, delta=0.1, n_vectors=4))
        for values in (np.full(9, 0.5), np.full(10, 1.5)):  # too short, out of range
            query = lambda _points, values=values: values  # noqa: E731
            query.vectorized = True
            with pytest.raises(DomainError):
                guard.submit_query(query)
    assert tracer.counts["guard.rejected"] == 2
    assert guard.rad.query_count == 0
