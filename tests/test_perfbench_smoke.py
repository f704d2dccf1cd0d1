"""Smoke test of the benchmark in perfbench/: every workload, untraced and
traced, at quick scale.  It fails when a rename breaks the trace shim's patch
table or when a quick-scale output check or digest no longer matches."""

import json
import subprocess
import sys
from pathlib import Path

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
