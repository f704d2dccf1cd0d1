#!/usr/bin/env python3
"""radabound benchmark (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick        # smoke test of every workload

Run from the repository root.  Each call starts the workload in a fresh
``worker.py`` process against the package under ``src/``, with
RADABOUND_SEED cleared and BLAS pinned to one thread.  Set-up time is the
median over several fresh processes spread over the run.  The report lines
name every metric with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics that BENCHMARK.json
lists for the mode: end to end with ``--trace 0``, per layer with
``--trace 1``.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RADABOUND_SEED"}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def worker(args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *(["--quick"] if args.quick else [])]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, spec: dict) -> dict:
    """Run one workload; return the contract's result object."""
    result = worker(args, time.monotonic() + DEADLINE_S)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["metrics"]
    if set(measured) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(measured)}")

    env = dict(result["env"], commit=commit(), tasks=result["tasks"])
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(env))
    for name, (value, unit, samples) in result["report"].items():
        print(f"{name} {value:.6g} {unit} (n={samples})")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {measured[m['name']]:.6g} {m['unit']}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and short runs; without --workload, "
                             "smoke-test every workload in both modes")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "radabound" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a radabound checkout (src/radabound and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else spec["run_seconds"]

    if args.workload is None:
        if not args.quick:
            parser.error("--workload is required without --quick")
        failures = 0
        for workload in spec["workloads"]:
            for trace in (0, 1):
                args.workload, args.trace = workload["name"], trace
                try:
                    failures += not run_workload(args, spec)["correct"]
                except (RuntimeError, subprocess.TimeoutExpired) as exc:
                    print(f"FAIL {workload['name']} trace={trace}: {exc}", file=sys.stderr)
                    failures += 1
        print(json.dumps({"smoke_failures": failures}))
        return 1 if failures else 0

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    try:
        result = run_workload(args, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
