#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it (stdlib only).

    python3 perfbench/baseline.py [--seeds 10] [--output FILE]

For each workload: one untraced run per seed 0..N-1 and one traced run at
seed 0.  For each end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, marking with ``!`` every spread above a third of the metric's bound
in BENCHMARK.json.  With ``--output`` the summary is also written as JSON,
e.g. a ``BENCH_<n>.json`` baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, dict]:
    """One benchmark run; returns (environment, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed={seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].split(" ", 4)[4])
    return env, json.loads(lines[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "bound": bound,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--output")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    summary = {"run_seconds": seconds, "seeds": list(range(args.seeds)), "workloads": {}}
    unsteady = 0
    for name in whys:
        results = []
        for seed in range(args.seeds):
            env, result = run(name, seed, 0, seconds)
            if not result["correct"]:
                print(f"{name} seed={seed}: {result['failed']} of "
                      f"{result['attempted']} failed")
                unsteady += 1
            results.append(result)
        env, traced = run(name, 0, 1, seconds)
        summary["environment"] = {k: v for k, v in env.items() if k != "tasks"}
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            end_to_end[metric["name"]] = s = summarise(values, metric["bound"])
            flag = s["spread"] > metric["bound"] / 3
            unsteady += flag
            print(f"{name:15s} {metric['name']:12s} median {s['median']:11.5g} "
                  f"{metric['unit']:5s} spread {s['spread']:6.2%} "
                  f"(bound {metric['bound']:.0%}){' !' if flag else ''}")
        summary["workloads"][name] = {
            "why": whys[name],
            "end_to_end": end_to_end,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.output:
        Path(args.output).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
