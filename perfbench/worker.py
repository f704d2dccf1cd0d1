"""One benchmark workload in a fresh process; started by ``run.py``.

Prints one JSON line: attempted and failed operation counts, the metrics of
the requested mode (end to end untraced, per layer traced), human-readable
extras and the environment.  Every layer is reached through its public
functions only; per-layer spans come from ``trace_shim``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict, namedtuple  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from trace_shim import Tracer, span_cost_s  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 0

DELTA = 0.1
THRESHOLD = DELTA * (1.0 - DELTA)
SWEEP_EPSILONS = (0.05, 0.1, 0.2)
SWEEP_VECTORS = 32
PAPER_SPEC = {"m_train": 4000, "m_holdout": 4000, "m_fresh": 4000, "d": 500,
              "variance": 4.0, "n_biased": 50, "bias": 0.5}
QUICK_PAPER_SPEC = {**PAPER_SPEC, "d": 20, "n_biased": 5}
NO_SIGNAL_SPEC = {"m_train": 4000, "m_holdout": 4000, "m_fresh": 4000, "d": 500}
QUICK_NO_SIGNAL_SPEC = {**NO_SIGNAL_SPEC, "d": 20}

STREAM_DIM = 8
STREAM_VECTORS = 64
STREAM_EPSILON = 0.2  # far above where a 1000-query session would halt
STREAM_STEP = 0.05  # hill-climbing step of the analyst's half-space search
PER_POINT_EVERY = 20
BOUND_CHECK_EVERY = 10
SETUP_PROBES = 8  # fresh set-up-only processes per untraced run, besides its own
QUICK_SETUP_PROBES = 2

Row = namedtuple(
    "Row", "query_index holdout_acc fresh_acc r_tilde delta_prime accepted halted"
)


def derive(seed: int, *labels) -> int:
    """Dataset, guard and analyst seeds, derived from the workload seed."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") >> 1


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = defaultdict(list)
        self.report = {}

    def count(self, attempted: int = 1, failed: int = 0):
        self.attempted += attempted
        self.failed += failed


def timed(tracer, task, fn):
    """Run ``fn()``; return (result, seconds).  With a tracer, the call is
    one traced task with the shim installed only around it."""
    if tracer is None:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start
    tracer.task = task
    with tracer.installed():
        traced = tracer.wrap("bench.task", fn)
        start = time.perf_counter()
        result = traced()
        return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Trace checks shared by paper_sweep (CSV rows) and validity_batch (TraceRow)
# ---------------------------------------------------------------------------


def trace_ok(rows, halt_index, rel_tol: float) -> bool:
    """Row numbering, a non-decreasing r_tilde, answered rows within the
    threshold, a halting row (last, if any) above it, and halt_index."""
    r_prev = 0.0
    for n, row in enumerate(rows, 1):
        if row.query_index != n or row.r_tilde < r_prev:
            return False
        r_prev = row.r_tilde
        if row.halted:
            if n != len(rows) or not row.delta_prime > THRESHOLD * (1 - rel_tol):
                return False
        elif not row.delta_prime <= THRESHOLD * (1 + rel_tol):
            return False
    halted_at = rows[-1].query_index if rows and rows[-1].halted else None
    return halted_at == halt_index


def prefix_ok(smaller, largest) -> bool:
    """A smaller-epsilon trace equals the largest-epsilon one, except for
    delta_prime, up to its own halting row."""
    if len(smaller) > len(largest) or (not smaller[-1].halted and len(smaller) != len(largest)):
        return False
    for row, ref in zip(smaller, largest):
        same = (row.query_index, row.fresh_acc, row.r_tilde) == (
            ref.query_index, ref.fresh_acc, ref.r_tilde)
        if not row.halted:
            same = same and (row.holdout_acc, row.accepted) == (ref.holdout_acc, ref.accepted)
        if not same:
            return False
    return True


def final_loss_ok(holdout, trace) -> bool:
    """The best released loss equals the final classifier's 0-1 loss on the
    holdout, recomputed here (vacuous when nothing was answered)."""
    if trace.final_holdout_loss == math.inf:
        return True
    scores = holdout.features @ trace.final_classifier.weights
    wrong = np.where(scores >= 0, 1, -1) != holdout.labels
    return float(np.mean(wrong)) == trace.final_holdout_loss


def sweep_ok(traces, rel_tol: float) -> bool:
    """traces: (rows, halt_index) per epsilon, in increasing epsilon."""
    largest = traces[-1][0]
    return all(trace_ok(rows, halt, rel_tol) for rows, halt in traces) and all(
        prefix_ok(rows, largest) for rows, _ in traces[:-1])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class PaperSweep:
    """``radabound run-experiment`` at paper scale, in process."""

    nominal_task_s = 1.0

    def __init__(self, seed: int, quick: bool):
        from radabound import cli

        self.cli = cli
        self.seed = seed
        self.scale = "quick" if quick else "full"
        self.spec = QUICK_PAPER_SPEC if quick else PAPER_SPEC
        self.out = OUT_DIR / f"paper_sweep-{os.getpid()}"
        self.out.mkdir(parents=True, exist_ok=True)
        self.digests = json.loads((HERE / "expected_digests.json").read_text())

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_DIR.rmdir()  # only when no other run is using it

    def task(self, i: int, stats: Stats, tracer) -> float:
        run_dir = self.out / f"task{i}"
        config = {
            "experiment": {**self.spec, "seed": derive(self.seed, "dataset", i)},
            "guard": {"epsilon": SWEEP_EPSILONS[-1], "delta": DELTA,
                      "n_vectors": SWEEP_VECTORS, "method": "mclt",
                      "seed": derive(self.seed, "guard", i)},
            "epsilon_list": list(SWEEP_EPSILONS),
            "output_dir": os.path.relpath(run_dir),
        }
        config_path = self.out / f"task{i}.json"
        config_path.write_text(json.dumps(config))
        argv = ["run-experiment", "--config", os.path.relpath(config_path)]

        def sweep():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(argv)

        code, seconds = timed(tracer, i, sweep)
        stats.samples["sweep_s"].append(seconds)
        ok = code == 0 and self.outputs_ok(run_dir)
        if ok and self.seed == DEFAULT_SEED and i == 0:
            ok = self.trace_digests(run_dir) == self.digests[self.scale]
        stats.count(failed=int(not ok))
        shutil.rmtree(run_dir)
        config_path.unlink()
        return seconds

    @staticmethod
    def read_trace(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = []
        for line in lines[1:]:
            q, hold, fresh, r, dp, acc, halt = line.split(",")
            rows.append(Row(int(q), float(hold), float(fresh), float(r), float(dp),
                            acc == "true", halt == "true"))
        return rows

    def outputs_ok(self, run_dir: Path) -> bool:
        runs = json.loads((run_dir / "summary.json").read_text())["runs"]
        traces = []
        for run in runs:
            rows = self.read_trace(run_dir / run["trace_file"])
            accepted = [1.0 - row.holdout_acc for row in rows if row.accepted]
            loss = accepted[-1] if accepted else math.inf
            if run["n_queries"] != len(rows) or not math.isclose(
                    run["final_holdout_loss"], loss, rel_tol=0, abs_tol=1e-9):
                return False
            traces.append((rows, run["halt_index"]))
        # CSV values carry 10 significant digits.
        return [run["epsilon"] for run in runs] == list(SWEEP_EPSILONS) and sweep_ok(
            traces, rel_tol=1e-9)

    @staticmethod
    def trace_digests(run_dir: Path) -> dict:
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(run_dir.glob("trace_*.csv"))}

    def finish(self, stats: Stats, busy_s: float) -> None:
        sweeps = stats.samples["sweep_s"]
        stats.report["sweep_p50_s"] = (statistics.median(sweeps), "s", len(sweeps))


class ValidityBatch:
    """No-signal seeds through the library with the two-term bound."""

    nominal_task_s = 2.5

    def __init__(self, seed: int, quick: bool):
        from radabound import bounds, guard, harness, synthdata

        self.synthdata, self.harness = synthdata, harness
        self.spec = QUICK_NO_SIGNAL_SPEC if quick else NO_SIGNAL_SPEC
        self.seed = seed
        self.configs = lambda guard_seed: [
            guard.GuardConfig(epsilon=eps, delta=DELTA, n_vectors=SWEEP_VECTORS,
                              method=bounds.BoundMethod.BERNSTEIN_TWO_TERM,
                              seed=guard_seed)
            for eps in SWEEP_EPSILONS]
        self.violating = dict.fromkeys(SWEEP_EPSILONS, 0)

    def close(self):
        pass

    def task(self, i: int, stats: Stats, tracer) -> float:
        spec = self.synthdata.DatasetSpec(**self.spec, seed=derive(self.seed, "dataset", i))
        configs = self.configs(derive(self.seed, "guard", i))

        def one_seed():
            data = self.synthdata.generate(spec)
            return data.holdout, [self.harness.run_adaptive_analysis(
                data.train, data.holdout, data.fresh, config) for config in configs]

        (holdout, traces), seconds = timed(tracer, i, one_seed)
        stats.samples["seed_s"].append(seconds)
        ok = sweep_ok([(t.rows, t.halt_index) for t in traces], rel_tol=0.0) and all(
            final_loss_ok(holdout, t) for t in traces)
        stats.count(failed=int(not ok))
        for eps, trace in zip(SWEEP_EPSILONS, traces):
            # The true mean of every no-signal 0-1 loss query is exactly 0.5.
            self.violating[eps] += any(
                abs(row.holdout_acc - 0.5) > eps for row in trace.rows if not row.halted)
        return seconds

    def finish(self, stats: Stats, busy_s: float) -> None:
        seeds = stats.samples["seed_s"]
        stats.report["seed_p50_s"] = (statistics.median(seeds), "s", len(seeds))
        for eps, n in self.violating.items():
            stats.report[f"violating_runs_eps{eps:g}"] = (n, "count", len(seeds))


def halfspace_query(w, b):
    def query(points):
        return ((points - 0.5) @ w > b).astype(float)

    query.vectorized = True
    return query


class GuardStream:
    """Adaptive analyst sessions on ``Guard.submit_query`` directly."""

    nominal_task_s = 1.2

    def __init__(self, seed: int, quick: bool):
        from radabound import bounds, guard, seeding

        self.guard, self.bounds, self.seeding = guard, bounds, seeding
        self.seed = seed
        self.m = 4000
        self.queries = 100 if quick else 1000
        rng = np.random.default_rng(derive(seed, "holdout"))
        self.points = rng.uniform(size=(self.m, STREAM_DIM))
        self.sample = guard.HoldoutSample(points=self.points, m=self.m)
        self.moves = 0

    def close(self):
        pass

    def task(self, i: int, stats: Stats, tracer) -> float:
        config = self.guard.GuardConfig(
            epsilon=STREAM_EPSILON, delta=DELTA, n_vectors=STREAM_VECTORS,
            method=self.bounds.BoundMethod.MCDIARMID_COMBINED,
            seed=derive(self.seed, "guard", i))
        rng = np.random.default_rng(derive(self.seed, "analyst", i))
        log = []
        vector_s, point_s = stats.samples["query_s"], stats.samples["per_point_query_s"]
        clock = time.perf_counter

        def session():
            g = self.guard.Guard(self.sample, config)
            target = rng.uniform(0.2, 0.8)
            w, b = rng.normal(size=STREAM_DIM), 0.0
            best, last = math.inf, 0.5
            for k in range(self.queries):
                per_point = k % PER_POINT_EVERY == PER_POINT_EVERY - 1
                if per_point:
                    # One coordinate threshold, placed from the last released mean.
                    params = (k % STREAM_DIM, 1.0 - last)
                    query = lambda x, j=params[0], t=params[1]: float(x[j] > t)  # noqa: E731
                else:
                    params = (w + STREAM_STEP * rng.normal(size=STREAM_DIM),
                              b + 0.1 * STREAM_STEP * rng.normal())
                    query = halfspace_query(*params)
                start = clock()
                outcome = g.submit_query(query)
                (point_s if per_point else vector_s).append(clock() - start)
                log.append((params, outcome))
                if not outcome.answered:
                    break
                last = outcome.empirical_mean
                if not per_point and abs(last - target) < best:
                    best, (w, b) = abs(last - target), params

        _, seconds = timed(tracer, i, session)
        stats.count(attempted=len(log), failed=self.failed_queries(config, log))
        return seconds

    def values(self, params) -> np.ndarray:
        if isinstance(params[0], int):
            j, t = params
            return (self.points[:, j] > t).astype(float)
        return halfspace_query(*params)(self.points)

    def failed_queries(self, config, log) -> int:
        """Recheck each outcome: the mean against the bench's own values,
        r_tilde against a recomputation from the k x m value matrix and the
        guard's sign substream, the decision against delta_prime, and every
        BOUND_CHECK_EVERY-th delta_prime against ``overfit_bound``."""
        rng = self.seeding.seed_substream(config.seed, "signs")
        signs = 2.0 * rng.integers(0, 2, size=(STREAM_VECTORS, self.m)).astype(float) - 1.0
        sup = np.zeros(STREAM_VECTORS)
        failed = 0
        for start in range(0, len(log), 100):
            chunk = log[start:start + 100]
            values = np.stack([self.values(params) for params, _ in chunk])
            corr = np.abs(signs @ values.T) / self.m
            for n, (_, outcome) in enumerate(chunk):
                candidate = np.maximum(sup, corr[:, n])
                r_tilde = float(candidate.mean())
                self.moves += r_tilde > float(sup.mean())
                ok = abs(r_tilde - outcome.r_tilde) <= 1e-12 and outcome.answered == (
                    outcome.delta_prime <= THRESHOLD)
                if outcome.answered:
                    ok = ok and outcome.empirical_mean == float(values[n].mean())
                    sup = candidate
                if (start + n) % BOUND_CHECK_EVERY == 0:
                    slack = max(0.0, config.epsilon - 2.0 * outcome.r_tilde)
                    ok = ok and outcome.delta_prime == self.bounds.overfit_bound(
                        config.method, self.m, STREAM_VECTORS, slack)
                failed += not ok
        return failed

    def finish(self, stats: Stats, busy_s: float) -> None:
        vector_s = np.array(stats.samples["query_s"])
        point_s = stats.samples["per_point_query_s"]
        n = len(vector_s) + len(point_s)
        stats.report.update({
            "query_p50_us": (1e6 * np.percentile(vector_s, 50), "us", len(vector_s)),
            "query_p99_us": (1e6 * np.percentile(vector_s, 99), "us", len(vector_s)),
            "per_point_query_p50_ms": (1e3 * statistics.median(point_s), "ms", len(point_s)),
            "queries_per_s": (n / busy_s, "1/s", n),
            "r_tilde_move_ratio": (self.moves / n, "ratio", n),
        })


WORKLOADS = {"paper_sweep": PaperSweep, "validity_batch": ValidityBatch,
             "guard_stream": GuardStream}


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced run, per task
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, tasks: int, span_s: float) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals[name][0]

    def seconds(name):
        return totals[name][1]

    def ratio(a, b):
        return a / b if b else 0.0

    task_s = seconds("bench.task")
    per_task = {
        "synthdata.generate.calls": calls("synthdata.generate"),
        "synthdata.generate.self_s": totals["synthdata.generate"][2],
        "synthdata.standard_normals.calls": calls("synthdata.standard_normals"),
        "synthdata.standard_normals.s": seconds("synthdata.standard_normals"),
        "synthdata.normals_drawn": counts["synthdata.normals_drawn"],
        "rademacher.init_state.s": seconds("rademacher.init_state"),
        "rademacher.preview.calls": calls("rademacher.preview"),
        "rademacher.preview.s": seconds("rademacher.preview"),
        "rademacher.preview.flops_computed": counts["rademacher.preview.flops_computed"],
        "rademacher.preview.bytes_computed": counts["rademacher.preview.bytes_computed"],
        "rademacher.commit.calls": calls("rademacher.commit"),
        "bounds.overfit_bound.calls": calls("bounds.overfit_bound"),
        "bounds.overfit_bound.s": seconds("bounds.overfit_bound"),
        "guard.init.s": seconds("guard.init"),
        "guard.submit_query.calls": calls("guard.submit_query"),
        "guard.submit_query.self_s": totals["guard.submit_query"][2],
        "guard.answered": counts["guard.answered"],
        "guard.halted": counts["guard.halted"],
        "guard.rejected": counts["guard.rejected"],
        "harness.run_adaptive_analysis.calls": calls("harness.run_adaptive_analysis"),
        "harness.run_adaptive_analysis.self_s": totals["harness.run_adaptive_analysis"][2],
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": totals["cli.main"][2],
        "cli.write_trace_csv.s": seconds("cli.write_trace_csv"),
        "bench.task.s": task_s,
        "trace.overhead_s": span_s * len(tracer.spans),
    }
    metrics = {name: value / tasks for name, value in per_task.items()}
    metrics.update({
        "synthdata.generate.share": ratio(seconds("synthdata.generate"), task_s),
        "rademacher.preview.us_per_call": 1e6 * ratio(seconds("rademacher.preview"),
                                                      calls("rademacher.preview")),
        "bounds.overfit_bound.us_per_call": 1e6 * ratio(seconds("bounds.overfit_bound"),
                                                        calls("bounds.overfit_bound")),
        "bounds.overfit_bound.share": ratio(seconds("bounds.overfit_bound"), task_s),
        "bounds.distinct_slack_ratio": ratio(len(tracer.bound_args),
                                             calls("bounds.overfit_bound")),
        "harness.queries_per_run": ratio(calls("guard.submit_query"),
                                         calls("harness.run_adaptive_analysis")),
        "cli.analysis_runs_per_sweep": ratio(calls("harness.run_adaptive_analysis"),
                                             calls("cli.main")),
    })
    return metrics


def probe_setup(args) -> float:
    """Set-up time of a fresh ``--setup-only`` process of the same workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
           *(["--quick"] if args.quick else [])]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=60)
    return json.loads(out.stdout)["setup_s"]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    threads = {var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return

    stats = Stats()
    tracer = Tracer() if args.trace else None
    # Every run of a seed does the same tasks, traced or not, so a faster or
    # slower run times the same inputs.  Set-up probes are spread over the
    # run, so their median averages the machine's speed over the run as the
    # operations do.
    tasks = 1 if args.quick else math.ceil(args.seconds / workload.nominal_task_s)
    probes = 0 if tracer else QUICK_SETUP_PROBES if args.quick else SETUP_PROBES
    setups = [setup_s]
    busy_s = 0.0
    try:
        for i in range(tasks):
            busy_s += workload.task(i, stats, tracer)
            for _ in range((i + 1) * probes // tasks - i * probes // tasks):
                setups.append(probe_setup(args))
    finally:
        workload.close()

    if tracer:
        metrics = layer_metrics(tracer, tasks, span_cost_s())
    else:
        workload.finish(stats, busy_s)
        # The run's mean, not a median: on a shared machine it spread less
        # across runs than the medians or the best operation did.
        metrics = {
            "op_mean_ms": 1e3 * busy_s / stats.attempted,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1.0 - stats.failed / stats.attempted,
        }
    print(json.dumps({
        "attempted": stats.attempted, "failed": stats.failed, "tasks": tasks,
        "metrics": metrics,
        "report": {name: list(v) for name, v in stats.report.items()},
        "env": environment(),
    }))


if __name__ == "__main__":
    main()
