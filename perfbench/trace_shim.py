"""Span tracing of radabound's layers, installed from outside the package.

The shim wraps each layer's public functions at the names callers actually
look up.  Several modules use from-imports (``guard`` calls its own
``overfit_bound``, ``cli`` its own ``generate``), so patching only the
defining module would miss those calls.  Every wrapped call records one span
``(span_id, parent_id, task, name, start, end)``; spans stay in memory until
the benchmark aggregates them, and the originals are restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict


def _patch_table():
    """(span name, defining owner, other owners that hold the same object)."""
    from radabound import bounds, cli, guard, harness, rademacher, synthdata

    state = rademacher.RademacherState
    return [
        ("cli.main", cli, "main", []),
        ("cli.write_trace_csv", cli, "write_trace_csv", []),
        ("synthdata.generate", synthdata, "generate", [cli, harness]),
        ("synthdata.standard_normals", synthdata, "standard_normals", []),
        ("harness.run_adaptive_analysis", harness, "run_adaptive_analysis", [cli]),
        ("guard.init", guard.Guard, "__init__", []),
        ("guard.submit_query", guard.Guard, "submit_query", []),
        ("rademacher.init_state", rademacher, "init_state", []),
        ("rademacher.preview", state, "preview", []),
        ("rademacher.commit", state, "commit", []),
        ("bounds.overfit_bound", bounds, "overfit_bound", [guard]),
    ]


class Tracer:
    """In-memory span recorder plus the counters the layers are judged by."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.bound_args: set = set()  # (guard serial, bound arguments)
        self.guards = 0
        self.task = 0
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` recording a span per call; ``observe(args, result,
        exc)`` updates counters after the span closes."""
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, self.task, name, start, end))
                if observe is not None:
                    observe(args, result, exc)

        return traced

    # -- counters observed at the boundaries ---------------------------------

    def _normals(self, args, result, exc):
        self.counts["synthdata.normals_drawn"] += args[1]

    def _guard(self, args, result, exc):
        self.guards += 1

    def _bound(self, args, result, exc):
        # Guards run one after another, so the latest one made the call;
        # distinct values per guard are what a per-guard memo would compute.
        self.bound_args.add((self.guards, args))

    def _submit(self, args, result, exc):
        if exc is not None:
            if type(exc).__name__ == "DomainError":
                self.counts["guard.rejected"] += 1
        elif result.answered:
            self.counts["guard.answered"] += 1
        else:
            self.counts["guard.halted"] += 1

    def _preview(self, args, result, exc):
        # Modelled from shapes: one l x m matvec, then abs, max and mean
        # over l; the sign matrix, the values and the suprema are read once.
        l, m = args[0].signs.entries.shape
        self.counts["rademacher.preview.flops_computed"] += 2 * l * m + 3 * l
        self.counts["rademacher.preview.bytes_computed"] += 8 * (l * m + m + 2 * l)

    @contextlib.contextmanager
    def installed(self):
        observers = {
            "synthdata.standard_normals": self._normals,
            "bounds.overfit_bound": self._bound,
            "guard.init": self._guard,
            "guard.submit_query": self._submit,
            "rademacher.preview": self._preview,
        }
        saved = []
        try:
            for name, owner, attr, aliases in _patch_table():
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, observers.get(name))
                for target in [owner, *aliases]:
                    if not hasattr(target, attr):
                        continue  # no longer imported there
                    if getattr(target, attr) is not original:
                        raise RuntimeError(
                            f"{target.__name__}.{attr} is not {name}; the trace "
                            "shim's patch table is out of date"
                        )
                    saved.append((target, attr, original))
                    setattr(target, attr, wrapped)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    # -- aggregation ------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds].  Self time is a
        span's duration minus the durations of its direct children."""
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _, _, name, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[span_id]
        return out


def span_cost_s(samples: int = 20000) -> float:
    """Seconds one span adds, measured on a no-op against the bare call."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(5):
        start = clock()
        for _ in range(samples):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(samples):
            wrapped()
        best = min(best, (clock() - start - bare) / samples)
    return max(best, 0.0)
