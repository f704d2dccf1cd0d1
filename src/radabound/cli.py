"""Command-line entry points and file formats.

Subcommands:
  run-experiment --config <path>   adaptive experiment, one trace CSV per
                                   epsilon (all from one guard run) plus
                                   summary.json
  compare-bounds                   estimate-error bound comparison CSV
  thresholdout-size                differential-privacy holdout size report

Outputs are fully determined by the config: reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .bounds import est_error_bernstein, est_error_mcdiarmid, est_error_mclt
from .errors import ConfigurationError, DomainError
from .guard import GuardConfig
from .harness import ExperimentTrace, run_sweep
from .seeding import (
    GENERATOR_IDENTITY,
    SUBSTREAM_LABELS,
    validate_fields,
    validate_fraction,
    validate_type,
)
from .synthdata import NORMAL_SAMPLER_IDENTITY, DatasetSpec, LabeledDataset, generate

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_IO_FAILURE = 3

FLOAT = "%.10g"  # the one float format of every CSV
TRACE_HEADER = "query_index,holdout_acc,fresh_acc,r_tilde,delta_prime,accepted,halted"


def _trace_filename(epsilon: float) -> str:
    return f"trace_eps{epsilon:g}.csv"


@dataclass(frozen=True)
class RunConfig:
    """``epsilon_list`` is stored as a tuple of Python floats."""

    experiment: DatasetSpec
    guard: GuardConfig
    epsilon_list: tuple[float, ...] = ()
    output_dir: str = "."
    emit_dataset_dump: bool = False

    def __post_init__(self):
        validate_type("experiment", self.experiment, DatasetSpec)
        validate_type("guard", self.guard, GuardConfig)
        validate_type("output_dir", self.output_dir, str)
        if "\0" in self.output_dir:
            raise ConfigurationError("output_dir must not contain a NUL character")
        validate_type("emit_dataset_dump", self.emit_dataset_dump, bool)
        eps = self.epsilon_list
        if not isinstance(eps, (list, tuple)):
            raise ConfigurationError(f"epsilon_list must be a list or tuple, got {eps!r}")
        eps = tuple(validate_fraction("epsilon_list entry", e) for e in eps)
        object.__setattr__(self, "epsilon_list", eps)
        if any(a >= b for a, b in zip(eps, eps[1:])):
            raise ConfigurationError("epsilon_list must be strictly increasing")
        names = [_trace_filename(e) for e in eps]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                "epsilon_list entries must differ in their first 6 significant "
                f"digits, which name the trace files: {eps}"
            )

    @property
    def epsilons(self) -> tuple[float, ...]:
        return self.epsilon_list or (self.guard.epsilon,)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        validate_fields("run config", d, cls)
        sections = {"experiment": DatasetSpec.from_dict(d["experiment"]),
                    "guard": GuardConfig.from_dict(d["guard"])}
        return cls(**{**d, **sections})


def load_run_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(data)


def _open_output(path):
    """``path`` opened for writing as UTF-8 with LF line ends; stdout when None."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_csv(path, header, cells, rows) -> None:
    """Write ``rows`` as CSV to ``path`` (stdout when None).  Every CSV the
    package emits comes through here: a header row of ``header``, then one
    line per row tuple, each value formatted by its column's %-spec in
    ``cells`` (floats by ``FLOAT``, flags passed as "true"/"false").
    Per-column specs, not a type test per value, keep a long trace cheap."""
    template = ",".join(cells) + "\n"
    with _open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(template % row for row in rows)


def write_trace_csv(trace: ExperimentTrace, path) -> None:
    rows = (
        (
            r.query_index, r.holdout_acc, r.fresh_acc, r.r_tilde, r.delta_prime,
            "true" if r.accepted else "false", "true" if r.halted else "false",
        )
        for r in trace.rows
    )
    write_csv(path, TRACE_HEADER.split(","), ("%d",) + (FLOAT,) * 4 + ("%s", "%s"), rows)


def write_dataset_csv(dataset: LabeledDataset, path) -> None:
    """Debug dump: one row per point, d feature columns then ``label``.
    Writes one row at a time, so only one row is ever a Python list."""
    d = dataset.features.shape[1]
    header = [f"f{i}" for i in range(d)] + ["label"]
    rows = ((*x.tolist(), y) for x, y in zip(dataset.features, dataset.labels.tolist()))
    write_csv(path, header, (FLOAT,) * d + ("%d",), rows)


def cmd_run_experiment(config: RunConfig) -> int:
    # Every epsilon sees the same data, sign vectors and s*, so one guard run
    # at the largest epsilon serves the whole sweep: the smaller epsilons'
    # traces are prefixes of it that differ only in delta_prime and halt row.
    data = generate(config.experiment)
    traces = run_sweep(*data, [replace(config.guard, epsilon=e) for e in config.epsilons])
    # Only now: a config that fails in the guard leaves no directory behind.
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for epsilon, trace in zip(config.epsilons, traces):
        write_trace_csv(trace, out_dir / _trace_filename(epsilon))
        runs.append(
            {
                "epsilon": epsilon,
                "trace_file": _trace_filename(epsilon),
                "halt_index": trace.halt_index,
                "n_queries": len(trace.rows),
                "final_weights": trace.final_classifier.weights.tolist(),
                # A run that halts on its first query has no loss; JSON has
                # no infinity, so it is written as null.
                "final_holdout_loss": (
                    trace.final_holdout_loss
                    if math.isfinite(trace.final_holdout_loss)
                    else None
                ),
            }
        )

    if config.emit_dataset_dump:
        for name, dataset in zip(("train", "holdout", "fresh"), data):
            write_dataset_csv(dataset, out_dir / f"dataset_{name}.csv")

    summary = {
        "version": __version__,
        "config": asdict(config),
        "seed": config.experiment.seed,
        "generator": {
            "rng": GENERATOR_IDENTITY,
            "normal_sampler": NORMAL_SAMPLER_IDENTITY,
            "substream_labels": SUBSTREAM_LABELS,
        },
        "column_permutation": data.column_permutation.tolist(),
        "runs": runs,
    }
    with _open_output(out_dir / "summary.json") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    halts = ", ".join(
        f"eps={r['epsilon']:g}: halt={r['halt_index']}" for r in runs
    )
    print(f"wrote {len(runs)} trace file(s) to {out_dir} ({halts})")
    return EXIT_OK


def cmd_compare_bounds(m: int, eps: float, l_values, output=None) -> int:
    """One row per sign-vector count in ``l_values``: the McDiarmid,
    Bernstein and normal-limit estimate-error bounds at the same (m, eps).
    Each bound checks m, eps and l; every row is built before the output
    is opened, so a bad count writes nothing."""
    rows = [
        (l, est_error_mcdiarmid(m, l, eps), est_error_bernstein(m, l, eps),
         est_error_mclt(m, l, eps))
        for l in l_values
    ]
    header = ("l", "mcdiarmid", "bernstein", "mclt")
    write_csv(output, header, ("%d",) + (FLOAT,) * 3, rows)
    return EXIT_OK


def cmd_thresholdout_size(k: int, budget: int, eps: float, delta: float,
                          radabound_m: int) -> int:
    # The one command that uses thresholdout; the others never load it.
    from .thresholdout import ThresholdoutParams, comparison_report

    report = comparison_report(
        ThresholdoutParams(k=k, budget=budget, epsilon=eps, delta=delta),
        radabound_m,
    )
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radabound",
        description="Guarded holdout reuse for adaptive statistical analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run-experiment", help="run the adaptive experiment")
    p_run.add_argument("--config", required=True, help="path to JSON run config")

    p_cmp = sub.add_parser("compare-bounds", help="estimate-error bound table")
    p_cmp.add_argument("--m", type=int, default=1000)
    p_cmp.add_argument("--eps", type=float, default=0.01)
    p_cmp.add_argument("--l", type=int, nargs="+", default=[2, 4, 8, 16, 32, 64],
                       help="sign-vector counts, one table row each "
                            "(default: %(default)s)")
    p_cmp.add_argument("--output", default=None, help="CSV path (default stdout)")

    p_thr = sub.add_parser("thresholdout-size",
                           help="differential-privacy holdout size comparison")
    p_thr.add_argument("--k", type=int, required=True)
    p_thr.add_argument("--b", type=int, required=True)
    p_thr.add_argument("--eps", type=float, required=True)
    p_thr.add_argument("--delta", type=float, required=True)
    p_thr.add_argument("--radabound-m", type=int, default=4000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run-experiment":
            return cmd_run_experiment(load_run_config(args.config))
        if args.command == "compare-bounds":
            return cmd_compare_bounds(args.m, args.eps, args.l, args.output)
        # thresholdout-size: argparse admits only the three subcommands.
        return cmd_thresholdout_size(
            args.k, args.b, args.eps, args.delta, args.radabound_m
        )
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except MemoryError as exc:
        # Sizes that pass validation can still be more than the machine holds.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE


if __name__ == "__main__":
    sys.exit(main())
