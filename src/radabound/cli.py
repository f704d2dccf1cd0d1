"""Command-line entry points and file formats.

Subcommands:
  run-experiment --config <path>   adaptive experiment, one trace CSV per
                                   epsilon (all from one guard run) plus
                                   summary.json
  compare-bounds                   estimate-error bound comparison CSV
  thresholdout-size                differential-privacy holdout size report

Outputs are fully determined by the config: reruns are byte-identical.  The
environment variable RADABOUND_SEED, when set, overrides both the dataset
seed and the guard seed from the config.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .bounds import compare_bounds_csv, compare_bounds_table
from .errors import ConfigurationError, DomainError
from .guard import GuardConfig
from .harness import ExperimentTrace, run_epsilon_sweep
from .seeding import (
    GENERATOR_IDENTITY,
    SUBSTREAM_LABELS,
    validate_fields,
    validate_type,
)
from .synthdata import NORMAL_SAMPLER_IDENTITY, DatasetSpec, dump_csv, generate
from .thresholdout import ThresholdoutParams, comparison_report

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_IO_FAILURE = 3

TRACE_HEADER = "query_index,holdout_acc,fresh_acc,r_tilde,delta_prime,accepted,halted"


def _trace_filename(epsilon: float) -> str:
    return f"trace_eps{epsilon:g}.csv"


@dataclass(frozen=True)
class RunConfig:
    experiment: DatasetSpec
    guard: GuardConfig
    epsilon_list: tuple[float, ...] = ()
    output_dir: str = "."
    emit_dataset_dump: bool = False

    def __post_init__(self):
        validate_type("output_dir", self.output_dir, str)
        validate_type("emit_dataset_dump", self.emit_dataset_dump, bool)
        eps = self.epsilon_list
        for e in eps:
            validate_type("epsilon_list entry", e, numbers.Real)
        if any(not 0.0 < e < 1.0 for e in eps):
            raise ConfigurationError("epsilon_list entries must be in (0, 1)")
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

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment.to_dict(),
            "guard": self.guard.to_dict(),
            "epsilon_list": list(self.epsilon_list),
            "output_dir": self.output_dir,
            "emit_dataset_dump": self.emit_dataset_dump,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        validate_fields("run config", d, cls)
        epsilon_list = validate_type("epsilon_list", d.get("epsilon_list", []), list)
        return cls(
            **{
                **d,
                "experiment": DatasetSpec.from_dict(d["experiment"]),
                "guard": GuardConfig.from_dict(d["guard"]),
                "epsilon_list": tuple(epsilon_list),
            }
        )


def load_run_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    config = RunConfig.from_dict(data)
    env_seed = os.environ.get("RADABOUND_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigurationError(
                f"RADABOUND_SEED must be an integer, got {env_seed!r}"
            ) from None
        config = replace(
            config,
            experiment=replace(config.experiment, seed=seed),
            guard=replace(config.guard, seed=seed),
        )
    return config


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def trace_csv_lines(trace: ExperimentTrace):
    yield TRACE_HEADER
    for row in trace.rows:
        yield ",".join(
            (
                str(row.query_index),
                _fmt(row.holdout_acc),
                _fmt(row.fresh_acc),
                _fmt(row.r_tilde),
                _fmt(row.delta_prime),
                "true" if row.accepted else "false",
                "true" if row.halted else "false",
            )
        )


def write_trace_csv(trace: ExperimentTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in trace_csv_lines(trace):
            fh.write(line + "\n")


def cmd_run_experiment(config: RunConfig) -> int:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Every epsilon sees the same data and sign vectors, so one guard run at
    # the largest epsilon serves the whole sweep: the smaller epsilons'
    # traces are prefixes of it that differ only in delta_prime and halt row.
    data = generate(config.experiment)
    traces = run_epsilon_sweep(*data, config.guard, config.epsilons)
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
        for name, dataset in (
            ("train", data.train),
            ("holdout", data.holdout),
            ("fresh", data.fresh),
        ):
            dump_csv(dataset, out_dir / f"dataset_{name}.csv")

    summary = {
        "version": __version__,
        "config": config.to_dict(),
        "seed": config.experiment.seed,
        "generator": {
            "rng": GENERATOR_IDENTITY,
            "normal_sampler": NORMAL_SAMPLER_IDENTITY,
            "substream_labels": SUBSTREAM_LABELS,
        },
        "column_permutation": data.column_permutation.tolist(),
        "runs": runs,
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    halts = ", ".join(
        f"eps={r['epsilon']:g}: halt={r['halt_index']}" for r in runs
    )
    print(f"wrote {len(runs)} trace file(s) to {out_dir} ({halts})")
    return EXIT_OK


def cmd_compare_bounds(m: int, eps: float, l_values, output=None) -> int:
    rows = compare_bounds_table(m, eps, l_values)
    text = compare_bounds_csv(rows)
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_thresholdout_size(k: int, budget: int, eps: float, delta: float,
                          radabound_m: int) -> int:
    report = comparison_report(
        ThresholdoutParams(k=k, budget=budget, epsilon=eps, delta=delta),
        radabound_m,
    )
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _powers_of_two(lo: int, hi: int) -> list[int]:
    values = []
    v = 1
    while v <= hi:
        if v >= lo:
            values.append(v)
        v *= 2
    return values


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
    p_cmp.add_argument("--l", type=int, default=None,
                       help="single sign-vector count (overrides the range)")
    p_cmp.add_argument("--l-min", type=int, default=2)
    p_cmp.add_argument("--l-max", type=int, default=64)
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
            if args.l is not None:
                l_values = [args.l]
            else:
                l_values = _powers_of_two(args.l_min, args.l_max)
                if not l_values:
                    raise ConfigurationError(
                        f"no powers of two in [{args.l_min}, {args.l_max}]"
                    )
            return cmd_compare_bounds(args.m, args.eps, l_values, args.output)
        # thresholdout-size: argparse admits only the three subcommands.
        return cmd_thresholdout_size(
            args.k, args.b, args.eps, args.delta, args.radabound_m
        )
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO_FAILURE


if __name__ == "__main__":
    sys.exit(main())
