"""Adaptive experiment: greedy feature selection against a guarded holdout.

Features are ordered once by the absolute value of their training-set
correlation with the labels.  Starting from the all-zero classifier, the
learner tries weight -1 then +1 for each feature in order, submits each
candidate's 0-1 loss to the guard, and keeps a candidate only when its
released holdout loss strictly improves on the current best.  The learner
sees nothing but released means; fresh-set accuracy is computed outside the
guard as ground truth for the trace.

For the same reason configs that share the sign vectors (``seed`` and
``n_vectors``) need one guard run, at their largest epsilon and smallest
``s*``: a config answers a row while ``max(0, epsilon - 2 r_tilde) >= s*``,
and float rounding is monotone, so that run answers every row that any of
them answers.  Each config's trace is a prefix of its rows, cut at the first
row that config's own test rejects.

The candidates are fixed until one is accepted, since only an acceptance
moves the scores.  So the learner submits them in blocks: the holdout losses
of the next features' candidates form one k x m bool matrix, in the order the
learner tries them, and ``Guard.submit_batch`` answers it with one
product.  Predictions come from comparing each feature with the current
scores, so the candidates' float scores are never formed and the losses stay
bool all the way to that product, an exact popcount over packed bits.  The
learner reads the outcomes in order and abandons the rest of the block after
the first feature with an accepted candidate, or at a halt.  A block starts
at one feature after an acceptance and doubles, up to 64 features, after each
block without one.  The losses are 0/1, so every outcome is bit-equal to
submitting the candidates one query at a time.

The loop reads nothing but the guard's released outcomes.  The trace's truth
column, the fresh-set accuracy of each row, is scored after the run: the
learner's score moves are replayed on the fresh set, and the features tried
between two moves are compared once, at most 64 features a call.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import ConfigurationError, DimensionError
from .guard import Certifier, Guard, GuardConfig, HoldoutSample
from .seeding import validate_type
from .synthdata import LabeledDataset


# Compared and hashed by identity: == over array fields would raise.
@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """The weights in {-1, 0, +1} of a sign-of-dot-product classifier, as
    ``ExperimentTrace.final_classifier`` holds them."""

    weights: np.ndarray

    def __post_init__(self):
        try:
            w = np.asarray(self.weights)
        except ValueError:
            raise ConfigurationError("weights must not be ragged") from None
        if w.ndim != 1 or not np.all(np.isin(w, (-1, 0, 1))):
            raise ConfigurationError("weights must be a 1-d vector over {-1, 0, +1}")
        # A bool is a flag, never a number: True must not read as weight 1.
        # np.asarray turns a list mixing bools and ints into ints.
        elements = w.tolist() if isinstance(self.weights, np.ndarray) else self.weights
        if any(isinstance(x, (bool, np.bool_)) for x in elements):
            raise ConfigurationError("weights must be numbers, not bools")
        # Keep the array that was checked, also for list or tuple weights.
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class TraceRow:
    query_index: int
    fresh_acc: float
    r_tilde: float
    delta_prime: float
    accepted: bool
    halted: bool
    feature: int | None  # feature whose weight was tried; None for the baseline
    candidate: int  # weight tried for ``feature``; 0 for the baseline
    holdout_loss: float  # exact released mean; NaN on the halting row

    @property
    def holdout_acc(self) -> float:
        """The released accuracy; NaN on the halting row."""
        return 1.0 - self.holdout_loss


# Compared and hashed by identity: == over array fields would raise.
@dataclass(frozen=True, eq=False)
class ExperimentTrace:
    rows: list[TraceRow]
    halt_index: int | None
    final_classifier: LinearClassifier
    final_holdout_loss: float
    guard_config: GuardConfig


def _trace_row(
    query_index, fresh_acc, r_tilde, delta_prime, answered, accepted, feature,
    candidate, loss,
) -> TraceRow:
    """The trace row of one query.  A row the guard does not answer halts
    the trace: it is not accepted and its holdout loss is NaN."""
    # Positional, in field order: about half the cost of keywords or
    # dataclasses.replace per row.
    return TraceRow(
        query_index, fresh_acc, r_tilde, delta_prime, accepted and answered,
        not answered, feature, candidate, loss if answered else math.nan,
    )


def feature_order(train: LabeledDataset) -> np.ndarray:
    """Feature indices sorted by |correlation with the label| descending,
    ties broken by ascending index."""
    validate_type("train", train, LabeledDataset)
    if len(train) < 1:
        raise ConfigurationError("training set must be non-empty")
    corr = train.features.T @ train.labels / len(train)
    return np.argsort(-np.abs(corr), kind="stable")


# Blocks start at one feature and double, up to this many, while no
# candidate is accepted.
_MAX_BLOCK = 64


def _candidate_predictions(
    features: np.ndarray, scores: np.ndarray, block
) -> np.ndarray:
    """Whether each of the block's candidates predicts +1 at each point, one
    row per candidate, in the order the learner tries them: feature-major,
    then weight -1 and +1.  A classifier w predicts sign(w . x), with
    sign(0) = +1.

    For finite features, ``scores - x >= 0`` is ``x <= scores`` and
    ``scores + x >= 0`` is ``x >= -scores``, also where the scores overflow
    to +-inf, so the candidates' scores are never formed.
    """
    cols = features[:, block].T
    out = np.empty((len(block), 2, len(scores)), dtype=bool)
    np.less_equal(cols, scores, out=out[:, 0])
    np.greater_equal(cols, -scores, out=out[:, 1])
    return out.reshape(-1, len(scores))


def run_adaptive_analysis(
    train: LabeledDataset,
    holdout: LabeledDataset,
    fresh: LabeledDataset,
    guard_config: GuardConfig,
) -> ExperimentTrace:
    """Run the greedy classifier search on pre-generated data."""
    for name, dataset in (("train", train), ("holdout", holdout), ("fresh", fresh)):
        validate_type(name, dataset, LabeledDataset)
    validate_type("guard_config", guard_config, GuardConfig)
    d = train.features.shape[1]
    if holdout.features.shape[1] != d or fresh.features.shape[1] != d:
        raise DimensionError("train/holdout/fresh feature counts disagree")
    if len(fresh) < 1:
        raise ConfigurationError("fresh set must be non-empty")

    guard = Guard(HoldoutSample(points=holdout, m=len(holdout)), guard_config)
    order = feature_order(train)
    positive_h = holdout.labels == 1
    scores_h = np.zeros(len(holdout))

    # Baseline query: the all-zero classifier (predicts +1 everywhere), which
    # is accepted when answered.  After a halt the loop below never runs.
    outcome = next(guard.submit_batch(lambda _points: ~positive_h[None]))
    best_loss = outcome.empirical_mean
    # (feature, candidate, outcome, accepted) for each row read, and
    # (features tried so far, feature, weight) for each move of the scores.
    read, moves = [(None, 0, outcome, True)], []
    start, size = 0, 1
    while start < d and outcome.answered:
        block = order[start : start + size]
        losses = _candidate_predictions(holdout.features, scores_h, block)
        np.not_equal(losses, positive_h, out=losses)
        # The rows in _candidate_predictions' order: feature-major, -1 then +1.
        chosen = 0
        for (i, cand), outcome in zip(
            product(block.tolist(), (-1, 1)), guard.submit_batch(lambda _points: losses)
        ):
            accepted = outcome.answered and outcome.empirical_mean < best_loss
            if accepted:
                best_loss, chosen = outcome.empirical_mean, cand
            read.append((i, cand, outcome, accepted))
            if not outcome.answered or (chosen and cand > 0):
                break
        # The baseline row, then two rows for each feature read (one, if
        # its -1 row halted).
        start = len(read) // 2
        if chosen:
            # Not ``+ chosen * column``: numpy will not negate an unsigned
            # column, and for floats s - x is the same operation as s + -x.
            step = np.add if chosen > 0 else np.subtract
            scores_h = step(scores_h, holdout.features[:, i])
            moves.append((start, i, chosen))
        # An acceptance moves the scores and leaves the rest of the block
        # stale: it is abandoned, and the next block starts at one feature.
        size = 1 if chosen else min(2 * size, _MAX_BLOCK)

    fresh_accs = _fresh_accuracies(fresh, order[:start], moves)
    # A feature whose -1 row halted has its +1 row scored too; zip drops it.
    rows = [
        _trace_row(n, fresh_acc, out.r_tilde, out.delta_prime, out.answered, accepted,
                   i, cand, out.empirical_mean)
        for n, ((i, cand, out, accepted), fresh_acc) in enumerate(zip(read, fresh_accs), 1)
    ]
    return _finish(rows, d, guard_config)


def _fresh_accuracies(fresh: LabeledDataset, tried, moves) -> list[float]:
    """The fresh-set accuracy of the baseline, then of the -1 and +1
    candidates of each feature in ``tried``, under the scores the learner
    held: a move ``(n, feature, weight)`` applies after the first ``n``
    features tried, in the same order and with the same operation as on the
    holdout.  The features between two moves are compared at most
    ``_MAX_BLOCK`` at a time."""
    positive = fresh.labels == 1
    scores = np.zeros(len(fresh))
    right = [np.count_nonzero(positive)]
    start = 0
    for stop, i, weight in [*moves, (len(tried), None, 0)]:
        for lo in range(start, stop, _MAX_BLOCK):
            block = tried[lo : min(lo + _MAX_BLOCK, stop)]
            hits = _candidate_predictions(fresh.features, scores, block)
            np.equal(hits, positive, out=hits)
            right += np.count_nonzero(hits, axis=1).tolist()
        if weight:
            scores = (np.add if weight > 0 else np.subtract)(scores, fresh.features[:, i])
        start = stop
    return [n / len(fresh) for n in right]


def _finish(
    rows: list[TraceRow], d: int, guard_config: GuardConfig
) -> ExperimentTrace:
    """The trace of ``rows``: its halt index, and the final classifier and
    loss that replaying its accepted rows gives.  A later acceptance for the
    same feature overrides an earlier one, as in the learner's own loop."""
    weights = np.zeros(d, dtype=int)
    best_loss = math.inf
    for row in rows:
        if row.accepted:
            best_loss = row.holdout_loss
            if row.feature is not None:
                weights[row.feature] = row.candidate
    return ExperimentTrace(
        rows=rows,
        halt_index=rows[-1].query_index if rows[-1].halted else None,
        final_classifier=LinearClassifier(weights=weights),
        final_holdout_loss=best_loss,
        guard_config=guard_config,
    )


def _derive_trace(
    run: ExperimentTrace, guard_config: GuardConfig, m: int
) -> ExperimentTrace:
    """``guard_config``'s trace cut from the rows of a sweep's run, which
    answers every row that ``guard_config`` answers: so it halts on that
    run's halting row at the latest."""
    certify = Certifier(guard_config, m)
    rows = []
    for row in run.rows:
        delta_prime, answered = certify(row.r_tilde)
        rows.append(
            _trace_row(
                row.query_index, row.fresh_acc, row.r_tilde, delta_prime, answered,
                row.accepted, row.feature, row.candidate, row.holdout_loss,
            )
        )
        if not answered:
            break
    return _finish(rows, len(run.final_classifier.weights), guard_config)


def run_sweep(
    train: LabeledDataset,
    holdout: LabeledDataset,
    fresh: LabeledDataset,
    configs: Iterable[GuardConfig],
) -> list[ExperimentTrace]:
    """One trace per entry of ``configs``, equal field for field to
    ``run_adaptive_analysis`` with that config, from one guard run.

    The configs must share ``seed`` and ``n_vectors``, which fix the sign
    vectors.  The guard runs at the largest epsilon, with a config of the
    smallest ``s*``.  A config equal to that one gets the run's own trace,
    and every other trace is cut from its rows.
    """
    # A string is iterable, but its characters are no configs.
    if isinstance(configs, str) or not isinstance(configs, Iterable):
        raise ConfigurationError(f"configs must be an iterable of GuardConfigs, got {configs!r}")
    configs = [validate_type("configs entry", c, GuardConfig) for c in configs]
    if len({(c.seed, c.n_vectors) for c in configs}) > 1:
        raise ConfigurationError("configs must share seed and n_vectors: they fix the signs")
    if not configs:
        return []
    # The run validates the datasets.  A holdout that fails there fails at
    # every config, so only a valid one's s* picks the config to run.
    m = len(holdout) if isinstance(holdout, LabeledDataset) else 0
    lowest = min(configs, key=lambda c: Certifier(c, m).s_star) if m else configs[0]
    master = replace(lowest, epsilon=max(c.epsilon for c in configs))
    run = run_adaptive_analysis(train, holdout, fresh, master)
    return [run if c == master else _derive_trace(run, c, m) for c in configs]
