"""Adaptive experiment: greedy feature selection against a guarded holdout.

Features are ordered once by the absolute value of their training-set
correlation with the labels.  Starting from the all-zero classifier, the
learner tries weight -1 then +1 for each feature in order, submits each
candidate's 0-1 loss to the guard, and keeps a candidate only when its
released holdout loss strictly improves on the current best.  The learner
sees nothing but released means; fresh-set accuracy is computed outside the
guard as ground truth for the trace.

For the same reason an epsilon sweep needs only one guard run, at the
largest epsilon: a smaller epsilon's trace is a prefix of that run's rows,
cut at the first row its own certification test rejects.

The candidates are fixed until one is accepted, since only an acceptance
moves the scores.  So the learner submits them in blocks: the holdout losses
of the next features' candidates form one k x m bool matrix, in the order the
learner tries them, and ``Guard.submit_batch`` answers it with one matrix
product.  Predictions come from comparing each feature with the current
scores, so the candidates' float scores are never formed and the losses stay
bool all the way to that product, which runs exactly in float32.  The learner
reads the outcomes in order, scoring each recorded row's fresh accuracy from
its feature's fresh column, and abandons the rest of the block after the
first feature with an accepted candidate, or at a halt.  A block starts at
one feature after an acceptance and doubles, up to 64 features, after each
block without one.  The losses are 0/1, so every outcome is bit-equal to
submitting the candidates one query at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import ConfigurationError, DimensionError
from .guard import Certifier, Guard, GuardConfig, HoldoutSample
from .synthdata import LabeledDataset


@dataclass(frozen=True)
class LinearClassifier:
    """Sign-of-dot-product classifier with weights in {-1, 0, +1}.

    Prediction is sign(w . x) with sign(0) = +1.
    """

    weights: np.ndarray

    def __post_init__(self):
        try:
            w = np.asarray(self.weights)
        except ValueError:
            raise ConfigurationError("weights must not be ragged") from None
        if w.ndim != 1 or not np.all(np.isin(w, (-1, 0, 1))):
            raise ConfigurationError("weights must be a 1-d vector over {-1, 0, +1}")
        # Keep the array that was checked, also for list or tuple weights.
        object.__setattr__(self, "weights", w)

    def predict(self, features: np.ndarray) -> np.ndarray:
        if features.shape[-1] != self.weights.shape[0]:
            raise DimensionError(
                f"classifier has {self.weights.shape[0]} weights, features have "
                f"{features.shape[-1]} columns"
            )
        scores = features @ self.weights
        return np.where(scores >= 0, 1, -1)


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


@dataclass(frozen=True)
class ExperimentTrace:
    rows: list[TraceRow]
    halt_index: int | None
    final_classifier: LinearClassifier
    final_holdout_loss: float
    guard_config: GuardConfig


def feature_order(train: LabeledDataset) -> np.ndarray:
    """Feature indices sorted by |correlation with the label| descending,
    ties broken by ascending index."""
    if len(train) < 1:
        raise ConfigurationError("training set must be non-empty")
    corr = train.features.T @ train.labels / len(train)
    return np.argsort(-np.abs(corr), kind="stable")


def evaluate_on(dataset: LabeledDataset, w: LinearClassifier) -> float:
    """Accuracy (1 - mean 0-1 loss) of ``w`` over ``dataset``."""
    if len(dataset) < 1:
        raise ConfigurationError("dataset must be non-empty")
    return float(np.mean(w.predict(dataset.features) == dataset.labels))


# Blocks start at one feature and double, up to this many, while no
# candidate is accepted.
_MAX_BLOCK = 64


def _candidate_predictions(
    features: np.ndarray, scores: np.ndarray, block
) -> np.ndarray:
    """Whether each of the block's candidates predicts +1 at each point, one
    row per candidate, in the order the learner tries them: feature-major,
    then weight -1 and +1.

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
    d = train.features.shape[1]
    if holdout.features.shape[1] != d or fresh.features.shape[1] != d:
        raise DimensionError("train/holdout/fresh feature counts disagree")
    if len(fresh) < 1:
        raise ConfigurationError("fresh set must be non-empty")

    guard = Guard(HoldoutSample(points=holdout, m=len(holdout)), guard_config)
    order = feature_order(train)
    positive_h = holdout.labels == 1
    positive_f = fresh.labels == 1

    scores_h = np.zeros(len(holdout))
    scores_f = np.zeros(len(fresh))
    rows: list[TraceRow] = []
    best_loss = math.inf

    def record(outcome, feature=None, candidate=0):
        """Append the trace row, scoring its candidate's fresh accuracy under
        the current scores; returns whether the candidate was accepted."""
        nonlocal best_loss
        # _candidate_predictions' comparisons; the baseline's column is all 0.
        col = fresh.features[:, feature] if candidate else 0
        pred_f = col >= -scores_f if candidate > 0 else col <= scores_f
        accepted = outcome.answered and outcome.empirical_mean < best_loss
        if accepted:
            best_loss = outcome.empirical_mean
        rows.append(
            TraceRow(
                query_index=len(rows) + 1,
                fresh_acc=float(np.count_nonzero(pred_f == positive_f) / len(fresh)),
                r_tilde=outcome.r_tilde,
                delta_prime=outcome.delta_prime,
                accepted=accepted,
                halted=not outcome.answered,
                feature=feature,
                candidate=candidate,
                holdout_loss=outcome.empirical_mean if outcome.answered else math.nan,
            )
        )
        return accepted

    # Baseline query: the all-zero classifier (predicts +1 everywhere).
    record(next(guard.submit_batch(lambda _points: ~positive_h[None])))
    start, size = 0, 1
    while start < d and not rows[-1].halted:
        block = order[start : start + size]
        pred_h = _candidate_predictions(holdout.features, scores_h, block)
        answers = guard.submit_batch(lambda _points: pred_h != positive_h)
        # The rows in _candidate_predictions' order: feature-major, -1 then +1.
        chosen = 0
        for (i, cand), outcome in zip(product(block.tolist(), (-1, 1)), answers):
            if record(outcome, i, cand):
                chosen = cand
            if rows[-1].halted or (chosen and cand > 0):
                break
        # The baseline row, then two rows for each feature read (one, if
        # its -1 row halted).
        start = len(rows) // 2
        if chosen:
            # Not ``+ chosen * column``: numpy will not negate an unsigned
            # column, and for floats s - x is the same operation as s + -x.
            step = np.add if chosen > 0 else np.subtract
            scores_h = step(scores_h, holdout.features[:, i])
            scores_f = step(scores_f, fresh.features[:, i])
        # An acceptance moves the scores and leaves the rest of the block
        # stale: it is abandoned, and the next block starts at one feature.
        size = 1 if chosen else min(2 * size, _MAX_BLOCK)

    return _finish(rows, d, guard_config)


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
    largest: ExperimentTrace, guard_config: GuardConfig, m: int
) -> ExperimentTrace | None:
    """``guard_config``'s trace cut from the rows of a run at a larger
    epsilon, or None when this epsilon answers the run's halting row, whose
    successors the run never saw."""
    certify = Certifier(guard_config, m)
    rows = []
    for row in largest.rows:
        delta_prime, answered = certify(row.r_tilde)
        if answered and row.halted:
            return None
        # Positional, in field order: about half the cost of
        # dataclasses.replace per row.  A row this epsilon does not answer
        # halts the trace, as in the guard's own run.
        rows.append(
            TraceRow(
                row.query_index,
                row.fresh_acc,
                row.r_tilde,
                delta_prime,
                row.accepted and answered,
                not answered,
                row.feature,
                row.candidate,
                row.holdout_loss if answered else math.nan,
            )
        )
        if not answered:
            break
    return _finish(rows, len(largest.final_classifier.weights), guard_config)


def run_epsilon_sweep(
    train: LabeledDataset,
    holdout: LabeledDataset,
    fresh: LabeledDataset,
    guard_config: GuardConfig,
    epsilons: Iterable[float],
) -> list[ExperimentTrace]:
    """One trace per entry of ``epsilons``, equal field for field to
    ``run_adaptive_analysis`` with ``guard_config`` at that epsilon.

    The guard runs once, at the largest epsilon, and every smaller epsilon
    is derived from its rows.  An epsilon that would still answer the run's
    halting row (possible only if the bound were not monotone in slack) is
    run directly.
    """
    configs = [replace(guard_config, epsilon=eps) for eps in epsilons]
    if not configs:
        return []
    top = max(configs, key=lambda c: c.epsilon)
    largest = run_adaptive_analysis(train, holdout, fresh, top)
    traces = []
    for config in configs:
        trace = largest if config == top else _derive_trace(largest, config, len(holdout))
        if trace is None:
            trace = run_adaptive_analysis(train, holdout, fresh, config)
        traces.append(trace)
    return traces
