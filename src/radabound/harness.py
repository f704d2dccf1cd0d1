"""Adaptive experiments: analysts that submit predictions to a guarded holdout.

The guard's certificate assumes that each query is chosen from released
answers only, so no analyst here holds the holdout labels.  As on a
leaderboard (Blum & Hardt, ICML 2015), an analyst submits k x m bool blocks
of predictions on the holdout points to a mechanism's ``submit_batch``, and
``PredictionGuard``, which builds the ``Guard`` on the holdout features and
alone holds the labels, answers each prediction's 0-1 loss.  The analysts
are the greedy learner and ``aggregation_attack``, the reusable-holdout
attack of Dwork et al. (Science 2015).

The greedy learner takes the features in ``feature_order``'s order, by the
absolute value of their training-set correlation with the labels.  From the
all-zero classifier, it tries weight -1 then +1 for each feature in order,
submits each candidate's predictions, and keeps a candidate only when its
released holdout loss strictly improves on the current best.  It sees
nothing but released means.

For the same reason configs that share the sign vectors (``seed`` and
``n_vectors``) need one guard run, at their largest epsilon and smallest
``s*``: a config answers a row while ``max(0, epsilon - 2 r_tilde) >= s*``,
and float rounding is monotone, so that run answers every row that any of
them answers.  Each config's trace is a prefix of its rows, cut at the first
row that config's own test rejects.

The candidates are fixed until one is accepted, since only an acceptance
moves the scores.  So the learner submits them in blocks: the predictions of
the next features' candidates form one k x m bool matrix, in the order the
learner tries them, and the guard answers their losses with one product.
Predictions come from comparing each feature with the current scores, so
the candidates' float scores are never formed and the losses stay bool all
the way to that product, an exact popcount over packed bits.  The learner
reads the outcomes in order and abandons the rest of the block after the
first feature with an accepted candidate, or at a halt.  A block starts at
one feature after an acceptance and doubles, up to 64 features, after each
block without one.  The losses are 0/1, so every outcome is bit-equal to
submitting the candidates one query at a time.

The trace's truth column, the fresh-set accuracy of each row, comes from
rerunning the learner on the fresh set against a mechanism that answers with
the outcomes the guard released: the learner reads nothing else, so it
tries the same candidates again, and that mechanism counts their hits.

``run_adaptive_analysis`` checks its inputs once, before it builds the guard,
and ``run_sweep`` checks the same sets before it ranks any config, even with
no configs: a set that is not a non-empty ``LabeledDataset``, sets whose
feature counts disagree, or a config that is not a ``GuardConfig`` is a bad
run input and raises ConfigurationError.  The helpers they call,
``feature_order`` among them, take the checked inputs as given.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import ConfigurationError, DomainError
from .guard import Certifier, Guard, GuardConfig, HoldoutSample, QueryOutcome
from .rademacher import _packed_rows, _popcount
from .seeding import validate_type
from .synthdata import LabeledDataset


# Compared and hashed by identity: == over array fields would raise.
@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """The weights in {-1, 0, +1} of a sign-of-dot-product classifier, as
    ``ExperimentTrace.final_classifier`` holds them."""

    weights: np.ndarray


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


class PredictionGuard:
    """The leaderboard mechanism: a ``Guard`` on the holdout that answers
    predictions and keeps the labels from the analyst.

    Its guard's points are the holdout features; the labels, as whether each
    point is positive, live only in ``_positive``.  ``submit_batch`` takes a
    k x m bool block of predictions, True where a row predicts +1, and
    returns ``guard.submit_batch(predictions != labels)``: each row's 0-1
    loss, answered under the guard's contract.  The comparison reads the
    block once, on submission, into a new array, so the caller's block is
    never written and later changes to it change no outcome.  Any other
    block, one that is not a 2-D numpy bool array of width m, raises
    DomainError with the guard untouched.  A holdout that is not a
    ``LabeledDataset`` raises ConfigurationError.
    """

    def __init__(self, holdout: LabeledDataset, config: GuardConfig):
        self._positive = validate_type("holdout", holdout, LabeledDataset).labels == 1
        # The guard answers value blocks only.  Its points are the features,
        # so no attribute of the guard leads to the labels.
        self.guard = Guard(HoldoutSample(points=holdout.features, m=len(holdout)), config)

    def submit_batch(self, predictions) -> Iterator[QueryOutcome]:
        m = len(self._positive)
        if not (
            isinstance(predictions, np.ndarray)
            and predictions.dtype == bool
            and predictions.ndim == 2
            and predictions.shape[1] == m
        ):
            # A k x 1 block would broadcast against the labels.
            got = (
                f"{predictions.dtype} array of shape {predictions.shape}"
                if isinstance(predictions, np.ndarray)
                else type(predictions).__name__
            )
            raise DomainError(f"predictions must be a k x {m} bool array, got {got}")
        return self.guard.submit_batch(predictions != self._positive)


def greedy_learner(mechanism, order: np.ndarray, features: np.ndarray):
    """The greedy learner against ``mechanism``, which answers k x m bool
    blocks of predictions on the points ``features`` (m x d) as
    ``PredictionGuard.submit_batch`` does.  It tries the columns of
    ``features`` in ``order``, as ``feature_order`` ranks them, and reads
    nothing of the points but their features and the released outcomes.

    Returns ``(feature, candidate, outcome, accepted)`` for each row read,
    the baseline first.
    """
    scores = np.zeros(len(features))

    # Baseline query: the all-zero classifier (predicts +1 everywhere), which
    # is accepted when answered.  After a halt the loop below never runs.
    outcome = next(mechanism.submit_batch(np.ones((1, len(features)), dtype=bool)))
    best_loss = outcome.empirical_mean
    read = [(None, 0, outcome, True)]
    start, size = 0, 1
    while start < len(order) and outcome.answered:
        block = order[start : start + size]
        predictions = _candidate_predictions(features, scores, block)
        # The rows in _candidate_predictions' order: feature-major, -1 then +1.
        chosen = 0
        for (i, cand), outcome in zip(
            product(block.tolist(), (-1, 1)), mechanism.submit_batch(predictions)
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
            scores = step(scores, features[:, i])
        # An acceptance moves the scores and leaves the rest of the block
        # stale: it is abandoned, and the next block starts at one feature.
        size = 1 if chosen else min(2 * size, _MAX_BLOCK)
    return read


def aggregation_attack(mechanism, features: np.ndarray):
    """The reusable-holdout attack of Dwork et al. (Science 2015) against
    ``mechanism``, which answers k x m bool blocks of predictions on the
    holdout points ``features`` (m x d) as ``PredictionGuard.submit_batch``
    does.  Both steps are prediction blocks: first every single-feature
    classifier ``x_j >= 0`` as one block of d rows, then the sign vote of
    the features whose released accuracy is more than one standard deviation
    (``0.5 / sqrt(m)``) from 0.5, as a block of one row.

    Returns the released means and the vote's weights, or None for them if
    the mechanism halted before the vote.
    """
    outcomes = list(mechanism.submit_batch(features.T >= 0))
    means = [o.empirical_mean for o in outcomes if o.answered]
    if len(means) < len(outcomes):
        return means, None
    deviation = 0.5 - np.array(means)  # accuracy - 0.5
    weights = np.where(
        np.abs(deviation) > 0.5 / math.sqrt(len(features)), np.sign(deviation), 0.0
    )
    outcome = next(mechanism.submit_batch((features @ weights >= 0)[None]))
    if outcome.answered:
        means.append(outcome.empirical_mean)
    return means, weights


def _check_sets(train, holdout, fresh) -> None:
    """Raise ConfigurationError unless the three sets are non-empty
    ``LabeledDataset`` instances that share one feature count."""
    for name, dataset in (("train", train), ("holdout", holdout), ("fresh", fresh)):
        validate_type(name, dataset, LabeledDataset)
        if len(dataset) < 1:
            raise ConfigurationError(f"{name} set must be non-empty")
    if len({s.features.shape[1] for s in (train, holdout, fresh)}) > 1:
        raise ConfigurationError("train/holdout/fresh feature counts disagree")


def run_adaptive_analysis(
    train: LabeledDataset,
    holdout: LabeledDataset,
    fresh: LabeledDataset,
    guard_config: GuardConfig,
) -> ExperimentTrace:
    """Run the greedy classifier search on pre-generated data."""
    _check_sets(train, holdout, fresh)
    validate_type("guard_config", guard_config, GuardConfig)

    order = feature_order(train)
    read = greedy_learner(PredictionGuard(holdout, guard_config), order, holdout.features)
    replay = _Replay([out for _, _, out, _ in read], fresh.labels)
    greedy_learner(replay, order, fresh.features)
    rows = [
        _trace_row(n, hits / len(fresh), out.r_tilde, out.delta_prime, out.answered,
                   accepted, i, cand, out.empirical_mean)
        for n, ((i, cand, out, accepted), hits) in enumerate(zip(read, replay.hits()), 1)
    ]
    return _finish(rows, len(order), guard_config)


class _Replay:
    """A mechanism that answers a rerun of a deterministic analyst, on
    another set of points, with the ``outcomes`` it read, in order, and
    counts how many of ``labels`` each row read predicts right.  A rerun
    that reads more or fewer rows than ``outcomes`` raises RuntimeError."""

    def __init__(self, outcomes: list[QueryOutcome], labels: np.ndarray):
        self._outcomes = outcomes
        self._positive = labels == 1
        self._hits: list[int] = []

    def submit_batch(self, predictions) -> Iterator[QueryOutcome]:
        for n in _popcount(_packed_rows(predictions == self._positive)).tolist():
            if len(self._hits) == len(self._outcomes):
                raise RuntimeError("the rerun reads more rows than were recorded")
            self._hits.append(n)
            yield self._outcomes[len(self._hits) - 1]

    def hits(self) -> list[int]:
        """The hit count of each recorded row, once the rerun has read all."""
        if len(self._hits) < len(self._outcomes):
            raise RuntimeError("the rerun read fewer rows than were recorded")
        return self._hits


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


def _derive_trace(run: ExperimentTrace, certify: Certifier) -> ExperimentTrace:
    """``certify.config``'s trace cut from the rows of a sweep's run, which
    answers every row that config answers: so it halts on that run's
    halting row at the latest."""
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
    return _finish(rows, len(run.final_classifier.weights), certify.config)


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
    _check_sets(train, holdout, fresh)
    if not configs:
        return []
    certifiers = [Certifier(c, len(holdout)) for c in configs]
    lowest = min(certifiers, key=lambda k: k.s_star).config
    master = replace(lowest, epsilon=max(c.epsilon for c in configs))
    run = run_adaptive_analysis(train, holdout, fresh, master)
    return [run if k.config == master else _derive_trace(run, k) for k in certifiers]
