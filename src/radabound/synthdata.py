"""Deterministic synthetic data for the guard experiments.

Each point has d Gaussian features and a uniform random label in {-1, +1}.
In the signal scenario a fixed subset of features is shifted by
``bias * label``, creating a real feature/label correlation; with
``n_biased = 0`` labels are independent of all features and the true 0-1 loss
of every fixed classifier is exactly 0.5.

Training, holdout and fresh sets draw from disjoint substreams of the master
seed, so they are independent and individually reproducible.  ``generate``
therefore draws the three sets at once, and the bytes do not depend on the
order of their steps.  Feature columns are shuffled by a seeded permutation
so learners cannot exploit the canonical placement of the biased columns;
the permutation is recorded on the result.  A step writes one small row
buffer of a set's normals through the inverse permutation into the set's
column-major result, so no n x d temporary is held beside it.  The sets
take turns, one step at a time, on one worker per CPU this process may run
on, at most three, the calling thread among them: on one CPU no thread
starts.  The calling thread allocates every buffer the workers write to:
what a worker thread frees stays in its own malloc arena, which the calling
thread's later allocations do not reuse.  The sampler blocks and row
buffers stay small, so each step's arrays stay in cache and the peak memory
stays low.
"""

from __future__ import annotations

import collections
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .seeding import (
    seed_substream,
    validate_count,
    validate_fields,
    validate_int,
    validate_seed,
    validate_type,
)

NORMAL_SAMPLER_IDENTITY = "marsaglia-polar"

# Candidate pairs per sampler block, and rows of each set's row buffer in
# generate: small enough that each block's temporaries stay in cache.
_SAMPLER_BLOCK = 1 << 14
_COPY_BLOCK_ROWS = 128
# Candidate pairs per value still needed, in each sampler batch: about pi/4
# of the pairs are accepted and each gives 2 values, so one batch almost
# always suffices.
_BATCH_PAIRS_PER_VALUE = 0.7


@dataclass(frozen=True)
class DatasetSpec:
    """Counts and ``seed`` are stored as Python ints; ``variance`` and
    ``bias`` as an int when integral, else as a float."""

    m_train: int
    m_holdout: int
    m_fresh: int
    d: int
    variance: float = 1.0
    n_biased: int = 0
    bias: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("m_train", "m_holdout", "m_fresh", "d"):
            object.__setattr__(self, name, validate_count(name, getattr(self, name)))
        # numpy sizes no array past MAX_COUNT bytes.
        for name in ("m_train", "m_holdout", "m_fresh"):
            size = 8 * getattr(self, name) * self.d
            validate_count(f"float64 bytes of the {name} x d features", size)
        object.__setattr__(self, "n_biased", validate_int("n_biased", self.n_biased))
        for name in ("variance", "bias"):
            value = validate_type(name, getattr(self, name), numbers.Real)
            # Python's json reads NaN, Infinity and integers beyond any float.
            try:
                typed = int(value) if isinstance(value, numbers.Integral) else float(value)
            except OverflowError:  # a Fraction beyond any float
                typed = math.inf
            if not abs(typed) <= sys.float_info.max:
                raise ConfigurationError(f"{name} must be a finite float, got {value}")
            object.__setattr__(self, name, typed)
        if not self.variance > 0.0:
            raise ConfigurationError(f"variance must be > 0, got {self.variance}")
        if not 0 <= self.n_biased <= self.d:
            raise ConfigurationError(
                f"n_biased must be in [0, d], got {self.n_biased} with d={self.d}"
            )
        object.__setattr__(self, "seed", validate_seed(self.seed))

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        return cls(**validate_fields("dataset spec", d, cls))


# Compared and hashed by identity: == over array fields would raise.
@dataclass(frozen=True, eq=False)
class LabeledDataset:
    features: np.ndarray  # (n, d) real-valued
    labels: np.ndarray  # (n,) in {-1, +1}

    def __post_init__(self):
        for name in ("features", "labels"):
            # Keep the array that was checked; numpy input is not copied.
            try:
                value = np.asarray(getattr(self, name))
            except ValueError:
                raise ConfigurationError(f"{name} must not be ragged") from None
            if value.dtype.kind not in "biuf":
                raise ConfigurationError(f"{name} must be numeric, got dtype {value.dtype}")
            object.__setattr__(self, name, value)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ConfigurationError("features must be (n, d), labels (n,)")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigurationError("feature and label row counts disagree")
        # The learner compares features with scores, which is exact only
        # for finite features; a NaN score would also predict -1 silently.
        # NaN reaches min and max, and +-inf one of them, with no n x d mask.
        x = self.features
        if x.dtype.kind == "f" and not np.isfinite((x.min(initial=0), x.max(initial=0))).all():
            raise ConfigurationError("features must be finite")
        # A bool label array holds no -1, even when every label is True.
        if self.labels.dtype.kind == "b" or not np.all(np.abs(self.labels) == 1):
            raise ConfigurationError("labels must be -1 or +1")

    def __len__(self) -> int:
        return self.features.shape[0]


# Compared and hashed by identity: == over array fields would raise.
@dataclass(frozen=True, eq=False)
class SyntheticData:
    train: LabeledDataset
    holdout: LabeledDataset
    fresh: LabeledDataset
    column_permutation: np.ndarray

    def __iter__(self):
        return iter((self.train, self.holdout, self.fresh))


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normal variates via the Marsaglia polar transform.

    Implemented on top of the generator's uniform stream so the sampling
    algorithm itself is pinned independently of the numpy version's ziggurat.
    The values are those ``_polar_fill`` writes into an n-value buffer;
    ``rng`` must run on a PCG64 or PCG64DXSM bit generator, and ``n`` be a
    non-negative integer (a numpy integer too, not a bool).
    """
    validate_type("rng", rng, np.random.Generator)
    n = validate_int("n", n)
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    out = np.empty(n)
    for _ in _polar_fill(rng, n, out, _sampler_buffers()):
        pass
    return out


def _sampler_buffers() -> tuple[np.ndarray, np.ndarray]:
    """The arrays one ``_polar_fill`` run writes to besides ``out``, each one
    sampler block long: eight float rows (s, u, v; the two squares, whose
    first row then holds the factor; the accepted s, u and v) and the keep
    mask."""
    return np.empty((8, _SAMPLER_BLOCK)), np.empty(_SAMPLER_BLOCK, dtype=bool)


def _polar_fill(rng: np.random.Generator, n: int, out: np.ndarray, buffers):
    """Write the n polar-transform normals of ``standard_normals`` in order
    into the caller's flat array ``out``, and yield how many values ``out``
    holds each time it is full or the n-th value is in.  The next values go
    to the start of ``out``, so the caller reads ``out[:held]`` before
    asking for more.

    Each batch of candidate pairs takes ``batch`` uniforms on [-1, 1) for u,
    then the next ``batch`` for v.  Accepted pairs give the values in order
    as (u * factor, v * factor), with factor = sqrt(-2 log(s) / s); the
    in-place steps below round exactly as that expression does.  A uniform
    is -1 + 2r for the generator's next double r, a multiple of 2**-53, so
    ``2r - 1`` is exact and equals ``uniform(-1, 1)``.

    A batch is walked in blocks of ``_SAMPLER_BLOCK`` pairs, so the
    temporaries stay in cache: u comes from ``rng`` and v from a copy of its
    bit generator moved ``batch`` draws ahead.  Every block is computed only
    in ``buffers``, from ``_sampler_buffers()``, and its accepted values are
    then copied into ``out``; the sampler allocates only each block's index
    of accepted pairs.  Each numpy call takes u and v, or the accepted s, u
    and v, as the rows of one array: every call releases and retakes the
    interpreter lock, so fewer calls trade it less often between
    ``generate``'s workers.

    Blocks stop once n values are in, and ``rng`` is then moved past the
    whole batch, so a caller that runs the generator to its end leaves
    ``rng`` where two full-length draws would.  This needs a bit generator
    whose ``advance(k)`` skips k 64-bit draws: PCG64, as every
    ``seed_substream`` is, or PCG64DXSM.  Any other raises
    ConfigurationError.
    """
    bits = rng.bit_generator
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM)):
        raise ConfigurationError(
            f"the polar sampler needs a PCG64 or PCG64DXSM bit generator, "
            f"got {type(bits).__name__}"
        )
    floats, keep_buf = buffers
    # Flat regions, so that each block's rows are one contiguous array:
    # s, u and v; the two squares; the accepted s, u and v.
    suv_buf, squares_buf, accepted_buf = np.split(
        floats.reshape(-1), (3 * _SAMPLER_BLOCK, 5 * _SAMPLER_BLOCK)
    )
    filled = 0  # values copied so far
    held = 0  # of them, values in out since its last yield
    while filled < n:
        batch = int((n - filled) * _BATCH_PAIRS_PER_VALUE) + 32
        v_bits = type(bits)()
        v_bits.state = bits.state
        v_bits.advance(batch)
        v_rng = np.random.Generator(v_bits)
        drawn = 0
        while drawn < batch and filled < n:
            need = n - filled
            size = min(_SAMPLER_BLOCK, batch - drawn)
            drawn += size
            suv = suv_buf[: 3 * size].reshape(3, size)
            s, uv = suv[0], suv[1:]
            rng.random(out=uv[0])
            v_rng.random(out=uv[1])
            uv *= 2.0
            uv -= 1.0
            squares = squares_buf[: 2 * size].reshape(2, size)
            np.multiply(uv, uv, out=squares)
            np.add(squares[0], squares[1], out=s)
            keep = keep_buf[:size]
            np.less(s, 1.0, out=keep)
            np.logical_and(keep, s, out=keep)  # s >= 0, so s is true where s > 0
            idx = np.flatnonzero(keep)[: (need + 1) // 2]
            k = idx.size
            accepted = accepted_buf[: 3 * k].reshape(3, k)
            # mode="clip" writes straight into accepted; idx is always in range.
            np.take(suv, idx, axis=1, out=accepted, mode="clip")
            acc_s = accepted[0]
            factor = squares_buf[:k]
            np.log(acc_s, out=factor)
            factor *= -2.0
            factor /= acc_s
            np.sqrt(factor, out=factor)
            # Interleaved (u * factor, v * factor) pairs.  When need is odd
            # the last v value is computed but not copied.
            values = suv_buf[: 2 * k]
            np.multiply(accepted[1:], factor, out=values.reshape(k, 2).T)
            values = values[: min(2 * k, need)]
            while values.size:
                take = min(values.size, out.size - held)
                out[held : held + take] = values[:take]
                values = values[take:]
                held += take
                filled += take
                if held == out.size or filled == n:
                    yield held
                    held = 0
        # Skip the batch's unread u draws and all its v draws.  advance() also
        # clears the buffered half of a 32-bit draw, which uniforms never
        # touch, so put it back.
        kept = bits.state
        bits.advance(2 * batch - drawn)
        bits.state = {
            **bits.state, "has_uint32": kept["has_uint32"], "uinteger": kept["uinteger"]
        }


def _set_steps(
    spec: DatasetSpec, name: str, labels: np.ndarray, features: np.ndarray,
    inverse: np.ndarray, buf: np.ndarray, sampler: tuple,
):
    """Fill ``features`` with set ``name``'s points, one step a ``next``,
    and return the set as the generator's value.

    ``inverse`` is the inverse column permutation, ``buf`` the row buffer,
    a flat array of whole rows, and ``sampler`` the sampler's arrays from
    ``_sampler_buffers()``, all made by the caller.  The set's polar
    normals fill the row buffer, which is flushed each time it is full or
    the last value has arrived.  A flush scales the rows, shifts their first
    ``n_biased`` columns by ``bias * label`` and writes column j to column
    ``inverse[j]`` of ``features``: element by element the float operations
    on the whole n x d sample, so the bits are the same.  The write reads
    the row buffer contiguously, writes each column's rows contiguously
    into the column-major result, and needs no temporary.  Each flush ends
    a step; the last ``next`` checks the set and returns it.
    """
    n, d = features.shape
    scale = math.sqrt(spec.variance)
    start = 0  # features row of buf's first row
    for held in _polar_fill(seed_substream(spec.seed, name), n * d, buf, sampler):
        stop = start + held // d
        rows = buf[:held].reshape(-1, d)
        rows *= scale
        if spec.n_biased > 0:
            rows[:, : spec.n_biased] += float(spec.bias) * labels[start:stop, None]
        features[start:stop, inverse] = rows
        start = stop
        yield
    return LabeledDataset(features=features, labels=labels)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def generate(spec: DatasetSpec) -> SyntheticData:
    """Generate the train/holdout/fresh triple for ``spec``.

    Labels for the three sets come from the shared "labels" substream in the
    fixed order train, holdout, fresh; features from per-set substreams; the
    column permutation from its own substream.  Identical specs yield
    bit-identical data.

    The three feature matrices are allocated first, so a size numpy refuses
    fails before any draw.  Each set is then a ``_set_steps`` generator, one
    step a flush of its row buffer, and the sets wait in one queue.
    ``min(3, CPUs this process may run on)`` workers, the calling thread
    among them, each pop a set, run one step and push the set back, until
    the queue is empty.  numpy releases the interpreter lock in the
    sampler's array steps, so the sets overlap on a multi-core machine.  On
    two CPUs the three sets share two workers evenly, and on one CPU no
    thread starts: a third thread on two cores only trades the lock.

    The calling thread allocates every array the workers write to: the
    results, and per set the sampler's block arrays and the row buffer of
    ``min(n, 128)`` rows of d doubles for a set of n rows, all freed when
    the call returns.  A worker thread allocates only
    the sampler's per-block index and the set's small result checks, about
    0.3 MB at paper scale.  What a worker thread frees stays in its own
    malloc arena, which the calling thread's later allocations do not
    reuse, so every large buffer belongs to the calling thread.  The
    sampler blocks and row buffers stay small, so each step's arrays stay in
    cache and the peak memory stays low: blocks of twice the pairs add about
    4 MB to the peak of a paper-scale call.

    A set whose step raises stops, and the other sets finish.  Once every
    worker has been joined, the first error in set order is raised.  If the
    calling thread is interrupted, the other workers stop after their
    current step and are joined before the interrupt propagates.
    """
    validate_type("spec", spec, DatasetSpec)
    names = ("train", "holdout", "fresh")
    sizes = (spec.m_train, spec.m_holdout, spec.m_fresh)
    # Column-major, so the learner's per-feature gathers are contiguous.
    features = [np.empty((n, spec.d), order="F") for n in sizes]
    perm = seed_substream(spec.seed, "permutation").permutation(spec.d)
    inverse = np.argsort(perm)
    label_rng = seed_substream(spec.seed, "labels")
    labels = [2 * label_rng.integers(0, 2, size=n) - 1 for n in sizes]
    # Built here, so the calling thread allocates every buffer.
    queue = collections.deque(
        (i, _set_steps(spec, names[i], labels[i], features[i], inverse,
                       np.empty(min(n, _COPY_BLOCK_ROWS) * spec.d), _sampler_buffers()))
        for i, n in enumerate(sizes)
    )
    results = [None] * 3
    errors = [None] * 3
    stop = threading.Event()

    def work():
        # deque's popleft and append are atomic, and a set is out of the
        # queue while its step runs, so no two workers run one generator.
        while not stop.is_set():
            try:
                i, steps = queue.popleft()
            except IndexError:
                return
            try:
                next(steps)
            except StopIteration as done:
                results[i] = done.value
            except Exception as err:
                errors[i] = err
            else:
                queue.append((i, steps))

    threads = [threading.Thread(target=work) for _ in range(min(3, _cpu_count()) - 1)]
    try:
        for thread in threads:
            thread.start()
        work()
    except BaseException:
        # Interrupted, or a thread did not start: the other workers stop
        # after their current step.
        stop.set()
        queue.clear()
        raise
    finally:
        for thread in threads:
            if thread.is_alive():
                thread.join()
    for error in errors:
        if error is not None:
            raise error
    return SyntheticData(*results, column_permutation=perm)
