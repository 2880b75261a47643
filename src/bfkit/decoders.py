"""Bit-flipping syndrome decoders with operation-count instrumentation.

Three decoders, one counter definition:

* ``bf``: classic out-of-place bit flipping. Each iteration computes all
  counters once, flips every position whose counter reaches the
  iteration's threshold, and only then starts the next iteration.
* ``bfmax-naive`` and ``bfmax-sparse``: single-flip decoding, one bit per
  iteration (a position of maximum counter, ties broken uniformly at
  random). Both run the same loop and differ only in the counter
  strategy: naive recomputes all counters every iteration (the
  reference), sparse computes them once and then updates incrementally,
  touching only the v*w counters adjacent to the flipped column. Under the
  same tie-break stream their flip histories are bit-for-bit equal.

Every decoder advances a group of trials in lockstep on (B, n) counter and
(B, r) syndrome arrays over a ``CodeIndex``. A decoder is reached by its
name in ``DECODERS``: ``decode_group`` runs it on a group and returns the
group's results as arrays, a ``GroupResult``: success and iteration counts,
every flip as a (trial, position) pair in the order made, and each trial's
op counts. ``decode`` is its group of one. A single-flip trial flips once
per iteration, so its iterations and op counts are read off the flip arrays,
the kernel's only per-trial record. It breaks ties from its own seeded
stream, so its flip log does not depend on the group it ran in:
``rng.GroupDraws`` reads each stream's words ahead and draws every tied
row's pick in one pass, bit for bit as ``Generator.integers`` would.

``bfmax_decode_naive`` and ``bfmax_decode_sparse`` decode one syndrome in
their own loop over (r,) syndrome and (n,) counter arrays, drawing ties
with the generator they are given, and report each iteration to an
``on_iteration`` hook. They find their flips without the lockstep kernel,
so the tests that compare a group with its trials decoded one by one
compare two implementations. Their op counts, like the kernel's, are read
off their flips by the one op rule, ``_op_table``.

The counter of position i is the number of unsatisfied parity checks it
participates in; it always lies in [0, v]. Decoding stops when the working
syndrome reaches zero or the iteration budget runs out, and succeeds iff
the syndrome is zero. For row-regular codes the sparse decoder performs
exactly n comparisons and v*w counter touches per iteration regardless of
the error pattern, which is the property the op counters expose.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .codes import _COUNTER_DTYPE, CodeIndex, ErrorPattern, SparseParityCheck, Syndrome
from .rng import GroupDraws

# Counter move along a flipped check's row: -1 once satisfied, +1 once unsatisfied.
_STEP = np.array([-1, 1], dtype=_COUNTER_DTYPE)
# Tie-break words a group reads ahead per trial: one per iteration, up to this many.
_TIE_WORDS = 64

DECODERS = ("bf", "bfmax-naive", "bfmax-sparse")


@dataclass
class OpCounts:
    """Raw operation tallies, one unit per integer add/compare/bit toggle.

    ``counter_init_adds`` counts full counter (re)computations (n*v adds
    each), ``argmax_comparisons`` counter-vs-counter or counter-vs-threshold
    comparisons, ``syndrome_bit_updates`` syndrome bit toggles, and
    ``counter_update_touches`` incremental counter adjustments.
    """

    counter_init_adds: int = 0
    argmax_comparisons: int = 0
    syndrome_bit_updates: int = 0
    counter_update_touches: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def weighted_total(self, v: int, iterations: int) -> float:
        """Bit-cost total: comparisons and counter-building adds operate on
        log2(v)-bit values, everything else is unit cost; ``iterations``
        contributes the one estimate update per iteration."""
        lg = math.log2(v)
        return (
            lg * (self.counter_init_adds + self.argmax_comparisons)
            + iterations
            + self.syndrome_bit_updates
            + self.counter_update_touches
        )


class DecoderState:
    """A single-flip decode's working state after an iteration, as an
    ``on_iteration`` hook sees it: the code ``H``, the working (r,)
    ``syndrome`` and (n,) ``counters`` (live arrays; copy them to keep them)
    and the op counts so far (``ops``, read off the live flip list)."""

    def __init__(self, H: SparseParityCheck, incremental: bool, flips: list):
        self.H = H
        self.syndrome = self.counters = None
        self._incremental = incremental
        self._flips = flips

    @property
    def ops(self) -> OpCounts:
        return _ops(self.H.index, self._incremental, self._flips)


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of a decode of a length-``n`` code. ``error_estimate``, the
    recovered pattern on success and None otherwise, is derived from the
    flip log on first access."""

    success: bool
    iterations_used: int
    flip_log: tuple[int, ...]
    op_counts: OpCounts
    n: int

    @cached_property
    def error_estimate(self) -> ErrorPattern | None:
        if not self.success:
            return None
        # a position flipped an odd number of times is in the estimate
        odd = set(self.flip_log)
        if len(odd) < len(self.flip_log):  # some position was flipped again
            odd = {i for i, flips in Counter(self.flip_log).items() if flips & 1}
        return ErrorPattern._unchecked(self.n, np.array(sorted(odd), dtype=np.int64))


@dataclass(frozen=True)
class GroupResult:
    """A lockstep group's results as arrays over its B trials.

    ``success`` and ``iterations`` are (B,). Every flip of the group is one
    entry of ``flip_trials`` (its trial) and ``flip_positions``, in the
    order the flips were made, so a trial's entries are its flip log.
    ``ops`` is (B, 4): each trial's op counts in ``OpCounts`` field order.
    """

    n: int
    success: np.ndarray
    iterations: np.ndarray
    flip_trials: np.ndarray
    flip_positions: np.ndarray
    ops: np.ndarray

    def flip_logs(self) -> list[tuple[int, ...]]:
        """Each trial's flip log."""
        count = self.success.size
        # a stable sort by trial keeps each trial's flips in iteration order
        flat = self.flip_positions[np.argsort(self.flip_trials, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(self.flip_trials, minlength=count)).tolist()
        return [tuple(flat[start:end]) for start, end in zip([0] + ends[:-1], ends)]

    def outcomes(self) -> list[DecodeOutcome]:
        """Each trial's ``DecodeOutcome``."""
        return [
            DecodeOutcome(ok, used, log, OpCounts(*ops), self.n)
            for ok, used, log, ops in zip(
                self.success.tolist(), self.iterations.tolist(), self.flip_logs(), self.ops.tolist()
            )
        ]

    def recovers(self, errors: np.ndarray) -> np.ndarray:
        """(B,) bool: whether the positions each trial flipped an odd number
        of times are exactly its row of the (B, t) error supports (a
        position repeated in a row counts once)."""
        count, n = self.success.size, self.n
        odd = np.zeros(count * n, dtype=np.uint8)
        odd[(errors + np.arange(count)[:, None] * n).ravel()] = 1
        np.bitwise_xor.at(odd, self.flip_trials * n + self.flip_positions, 1)
        return ~odd.reshape(count, n).any(axis=1)

    def same_flips(self, other: "GroupResult") -> bool:
        """Whether every trial has the same success and flip log in both."""
        fields = ("success", "flip_trials", "flip_positions")
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in fields)


IterationHook = Callable[[DecoderState], None]


def argmax_scan(
    counters: np.ndarray, rng: np.random.Generator, ops: OpCounts | None = None
) -> tuple[int, int]:
    """Uniformly random index among the maximum-counter positions.

    Semantically a single left-to-right pass that tracks the running
    maximum and the list of positions attaining it, then samples one of
    them; always costs exactly n comparisons.
    """
    n = counters.size
    if n < 1:
        raise ValueError("counter array must be non-empty")
    top = int(counters.max())
    ties = np.flatnonzero(counters == top)
    i_star = int(ties[rng.integers(0, ties.size)])
    if ops is not None:
        ops.argmax_comparisons += n
    return i_star, top


def warn_low_thresholds(v: int, thresholds: Sequence[int] | None, *, stacklevel: int) -> None:
    """Warn when a ``bf`` threshold lies below ceil(v/2). ``stacklevel`` is
    counted from the caller, as in ``warnings.warn``: 2 names its caller."""
    floor = math.ceil(v / 2)
    if thresholds and min(thresholds) < floor:
        warnings.warn(
            f"threshold below ceil(v/2)={floor} invites oscillation", stacklevel=stacklevel + 1
        )


def check_threshold_ceiling(v: int, thresholds: Sequence[int] | None) -> None:
    """The one rule for ``bf`` thresholds against a code: a counter never
    exceeds the column weight v, so a threshold above it is refused."""
    if thresholds and max(thresholds) > v:
        raise ValueError(f"threshold exceeds column weight v={v}")


def _bf_group(index: CodeIndex, syndromes: np.ndarray, thresholds: Sequence[int]) -> GroupResult:
    """Out-of-place bit flipping of a group of trials in lockstep: row b of
    the (B, r) ``syndromes`` in trial b's code of ``index``, one iteration
    per threshold. An iteration's flips are logged in position order."""
    count, r = syndromes.shape
    _check_inputs(index, r, len(thresholds))
    n = index.n
    check_threshold_ceiling(index.v, thresholds)
    trials = np.arange(count)
    S = syndromes.astype(np.uint8)
    iterations = np.full(count, len(thresholds), dtype=np.int64)
    flips = []  # per iteration: (trials that flipped, their positions)
    for it, threshold in enumerate(thresholds):
        live = S.any(axis=1)
        if not live.all():
            iterations[trials[~live]] = it
            trials, S = trials[live], S[live]
            if not trials.size:
                break
            index = index.select(live)
        rows, cols = np.nonzero(index.unsatisfied_counts(S) >= threshold)
        checks = index.column_checks(rows * n + cols) + (rows * r)[:, None]
        # a check changes parity when an odd number of flipped columns meet it
        toggles = np.bincount(checks.ravel(), minlength=S.size) & 1
        S ^= toggles.astype(np.uint8).reshape(S.shape)
        flips.append((trials[rows], cols))
    return _group_result(index, count, trials, S, flips, False, iterations)


def _group_result(index: CodeIndex, count, trials, S, flips, incremental, iterations=None) -> GroupResult:
    """The ``GroupResult`` of a group of ``count`` trials that made ``flips``,
    per iteration (the trials that flipped, their positions), and left
    ``trials`` with the syndromes ``S``; the others reached a zero syndrome.
    A single-flip trial flips once per iteration, so ``iterations``
    defaults to each trial's flip count."""
    success = np.ones(count, dtype=bool)
    success[trials] = ~S.any(axis=1)
    empty = np.empty(0, dtype=np.intp)
    flip_trials, flip_positions = (np.concatenate(column) for column in zip((empty, empty), *flips))
    made = np.bincount(flip_trials, minlength=count)
    iterations = made if iterations is None else iterations
    ops = _op_table(index, incremental, iterations, made, flip_trials, flip_positions)
    return GroupResult(index.n, success, iterations, flip_trials, flip_positions, ops)


def _bfmax_group(
    index: CodeIndex,
    syndromes: np.ndarray,
    iter_max: int,
    tie_seeds: Sequence[int],
    *,
    incremental: bool,
) -> GroupResult:
    """Single-flip decoding of a group of trials in lockstep.

    Row b of the (B, r) ``syndromes`` is decoded in trial b's code of
    ``index``, breaking ties with the stream of ``make_rng(tie_seeds[b])``;
    its outcome, flip log and op counts equal those of decoding it alone
    with that generator. ``incremental`` picks the counter strategy:
    compute once and update the rows a flip touches, or recount every
    iteration. A trial whose syndrome is zero leaves the group. Every
    group, one trial or many, takes the same path: up to ``_TIE_WORDS`` of
    each stream's words are read ahead (``GroupDraws``) and every tied row
    draws in one pass.
    """
    count, r = syndromes.shape
    _check_inputs(index, r, iter_max)
    if len(tie_seeds) != count:
        raise ValueError(f"{len(tie_seeds)} tie seeds for {count} syndromes")
    n, v = index.n, index.v
    w = index.row_length  # None when row lengths differ
    # State rows: the trials still in the group, with their syndromes and
    # counters. The flips are the only per-trial record.
    trials = np.arange(count)
    S = syndromes.astype(np.uint8)
    counters = index.unsatisfied_counts(S) if incremental else None
    ties = GroupDraws(tie_seeds, min(iter_max, _TIE_WORDS))
    flips = []  # per iteration: (trials that flipped, their positions)
    # where each state row begins in the flattened counters and syndromes
    starts, syndrome_starts = trials * n, trials[:, None] * r
    for _ in range(iter_max):
        live = S.max(axis=1).view(np.bool_)  # bits are 0/1; max is the quicker reduction
        if np.count_nonzero(live) < live.size:
            trials, S = trials[live], S[live]
            if not trials.size:
                break
            index = index.select(live)
            if incremental:
                counters = counters[live]
            starts, syndrome_starts = starts[:trials.size], syndrome_starts[:trials.size]
        if not incremental:
            counters = index.unsatisfied_counts(S)

        # Every maximum of every row, in row order; a row with several draws
        # one of them from its own stream. A single winner skips the draw:
        # integers(0, 1) would not move the stream. ``flipped`` numbers the
        # flips in the flattened counters.
        at = (counters == counters.max(axis=1, keepdims=True)).ravel().nonzero()[0]
        ends = np.searchsorted(at, starts + n)
        choice = np.concatenate([[0], ends[:-1]])  # each row's first maximum
        sizes = ends - choice
        tied = np.flatnonzero(sizes > 1)
        if tied.size:
            choice[tied] += ties.draw(trials[tied], sizes[tied])
        flipped = at[choice]
        flips.append((trials, flipped - starts))

        checks = index.column_checks(flipped)
        hit = (checks + syndrome_starts).ravel()
        flat = S.reshape(-1)
        now = flat[hit]
        now ^= 1
        flat[hit] = now
        if incremental:
            cols, lengths = index.row_columns(checks)
            if w is None:
                pos = np.repeat(np.repeat(starts, v), lengths) + cols
            else:  # a broadcast add is cheaper than the repeats
                pos = (cols.reshape(starts.size, -1) + starts[:, None]).ravel()
            np.add.at(counters.reshape(-1), pos, _STEP[now].repeat(lengths))

    return _group_result(index, count, trials, S, flips, incremental)


def bfmax_decode_naive(
    H: SparseParityCheck,
    s: Syndrome,
    iter_max: int,
    rng: np.random.Generator,
    *,
    on_iteration: IterationHook | None = None,
) -> DecodeOutcome:
    """Single-flip decoding, recomputing all counters every iteration."""
    return _bfmax_decode(H, s, iter_max, rng, incremental=False, on_iteration=on_iteration)


def bfmax_decode_sparse(
    H: SparseParityCheck,
    s: Syndrome,
    iter_max: int,
    rng: np.random.Generator,
    *,
    on_iteration: IterationHook | None = None,
) -> DecodeOutcome:
    """Single-flip decoding with incremental counter maintenance.

    Counters are computed once up front. After flipping position i, only
    the checks in that column's support change parity; for each such check
    j the counters of every position in row j move by d = -1 if the check
    became satisfied, else d = +1. Produces the same outcome and flip
    history as ``bfmax_decode_naive`` for the same tie-break stream.
    """
    return _bfmax_decode(H, s, iter_max, rng, incremental=True, on_iteration=on_iteration)


def _bfmax_decode(
    H: SparseParityCheck,
    s: Syndrome,
    iter_max: int,
    rng: np.random.Generator,
    *,
    incremental: bool,
    on_iteration: IterationHook | None,
) -> DecodeOutcome:
    """One single-flip decode, one trial at a time: the (r,) syndrome and
    (n,) counters of ``H.index``, ties drawn with ``rng.integers``."""
    index = H.index
    _check_inputs(index, s.bits.size, iter_max)
    v = index.v
    syn = s.bits.astype(np.uint8)
    # the syndrome weight is tracked, so liveness needs no scan of syn
    weight = np.count_nonzero(syn)
    counters = index.unsatisfied_counts(syn[None])[0] if incremental else None
    flips = []
    state = DecoderState(H, incremental, flips) if on_iteration is not None else None
    for _ in range(iter_max):
        if not weight:
            break
        if not incremental:
            counters = index.unsatisfied_counts(syn[None])[0]
        at = (counters == counters.max()).nonzero()[0]
        # a single maximum draws nothing: integers(0, 1) would not move the stream
        flipped = at[rng.integers(at.size)] if at.size > 1 else at[0]
        flips.append(flipped)
        checks = index.column_checks(flipped)
        now = syn[checks]
        now ^= 1
        syn[checks] = now
        weight += 2 * np.count_nonzero(now) - v
        if incremental:
            cols, lengths = index.row_columns(checks)
            np.add.at(counters, cols, _STEP[now].repeat(lengths))
        if state is not None:
            state.syndrome, state.counters = syn, counters
            on_iteration(state)
    ops = _ops(index, incremental, flips)
    return DecodeOutcome(not weight, len(flips), tuple(map(int, flips)), ops, index.n)


def _check_inputs(index: CodeIndex, r: int, iter_max: int) -> None:
    """Reject a syndrome length other than the code's r, or a negative budget."""
    if r != index.r:
        raise ValueError(f"syndrome length {r} does not match r={index.r}")
    if iter_max < 0:
        raise ValueError("iter_max must be non-negative")


def _op_table(index: CodeIndex, incremental: bool, iterations, flips, flip_trials, flip_positions) -> np.ndarray:
    """Op counts of trials that ran ``iterations`` and made ``flips`` (ints
    for one trial, else (B,) arrays), in ``OpCounts`` field order along a
    last axis. Each iteration scans n counters; counters cost n*v adds per
    computation, once (incremental) or every iteration. A flip toggles v
    syndrome bits and, when incremental, touches the counters along the v
    rows of the flipped column: v*w when every row has length w, else the
    lengths of the rows of ``flip_positions`` (trials ``flip_trials``)."""
    n, v, w = index.n, index.v, index.row_length
    ops = np.zeros(np.shape(iterations) + (4,), dtype=np.int64)
    ops[..., 0] = n * v * (1 if incremental else iterations)
    ops[..., 1] = n * iterations
    ops[..., 2] = v * flips
    if incremental and w is not None:
        ops[..., 3] = v * w * flips
    elif incremental:  # one entry per counter touched: a flip's checks, each repeated by its row length
        _, lengths = index.row_columns(index.column_checks(np.asarray(flip_positions, dtype=np.intp)))
        touched = np.repeat(np.repeat(flip_trials, v), lengths)
        ops[..., 3] = np.bincount(touched, minlength=np.size(iterations)).reshape(np.shape(iterations))
    return ops


def _ops(index: CodeIndex, incremental: bool, flips: list) -> OpCounts:
    """The op counts of one single-flip trial in one code that made ``flips``."""
    made = len(flips)
    return OpCounts(*_op_table(index, incremental, made, made, np.zeros(made, dtype=np.intp), flips).tolist())


def decode_group(
    decoder: str,
    index: CodeIndex,
    syndromes: np.ndarray,
    iter_max: int,
    *,
    thresholds: tuple[int, ...] | None = None,
    tie_seeds: Sequence[int],
) -> GroupResult:
    """Run the decoder named ``decoder`` (one of ``DECODERS``) on a group:
    row b of the (B, r) ``syndromes`` in trial b's code of ``index``.

    ``bf`` flips by ``thresholds``; the single-flip decoders break trial b's
    ties with a stream seeded from ``tie_seeds[b]``.
    """
    check_decoder(decoder, iter_max, thresholds)
    if decoder == "bf":
        return _bf_group(index, syndromes, thresholds)
    return _bfmax_group(
        index, syndromes, iter_max, tie_seeds, incremental=decoder == "bfmax-sparse"
    )


def decode(
    decoder: str,
    H: SparseParityCheck,
    s: Syndrome,
    iter_max: int,
    *,
    thresholds: tuple[int, ...] | None = None,
    tie_seed: int = 0,
) -> DecodeOutcome:
    """``decode_group`` on one syndrome: a group of one.

    ``bf`` is out-of-place bit flipping: every flip decision of an
    iteration uses the counters computed at its start, and the syndrome is
    updated per flip, but the counters are not recomputed until the next
    iteration. It runs while the syndrome is nonzero and iterations remain,
    and succeeds iff the final syndrome is zero. The single-flip decoders
    break ties from ``make_rng(tie_seed)``.
    """
    result = decode_group(
        decoder, H.index, s.bits[None, :], iter_max, thresholds=thresholds, tie_seeds=[tie_seed]
    )
    if decoder == "bf":  # the inputs are accepted by now
        warn_low_thresholds(H.v, thresholds, stacklevel=2)
    return result.outcomes()[0]


def check_decoder(decoder: str, iter_max: int, thresholds: tuple[int, ...] | None) -> None:
    """The one rule for a decoder name and its thresholds: ``bf`` needs one
    threshold per iteration, each at least 1, the single-flip decoders take
    none."""
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}; choose from {DECODERS}")
    if decoder == "bf":
        if thresholds is None:
            raise ValueError("bf decoder requires thresholds")
        if iter_max < 0:
            raise ValueError("iter_max must be non-negative")
        if len(thresholds) != iter_max:
            raise ValueError(f"need {iter_max} thresholds, got {len(thresholds)}")
        if any(b < 1 for b in thresholds):
            raise ValueError("thresholds must be at least 1")
    elif thresholds is not None:
        raise ValueError(f"{decoder} decoder takes no thresholds")


def predicted_op_count(H: SparseParityCheck, iter_max: int) -> float:
    """Expected bit-cost of a sparse single-flip decode.

    n*v*log2(v) for the initial counter computation, plus per iteration:
    n*log2(v) for the maximum search, 1 for the estimate update, v syndrome
    toggles and v*w_avg counter touches.
    """
    if iter_max < 0:
        raise ValueError("iter_max must be non-negative")
    n, v, w_avg = H.n, H.v, H.w_avg
    lg = math.log2(v)
    return n * v * lg + iter_max * (n * lg + 1 + v + v * w_avg)
