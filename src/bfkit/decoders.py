"""Bit-flipping syndrome decoders with operation-count instrumentation.

Three decoders, one counter definition:

* ``bf_decode``: classic out-of-place bit flipping. Each iteration computes
  all counters once, flips every position whose counter reaches the
  iteration's threshold, and only then starts the next iteration.
* ``bfmax_decode_naive`` and ``bfmax_decode_sparse``: single-flip decoding,
  one bit per iteration (a position of maximum counter, ties broken
  uniformly at random). Both run the same loop and differ only in the
  counter strategy: naive recomputes all counters every iteration (the
  reference), sparse computes them once and then updates incrementally,
  touching only the v*w counters adjacent to the flipped column. Under the
  same tie-break stream their flip histories are bit-for-bit equal.

The single-flip loop is ``bfmax_decode_group``: it advances a group of
trials in lockstep on (B, n) counter and (B, r) syndrome arrays, and a
single decode is a group of one. Every trial keeps its own tie-break
generator, so a trial's flip log does not depend on the group it ran in.
``decode`` runs any decoder by its name in ``DECODERS``.

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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .codes import CodeIndex, ErrorPattern, SparseParityCheck, Syndrome
from .rng import make_rng

_COUNTER_DTYPE = np.int16
# Counter move along a flipped check's row: -1 once satisfied, +1 once unsatisfied.
_STEP = np.array([-1, 1], dtype=_COUNTER_DTYPE)

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
        return {
            "counter_init_adds": self.counter_init_adds,
            "argmax_comparisons": self.argmax_comparisons,
            "syndrome_bit_updates": self.syndrome_bit_updates,
            "counter_update_touches": self.counter_update_touches,
        }

    def snapshot(self) -> "OpCounts":
        return OpCounts(**self.as_dict())

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
    ``on_iteration`` hook sees it: the code ``H``, the working ``syndrome``
    and ``counters`` (live arrays; copy them to keep them) and the op
    counts so far (``ops``). Each is read from the decoder only on access."""

    def __init__(self, H: SparseParityCheck):
        self.H = H
        self._now = None  # the group-of-one hook arguments of the last iteration

    @property
    def syndrome(self) -> np.ndarray:
        return self._now[1][0]

    @property
    def counters(self) -> np.ndarray:
        return self._now[0][0]

    @property
    def ops(self) -> OpCounts:
        return self._now[2](0)


@dataclass(frozen=True)
class BfConfig:
    """Iteration budget and per-iteration flip thresholds for ``bf_decode``."""

    iter_max: int
    thresholds: tuple[int, ...]

    def __post_init__(self):
        if self.thresholds is None:
            raise ValueError("bf decoder requires thresholds")
        if self.iter_max < 0:
            raise ValueError("iter_max must be non-negative")
        if len(self.thresholds) != self.iter_max:
            raise ValueError(
                f"need {self.iter_max} thresholds, got {len(self.thresholds)}"
            )
        if any(b < 1 for b in self.thresholds):
            raise ValueError("thresholds must be at least 1")

    @classmethod
    def constant(cls, iter_max: int, b: int) -> "BfConfig":
        return cls(iter_max, (b,) * iter_max)


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of a decode: the recovered pattern on success, else None."""

    error_estimate: ErrorPattern | None
    iterations_used: int
    flip_log: tuple[int, ...]
    op_counts: OpCounts

    @property
    def success(self) -> bool:
        return self.error_estimate is not None


IterationHook = Callable[[DecoderState], None]


def _compute_counters(H: SparseParityCheck, s: np.ndarray, ops: OpCounts) -> np.ndarray:
    counters = s[H.col_supports].sum(axis=1, dtype=_COUNTER_DTYPE)
    ops.counter_init_adds += H.n * H.v
    return counters


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


def bf_decode(H: SparseParityCheck, s: Syndrome, cfg: BfConfig) -> DecodeOutcome:
    """Out-of-place bit flipping.

    Within one iteration every flip decision uses the counters computed at
    iteration start; the syndrome is updated per flip but counters are not
    recomputed until the next iteration. Runs while the syndrome is nonzero
    and iterations remain; succeeds iff the final syndrome is zero.
    """
    if s.r != H.r:
        raise ValueError(f"syndrome length {s.r} does not match r={H.r}")
    if any(b > H.v for b in cfg.thresholds):
        raise ValueError(f"threshold exceeds column weight v={H.v}")
    floor = math.ceil(H.v / 2)
    if any(b < floor for b in cfg.thresholds):
        warnings.warn(
            f"threshold below ceil(v/2)={floor} invites oscillation", stacklevel=2
        )

    work = s.bits.copy()
    estimate = np.zeros(H.n, dtype=np.uint8)
    ops = OpCounts()
    flips: list[int] = []
    weight = int(work.sum())
    it = 1
    while weight != 0 and it <= cfg.iter_max:
        counters = _compute_counters(H, work, ops)
        to_flip = np.flatnonzero(counters >= cfg.thresholds[it - 1])
        ops.argmax_comparisons += H.n
        if to_flip.size:
            estimate[to_flip] ^= 1
            touched = H.col_supports[to_flip].ravel()
            np.bitwise_xor.at(work, touched, 1)
            ops.syndrome_bit_updates += touched.size
            flips.extend(int(i) for i in to_flip)
            weight = int(work.sum())
        it += 1

    recovered = _estimate_pattern(estimate) if weight == 0 else None
    return DecodeOutcome(recovered, it - 1, tuple(flips), ops)


def _estimate_pattern(estimate: np.ndarray) -> ErrorPattern:
    return ErrorPattern(estimate.size, np.flatnonzero(estimate).astype(np.int64))


def bfmax_decode_naive(
    H: SparseParityCheck,
    s: Syndrome,
    iter_max: int,
    rng: np.random.Generator,
    *,
    fixed_iterations: bool = False,
    on_iteration: IterationHook | None = None,
) -> DecodeOutcome:
    """Single-flip decoding, recomputing all counters every iteration.

    With ``fixed_iterations`` the loop always runs ``iter_max`` iterations;
    once the syndrome is zero the remaining iterations perform the same
    counter scan and draw from the tie-break stream but discard the flip,
    so the operation profile is independent of when decoding converged.
    """
    return _bfmax_decode(
        H, s, iter_max, rng, incremental=False,
        fixed_iterations=fixed_iterations, on_iteration=on_iteration,
    )


def bfmax_decode_sparse(
    H: SparseParityCheck,
    s: Syndrome,
    iter_max: int,
    rng: np.random.Generator,
    *,
    fixed_iterations: bool = False,
    on_iteration: IterationHook | None = None,
) -> DecodeOutcome:
    """Single-flip decoding with incremental counter maintenance.

    Counters are computed once up front. After flipping position i, only
    the checks in that column's support change parity; for each such check
    j the counters of every position in row j move by d = -1 if the check
    became satisfied, else d = +1. Produces the same outcome and flip
    history as ``bfmax_decode_naive`` for the same tie-break stream.
    """
    return _bfmax_decode(
        H, s, iter_max, rng, incremental=True,
        fixed_iterations=fixed_iterations, on_iteration=on_iteration,
    )


def _bfmax_decode(
    H: SparseParityCheck,
    s: Syndrome,
    iter_max: int,
    rng: np.random.Generator,
    *,
    incremental: bool,
    fixed_iterations: bool,
    on_iteration: IterationHook | None,
) -> DecodeOutcome:
    """One single-flip decode: a group of one."""
    if s.r != H.r:
        raise ValueError(f"syndrome length {s.r} does not match r={H.r}")
    hook = None
    if on_iteration is not None:
        state = DecoderState(H)

        def hook(*now):
            state._now = now
            on_iteration(state)

    return bfmax_decode_group(
        H.index, s.bits[None, :], iter_max, [rng], incremental=incremental,
        fixed_iterations=fixed_iterations, on_iteration=hook,
    )[0]


def _trial_ops(
    n: int, v: int, w: int | None, incremental: bool, iterations: int, touches: int
) -> OpCounts:
    """Op counts of a trial that ran ``iterations``. Each iteration scans n
    counters and toggles v syndrome bits; counters cost n*v adds per
    computation, once (incremental) or every iteration. An incremental
    iteration touches the counters along the v rows of the flipped column:
    v*w of them when every row has length w, else ``touches`` tallies them."""
    computations = 1 if incremental else iterations
    if incremental and w is not None:
        touches = v * w * iterations
    return OpCounts(n * v * computations, n * iterations, v * iterations, touches)


def bfmax_decode_group(
    index: CodeIndex,
    syndromes: np.ndarray,
    iter_max: int,
    rngs: Sequence[np.random.Generator],
    *,
    incremental: bool,
    fixed_iterations: bool = False,
    on_iteration: Callable[[np.ndarray, np.ndarray, Callable[[int], OpCounts]], None] | None = None,
) -> list[DecodeOutcome]:
    """Single-flip decoding of a group of trials in lockstep.

    Row b of the (B, r) ``syndromes`` is decoded in trial b's code of
    ``index``, breaking ties with ``rngs[b]``; its outcome, flip log and op
    counts equal those of decoding it alone. ``incremental`` picks the
    counter strategy: compute once and update the rows a flip touches, or
    recount every iteration. A trial whose syndrome is zero leaves the
    group, unless ``fixed_iterations``: then it keeps iterating on shadow
    flips (the same scan, draw and index work, booked in its op counts,
    with no state changed). After each iteration ``on_iteration`` gets the
    (k, n) counters and (k, r) syndromes of the k trials still in the
    group, in group order, and a function giving row i's op counts so far.
    """
    count, r = syndromes.shape
    if r != index.r:
        raise ValueError(f"syndrome length {r} does not match r={index.r}")
    if iter_max < 0:
        raise ValueError("iter_max must be non-negative")
    n, v = index.n, index.v
    w = index.row_length  # None when row lengths differ
    # State rows: the trials still in the group, with their syndromes,
    # counters and (ragged codes only) counter-update tallies.
    trials = np.arange(count)
    S = syndromes.astype(np.uint8)
    touches = np.zeros(count, dtype=np.int64)
    counters = index.unsatisfied_counts(S) if incremental else None
    # Per group trial, filled in as it leaves.
    iterations = np.zeros(count, dtype=np.int64)
    touched = np.zeros(count, dtype=np.int64)
    flips = []  # per iteration: (trials that flipped, their positions)
    # where each state row begins in the flattened counters and syndromes
    starts, syndrome_starts = trials * n, trials[:, None] * r
    for it in range(1, iter_max + 1):
        live = S.max(axis=1).view(np.bool_)  # bits are 0/1; max is the quicker reduction
        all_live = np.count_nonzero(live) == live.size
        if not all_live and not fixed_iterations:
            iterations[trials[~live]] = it - 1
            touched[trials[~live]] = touches[~live]
            trials, S, touches = trials[live], S[live], touches[live]
            if not trials.size:
                break
            index = index.select(live)
            if incremental:
                counters = counters[live]
            live, all_live = live[live], True
            starts, syndrome_starts = starts[:trials.size], syndrome_starts[:trials.size]
        if not incremental:
            counters = index.unsatisfied_counts(S)
        k = trials.size

        # Every maximum of every row, in row order; a row with several draws
        # one of them from its own stream. A single winner skips the draw:
        # integers(0, 1) would not move the stream. ``flipped`` numbers the
        # flips in the flattened counters, ``picks`` within their rows. The
        # k == 1 cases below give the general result with fewer numpy calls
        # (a lone row needs no row boundaries and flips one scalar column);
        # without them a single decode, a group of one, takes about 1.4x as long.
        at = (counters == counters.max(axis=1, keepdims=True)).ravel().nonzero()[0]
        if k == 1:
            first = rngs[trials[0]].integers(0, at.size) if at.size > 1 else 0
            flipped, picks = at[first], at[first:first + 1]
        else:
            choice, first = [], 0
            for b, end in zip(trials.tolist(), np.searchsorted(at, starts + n).tolist()):
                choice.append(first if end - first == 1 else first + rngs[b].integers(0, end - first))
                first = end
            flipped = at[choice]
            picks = flipped - starts

        # Flip. Shadow rows toggle nothing, so their updates are zero; while
        # every row is live (always, unless fixed_iterations) the zero mask
        # is skipped, which saves a single decode about 13%.
        checks = index.column_checks(flipped)
        hit = checks.ravel() if k == 1 else (checks + syndrome_starts).ravel()
        toggle = 1 if all_live else np.repeat(live.view(np.uint8), v)
        flat = S.reshape(-1)
        now = flat[hit] ^ toggle
        flat[hit] = now
        if incremental:
            cols, lengths = index.row_columns(checks)
            if w is None:
                per_trial = lengths.reshape(k, v).sum(axis=1)
                touches += per_trial
                pos = np.repeat(starts, per_trial) + cols
            elif k == 1:
                pos = cols
            else:
                pos = (cols.reshape(k, -1) + starts[:, None]).ravel()
            d = _STEP[now] if all_live else _STEP[now] * toggle
            np.add.at(counters.reshape(-1), pos, d.repeat(lengths))
        flips.append((trials, picks) if all_live else (trials[live], picks[live]))
        if on_iteration is not None:
            on_iteration(counters, S, lambda row: _trial_ops(n, v, w, incremental, it, int(touches[row])))
    iterations[trials] = iter_max
    touched[trials] = touches

    success = np.ones(count, dtype=bool)
    success[trials] = ~S.any(axis=1)
    ops = [
        _trial_ops(n, v, w, incremental, it, x)
        for it, x in zip(iterations.tolist(), touched.tolist())
    ]
    return _group_outcomes(n, success, iterations, flips, ops)


def _group_outcomes(n, success, iterations, flips, ops) -> list[DecodeOutcome]:
    logs = [[] for _ in range(success.size)]
    for flipped, positions in flips:
        for b, i in zip(flipped.tolist(), positions.tolist()):
            logs[b].append(i)
    outcomes = []
    for b, log in enumerate(logs):
        # a position flipped an odd number of times is in the estimate
        estimate = _estimate_pattern(np.bincount(log, minlength=n) & 1) if success[b] else None
        outcomes.append(DecodeOutcome(estimate, int(iterations[b]), tuple(log), ops[b]))
    return outcomes


def decode(
    decoder: str,
    H: SparseParityCheck,
    s: Syndrome,
    iter_max: int,
    *,
    thresholds: tuple[int, ...] | None = None,
    tie_seed: int = 0,
) -> DecodeOutcome:
    """Run the decoder named ``decoder`` (one of ``DECODERS``).

    ``bf`` flips by ``thresholds``; the single-flip decoders break ties
    with a stream seeded from ``tie_seed``.
    """
    check_decoder(decoder, iter_max, thresholds)
    if decoder == "bf":
        return bf_decode(H, s, BfConfig(iter_max, thresholds))
    if decoder == "bfmax-naive":
        return bfmax_decode_naive(H, s, iter_max, make_rng(tie_seed))
    return bfmax_decode_sparse(H, s, iter_max, make_rng(tie_seed))


def check_decoder(decoder: str, iter_max: int, thresholds: tuple[int, ...] | None) -> None:
    """The one rule for a decoder name and its thresholds: ``bf`` needs one
    threshold per iteration, the single-flip decoders take none."""
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}; choose from {DECODERS}")
    if decoder == "bf":
        BfConfig(iter_max, thresholds)  # raises if they do not fit
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
