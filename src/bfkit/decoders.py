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

``decode`` runs any of them by its name in ``DECODERS``.

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
from typing import Callable

import numpy as np

from .codes import ErrorPattern, SparseParityCheck, Syndrome
from .rng import make_rng

_COUNTER_DTYPE = np.int16

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


@dataclass
class DecoderState:
    """Mutable working state of one decode, exposed to iteration hooks."""

    H: SparseParityCheck
    syndrome: np.ndarray
    counters: np.ndarray | None
    estimate: np.ndarray
    iterations: int
    flip_log: list[int]
    ops: OpCounts
    syndrome_weight: int


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
    """The single-flip loop. ``incremental`` picks the counter strategy:
    compute once and update the rows a flip touches, or recompute every
    iteration. Once the syndrome is zero, a fixed-iteration run keeps
    iterating on shadow flips: the same scan, draw and index work, booked
    in the op counts, with no state changed."""
    if s.r != H.r:
        raise ValueError(f"syndrome length {s.r} does not match r={H.r}")
    if iter_max < 0:
        raise ValueError("iter_max must be non-negative")

    state = DecoderState(
        H=H,
        syndrome=s.bits.copy(),
        counters=None,
        estimate=np.zeros(H.n, dtype=np.uint8),
        iterations=0,
        flip_log=[],
        ops=OpCounts(),
        syndrome_weight=int(s.bits.sum()),
    )
    ops = state.ops
    if incremental:
        state.counters = _compute_counters(H, state.syndrome, ops)
    for it in range(1, iter_max + 1):
        shadow = state.syndrome_weight == 0
        if shadow and not fixed_iterations:
            break
        if not incremental:
            state.counters = _compute_counters(H, state.syndrome, ops)
        i_star, _ = argmax_scan(state.counters, rng, ops)
        checks = H.col_supports[i_star]
        ops.syndrome_bit_updates += checks.size
        if incremental:
            touched, row_lengths = H.row_entries(checks)
            ops.counter_update_touches += touched.size
        if not shadow:
            state.estimate[i_star] ^= 1
            state.syndrome[checks] ^= 1
            now_set = state.syndrome[checks]
            if incremental:
                d = np.where(now_set == 1, 1, -1).astype(_COUNTER_DTYPE)
                np.add.at(state.counters, touched, np.repeat(d, row_lengths))
            state.syndrome_weight += 2 * int(now_set.sum()) - checks.size
            state.flip_log.append(i_star)
        state.iterations = it
        if on_iteration is not None:
            on_iteration(state)

    recovered = _estimate_pattern(state.estimate) if state.syndrome_weight == 0 else None
    return DecodeOutcome(recovered, state.iterations, tuple(state.flip_log), ops)


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
    if decoder == "bf":
        return bf_decode(H, s, BfConfig(iter_max, thresholds))
    if decoder == "bfmax-naive":
        return bfmax_decode_naive(H, s, iter_max, make_rng(tie_seed))
    if decoder == "bfmax-sparse":
        return bfmax_decode_sparse(H, s, iter_max, make_rng(tie_seed))
    raise ValueError(f"unknown decoder {decoder!r}; choose from {DECODERS}")


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
