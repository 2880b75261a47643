"""Seeded Monte Carlo estimation of decoding failure rates.

Trial i of a plan is a pure function of (plan, master_seed, i): its child
seed is derived with the documented SplitMix64 scheme and split into
independent key / error / tie-break streams. Trials are executed in fixed-
size chunks; chunks may run on a worker pool, but aggregation always scans
trial indices in order and stops at the exact trial where the failure
target is met, so every report is bit-identical for any worker count.

Every code source hands out a group's codes (``keys``, from the trials'
key seeds). A shared source gives one code to every trial (``code``): an
in-memory code, a file, or a seeded quasi-cyclic key, built on first use.
A fresh source builds each trial's quasi-cyclic key from that trial's key
stream. Every trial, in ``run_sim`` and in the naive-vs-sparse
differential campaign alike, is set up by the same step,
``_group_inputs``, which draws a group's codes, errors and tie-break seeds
together. A chunk's trials are decoded in lockstep groups of ``_GROUP``
(128) by ``decode_group``; a single-flip trial keeps its own tie-break
stream, so group and chunk boundaries cannot move a result.

A trial counts as a failure unless the decoder reports success AND the
recovered pattern equals the sampled error; successful decodes of the
wrong pattern (matching syndrome, different support) are miscorrections
and are tallied separately as well. Both are read from a group's result
arrays at once, with no per-trial objects: a chunk returns one row per
trial (failed, miscorrected, iterations, the four op counts), and
``run_sim`` sums the prefix of the rows that ends at the trial that meets
the failure target. The differential campaign compares the two decoders'
flip arrays and builds a ``Mismatch`` only for a trial that differs.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# The beta quantile by the inverse regularized incomplete beta function:
# the same routine scipy.stats.beta.ppf calls, without importing
# scipy.stats (about 0.9 s and 45 MB in every process that imports bfkit).
from scipy.special import betaincinv

from .codes import (
    CodeIndex,
    QcSeedSpec,
    SparseParityCheck,
    generate_qc,
    generate_qc_group,
    load_code,
)
from .decoders import (
    OpCounts,
    check_decoder,
    check_threshold_ceiling,
    decode_group,
    predicted_op_count,
    warn_low_thresholds,
)
from .rng import STREAM_ERROR, STREAM_KEY, STREAM_TIEBREAK, child_seeds, sample_distinct_group

SEED_SCHEME = "splitmix64-v1"

# Trials a chunk decodes in lockstep. It bounds a group's (B, n) counter
# state, so memory does not grow with the chunk size. 128 was chosen on the
# r=149 differential campaign, where per-group costs weigh most. In-process
# runs put it at about 1.1x the rate of 32 at r=2003 but about 0.9x at
# r=12323, with 20 MB more peak memory there.
_GROUP = 128


# -- code sources ------------------------------------------------------------


class _SharedCodeSource:
    """A source whose one code serves every trial."""

    code: SparseParityCheck

    def profile(self) -> SparseParityCheck:
        return self.code

    def keys(self, key_seeds: np.ndarray) -> CodeIndex:
        """The shared code, once per key seed (the seeds go unused)."""
        return CodeIndex([self.code] * len(key_seeds))


@dataclass(frozen=True)
class FixedCodeSource(_SharedCodeSource):
    """One in-memory code shared by every trial."""

    code: SparseParityCheck

    def describe(self) -> str:
        return f"fixed(n={self.code.n},r={self.code.r},v={self.code.v})"


@dataclass(frozen=True)
class FileCodeSource(_SharedCodeSource):
    """Code loaded from a file once, on first use, shared by every trial."""

    path: str

    @cached_property
    def code(self) -> SparseParityCheck:
        return load_code(self.path)

    def describe(self) -> str:
        return f"file({self.path})"


@dataclass(frozen=True)
class QcCodeSource(_SharedCodeSource):
    """Fixed-key quasi-cyclic code built once from its own seed."""

    r: int
    v: int
    seed: int

    @cached_property
    def code(self) -> SparseParityCheck:
        return generate_qc(QcSeedSpec(self.r, self.v, self.seed))

    def describe(self) -> str:
        return f"qc(r={self.r},v={self.v},seed={self.seed})"


@dataclass(frozen=True)
class FreshQcSource:
    """New quasi-cyclic key per trial, drawn from the trial's key stream.

    Removes key-specific error floors from rate estimates; this is the
    default for model validation.
    """

    r: int
    v: int

    def profile(self) -> SparseParityCheck:
        """The seed-0 key; every fresh key has its shape."""
        return _seed0_key(self.r, self.v)

    def keys(self, key_seeds: np.ndarray) -> CodeIndex:
        """The ``CodeIndex`` of the keys ``generate_qc`` builds from ``key_seeds``."""
        return generate_qc_group(self.r, self.v, key_seeds)

    def describe(self) -> str:
        return f"fresh-qc(r={self.r},v={self.v})"


CodeSource = FixedCodeSource | FileCodeSource | QcCodeSource | FreshQcSource


@lru_cache(maxsize=16)
def _seed0_key(r: int, v: int) -> SparseParityCheck:
    """The seed-0 quasi-cyclic key of shape (r, v), built once per process
    rather than once per source: a benchmark or campaign may build many
    sources of one shape."""
    return generate_qc(QcSeedSpec(r, v, 0))


# -- plans and reports -------------------------------------------------------


@dataclass(frozen=True)
class SimPlan:
    """Everything needed to reproduce a simulation run except the clock."""

    source: CodeSource
    t: int
    decoder: str = "bfmax-sparse"
    iter_max: int | None = None
    thresholds: tuple[int, ...] | None = None
    max_trials: int = 1000
    target_failures: int = 1000_000_000
    master_seed: int = 0
    worker_count: int = 1
    chunk_size: int = 512

    def __post_init__(self):
        if self.max_trials < 1:
            raise ValueError("max_trials must be at least 1")
        if self.target_failures < 1:
            raise ValueError("target_failures must be at least 1")
        if self.t < 0:
            raise ValueError("t must be non-negative")
        if self.iter_max is not None and self.iter_max < 0:
            raise ValueError("iter_max must be non-negative")
        check_decoder(self.decoder, self.effective_iter_max, self.thresholds)
        if self.worker_count < 1:
            raise ValueError("worker_count must be at least 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")

    @property
    def effective_iter_max(self) -> int:
        """Defaults to t, the regime in which the failure model is exact."""
        return self.t if self.iter_max is None else self.iter_max


@dataclass(frozen=True)
class SimReport:
    """Aggregated outcome of a simulation run.

    Everything except ``wall_seconds`` is a pure function of
    (plan, master_seed); ``deterministic_fields`` returns exactly that
    reproducible part.
    """

    n: int
    r: int
    v: int
    w_avg: float
    t: int
    decoder: str
    iter_max: int
    trials_run: int
    failures: int
    miscorrections: int
    dfr_point: float
    ci_low: float
    ci_high: float
    mean_iterations: float
    mean_op_counts: dict[str, float]
    master_seed: int
    seed_scheme: str
    source_desc: str
    wall_seconds: float

    def deterministic_fields(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "wall_seconds"}
        return out


def clopper_pearson(failures: int, trials: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial confidence interval, valid at tiny failure counts."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= failures <= trials:
        raise ValueError("failures out of range")
    lo = 0.0 if failures == 0 else float(betaincinv(failures, trials - failures + 1, alpha / 2))
    hi = 1.0 if failures == trials else float(betaincinv(failures + 1, trials - failures, 1 - alpha / 2))
    return lo, hi


# -- trial machinery ---------------------------------------------------------


def checked_profile(plan: SimPlan) -> SparseParityCheck:
    """The plan's code profile, once the plan is known to fit it."""
    profile = plan.source.profile()
    if plan.t > profile.n:
        raise ValueError(f"t={plan.t} exceeds code length {profile.n}")
    check_threshold_ceiling(profile.v, plan.thresholds)
    return profile


def _spans(lo: int, hi: int, size: int):
    """(start, end) of each run of ``size`` trials of ``lo`` to ``hi - 1``."""
    return ((start, min(start + size, hi)) for start in range(lo, hi, size))


def _group_inputs(plan: SimPlan, lo: int, hi: int):
    """Code index, (B, t) error supports, (B, r) syndromes and tie-break
    seeds of trials ``lo`` to ``hi - 1``.

    Trial i's child seed is ``child_seed(master_seed, i)``; its key, error
    and tie-break streams are child seeds of that. A fresh key is
    ``generate_qc`` on the key seed and the error is ``sample_error`` on the
    error stream, both drawn here for the whole group at once.
    """
    child = child_seeds(plan.master_seed, np.arange(lo, hi))
    index = plan.source.keys(child_seeds(child, STREAM_KEY))
    errors = sample_distinct_group(child_seeds(child, STREAM_ERROR), index.n, plan.t)[:, 0]
    return index, errors, index.syndromes(errors), child_seeds(child, STREAM_TIEBREAK).tolist()


def _run_chunk(plan: SimPlan, lo: int, hi: int) -> np.ndarray:
    """One int64 row per trial of ``lo`` to ``hi - 1``: whether it failed,
    whether it miscorrected, its iterations and its four op counts."""
    rows = []
    for g_lo, g_hi in _spans(lo, hi, _GROUP):
        index, errors, S, seeds = _group_inputs(plan, g_lo, g_hi)
        result = decode_group(
            plan.decoder, index, S, plan.effective_iter_max, thresholds=plan.thresholds, tie_seeds=seeds
        )
        exact = result.success & result.recovers(errors)
        rows.append(np.column_stack((~exact, result.success & ~exact, result.iterations, result.ops)))
    return np.concatenate(rows)


def _ordered_chunk_results(plan: SimPlan, runner):
    """Yield ``runner(plan, lo, hi)`` per chunk strictly in index order,
    using a pool if asked.

    ``runner`` is a module-level function (picklable). Spans are made as
    they are consumed, so a huge ``max_trials`` costs nothing up front.
    The caller may stop consuming early; pending futures are then discarded.
    """
    spans = _spans(0, plan.max_trials, plan.chunk_size)
    if plan.worker_count == 1:
        for span in spans:
            yield runner(plan, *span)
        return
    window = plan.worker_count + 2
    with ProcessPoolExecutor(max_workers=plan.worker_count) as pool:
        pending: deque = deque()
        try:
            for span in spans:
                pending.append(pool.submit(runner, plan, *span))
                if len(pending) == window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for fut in pending:
                fut.cancel()


def run_sim(plan: SimPlan) -> SimReport:
    """Estimate the failure rate of ``plan``, stopping at the failure target.

    The aggregate depends only on (plan, master_seed): trials are consumed
    in index order and the run stops at the exact trial where
    ``target_failures`` is reached (or after ``max_trials``).
    """
    profile = checked_profile(plan)
    warn_low_thresholds(profile.v, plan.thresholds, stacklevel=2)
    start = time.perf_counter()

    trials, totals = 0, [0] * 7  # the column sums of the chunk rows run so far
    gen = _ordered_chunk_results(plan, _run_chunk)
    for rows in gen:
        so_far = np.cumsum(rows[:, 0])
        stop = so_far.size
        if totals[0] + int(so_far[-1]) >= plan.target_failures:
            # the run ends at the trial that meets the target
            stop = int(np.searchsorted(so_far, plan.target_failures - totals[0])) + 1
        trials += stop
        totals = [a + b for a, b in zip(totals, rows[:stop].sum(axis=0).tolist())]
        if totals[0] >= plan.target_failures:
            gen.close()
            break

    failures, miscorrections, iter_sum, *op_sums = totals
    ci_low, ci_high = clopper_pearson(failures, trials)
    return SimReport(
        n=profile.n,
        r=profile.r,
        v=profile.v,
        w_avg=profile.w_avg,
        t=plan.t,
        decoder=plan.decoder,
        iter_max=plan.effective_iter_max,
        trials_run=trials,
        failures=failures,
        miscorrections=miscorrections,
        dfr_point=failures / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        mean_iterations=iter_sum / trials,
        mean_op_counts={name: total / trials for name, total in OpCounts(*op_sums).as_dict().items()},
        master_seed=plan.master_seed,
        seed_scheme=SEED_SCHEME,
        source_desc=plan.source.describe(),
        wall_seconds=time.perf_counter() - start,
    )


# -- differential testing ----------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    trial_index: int
    tie_seed: int
    naive_success: bool
    sparse_success: bool
    naive_flips: tuple[int, ...]
    sparse_flips: tuple[int, ...]


@dataclass(frozen=True)
class DifferentialReport:
    trials_run: int
    mismatches: tuple[Mismatch, ...]

    @property
    def clean(self) -> bool:
        return not self.mismatches


def _run_diff_chunk(plan: SimPlan, lo: int, hi: int):
    mismatches = []
    for g_lo, g_hi in _spans(lo, hi, _GROUP):
        index, _, S, seeds = _group_inputs(plan, g_lo, g_hi)
        naive = decode_group("bfmax-naive", index, S, plan.effective_iter_max, tie_seeds=seeds)
        sparse = decode_group("bfmax-sparse", index, S, plan.effective_iter_max, tie_seeds=seeds)
        if naive.same_flips(sparse):
            continue
        pairs = zip(naive.success.tolist(), sparse.success.tolist(), naive.flip_logs(), sparse.flip_logs())
        for i, (seed, (a_ok, b_ok, a_log, b_log)) in enumerate(zip(seeds, pairs)):
            if a_ok != b_ok or a_log != b_log:
                mismatches.append(Mismatch(g_lo + i, seed, a_ok, b_ok, a_log, b_log))
    return mismatches


def differential_campaign(plan: SimPlan) -> DifferentialReport:
    """Run naive and sparse single-flip decoders on identical inputs.

    Any divergence in outcome or flip history is reported; the expected
    result is zero mismatches.
    """
    if plan.decoder == "bf":
        raise ValueError("the differential campaign compares the single-flip decoders, not bf")
    checked_profile(plan)
    mismatches: list[Mismatch] = []
    for chunk in _ordered_chunk_results(plan, _run_diff_chunk):
        mismatches.extend(chunk)
    return DifferentialReport(plan.max_trials, tuple(mismatches))


# -- operation-count validation ----------------------------------------------


@dataclass(frozen=True)
class OpCountRow:
    term: str
    measured: float
    predicted: float

    @property
    def ratio(self) -> float:
        return self.measured / self.predicted if self.predicted else float("nan")


@dataclass(frozen=True)
class OpCountValidation:
    rows: tuple[OpCountRow, ...]
    trials_run: int

    def row(self, term: str) -> OpCountRow:
        for row in self.rows:
            if row.term == term:
                return row
        raise KeyError(term)


def opcount_validation(plan: SimPlan) -> OpCountValidation:
    """Compare measured operation counts of the sparse decoder to prediction.

    Reports per-iteration comparison and counter-touch terms (exact for
    regular codes) and the weighted total against the closed-form cost.
    """
    if plan.decoder != "bfmax-sparse":
        raise ValueError("operation-count validation targets the bfmax-sparse decoder")
    profile = plan.source.profile()
    report = run_sim(plan)
    iters = report.mean_iterations
    ops = report.mean_op_counts
    weighted = OpCounts(**ops).weighted_total(profile.v, iters)
    predicted_iter_max = predicted_op_count(profile, plan.effective_iter_max)
    rows = (
        OpCountRow("counter_update_touches_per_iteration",
                   ops["counter_update_touches"] / iters if iters else 0.0,
                   profile.v * profile.w_avg),
        OpCountRow("argmax_comparisons_per_iteration",
                   ops["argmax_comparisons"] / iters if iters else 0.0,
                   profile.n),
        OpCountRow("syndrome_bit_updates_per_iteration",
                   ops["syndrome_bit_updates"] / iters if iters else 0.0,
                   profile.v),
        OpCountRow("weighted_total", weighted, predicted_iter_max),
    )
    return OpCountValidation(rows, report.trials_run)
