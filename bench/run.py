"""bfkit benchmark: four workloads run against bfkit's public API.

Run from the repository root:

    python3 bench/run.py --workload validate-fresh --seed 0 --seconds 10 --trace 0

Workloads: validate-fresh, validate-fixed, predict-sweep, compare-small
(see bench/README.md for what each one stresses and why). The inputs of
every operation are a pure function of ``--seed``. The run times operations
until ``--seconds`` of timed work have passed, checking each operation's
output right after it.

With ``--trace 0`` it measures in several fresh interpreters, one after
another, and reports the end-to-end metrics (norm_items_per_s, setup_s,
peak_rss_mb). With ``--trace 1`` it measures in this process, replays every
timed operation with a span around each call into bfkit, and reports the
per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full result, with the environment it ran in, is also written to
``.bench_out/`` (spans too, when tracing).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"
OUT_DIR = ROOT / ".bench_out"

# The program under test is the source tree of this checkout, never an
# installed copy: without ``src/bfkit`` the benchmark exits non-zero.
if not (SRC / "bfkit" / "__init__.py").is_file():
    sys.exit(f"bench: no bfkit source tree at {SRC}")
sys.path.insert(0, str(SRC))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bfkit  # noqa: E402
from bfkit import cli as bfkit_cli  # noqa: E402
from bfkit import dfr as bfkit_dfr  # noqa: E402
from bfkit.codes import QcSeedSpec, generate_qc, sample_error, syndrome  # noqa: E402
from bfkit.decoders import (  # noqa: E402
    OpCounts,
    argmax_scan,
    bfmax_decode_naive,
    bfmax_decode_sparse,
)
from bfkit.dfr import predict_dfr  # noqa: E402
from bfkit.rng import STREAM_ERROR, STREAM_KEY, STREAM_TIEBREAK, child_seed, make_rng  # noqa: E402
from bfkit.simulate import (  # noqa: E402
    SEED_SCHEME,
    FreshQcSource,
    QcCodeSource,
    SimPlan,
    clopper_pearson,
    differential_campaign,
    opcount_validation,
    run_sim,
)

from tracing import (  # noqa: E402
    NullTracer,
    Tracer,
    durations,
    first_mark_seconds,
    layer_seconds_under,
    mark_gaps,
    median,
    p90,
    self_seconds,
    write_jsonl,
)

if not Path(bfkit.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"bench: imported bfkit from {bfkit.__file__}, not from {SRC}")

DEFAULT_SEED = 0
WORKERS = 5  # fresh measuring processes per untraced run, one after another
WORKER_TIMEOUT_S = 60
# norm_items_per_s rescales to a machine on which one reference loop takes
# REFERENCE_NOMINAL_S; reference loops take REFERENCE_SHARE of the timed time.
REFERENCE_NOMINAL_S = 0.025
REFERENCE_SHARE = 0.33
EXACT_REL_BOUND = 5e-4  # the acceptance suite's fast-vs-mpmath bound
OP_NAMES = ("counter_init_adds", "argmax_comparisons", "syndrome_bit_updates", "counter_update_touches")

END_TO_END_UNITS = {"norm_items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "rng.child_seed_us": "us",
    "rng.make_rng_us": "us",
    "codes.generate_qc_p50_us": "us",
    "codes.generate_qc_p90_us": "us",
    "codes.sample_error_us": "us",
    "codes.syndrome_us": "us",
    "decoders.bfmax_sparse_p50_us": "us",
    "decoders.bfmax_sparse_p90_us": "us",
    "decoders.first_iter_us": "us",
    "decoders.iter_us": "us",
    "decoders.argmax_scan_us": "us",
    "decoders.flip_update_us": "us",
    "decoders.bfmax_naive_us": "us",
    "decoders.iterations_per_decode": "count",
    "decoders.argmax_comparisons_per_iter": "count",
    "decoders.counter_update_touches_per_iter": "count",
    "decoders.syndrome_bit_updates_per_iter": "count",
    "decoders.counter_init_adds_per_decode": "count",
    "dfr.predict_p50_ms": "ms",
    "dfr.predict_p90_ms": "ms",
    "dfr.rho_us": "us",
    "dfr.counter_pmfs_us": "us",
    "dfr.log_iteration_failure_us": "us",
    "dfr.predict_exact_ms": "ms",
    "simulate.self_us_per_trial": "us",
    "simulate.clopper_pearson_us": "us",
    "cli.predict_self_ms": "ms",
    "trace.overhead_pct": "%",
}

# -- workload inputs from the seed ---------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive(seed: int, *path: int) -> int:
    """64-bit input seed at ``path`` below the workload seed (SplitMix64 steps).

    The benchmark keeps its own copy of the derivation so that its inputs do
    not move if the program's seed scheme ever changes.
    """
    z = seed & _MASK64
    for step in path:
        z = _mix64((z + (step + 1) * _GOLDEN) & _MASK64)
    return z


@dataclass
class Stats:
    """Tallies gathered while checking; the decoder counts cover the one
    sparse decode of each replayed trial."""

    trials: int = 0
    iterations: int = 0
    init_adds: int = 0
    comparisons: int = 0
    syndrome_updates: int = 0
    touches: int = 0
    argmax_s: list = field(default_factory=list)
    exact_s: list = field(default_factory=list)


@dataclass
class State:
    """What one run of a workload keeps between set-up, timing and checks."""

    seed: int
    stats: Stats = field(default_factory=Stats)
    source: object = None
    shared: object = None
    once: object = None  # result of a check made once per run
    pacer: object = None  # runs the reference loop while measuring untraced
    errors: int = 0


def _report_error(state: State) -> None:
    """Print the traceback of a run's first failure only; a broken build repeats it."""
    if state.errors == 0:
        traceback.print_exc()
    state.errors += 1


def _roundtrip(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


# -- trial replay through the public layer calls -------------------------------


def _replay_trial(tracer, stats, r, v, t, shared, master, index, group, with_naive):
    """One trial of run_sim / differential_campaign, call by call.

    Returns (code, error, naive outcome or None, sparse outcome). With a tracer,
    every call into bfkit gets a span under a "trial" span, the sparse
    decoder marks each iteration, and argmax_scan is timed afterwards on
    the counters captured after the first iteration.
    """
    trial = tracer.open("trial", group)
    child = tracer.call("rng.child_seed", child_seed, master, index)
    key_seed = tracer.call("rng.child_seed", child_seed, child, STREAM_KEY)
    err_seed = tracer.call("rng.child_seed", child_seed, child, STREAM_ERROR)
    tie_seed = tracer.call("rng.child_seed", child_seed, child, STREAM_TIEBREAK)
    if shared is None:
        H = tracer.call("codes.generate_qc", generate_qc, QcSeedSpec(r, v, key_seed))
    else:
        H = shared
    err_rng = tracer.call("rng.make_rng", make_rng, err_seed)
    e = tracer.call("codes.sample_error", sample_error, H.n, t, err_rng)
    s = tracer.call("codes.syndrome", syndrome, H, e)
    naive = None
    if with_naive:
        naive_rng = tracer.call("rng.make_rng", make_rng, tie_seed)
        naive = tracer.call("decoders.bfmax_decode_naive", bfmax_decode_naive, H, s, t, naive_rng)
    captured = []
    hook = None
    if tracer.enabled:
        def hook(state):
            tracer.mark()
            if not captured:
                captured.append(state.counters.copy())
    tie_rng = tracer.call("rng.make_rng", make_rng, tie_seed)
    sparse = tracer.call(
        "decoders.bfmax_decode_sparse", bfmax_decode_sparse, H, s, t, tie_rng, on_iteration=hook
    )
    tracer.close(trial)

    if captured:
        rng = make_rng(tie_seed)
        start = perf_counter()
        argmax_scan(captured[0], rng, OpCounts())
        stats.argmax_s.append(perf_counter() - start)
    ops = sparse.op_counts
    stats.trials += 1
    stats.iterations += sparse.iterations_used
    stats.init_adds += ops.counter_init_adds
    stats.comparisons += ops.argmax_comparisons
    stats.syndrome_updates += ops.syndrome_bit_updates
    stats.touches += ops.counter_update_touches
    return H, e, naive, sparse


def _constant_work(H, sparse) -> bool:
    """The paper's claim: n comparisons, v*w touches, v syndrome bits per iteration."""
    ops, it = sparse.op_counts, sparse.iterations_used
    return (
        ops.argmax_comparisons == H.n * it
        and ops.counter_update_touches == H.v * H.w_max * it
        and ops.syndrome_bit_updates == H.v * it
    )


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class SimWorkload:
    """run_sim blocks of ``block`` trials: bfmax-sparse, iter_max = t, one worker.

    ``fresh`` draws a new quasi-cyclic key per trial; otherwise one key,
    seeded from the workload seed, is built during set-up and shared.
    ``expected`` holds block 0's ``deterministic_fields`` at DEFAULT_SEED.
    """

    name: str
    tag: int
    r: int
    v: int
    t: int
    block: int
    fresh: bool
    expected: Path | None = None
    item = "trials"

    def code_seed(self, seed: int) -> int:
        return derive(seed, self.tag, 1)

    def op_seed(self, seed: int, k: int) -> int:
        return derive(seed, self.tag, 0, k)

    def _plan(self, state, master_seed, trials):
        return SimPlan(
            source=state.source, t=self.t, decoder="bfmax-sparse", iter_max=self.t,
            max_trials=trials, master_seed=master_seed, worker_count=1,
        )

    def prepare(self, seed: int) -> State:
        state = State(seed)
        if self.fresh:
            state.source = FreshQcSource(self.r, self.v)
        else:
            state.source = QcCodeSource(self.r, self.v, self.code_seed(seed))
            state.shared = state.source.profile()
        run_sim(self._plan(state, derive(seed, self.tag, 2), 2))
        return state

    def op(self, state, k):
        return self.block, run_sim(self._plan(state, self.op_seed(state.seed, k), self.block))

    def check(self, state, k, report, tracer) -> bool:
        """Replay block ``k`` call by call; it must reproduce the report exactly."""
        master = self.op_seed(state.seed, k)
        failures = misc = iters = 0
        sums = [0, 0, 0, 0]
        constant = True
        for i in range(self.block):
            H, e, _, out = _replay_trial(
                tracer, state.stats, self.r, self.v, self.t, state.shared,
                master, i, k * self.block + i, False,
            )
            exact = out.success and out.error_estimate == e
            failures += not exact
            misc += out.success and not exact
            iters += out.iterations_used
            ops = out.op_counts.as_dict()
            for j, name in enumerate(OP_NAMES):
                sums[j] += ops[name]
            constant = constant and _constant_work(H, out)
        sid = tracer.open("simulate.clopper_pearson", f"block{k}")
        ci = clopper_pearson(failures, self.block)
        tracer.close(sid)
        ok = (
            constant
            and report.trials_run == self.block
            and report.failures == failures
            and report.miscorrections == misc
            and report.mean_iterations == iters / self.block
            and report.mean_op_counts == {n: sums[j] / self.block for j, n in enumerate(OP_NAMES)}
            and (report.ci_low, report.ci_high) == ci
        )
        if k == 0 and self.expected is not None and state.seed == DEFAULT_SEED:
            expected = json.loads(self.expected.read_text(encoding="utf-8"))
            ok = ok and _roundtrip(report.deterministic_fields()) == expected
        return ok


@dataclass(frozen=True)
class CompareWorkload:
    """differential_campaign blocks of ``block`` naive+sparse trial pairs on
    fresh keys, then one untimed opcount_validation of ``opcount_trials``."""

    name: str
    tag: int
    r: int
    v: int
    t: int
    block: int
    opcount_trials: int
    item = "pairs"

    def op_seed(self, seed: int, k: int) -> int:
        return derive(seed, self.tag, 0, k)

    def _plan(self, master_seed, trials):
        return SimPlan(
            source=FreshQcSource(self.r, self.v), t=self.t, decoder="bfmax-sparse",
            iter_max=self.t, max_trials=trials, master_seed=master_seed, worker_count=1,
        )

    def prepare(self, seed: int) -> State:
        differential_campaign(self._plan(derive(seed, self.tag, 2), 4))
        return State(seed)

    def op(self, state, k):
        return self.block, differential_campaign(self._plan(self.op_seed(state.seed, k), self.block))

    def _ratios_exact(self, seed: int) -> bool:
        validation = opcount_validation(self._plan(derive(seed, self.tag, 1), self.opcount_trials))
        return all(
            validation.row(term).ratio == 1.0
            for term in (
                "argmax_comparisons_per_iteration",
                "counter_update_touches_per_iteration",
                "syndrome_bit_updates_per_iteration",
            )
        )

    def check(self, state, k, report, tracer) -> bool:
        """Zero mismatches; op-count ratios exactly 1 (validated once, after block 0).

        A traced run also replays the block pair by pair, comparing flip logs.
        """
        if state.once is None:
            state.once = self._ratios_exact(state.seed)
        ok = state.once and report.trials_run == self.block and report.clean
        if tracer.enabled:
            master = self.op_seed(state.seed, k)
            for i in range(self.block):
                H, _, naive, sparse = _replay_trial(
                    tracer, state.stats, self.r, self.v, self.t, None,
                    master, i, k * self.block + i, True,
                )
                ok = ok and naive.success == sparse.success and naive.flip_log == sparse.flip_log
                ok = ok and _constant_work(H, sparse)
        return ok


@dataclass(frozen=True)
class PredictWorkload:
    """In-process ``bfkit predict`` sweeps through cli.main, stdout captured.

    ``expected`` is the CSV recorded for these parameters. The fast model
    is also checked against mode="exact" at one t chosen by the seed.
    """

    name: str
    tag: int
    r: int
    v: int
    t_min: int
    t_max: int
    expected: Path | None = None
    item = "points"

    def argv(self, t_min=None, t_max=None):
        return [
            "predict", "--r", str(self.r), "--v", str(self.v),
            "--t-min", str(self.t_min if t_min is None else t_min),
            "--t-max", str(self.t_max if t_max is None else t_max),
        ]

    def cross_check_t(self, seed: int) -> int:
        return self.t_min + derive(seed, self.tag, 1) % (self.t_max - self.t_min + 1)

    def _sweep(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = bfkit_cli.main(argv)
        return rc, buf.getvalue()

    def prepare(self, seed: int) -> State:
        self._sweep(self.argv(self.t_min, self.t_min))
        return State(seed)

    def op(self, state, k):
        """One sweep; a pacer gets a step after every ``predict_dfr`` call."""
        points = self.t_max - self.t_min + 1
        pacer = state.pacer
        if pacer is None:
            return points, self._sweep(self.argv())
        original = bfkit_cli.predict_dfr

        def paced(*args, **kwargs):
            out = original(*args, **kwargs)
            pacer.step()
            return out

        bfkit_cli.predict_dfr = paced
        try:
            return points, self._sweep(self.argv())
        finally:
            bfkit_cli.predict_dfr = original

    def _exact_agrees(self, state, text) -> bool:
        t = self.cross_check_t(state.seed)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        fast = float(next(row for row in rows if int(row[4]) == t)[6])
        start = perf_counter()
        oracle = predict_dfr(2 * self.r, self.r, self.v, 2 * self.v, t, mode="exact", dps=60)
        state.stats.exact_s.append(perf_counter() - start)
        return abs(fast - oracle.dfr_linear) / oracle.dfr_linear < EXACT_REL_BOUND

    def _traced_sweep(self, tracer, k):
        patches = [
            (bfkit_cli, "predict_dfr", tracer.wrap(
                "dfr.predict_dfr", bfkit_cli.predict_dfr, group_of=lambda a: f"sweep{k}/t{a[4]}")),
            (bfkit_dfr, "rho", tracer.wrap("dfr.rho", bfkit_dfr.rho)),
            (bfkit_dfr, "counter_pmfs", tracer.wrap("dfr.counter_pmfs", bfkit_dfr.counter_pmfs)),
            (bfkit_dfr, "log_iteration_failure",
             tracer.wrap("dfr.log_iteration_failure", bfkit_dfr.log_iteration_failure)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, traced in patches:
                setattr(mod, attr, traced)
            sid = tracer.open("cli.main", f"sweep{k}")
            try:
                return self._sweep(self.argv())
            finally:
                tracer.close(sid)
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def check(self, state, k, result, tracer) -> bool:
        """The CSV equals the recorded copy (without one, the first sweep's),
        and the model at the cross-check t agrees with mode="exact"."""
        if state.once is None:
            if self.expected is not None:
                expected = self.expected.read_text(encoding="utf-8")
            else:
                expected = result[1]
            state.once = (expected, self._exact_agrees(state, result[1]))
        expected, exact_ok = state.once
        ok = exact_ok and result == (0, expected)
        if tracer.enabled:
            ok = ok and self._traced_sweep(tracer, k) == (0, expected)
        return ok


WORKLOADS = {
    wl.name: wl
    for wl in (
        SimWorkload("validate-fresh", 1, r=2003, v=13, t=55, block=32, fresh=True,
                    expected=EXPECTED / "validate-fresh.json"),
        SimWorkload("validate-fixed", 2, r=2003, v=13, t=55, block=48, fresh=False,
                    expected=EXPECTED / "validate-fixed.json"),
        PredictWorkload("predict-sweep", 3, r=2003, v=13, t_min=30, t_max=60,
                        expected=EXPECTED / "predict-sweep.csv"),
        CompareWorkload("compare-small", 4, r=149, v=5, t=8, block=128, opcount_trials=64),
    )
}


# -- measurement -------------------------------------------------------------------


class ReferenceLoop:
    """A fixed numpy/Python loop, independent of bfkit, timed between operations.

    The machine's speed drifts by tens of percent over minutes, and this
    loop slows with it, so ``norm_items_per_s`` divides the drift out. It is
    shaped like the single-flip decoder's inner step (max, flatnonzero,
    add.at on a 4006-entry int16 array, a little pure Python).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.counters = rng.integers(0, 14, 4006).astype(np.int16)
        self.rows = rng.integers(0, 4006, (2003, 26)).astype(np.int32)

    def run_once(self) -> float:
        x = self.counters.copy()
        acc = 0
        start = perf_counter()
        for i in range(1500):
            ties = np.flatnonzero(x == x.max())
            j = int(ties[i % ties.size])
            np.add.at(x, self.rows[j % 2003], 1 if i & 1 else -1)
            acc += j + sum(range(50))
        return perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def layer_metrics(tracer, stats: Stats, op_seconds: list[float]) -> dict[str, float]:
    """Per-layer table from the spans of a traced run; 0 where a layer is not called."""
    us, ms = 1e6, 1e3

    def med(name):
        return median(durations(tracer, name))

    sparse = "decoders.bfmax_decode_sparse"
    iter_us = median(mark_gaps(tracer, sparse)) * us
    argmax_us = median(stats.argmax_s) * us
    qc = durations(tracer, "codes.generate_qc")
    decode = durations(tracer, sparse)
    predict = durations(tracer, "dfr.predict_dfr")
    clopper = durations(tracer, "simulate.clopper_pearson")
    timed = sum(op_seconds)
    roots = sum(durations(tracer, "trial")) + sum(clopper) + sum(durations(tracer, "cli.main"))
    layers = layer_seconds_under(tracer, "trial") + sum(clopper)
    iters = stats.iterations
    return {
        "rng.child_seed_us": med("rng.child_seed") * us,
        "rng.make_rng_us": med("rng.make_rng") * us,
        "codes.generate_qc_p50_us": median(qc) * us,
        "codes.generate_qc_p90_us": p90(qc) * us,
        "codes.sample_error_us": med("codes.sample_error") * us,
        "codes.syndrome_us": med("codes.syndrome") * us,
        "decoders.bfmax_sparse_p50_us": median(decode) * us,
        "decoders.bfmax_sparse_p90_us": p90(decode) * us,
        "decoders.first_iter_us": median(first_mark_seconds(tracer, sparse)) * us,
        "decoders.iter_us": iter_us,
        "decoders.argmax_scan_us": argmax_us,
        "decoders.flip_update_us": iter_us - argmax_us if iter_us else 0.0,
        "decoders.bfmax_naive_us": med("decoders.bfmax_decode_naive") * us,
        "decoders.iterations_per_decode": iters / stats.trials if stats.trials else 0.0,
        "decoders.argmax_comparisons_per_iter": stats.comparisons / iters if iters else 0.0,
        "decoders.counter_update_touches_per_iter": stats.touches / iters if iters else 0.0,
        "decoders.syndrome_bit_updates_per_iter": stats.syndrome_updates / iters if iters else 0.0,
        "decoders.counter_init_adds_per_decode": stats.init_adds / stats.trials if stats.trials else 0.0,
        "dfr.predict_p50_ms": median(predict) * ms,
        "dfr.predict_p90_ms": p90(predict) * ms,
        "dfr.rho_us": med("dfr.rho") * us,
        "dfr.counter_pmfs_us": med("dfr.counter_pmfs") * us,
        "dfr.log_iteration_failure_us": med("dfr.log_iteration_failure") * us,
        "dfr.predict_exact_ms": median(stats.exact_s) * ms,
        "simulate.self_us_per_trial": (timed - layers) / stats.trials * us if stats.trials else 0.0,
        "simulate.clopper_pearson_us": median(clopper) * us,
        "cli.predict_self_ms": median(self_seconds(tracer, "cli.main")) * ms,
        "trace.overhead_pct": (roots / timed - 1.0) * 100.0 if timed and roots else 0.0,
    }


def environment(seed: int) -> dict:
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = proc.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "bfkit": bfkit.__version__,
        "git_sha": sha,
        "workload_seed": seed,
        "seed_scheme": SEED_SCHEME,
    }


@dataclass
class Sample:
    """Raw measurements of one measuring process, or of several merged."""

    setup_s: list = field(default_factory=list)
    op_items: list = field(default_factory=list)
    op_seconds: list = field(default_factory=list)
    oks: list = field(default_factory=list)
    ref_seconds: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)

    def merge(self, other: "Sample") -> None:
        for name, values in vars(other).items():
            getattr(self, name).extend(values)


class Pacer:
    """Runs the reference loop for REFERENCE_SHARE of the timed work, in
    small slices: after every operation, and inside a long operation after
    each of its steps (``step``). Loops run inside an operation are taken
    out of its time. Slicing finely keeps the loops and the work they are
    compared with under the same machine conditions.
    """

    def __init__(self, samples: list):
        self.reference = ReferenceLoop()
        self.samples = samples
        self.timed = 0.0  # timed work so far
        self.spent = 0.0  # reference loops so far
        self.op_start = 0.0
        self.inside = 0.0  # reference loops inside the current operation

    def _catch_up(self, timed: float) -> None:
        while self.spent < REFERENCE_SHARE * timed:
            self.samples.append(self.reference.run_once())
            self.spent += self.samples[-1]

    def begin(self) -> float:
        self.inside = 0.0
        self.op_start = perf_counter()
        return self.op_start

    def step(self) -> None:
        start = perf_counter()
        self._catch_up(self.timed + start - self.op_start - self.inside)
        self.inside += perf_counter() - start

    def end(self, timed: float) -> None:
        self.timed = timed
        self._catch_up(timed)


def measure(wl, state, sample: Sample, budget: float, first_op: int, tracer, paced: bool) -> None:
    """Time operations ``first_op``, ``first_op + 1``, ... until ``budget``
    seconds of timed work have passed (none when ``budget`` is 0).

    With ``paced`` the reference loop runs between operations (and between
    the steps of a long one); then each operation's check runs, so that a
    traced replay sees the same machine conditions as the timing it is
    compared with. Neither counts toward ``budget``.
    """
    state.pacer = Pacer(sample.ref_seconds) if paced else None
    spent = 0.0
    k = first_op
    while spent < budget:
        start = state.pacer.begin() if paced else perf_counter()
        try:
            items, result = wl.op(state, k)
        except Exception:
            _report_error(state)
            items, result = 0, None
        dt = perf_counter() - start - (state.pacer.inside if paced else 0.0)
        spent += dt
        sample.op_seconds.append(dt)
        sample.op_items.append(items)
        if paced:
            state.pacer.end(spent)
        try:
            sample.oks.append(result is not None and bool(wl.check(state, k, result, tracer)))
        except Exception:
            _report_error(state)
            sample.oks.append(False)
        k += 1


def measure_in_workers(wl, seed: int, seconds: float, workers: int) -> Sample:
    """Measure in ``workers`` fresh interpreters, one after another.

    Each one runs this script with ``--worker FIRST_OP:BUDGET``: it sets up,
    notes the time it became ready, takes its share of the timed work
    (continuing the operation numbering), and prints its Sample as JSON.
    Its set-up time runs from its start until it was ready;
    ``time.monotonic`` is one clock for every process on the host. Spreading
    the work over several processes averages out how fast one process
    happens to run.
    """
    total = Sample()
    for i in range(workers):
        budget = max(0.0, (seconds - sum(total.op_seconds)) / (workers - i))
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
               "--seed", str(seed), "--worker", f"{len(total.op_seconds)}:{budget!r}"]
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"measuring process {i} of {wl.name} failed (exit {proc.returncode})")
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        ready = data.pop("ready")
        total.merge(Sample(**data))
        total.setup_s.append(ready - start)
    return total


def run_worker(wl, seed: int, first_op: int, budget: float) -> dict:
    state = wl.prepare(seed)
    ready = time.monotonic()
    sample = Sample()
    measure(wl, state, sample, budget, first_op, NullTracer(), paced=True)
    sample.rss_mb.append(peak_rss_mb())
    return {"ready": ready, **vars(sample)}


def run_workload(wl, seed: int, seconds: float, trace: bool, workers: int):
    """Time ``wl`` for ``seconds``, check every operation, derive the metrics.

    Returns (result, report lines, tracer). Untraced runs measure in
    ``workers`` fresh processes; with ``workers=0``, and always when
    tracing, this process measures alone and its own set-up stands in for
    setup_s (the self-tests use that, where spawning is too slow).
    """
    tracer = Tracer() if trace else NullTracer()
    stats = Stats()
    if workers and not trace:
        sample = measure_in_workers(wl, seed, seconds, workers)
    else:
        start = perf_counter()
        state = wl.prepare(seed)
        sample = Sample(setup_s=[perf_counter() - start])
        measure(wl, state, sample, seconds, 0, tracer, paced=not trace)
        sample.rss_mb.append(peak_rss_mb())
        stats = state.stats

    failed = sample.oks.count(False)
    attempted = len(sample.oks)
    good = [(n, dt) for n, dt, ok in zip(sample.op_items, sample.op_seconds, sample.oks) if ok]
    timed = sum(dt for _, dt in good)
    rate = sum(n for n, _ in good) / timed if timed else 0.0
    ref = sum(sample.ref_seconds) / len(sample.ref_seconds) if sample.ref_seconds else 0.0
    rss = max(sample.rss_mb)
    if trace:
        values = layer_metrics(tracer, stats, sample.op_seconds)
        units = PER_LAYER_UNITS
    else:
        values = {
            "norm_items_per_s": rate * ref / REFERENCE_NOMINAL_S,
            "setup_s": median(sample.setup_s),
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    lines = [
        f"bench {wl.name} seed={seed} trace={int(trace)}: {attempted} operations, "
        f"{sum(sample.op_items)} {wl.item} in {sum(sample.op_seconds):.3f} s timed, "
        f"{len(sample.setup_s)} measuring process(es)",
        f"  {wl.item}_per_s (items_per_s, raw) {rate:.6g} 1/s over {len(good)} checked operations, "
        f"operation time median {median(sample.op_seconds):.6g} s, p90 {p90(sample.op_seconds):.6g} s",
        f"  setup_s median {median(sample.setup_s):.6g} s: "
        + " ".join(f"{s:.4f}" for s in sample.setup_s),
        f"  peak_rss_mb {rss:.6g} MB",
        f"  failed_share {failed / attempted:.6g} ({failed}/{attempted} operations)",
    ]
    if trace:
        lines += [f"  {name} {values[name]:.6g} {units[name]}" for name in units]
    else:
        lines.insert(2, (
            f"  reference loop mean {ref:.6g} s over {len(sample.ref_seconds)} loops; "
            f"norm_items_per_s {values['norm_items_per_s']:.6g} 1/s"
        ))
    return result, lines, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    if args.worker is not None:
        first_op, budget = args.worker.split(":")
        print(json.dumps(run_worker(wl, args.seed, int(first_op), float(budget))), flush=True)
        return 0

    result, lines, tracer = run_workload(wl, args.seed, args.seconds, bool(args.trace), WORKERS)
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": wl.name, "seconds": args.seconds, "environment": env, "report": lines, **result}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        write_jsonl(tracer, OUT_DIR / f"{stem}.spans.jsonl")
    print("\n".join(lines))
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
