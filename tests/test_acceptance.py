"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible under `pytest -s`).
The theory-vs-simulation criterion runs a few hundred thousand Monte Carlo
trials and takes about a minute and a half on two cores; everything else
finishes in seconds.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from bfkit.codes import (
    ErrorPattern,
    QcSeedSpec,
    generate_qc,
    random_regular_code,
    sample_error,
    syndrome,
)
from bfkit.decoders import OpCounts, bfmax_decode_naive, bfmax_decode_sparse, predicted_op_count
from bfkit.dfr import counter_pmfs, predict_dfr, predict_sweep, rho
from bfkit.rng import make_rng
from bfkit.simulate import (
    FreshQcSource,
    QcCodeSource,
    SimPlan,
    differential_campaign,
    run_sim,
)

from helpers import enumerate_binom_pmf, enumerate_rho, recompute_counters

WORKERS = 2


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line, flush=True)


def test_theory_vs_simulation_alignment():
    """r=2003, w=2v, v in {11, 13}: five t with predicted DFR in [1e-4, 1e-2],
    100 target failures each; theory must sit inside the 95% CP interval for
    at least 4 of 5 points per v."""
    all_ok = True
    details = []
    for v in (11, 13):
        eligible = [
            (pred.t, pred.dfr_linear)
            for pred in predict_sweep(4006, 2003, v, 2 * v, 1, 99)
            if 1e-4 <= pred.dfr_linear <= 1e-2
        ]
        chosen = sorted(eligible, key=lambda x: -x[1])[:5]
        assert len(chosen) == 5
        hits = 0
        for t, theory in chosen:
            plan = SimPlan(
                source=FreshQcSource(2003, v),
                t=t,
                decoder="bfmax-sparse",
                iter_max=t,
                max_trials=math.ceil(600 / theory),
                target_failures=100,
                master_seed=24_000 + t,
                worker_count=WORKERS,
                chunk_size=512,
            )
            rep = run_sim(plan)
            inside = rep.ci_low <= theory <= rep.ci_high
            hits += inside
            details.append(
                f"v={v} t={t}: theory={theory:.3e} empirical={rep.dfr_point:.3e} "
                f"ci=[{rep.ci_low:.3e},{rep.ci_high:.3e}] trials={rep.trials_run} "
                f"ratio={rep.dfr_point / theory:.2f} {'IN' if inside else 'OUT'}"
            )
        if hits < 4:
            all_ok = False
        details.append(f"v={v}: {hits}/5 points contain theory")
    report("theory-vs-simulation alignment", all_ok, "; ".join(details[-2:]))
    for line in details:
        print("    " + line)
    assert all_ok, (
        "theory outside the 95% CI: the closed-form model sits a factor "
        "~1.4-1.6 below the simulated failure rate at these parameters "
        "(the reference data shows the same offset); see notes\n"
        + "\n".join(details)
    )


def test_exhaustive_oracle_tiny_codes():
    """>=20 random (3,6)-regular codes at n=16: all weight-2 patterns, 32
    tie-break seeds, single-flip naive decoding with budget 2; pooled failure
    fraction within a factor 2 of the prediction."""
    model = predict_dfr(16, 8, 3, 6, 2).dfr_linear
    rng = make_rng(2024)
    fails = total = 0
    for c in range(20):
        H = random_regular_code(16, 8, 3, 6, rng)
        for sup in combinations(range(16), 2):
            e = ErrorPattern.from_support(16, sup)
            s = syndrome(H, e)
            for k in range(32):
                out = bfmax_decode_naive(
                    H, s, 2, make_rng(1_000_000 * c + 1000 * k + sup[0] * 16 + sup[1])
                )
                fails += not (out.success and out.error_estimate == e)
                total += 1
    emp = fails / total
    ok = model / 2 <= emp <= model * 2
    report(
        "exhaustive oracle on tiny codes", ok,
        f"model={model:.4f} empirical={emp:.4f} ({fails}/{total})",
    )
    assert ok


def test_differential_equivalence():
    """1e5 random (H, e, seed) triples, toy and mid-size: naive and sparse
    single-flip decoders must agree exactly. Zero tolerance."""
    toy = SimPlan(
        source=FreshQcSource(13, 3), t=3, max_trials=85_000,
        master_seed=51, worker_count=WORKERS, chunk_size=1024,
    )
    mid = SimPlan(
        source=FreshQcSource(149, 5), t=8, max_trials=15_000,
        master_seed=52, worker_count=WORKERS, chunk_size=512,
    )
    toy_rep = differential_campaign(toy)
    mid_rep = differential_campaign(mid)
    mismatches = len(toy_rep.mismatches) + len(mid_rep.mismatches)
    trials = toy_rep.trials_run + mid_rep.trials_run
    ok = mismatches == 0 and trials == 100_000
    report("differential equivalence", ok, f"{mismatches} mismatches in {trials} trials")
    assert ok


def test_incremental_counter_correctness():
    """Every iteration of 1000 instrumented decodes: incrementally maintained
    counters equal full recomputation. Zero tolerance."""
    cases = [
        (generate_qc(QcSeedSpec(29, 3, 1)), 5),
        (generate_qc(QcSeedSpec(53, 4, 2)), 6),
        (generate_qc(QcSeedSpec(149, 5, 3)), 8),
        (random_regular_code(24, 12, 3, 6, make_rng(4)), 4),
    ]
    decodes = iterations = 0
    bad = 0
    for idx, (H, t_max) in enumerate(cases):
        rng = make_rng(100 + idx)
        for k in range(250):
            t = int(rng.integers(0, t_max + 1))
            e = sample_error(H.n, t, rng)
            s = syndrome(H, e)

            def hook(state):
                nonlocal iterations, bad
                iterations += 1
                if not np.array_equal(
                    state.counters, recompute_counters(state.H, state.syndrome)
                ):
                    bad += 1

            bfmax_decode_sparse(H, s, t_max, make_rng(k), on_iteration=hook)
            decodes += 1
    ok = bad == 0 and decodes == 1000 and iterations > 0
    report(
        "incremental counter correctness", ok,
        f"{decodes} decodes, {iterations} iterations, {bad} divergences",
    )
    assert ok


def test_constant_work_per_iteration():
    """Regular codes: every single-flip iteration costs exactly n comparisons
    and v*w counter touches, for any error pattern. Zero tolerance."""
    cases = [
        generate_qc(QcSeedSpec(53, 4, 7)),
        random_regular_code(24, 12, 3, 6, make_rng(8)),
    ]
    decodes = violations = checked_iterations = 0
    for H in cases:
        n, v, w = H.n, H.v, H.w_max
        rng = make_rng(hash((n, v)) % 2**32)
        for k in range(500):
            t = int(rng.integers(1, 9))
            e = sample_error(n, t, rng)
            snapshots: list[OpCounts] = []
            bfmax_decode_sparse(
                H, syndrome(H, e), 8, make_rng(k),
                on_iteration=lambda st: snapshots.append(st.ops),
            )
            prev = OpCounts(counter_init_adds=n * v)
            for snap in snapshots:
                if (
                    snap.argmax_comparisons - prev.argmax_comparisons != n
                    or snap.counter_update_touches - prev.counter_update_touches != v * w
                ):
                    violations += 1
                prev = snap
                checked_iterations += 1
            decodes += 1
    ok = violations == 0 and decodes == 1000
    report(
        "constant work per iteration", ok,
        f"{checked_iterations} iterations across {decodes} decodes, {violations} violations",
    )
    assert ok


def test_operation_count_prediction():
    """Mean measured weighted operation count at (n=4006, v=13, t=18,
    iter_max=18) within 10% of the closed-form cost."""
    H = generate_qc(QcSeedSpec(2003, 13, 77))
    predicted = predicted_op_count(H, 18)
    total = 0.0
    runs = 300
    for k in range(runs):
        e = sample_error(H.n, 18, make_rng(40_000 + k))
        out = bfmax_decode_sparse(H, syndrome(H, e), 18, make_rng(41_000 + k))
        total += out.op_counts.weighted_total(H.v, out.iterations_used)
    measured = total / runs
    ratio = measured / predicted
    ok = abs(ratio - 1.0) < 0.10
    report(
        "operation count prediction", ok,
        f"measured={measured:,.0f} predicted={predicted:,.0f} ratio={ratio:.4f}",
    )
    assert ok


def test_counter_distribution_closed_forms():
    """rho1(u=1)=1 and rho0(u=0)=0 exactly; (n=6,w=3,u=2) equals 3/5 against
    the enumeration oracle; pmfs match 2^v Bernoulli enumeration to 1e-12."""
    ok = True
    r1, _ = rho(40, 9, 1, exact=True)
    ok &= r1 == 1
    _, r0 = rho(40, 9, 0, exact=True)
    ok &= r0 == 0
    r1e, r0e = rho(6, 3, 2, exact=True)
    o1, o0 = enumerate_rho(6, 3, 2)
    ok &= r1e == o1 == Fraction(3, 5) and r0e == o0 == Fraction(3, 5)
    worst = 0.0
    for v in range(1, 9):
        for p in (Fraction(1, 7), Fraction(3, 10), Fraction(9, 11)):
            oracle = np.array([float(x) for x in enumerate_binom_pmf(v, p)])
            dist = counter_pmfs(v, float(p), float(p))
            g1, g0 = np.exp(dist.log_g1), np.exp(dist.log_g0)
            worst = max(worst, np.abs(g1 - oracle).max(), np.abs(g0 - oracle).max())
    ok &= worst < 1e-12
    report(
        "counter distribution closed forms", ok,
        f"rho pinned exactly; max pmf deviation {worst:.2e}",
    )
    assert ok


def test_numerical_stability_cross_check():
    """Fast log-domain prediction vs the arbitrary-precision oracle to 3
    significant digits for DFR in [1e-30, 1] at r <= 600; deep-tail log2
    values near -128 finite and monotone in r."""
    cases = [
        (600, 13, 4), (600, 13, 12), (600, 13, 25), (400, 11, 8),
        (250, 9, 10), (600, 17, 6), (600, 21, 2), (600, 23, 1),
    ]
    worst_rel = 0.0
    smallest = 1.0
    for r, v, t in cases:
        fast = predict_dfr(2 * r, r, v, 2 * v, t)
        oracle = predict_dfr(2 * r, r, v, 2 * v, t, mode="exact", dps=60)
        rel = abs(fast.dfr_linear - oracle.dfr_linear) / oracle.dfr_linear
        worst_rel = max(worst_rel, rel)
        smallest = min(smallest, oracle.dfr_linear)
    range_ok = worst_rel < 5e-4 and smallest < 1e-29

    log2s = [
        predict_dfr(2 * r, r, 71, 142, 134).log2_dfr
        for r in (40000, 43000, 46000, 49000, 52000)
    ]
    tail_ok = (
        all(math.isfinite(x) for x in log2s)
        and all(b < a for a, b in zip(log2s, log2s[1:]))
        and log2s[0] > -128 > log2s[-1]
    )
    ok = range_ok and tail_ok
    report(
        "numerical stability cross-check", ok,
        f"worst rel dev {worst_rel:.1e} down to DFR {smallest:.1e}; "
        f"log2 tail {log2s[0]:.1f}..{log2s[-1]:.1f} monotone={tail_ok}",
    )
    assert ok


def test_determinism_across_worker_counts():
    """SimReport is bit-identical for worker_count in {1, 4, 8}."""
    reports = []
    for workers in (1, 4, 8):
        plan = SimPlan(
            source=FreshQcSource(13, 3),
            t=3,
            max_trials=1500,
            target_failures=50,
            master_seed=4242,
            worker_count=workers,
            chunk_size=64,
        )
        reports.append(run_sim(plan).deterministic_fields())
    ok = reports[0] == reports[1] == reports[2]
    report(
        "determinism across worker counts", ok,
        f"trials={reports[0]['trials_run']} failures={reports[0]['failures']}",
    )
    assert ok
