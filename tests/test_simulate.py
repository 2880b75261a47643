from dataclasses import replace

import numpy as np
import pytest

from bfkit.codes import QcSeedSpec, generate_qc
from bfkit.decoders import bfmax_decode_sparse
from bfkit.simulate import (
    FileCodeSource,
    FixedCodeSource,
    FreshQcSource,
    QcCodeSource,
    SimPlan,
    clopper_pearson,
    differential_campaign,
    opcount_validation,
    run_sim,
)

from helpers import faulty_sparse_group, toy_code_from_columns


def toy_plan(**overrides):
    defaults = dict(
        source=QcCodeSource(13, 3, 7),
        t=2,
        decoder="bfmax-sparse",
        max_trials=400,
        master_seed=1,
    )
    defaults.update(overrides)
    return SimPlan(**defaults)


# -- basic behavior -----------------------------------------------------------


def test_zero_weight_never_fails():
    report = run_sim(toy_plan(t=0, max_trials=200))
    assert report.failures == 0 and report.trials_run == 200
    assert report.dfr_point == 0.0 and report.ci_low == 0.0


def test_report_carries_profile_and_lineage():
    report = run_sim(toy_plan(max_trials=50))
    assert (report.n, report.r, report.v) == (26, 13, 3)
    assert report.seed_scheme == "splitmix64-v1"
    assert report.master_seed == 1
    assert report.iter_max == 2
    assert report.ci_low <= report.dfr_point <= report.ci_high
    assert report.wall_seconds >= 0


def test_failure_means_not_exact_recovery():
    # duplicate columns make miscorrections likely: decoder zeroes the
    # syndrome by flipping the twin column
    H = toy_code_from_columns([[0, 1], [0, 1], [0, 2], [1, 2]], 3)
    report = run_sim(
        SimPlan(source=FixedCodeSource(H), t=1, max_trials=400, master_seed=3)
    )
    assert report.miscorrections > 0
    assert report.failures >= report.miscorrections


# Sums over 300 trials of the iterations and the four op counts, recorded
# from a kernel that tallied ragged counter touches per iteration: n*v=8
# adds per counter computation, n=4 comparisons per iteration, v=2 syndrome
# toggles per flip, and 6 touches for a flip of column 0 or 1 (rows of 3
# and 3) but 5 for column 2 or 3.
RAGGED_TOTALS = {
    "bfmax-sparse": (247, (8 * 300, 4 * 247, 2 * 247, 1289)),
    "bfmax-naive": (247, (8 * 247, 4 * 247, 2 * 247, 0)),
    "bf": (355, (8 * 355, 4 * 355, 1250, 0)),
}


@pytest.mark.parametrize("decoder", list(RAGGED_TOTALS))
def test_ragged_code_report_is_pinned(decoder):
    # rows of 3, 3 and 2 checks, with more iterations than errors
    H = toy_code_from_columns([[0, 1], [0, 1], [0, 2], [1, 2]], 3)
    thresholds = (2, 2, 1, 2) if decoder == "bf" else None
    reports = [
        run_sim(SimPlan(
            source=FixedCodeSource(H), t=2, decoder=decoder, iter_max=4, thresholds=thresholds,
            max_trials=300, master_seed=3, chunk_size=chunk,
        )).deterministic_fields()
        for chunk in (1, 7, 512)
    ]
    iterations, ops = RAGGED_TOTALS[decoder]
    ci_low, ci_high = clopper_pearson(300, 300)
    assert reports[0] == {
        "n": 4, "r": 3, "v": 2, "w_avg": 8 / 3, "t": 2, "decoder": decoder, "iter_max": 4,
        "trials_run": 300, "failures": 300, "miscorrections": 300,
        "dfr_point": 1.0, "ci_low": ci_low, "ci_high": ci_high,
        "mean_iterations": iterations / 300,
        "mean_op_counts": dict(zip(
            ("counter_init_adds", "argmax_comparisons", "syndrome_bit_updates",
             "counter_update_touches"),
            (total / 300 for total in ops),
        )),
        "master_seed": 3, "seed_scheme": "splitmix64-v1", "source_desc": "fixed(n=4,r=3,v=2)",
    }
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_early_stop_at_target_failures():
    stopped = run_sim(toy_plan(t=3, max_trials=3000, target_failures=5, chunk_size=64))
    assert stopped.failures == 5
    assert stopped.trials_run < 3000
    # the stop trial is the exact index where the 5th failure occurred
    full = run_sim(toy_plan(t=3, max_trials=stopped.trials_run, chunk_size=64))
    assert full.failures == 5
    probe = run_sim(toy_plan(t=3, max_trials=stopped.trials_run - 1, chunk_size=64))
    assert probe.failures == 4


@pytest.mark.parametrize("decoder, r, t, thresholds", [
    ("bfmax-sparse", 13, 4, None),
    ("bf", 37, 3, (2, 3) * 3),
])
def test_early_stopped_report_equals_report_of_its_trials(decoder, r, t, thresholds):
    # every total, not only the failures, stops at the trial that meets the
    # target; the miscorrections, iterations and ops of the rest of its chunk
    # are left out
    for chunk_size in (1, 7, 64):
        for workers in (1, 2):
            plan = SimPlan(
                QcCodeSource(r, 3, 7), t=t, decoder=decoder, iter_max=6, thresholds=thresholds,
                max_trials=3000, target_failures=10, master_seed=1,
                chunk_size=chunk_size, worker_count=workers,
            )
            stopped = run_sim(plan)
            assert stopped.failures == 10 and stopped.miscorrections > 0
            if chunk_size > 1:
                assert stopped.trials_run % chunk_size  # the stop lies inside a chunk
            exact = run_sim(replace(plan, max_trials=stopped.trials_run, target_failures=10**9))
            assert stopped.deterministic_fields() == exact.deterministic_fields()


@pytest.mark.parametrize("workers", [1, 2])
def test_huge_max_trials_stops_at_first_failure(workers):
    # chunk spans are made as consumed; 10**18 of them up front would not fit
    report = run_sim(
        toy_plan(t=3, max_trials=10**18, target_failures=1, chunk_size=64, worker_count=workers)
    )
    assert report.failures == 1
    first = report.trials_run
    assert run_sim(toy_plan(t=3, max_trials=first, chunk_size=64)).failures == 1
    if first > 1:
        assert run_sim(toy_plan(t=3, max_trials=first - 1, chunk_size=64)).failures == 0


def test_worker_count_does_not_change_report():
    kwargs = dict(t=3, max_trials=600, target_failures=30, chunk_size=64)
    seq = run_sim(toy_plan(**kwargs, worker_count=1))
    par = run_sim(toy_plan(**kwargs, worker_count=2))
    assert seq.deterministic_fields() == par.deterministic_fields()


def test_fresh_keys_are_schedule_invariant():
    kwargs = dict(
        source=FreshQcSource(13, 3), t=3, max_trials=400, chunk_size=32, master_seed=9
    )
    seq = run_sim(SimPlan(**kwargs, worker_count=1))
    par = run_sim(SimPlan(**kwargs, worker_count=2))
    assert seq.deterministic_fields() == par.deterministic_fields()


def test_rerun_is_bit_identical():
    a = run_sim(toy_plan(max_trials=300))
    b = run_sim(toy_plan(max_trials=300))
    assert a.deterministic_fields() == b.deterministic_fields()


def test_master_seed_changes_outcome():
    a = run_sim(toy_plan(t=3, max_trials=300, master_seed=1))
    b = run_sim(toy_plan(t=3, max_trials=300, master_seed=2))
    assert a.failures != b.failures or a.mean_iterations != b.mean_iterations


def test_bf_decoder_plan():
    report = run_sim(
        toy_plan(decoder="bf", thresholds=(3, 2, 2), iter_max=3, max_trials=200)
    )
    assert report.trials_run == 200
    assert report.decoder == "bf"


def test_low_threshold_warning_names_the_caller():
    # run_sim warns once, at the line that called it; the differential
    # campaign compares the single-flip decoders and refuses a bf plan
    plan = toy_plan(decoder="bf", thresholds=(1, 1), max_trials=300)
    with pytest.warns(UserWarning, match="ceil") as record:
        run_sim(plan)
    assert [w.filename for w in record] == [__file__]
    with pytest.raises(ValueError, match="single-flip"):
        differential_campaign(plan)


def test_file_source(tmp_path):
    from bfkit.codes import save_code

    H = generate_qc(QcSeedSpec(13, 3, 7))
    path = tmp_path / "toy.code"
    save_code(H, path)
    report = run_sim(SimPlan(source=FileCodeSource(str(path)), t=2, max_trials=100))
    assert report.n == 26 and report.trials_run == 100


def test_source_descriptions(tmp_path):
    # these strings land in SimReport.source_desc and in manifests
    H = toy_code_from_columns([[0, 1], [0, 1], [0, 2], [1, 2]], 3)
    assert FixedCodeSource(H).describe() == "fixed(n=4,r=3,v=2)"
    path = str(tmp_path / "toy.code")
    assert FileCodeSource(path).describe() == f"file({path})"
    assert QcCodeSource(2003, 13, 5).describe() == "qc(r=2003,v=13,seed=5)"
    assert FreshQcSource(13, 3).describe() == "fresh-qc(r=13,v=3)"


def test_fresh_sources_of_one_shape_share_the_profile_key():
    profile = FreshQcSource(13, 3).profile()
    assert FreshQcSource(13, 3).profile() is profile
    assert profile == generate_qc(QcSeedSpec(13, 3, 0))


def test_plan_validation():
    with pytest.raises(ValueError):
        toy_plan(decoder="belief-propagation")
    with pytest.raises(ValueError):
        toy_plan(max_trials=0)
    with pytest.raises(ValueError):
        toy_plan(target_failures=0)
    with pytest.raises(ValueError):
        toy_plan(t=-1)
    with pytest.raises(ValueError):
        toy_plan(decoder="bf")  # thresholds missing
    for decoder in ("bfmax-naive", "bfmax-sparse"):
        with pytest.raises(ValueError, match=f"^{decoder} decoder takes no thresholds$"):
            toy_plan(decoder=decoder, thresholds=(2, 2))
    with pytest.raises(ValueError):
        run_sim(toy_plan(t=100))  # exceeds code length


# -- confidence intervals -------------------------------------------------------


def test_clopper_pearson_closed_forms():
    n = 40
    lo, hi = clopper_pearson(0, n)
    assert lo == 0.0
    assert hi == pytest.approx(1 - 0.025 ** (1 / n), rel=1e-12)
    lo, hi = clopper_pearson(n, n)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1 / n), rel=1e-12)


def test_clopper_pearson_brackets_point():
    for k, n in [(1, 10), (5, 100), (100, 10_000), (3, 3)]:
        lo, hi = clopper_pearson(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_clopper_pearson_equals_beta_quantiles():
    # the interval is the textbook pair of beta quantiles, bit for bit
    from scipy.stats import beta

    for k, n in [(1, 10), (5, 100), (100, 10_000), (3, 3), (0, 7), (339, 30_000), (100, 20_205)]:
        lo = 0.0 if k == 0 else float(beta.ppf(0.025, k, n - k + 1))
        hi = 1.0 if k == n else float(beta.ppf(0.975, k + 1, n - k))
        assert clopper_pearson(k, n) == (lo, hi)


def test_clopper_pearson_validation():
    with pytest.raises(ValueError):
        clopper_pearson(1, 0)
    with pytest.raises(ValueError):
        clopper_pearson(5, 4)


# -- differential campaign -------------------------------------------------------


def test_differential_campaign_clean_on_toy():
    report = differential_campaign(toy_plan(t=3, max_trials=2000))
    assert report.clean and report.trials_run == 2000


def test_differential_campaign_clean_with_workers_and_fresh_keys():
    plan = SimPlan(
        source=FreshQcSource(13, 3), t=3, max_trials=600,
        worker_count=2, chunk_size=64, master_seed=5,
    )
    report = differential_campaign(plan)
    assert report.clean


def test_differential_campaign_zero_syndrome_degenerate_case():
    # weight-0 trials: both decoders exit before any flip
    report = differential_campaign(toy_plan(t=0, max_trials=100))
    assert report.clean


def test_differential_campaign_spot_check_at_large_scale():
    plan = SimPlan(
        source=QcCodeSource(2003, 13, 31), t=18, max_trials=1000,
        master_seed=77, worker_count=2, chunk_size=128,
    )
    report = differential_campaign(plan)
    assert report.clean and report.trials_run == 1000


def test_differential_campaign_detects_injected_fault(monkeypatch):
    monkeypatch.setattr("bfkit.decoders._bfmax_group", faulty_sparse_group)
    report = differential_campaign(toy_plan(t=3, max_trials=400))
    assert not report.clean
    miss = report.mismatches[0]
    assert miss.naive_flips != miss.sparse_flips or miss.naive_success != miss.sparse_success


# -- operation counts -------------------------------------------------------------


def test_opcount_validation_exact_per_iteration_terms():
    plan = toy_plan(t=3, max_trials=300)
    result = opcount_validation(plan)
    H = generate_qc(QcSeedSpec(13, 3, 7))
    touches = result.row("counter_update_touches_per_iteration")
    assert touches.measured == touches.predicted == H.v * H.w_max
    comparisons = result.row("argmax_comparisons_per_iteration")
    assert comparisons.measured == comparisons.predicted == H.n
    weighted = result.row("weighted_total")
    assert weighted.predicted > 0


def test_opcount_validation_weighted_total_tracks_prediction():
    plan = SimPlan(
        source=QcCodeSource(149, 5, 9), t=8, max_trials=300, master_seed=2
    )
    result = opcount_validation(plan)
    assert abs(result.row("weighted_total").ratio - 1.0) < 0.10


def test_opcount_validation_requires_sparse_decoder():
    with pytest.raises(ValueError):
        opcount_validation(toy_plan(decoder="bfmax-naive"))
