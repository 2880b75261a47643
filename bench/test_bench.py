"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

TINY = {
    "validate-fresh": run.SimWorkload("validate-fresh", 1, r=37, v=3, t=4, block=8, fresh=True),
    "validate-fixed": run.SimWorkload("validate-fixed", 2, r=37, v=3, t=4, block=8, fresh=False),
    "predict-sweep": run.PredictWorkload("predict-sweep", 3, r=101, v=5, t_min=3, t_max=6),
    "compare-small": run.CompareWorkload("compare-small", 4, r=37, v=3, t=4, block=8, opcount_trials=8),
}


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workload_names_and_metric_units_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    wl = run.WORKLOADS[name]
    if isinstance(wl, run.PredictWorkload):
        picks = {wl.cross_check_t(seed) for seed in range(50)}
        assert picks == {wl.cross_check_t(seed) for seed in range(50)}
        assert len(picks) > 1 and all(wl.t_min <= t <= wl.t_max for t in picks)
        return
    assert [wl.op_seed(7, k) for k in range(5)] == [wl.op_seed(7, k) for k in range(5)]
    assert len({wl.op_seed(7, k) for k in range(5)}) == 5
    assert wl.op_seed(7, 0) != wl.op_seed(8, 0)


def test_same_seed_gives_the_same_operation_outputs():
    wl = TINY["validate-fixed"]
    first = [wl.op(wl.prepare(3), k)[1].deterministic_fields() for k in range(2)]
    again = [wl.op(wl.prepare(3), k)[1].deterministic_fields() for k in range(2)]
    other = wl.op(wl.prepare(4), 0)[1].deterministic_fields()
    assert first == again
    assert first[0]["source_desc"] != other["source_desc"]


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run_prints_every_metric_name(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "WORKERS", 0)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    key = "per_layer" if trace else "end_to_end"
    names = {m["name"] for m in _benchmark_json()[key]}
    for name in TINY:
        argv = ["--workload", name, "--seed", "5", "--seconds", "0.05", "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == names
        if trace and name != "predict-sweep":
            layer = {k: v["value"] for k, v in result["metrics"].items()}
            assert layer["decoders.argmax_comparisons_per_iter"] == 2 * 37
            assert layer["decoders.counter_update_touches_per_iter"] == 3 * 6
            assert layer["decoders.syndrome_bit_updates_per_iter"] == 3
        assert (tmp_path / f"{name}-seed5-trace{trace}.json").is_file()


def test_wrong_expected_output_raises_failed_share(tmp_path):
    wrong_csv = tmp_path / "wrong.csv"
    wrong_csv.write_text("n,r,v,w,t\n", encoding="utf-8")
    predict = replace(TINY["predict-sweep"], expected=wrong_csv)
    result, _, _ = run.run_workload(predict, 5, 0.05, trace=False, workers=0)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1

    wrong_fields = tmp_path / "wrong.json"
    wrong_fields.write_text(json.dumps({"failures": -1}), encoding="utf-8")
    sim = replace(TINY["validate-fresh"], expected=wrong_fields)
    result, _, _ = run.run_workload(sim, run.DEFAULT_SEED, 0.05, trace=False, workers=0)
    assert not result["correct"] and result["failed"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "validate-fresh", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_measuring_processes_share_the_work_and_time_their_setup():
    sample = run.measure_in_workers(run.WORKLOADS["compare-small"], 0, 0.05, 2)
    assert len(sample.setup_s) == 2 and all(0.0 < s < 60.0 for s in sample.setup_s)
    assert len(sample.rss_mb) == 2
    assert sample.oks and all(sample.oks) and len(sample.op_seconds) == len(sample.oks)
