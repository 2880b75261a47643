import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfkit
from bfkit import simulate
from bfkit.cli import SIM_CSV_COLUMNS, _read_syndrome_file, main
from bfkit.codes import generate_qc, generate_qc_group, load_code

from helpers import faulty_sparse_group


def run_cli(*argv):
    return main([str(a) for a in argv])


# Chunk runners whose worker dies on every chunk but the first. They are
# module-level so a pool can pickle them; a forked worker finds them here.
_RUN_CHUNK, _RUN_DIFF_CHUNK = simulate._run_chunk, simulate._run_diff_chunk


def _run_chunk_or_die(plan, lo, hi):
    if lo > 0:
        os._exit(1)
    return _RUN_CHUNK(plan, lo, hi)


def _run_diff_chunk_or_die(plan, lo, hi):
    if lo > 0:
        os._exit(1)
    return _RUN_DIFF_CHUNK(plan, lo, hi)


_needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched chunk runner reaches workers only when they are forked",
)


# -- gen ------------------------------------------------------------------------


def test_gen_large_code_header(tmp_path, capsys):
    out = tmp_path / "qc2003.code"
    assert run_cli("gen", "--r", 2003, "--v", 13, "--seed", 1, "--out", out) == 0
    assert out.read_text().splitlines()[0] == "4006 2003 13"
    assert capsys.readouterr().out.strip() == "n=4006 r=2003 v=13 w=26"
    manifest = json.loads((tmp_path / "qc2003.code.manifest.json").read_text())
    assert manifest["subcommand"] == "gen" and manifest["parameters"]["r"] == 2003


def test_gen_weight_one_shifted_identity(tmp_path):
    out = tmp_path / "tiny.code"
    assert run_cli("gen", "--r", 5, "--v", 1, "--seed", 0, "--out", out) == 0
    H = load_code(out)
    assert (H.row_weights == 2).all()


def test_gen_round_trips_identically(tmp_path):
    from bfkit.codes import save_code

    for extra in ([], ["--qc-compact"]):
        out = tmp_path / f"code{len(extra)}"
        assert run_cli("gen", "--r", 31, "--v", 4, "--seed", 9, "--out", out, *extra) == 0
        reloaded = load_code(out)
        again = tmp_path / f"again{len(extra)}"
        save_code(reloaded, again, qc_compact=bool(extra))
        assert out.read_bytes() == again.read_bytes()


def test_gen_rejects_bad_parameters(tmp_path, capsys):
    assert run_cli("gen", "--r", 5, "--v", 9, "--seed", 0, "--out", tmp_path / "x") == 1
    assert "error" in capsys.readouterr().err


# -- predict ---------------------------------------------------------------------


def test_predict_output_is_pinned(capsys):
    # rows t=30..34 of the committed r=2003, v=13 reference sweep, to the
    # printed digit
    expected = (
        "n,r,v,w,t,q_max,dfr,log2_dfr,mode,format_version\n"
        "4006,2003,13,26,30,4.25514480827e-07,1.15349209248e-06,-19.7255604554,fast,1\n"
        "4006,2003,13,26,31,6.48902257665e-07,1.80239360164e-06,-19.0816544721,fast,1\n"
        "4006,2003,13,26,32,9.76582451367e-07,2.77897429283e-06,-18.4570160805,fast,1\n"
        "4006,2003,13,26,33,1.45113186043e-06,4.2301021206e-06,-17.8508760769,fast,1\n"
        "4006,2003,13,26,34,2.12990481679e-06,6.35999792767e-06,-17.2625422739,fast,1\n"
    )
    assert run_cli("predict", "--r", 2003, "--v", 13, "--t-min", 30, "--t-max", 34) == 0
    assert capsys.readouterr().out == expected


def test_predict_full_reference_sweep(capsys):
    # the committed benchmark reference: all 31 rows, byte for byte
    expected = Path(__file__).resolve().parents[1] / "bench" / "expected" / "predict-sweep.csv"
    assert run_cli("predict", "--r", 2003, "--v", 13, "--t-min", 30, "--t-max", 60) == 0
    assert capsys.readouterr().out == expected.read_text(encoding="utf-8")


def test_predict_json_and_exact_are_pinned(capsys):
    assert run_cli("predict", "--r", 13, "--v", 3, "--t-min", 0, "--t-max", 3, "--json") == 0
    assert capsys.readouterr().out == (
        '{"dfr": 0.0, "format_version": "1", "log2_dfr": -Infinity, "n": 26, "q": [], '
        '"r": 13, "t": 0, "v": 3, "w": 6}\n'
        '{"dfr": 0.18192748112836207, "format_version": "1", "log2_dfr": -2.4585646085608714, '
        '"n": 26, "q": [0.18192748112836207], "r": 13, "t": 1, "v": 3, "w": 6}\n'
        '{"dfr": 0.7479229073558663, "format_version": "1", "log2_dfr": -0.4190385238483562, '
        '"n": 26, "q": [0.18192748112836207, 0.6918646124529131], "r": 13, "t": 2, "v": 3, "w": 6}\n'
        '{"dfr": 0.9710677534859468, "format_version": "1", "log2_dfr": -0.04235613579483275, '
        '"n": 26, "q": [0.18192748112836207, 0.6918646124529131, 0.8852246104135376], '
        '"r": 13, "t": 3, "v": 3, "w": 6}\n'
    )
    assert run_cli("predict", "--r", 250, "--v", 9, "--t-min", 5, "--t-max", 8, "--exact") == 0
    assert capsys.readouterr().out == (
        "n,r,v,w,t,q_max,dfr,log2_dfr,mode,format_version\n"
        "500,250,9,18,5,0.000235040759685,0.000282859393149,-11.787627299,exact,1\n"
        "500,250,9,18,6,0.000941697337685,0.0012242903629,-9.67383852448,exact,1\n"
        "500,250,9,18,7,0.00298108128741,0.00420172194121,-7.89480359321,exact,1\n"
        "500,250,9,18,8,0.00784118504881,0.0120099605108,-6.37962478236,exact,1\n"
    )


def test_predict_weight_beyond_length_exits_one(capsys):
    assert run_cli("predict", "--r", 13, "--v", 3, "--t-min", 25, "--t-max", 27) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "predict: error: error weight 27 out of range for length 26\n"


@pytest.mark.parametrize("dps", ["0", "-3"])
def test_predict_exact_rejects_nonpositive_dps(dps, capsys):
    argv = ["predict", "--r", "13", "--v", "3", "--t-min", "1", "--t-max", "3", "--exact", "--dps", dps]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"predict: error: dps must be at least 1, got {dps}\n"


def run_python_m_bfkit(*argv):
    """``python -m bfkit`` in a child process, so its stderr holds what a
    user would see, warnings included."""
    src = str(Path(bfkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    return subprocess.run(
        [sys.executable, "-m", "bfkit", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_python_m_bfkit_runs_the_cli():
    proc = run_python_m_bfkit("predict", "--r", 13, "--v", 3, "--t-min", 0, "--t-max", 2)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "n,r,v,w,t,q_max,dfr,log2_dfr,mode,format_version"
    assert len(proc.stdout.splitlines()) == 4


def test_predict_zero_weight_row(capsys):
    assert run_cli("predict", "--r", 13, "--v", 3, "--t-min", 0, "--t-max", 0) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.startswith("n,r,v,w,t,")
    fields = row.split(",")
    assert fields[4] == "0" and float(fields[6]) == 0.0


def test_predict_sweep_curve_shapes(capsys):
    # monotone in t for each v; ordered across v in the low-t band (the
    # curves genuinely cross once t grows, denser rows collect more errors)
    curves = {}
    for v in (9, 11, 13, 15, 17):
        assert run_cli("predict", "--r", 2003, "--v", v, "--t-min", 20, "--t-max", 40) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        curves[v] = [float(r.split(",")[6]) for r in rows]
    for v, dfrs in curves.items():
        assert all(b >= a for a, b in zip(dfrs, dfrs[1:])), f"not monotone for v={v}"
    ordered_band = slice(0, 11)  # t = 20..30
    for lo, hi in zip((9, 11, 13, 15), (11, 13, 15, 17)):
        assert all(
            h <= l for l, h in zip(curves[lo][ordered_band], curves[hi][ordered_band])
        )


def test_predict_exact_agrees_to_three_digits(capsys):
    assert run_cli("predict", "--r", 250, "--v", 9, "--t-min", 6, "--t-max", 10) == 0
    fast = [float(r.split(",")[6]) for r in capsys.readouterr().out.strip().splitlines()[1:]]
    assert run_cli("predict", "--r", 250, "--v", 9, "--t-min", 6, "--t-max", 10, "--exact") == 0
    exact = [float(r.split(",")[6]) for r in capsys.readouterr().out.strip().splitlines()[1:]]
    for a, b in zip(fast, exact):
        assert a == pytest.approx(b, rel=5e-4)


def test_predict_rejects_irregular_profile(capsys):
    assert run_cli("predict", "--r", 2003, "--v", 13, "--w", 25, "--t-min", 1, "--t-max", 2) == 1
    assert "regular" in capsys.readouterr().err


def test_predict_json_payload(capsys):
    assert run_cli("predict", "--r", 26, "--v", 3, "--t-min", 2, "--t-max", 2, "--json") == 0
    obj = json.loads(capsys.readouterr().out.strip())
    assert obj["t"] == 2 and len(obj["q"]) == 2 and "log2_dfr" in obj


# -- simulate --------------------------------------------------------------------


def test_simulate_zero_weight(tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli(
        "simulate", "--r", 13, "--v", 3, "--t", 0,
        "--max-trials", 100, "--seed", 4, "--out", out,
    )
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    assert header == SIM_CSV_COLUMNS
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["failures"] == "0" and fields["trials"] == "100"
    assert (tmp_path / "sim.csv.manifest.json").exists()


def test_simulate_workers_produce_identical_csv(tmp_path):
    rows = []
    for k, workers in enumerate((1, 2)):
        out = tmp_path / f"sim{k}.csv"
        code = run_cli(
            "simulate", "--r", 13, "--v", 3, "--t", 3,
            "--max-trials", 600, "--target-failures", 40,
            "--workers", workers, "--chunk-size", 64, "--seed", 11, "--out", out,
        )
        assert code == 0
        rows.append(out.read_text())
    assert rows[0] == rows[1]


def test_simulate_appends_theory_column_for_regular_bfmax(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli(
        "simulate", "--r", 13, "--v", 3, "--t", 2,
        "--max-trials", 200, "--seed", 2, "--out", out,
    ) == 0
    fields = dict(zip(SIM_CSV_COLUMNS.split(","), out.read_text().strip().splitlines()[1].split(",")))
    assert float(fields["dfr_theory"]) > 0
    assert float(fields["log2_dfr_theory"]) < 0


def test_simulate_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(
        "simulate", "--r", 13, "--v", 3, "--t", 3,
        "--max-trials", 200, "--seed", 5, "--out", "sim.csv",
    ) == 0
    assert (tmp_path / "sim.csv").read_bytes().decode() == (
        SIM_CSV_COLUMNS + "\n"
        "26,13,3,6,3,bfmax-sparse,3,200,187,13,0.935,0.891412763496,0.964939291343,"
        "0.971067753486,-0.0423561357948,5,1\n"
    )
    assert (tmp_path / "sim.csv.manifest.json").read_bytes().decode() == (
        '{\n'
        '  "format_version": "1",\n'
        '  "outputs": [\n'
        '    "sim.csv"\n'
        '  ],\n'
        '  "parameters": {\n'
        '    "chunk_size": 512,\n'
        '    "decoder": "bfmax-sparse",\n'
        '    "iter_max": 3,\n'
        '    "max_trials": 200,\n'
        '    "seed": 5,\n'
        '    "source": "fresh-qc(r=13,v=3)",\n'
        '    "t": 3,\n'
        '    "target_failures": 1000000000,\n'
        '    "thresholds": null,\n'
        '    "workers": 1\n'
        '  },\n'
        '  "subcommand": "simulate",\n'
        '  "tool": "bfkit",\n'
        '  "tool_version": "0.1.0"\n'
        '}\n'
    )


def test_simulate_single_threshold_serves_every_iteration(capsys):
    outputs = []
    for thresholds in ("2", "2,2"):
        assert run_cli(
            "simulate", "--r", 13, "--v", 3, "--t", 2, "--decoder", "bf",
            "--thresholds", thresholds, "--max-trials", 100, "--seed", 1,
        ) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_simulate_usage_error(tmp_path, capsys):
    assert run_cli("simulate", "--t", 2) == 1
    assert "provide --code" in capsys.readouterr().err
    assert run_cli("simulate", "--code", tmp_path / "missing.code", "--t", 2) == 1
    assert "missing.code" in capsys.readouterr().err
    bad = tmp_path / "bad.code"
    bad.write_text("2 3 2\n0 1\n0 a\n")
    assert run_cli("simulate", "--code", bad, "--t", 1) == 1
    assert "line 3" in capsys.readouterr().err
    out = tmp_path / "sim.csv"
    assert run_cli("simulate", "--r", 13, "--v", 3, "--t", 40, "--out", out) == 1
    assert "t=40 exceeds code length 26" in capsys.readouterr().err
    assert not out.exists()  # a rejected plan creates no output file


def test_simulate_code_refuses_shape_flags(tmp_path, capsys):
    code = tmp_path / "c13.code"
    assert run_cli("gen", "--r", 13, "--v", 3, "--seed", 7, "--out", code) == 0
    out = tmp_path / "sim.csv"
    for flags in (("--code-seed", 4, "--r", 99, "--v", 5), ("--r", 13), ("--v", 3), ("--code-seed", 4)):
        assert run_cli("simulate", "--code", code, *flags, "--t", 2, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err == "simulate: error: give --code or --r/--v, not both\n"
        assert not out.exists()


@pytest.mark.parametrize("raw", ["abc", "0", "-4"])
def test_malformed_worker_env_fails_only_pool_commands(raw, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("BFKIT_WORKERS", raw)
    for argv in (
        ("simulate", "--r", 13, "--v", 3, "--t", 2, "--max-trials", 10),
        ("compare", "--trials", 10, "--opcount-trials", 10),
    ):
        assert run_cli(*argv) == 1
        assert "BFKIT_WORKERS" in capsys.readouterr().err
    out = tmp_path / "toy.code"
    assert run_cli("gen", "--r", 13, "--v", 3, "--seed", 7, "--out", out) == 0
    assert run_cli("predict", "--r", 13, "--v", 3, "--t-min", 1, "--t-max", 1) == 0
    assert run_cli(
        "decode", "--code", out, "--error-support", "1", "--iter-max", 1,
    ) == 0


# -- decode ----------------------------------------------------------------------


@pytest.fixture()
def toy_file(tmp_path):
    out = tmp_path / "toy.code"
    assert run_cli("gen", "--r", 13, "--v", 3, "--seed", 7, "--out", out) == 0
    return out


def test_decode_empty_support(toy_file, capsys):
    assert run_cli(
        "decode", "--code", toy_file, "--error-support", "",
        "--decoder", "bfmax-sparse", "--iter-max", 3, "--seed", 0,
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["result"] == "success" and obj["flip_log"] == []
    assert obj["recovered_equals_input"] is True


def test_decode_single_error_flips_it(toy_file, capsys):
    assert run_cli(
        "decode", "--code", toy_file, "--error-support", "9",
        "--decoder", "bfmax-sparse", "--iter-max", 1, "--seed", 0,
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["result"] == "success" and obj["flip_log"] == [9]
    assert obj["error_support"] == [9]


def test_decode_overloaded_reports_failure(toy_file, capsys):
    assert run_cli(
        "decode", "--code", toy_file,
        "--error-support", "0,2,4,6,8,10,12,14,16,18",
        "--decoder", "bfmax-sparse", "--iter-max", 4, "--seed", 1,
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["result"] == "failure"
    assert obj["iterations_used"] == 4
    assert obj["error_support"] is None


def test_decode_syndrome_file(toy_file, tmp_path, capsys):
    syn = tmp_path / "syn.txt"
    syn.write_text("0" * 13)
    assert run_cli(
        "decode", "--code", toy_file, "--syndrome-file", syn,
        "--decoder", "bfmax-naive", "--iter-max", 2, "--seed", 0,
    ) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "success"


def test_decode_errors_exit_one(toy_file, tmp_path, capsys):
    assert run_cli(
        "decode", "--code", toy_file, "--error-support", "99",
        "--decoder", "bfmax-sparse", "--iter-max", 1,
    ) == 1
    syn = tmp_path / "short.txt"
    syn.write_text("0101")
    assert run_cli(
        "decode", "--code", toy_file, "--syndrome-file", syn,
        "--decoder", "bfmax-sparse", "--iter-max", 1,
    ) == 1
    err = capsys.readouterr().err
    assert "does not match" in err
    latin1 = tmp_path / "latin1.code"
    latin1.write_bytes(b"2 3 2\n\xff 1\n1 2\n")
    assert run_cli(
        "decode", "--code", latin1, "--error-support", "1",
        "--decoder", "bfmax-sparse", "--iter-max", 1,
    ) == 1
    assert "decode: error: line 2: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("raw, message", [
    ("1,x", "bad --error-support"),
    ("5,1,5", "--error-support repeats position 5"),
    ("99", "--error-support position 99 out of range [0, 26)"),
    ("3,-1", "--error-support position -1 out of range [0, 26)"),
])
def test_decode_error_support_errors_say_what_is_wrong(toy_file, raw, message, capsys):
    assert run_cli("decode", "--code", toy_file, "--error-support", raw, "--iter-max", 2) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"decode: error: {message}\n"


def test_decode_error_support_in_any_order(toy_file, capsys):
    printed = []
    for raw in ("1,5,20", "20,1,5", " 5 ,20,1"):
        assert run_cli("decode", "--code", toy_file, "--error-support", raw, "--iter-max", 4) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] == printed[2]
    assert json.loads(printed[0])["recovered_equals_input"] is not None


def test_decode_takes_exactly_one_input(toy_file, tmp_path, capsys):
    syn = tmp_path / "syn.txt"
    syn.write_text("0" * 13)
    for inputs in (("--error-support", "3", "--syndrome-file", syn), ()):
        assert run_cli("decode", "--code", toy_file, *inputs, "--iter-max", 2) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "decode: error: give exactly one of --error-support or --syndrome-file\n"
        )


def test_decode_syndrome_file_errors_name_the_line(toy_file, tmp_path, capsys):
    syn = tmp_path / "syn.txt"
    for data, message in (
        (b"0101\n01 2 0\n", "line 2: syndrome file must contain only 0/1 characters"),
        (b"0101\n\n01\xff0\n", "line 3: not valid UTF-8"),
    ):
        syn.write_bytes(data)
        assert run_cli(
            "decode", "--code", toy_file, "--syndrome-file", syn, "--iter-max", 1,
        ) == 1
        assert capsys.readouterr().err == f"decode: error: {message}\n"


_SYNDROME_TEXT = st.text(st.sampled_from("0000111 \t\n\r\x0b2a\u00a0\u2028"), max_size=30)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _SYNDROME_TEXT.map(lambda text: text.encode("utf-8")),
    st.tuples(_SYNDROME_TEXT, st.binary(max_size=3), _SYNDROME_TEXT).map(
        lambda parts: parts[0].encode("utf-8") + parts[1] + parts[2].encode("utf-8")
    ),
))
def test_read_syndrome_file_fuzz(tmp_path_factory, data):
    # any bytes give the syndrome they spell or a ValueError naming the line
    path = tmp_path_factory.mktemp("fuzz") / "syn.txt"
    path.write_bytes(data)
    r = 6
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        expected = f"line {lineno}: not valid UTF-8"
    else:
        bad = [k for k, line in enumerate(text.splitlines(), 1)
               if any(c not in "01" and not c.isspace() for c in line)]
        bits = [int(c) for c in text if c in "01"]
        if bad:
            expected = f"line {bad[0]}: syndrome file must contain only 0/1 characters"
        elif len(bits) != r:
            expected = f"syndrome length {len(bits)} does not match r={r}"
        else:
            assert _read_syndrome_file(path, r).bits.tolist() == bits
            return
    with pytest.raises(ValueError) as exc_info:
        _read_syndrome_file(path, r)
    assert str(exc_info.value) == expected


def test_decode_bf_requires_thresholds(toy_file, capsys):
    assert run_cli(
        "decode", "--code", toy_file, "--error-support", "1",
        "--decoder", "bf", "--iter-max", 2,
    ) == 1
    assert "thresholds" in capsys.readouterr().err


def test_decode_rejected_thresholds_do_not_warn(toy_file):
    # a threshold of 0 is refused before the low-threshold warning
    proc = run_python_m_bfkit(
        "decode", "--code", toy_file, "--error-support", "1",
        "--decoder", "bf", "--iter-max", 1, "--thresholds", 0,
    )
    assert proc.returncode == 1
    assert proc.stderr == "decode: error: thresholds must be at least 1\n"
    assert "invites oscillation" not in proc.stderr


def test_simulate_rejected_thresholds_do_not_warn():
    # a threshold above v is refused before the low-threshold warning
    proc = run_python_m_bfkit(
        "simulate", "--r", 13, "--v", 3, "--t", 2, "--decoder", "bf",
        "--thresholds", "1,4", "--max-trials", 10,
    )
    assert proc.returncode == 1
    assert proc.stderr == "simulate: error: threshold exceeds column weight v=3\n"
    assert "invites oscillation" not in proc.stderr


_PINNED_DECODES = {
    "bf": (
        '{"decoder": "bf", "error_support": null, "flip_log": [1, 2, 5, 16, 20, 25], '
        '"format_version": "1", "iter_max": 3, "iterations_used": 3, "n": 26, '
        '"op_counts": {"argmax_comparisons": 78, "counter_init_adds": 234, '
        '"counter_update_touches": 0, "syndrome_bit_updates": 18}, "r": 13, '
        '"recovered_equals_input": false, "result": "failure", "seed": 3}\n'
    ),
    "bfmax-naive": (
        '{"decoder": "bfmax-naive", "error_support": null, "flip_log": [20, 1, 5], '
        '"format_version": "1", "iter_max": 3, "iterations_used": 3, "n": 26, '
        '"op_counts": {"argmax_comparisons": 78, "counter_init_adds": 234, '
        '"counter_update_touches": 0, "syndrome_bit_updates": 9}, "r": 13, '
        '"recovered_equals_input": false, "result": "failure", "seed": 3}\n'
    ),
    "bfmax-sparse": (
        '{"decoder": "bfmax-sparse", "error_support": null, "flip_log": [20, 1, 5], '
        '"format_version": "1", "iter_max": 3, "iterations_used": 3, "n": 26, '
        '"op_counts": {"argmax_comparisons": 78, "counter_init_adds": 78, '
        '"counter_update_touches": 54, "syndrome_bit_updates": 9}, "r": 13, '
        '"recovered_equals_input": false, "result": "failure", "seed": 3}\n'
    ),
}


@pytest.mark.parametrize("decoder", sorted(_PINNED_DECODES))
def test_decode_output_is_pinned(decoder, toy_file, capsys):
    thresholds = ("--thresholds", "3,3,2") if decoder == "bf" else ()
    assert run_cli(
        "decode", "--code", toy_file, "--error-support", "1,5",
        "--decoder", decoder, "--iter-max", 3, "--seed", 3, *thresholds,
    ) == 0
    assert capsys.readouterr().out == _PINNED_DECODES[decoder]


@pytest.mark.parametrize("decoder", ["bfmax-naive", "bfmax-sparse"])
def test_decode_bfmax_rejects_thresholds(decoder, toy_file, capsys):
    assert run_cli(
        "decode", "--code", toy_file, "--error-support", "1",
        "--decoder", decoder, "--iter-max", 2, "--thresholds", "2",
    ) == 1
    assert capsys.readouterr().err == f"decode: error: {decoder} decoder takes no thresholds\n"


def test_simulate_bfmax_rejects_thresholds(tmp_path, capsys):
    out = tmp_path / "th.csv"
    assert run_cli(
        "simulate", "--r", 13, "--v", 3, "--t", 2, "--thresholds", 2, "--out", out,
    ) == 1
    assert capsys.readouterr().err == "simulate: error: bfmax-sparse decoder takes no thresholds\n"
    assert not out.exists()


def test_decode_bf_with_thresholds(toy_file, capsys):
    assert run_cli(
        "decode", "--code", toy_file, "--error-support", "3",
        "--decoder", "bf", "--iter-max", 2, "--thresholds", "3",
    ) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["result"] == "success" and obj["flip_log"] == [3]


# -- compare ---------------------------------------------------------------------


def test_compare_clean_toy_campaign(tmp_path, capsys):
    out = tmp_path / "ops.csv"
    code = run_cli(
        "compare", "--r", 13, "--v", 3, "--t", 3,
        "--trials", 400, "--opcount-trials", 100, "--seed", 3, "--out", out,
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "0 mismatches" in captured.err
    rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[1:]}
    touches = rows["counter_update_touches_per_iteration"]
    assert float(touches[1]) == float(touches[2]) == 3 * 6


def test_compare_fault_injection_negative_control(monkeypatch, capsys):
    # one worker keeps the campaign in this process, where the patch applies
    monkeypatch.setattr("bfkit.decoders._bfmax_group", faulty_sparse_group)
    code = run_cli(
        "compare", "--r", 13, "--v", 3, "--t", 3,
        "--trials", 400, "--opcount-trials", 50, "--seed", 3, "--workers", 1,
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "mismatch" in captured.err


@_needs_fork
@pytest.mark.parametrize(
    "argv, runner, dying",
    [
        (("simulate", "--r", 13, "--v", 3, "--t", 2, "--max-trials", 40),
         "_run_chunk", _run_chunk_or_die),
        (("compare", "--trials", 40, "--opcount-trials", 10),
         "_run_diff_chunk", _run_diff_chunk_or_die),
    ],
    ids=["simulate", "compare"],
)
def test_dead_worker_exits_one(argv, runner, dying, monkeypatch, capsys):
    monkeypatch.setattr(simulate, runner, dying)
    assert run_cli(*argv, "--chunk-size", 10, "--workers", 2) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_compare_builds_profile_key_once(monkeypatch):
    seeds = []

    def counting(spec):
        seeds.append(spec.rng_seed)
        return generate_qc(spec)

    def counting_group(r, v, key_seeds):
        seeds.extend(key_seeds.tolist())
        return generate_qc_group(r, v, key_seeds)

    # one worker keeps every key build in this process, where the patches
    # apply: the profile key is built alone, the trials' keys by group
    monkeypatch.setattr("bfkit.simulate.generate_qc", counting)
    monkeypatch.setattr("bfkit.simulate.generate_qc_group", counting_group)
    simulate._seed0_key.cache_clear()  # the profile key is kept per process
    assert run_cli("compare", "--trials", 5, "--opcount-trials", 5, "--workers", 1) == 0
    assert seeds.count(0) == 1
    assert len(seeds) == 1 + 5 + 5


@pytest.mark.parametrize(
    "params, message",
    [
        (["--r", 5, "--v", 7], "column weight 7 must be below circulant size 5"),
        (["--r", 13, "--v", 3, "--t", 40], "t=40 exceeds code length 26"),
    ],
)
def test_compare_rejects_bad_parameters(params, message, capsys, tmp_path):
    out = tmp_path / "ops.csv"
    assert run_cli("compare", *params, "--trials", 10, "--opcount-trials", 10, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"compare: error: {message}" in err
    assert not out.exists()  # a rejected plan creates no output file


def test_compare_output_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(
        "compare", "--r", 13, "--v", 3, "--t", 3, "--trials", 200,
        "--opcount-trials", 50, "--seed", 3, "--out", "ops.csv",
    ) == 0
    assert capsys.readouterr().err == "0 mismatches in 200 trials\n"
    assert (tmp_path / "ops.csv").read_bytes().decode() == (
        "term,measured,predicted,ratio,format_version\n"
        "counter_update_touches_per_iteration,18,18,1,1\n"
        "argmax_comparisons_per_iteration,26,26,1,1\n"
        "syndrome_bit_updates_per_iteration,3,3,1,1\n"
        "weighted_total,310.725789112,313.254150113,0.991928723052,1\n"
    )
    assert (tmp_path / "ops.csv.manifest.json").read_bytes().decode() == (
        '{\n'
        '  "format_version": "1",\n'
        '  "outputs": [\n'
        '    "ops.csv"\n'
        '  ],\n'
        '  "parameters": {\n'
        '    "opcount_trials": 50,\n'
        '    "r": 13,\n'
        '    "seed": 3,\n'
        '    "t": 3,\n'
        '    "trials": 200,\n'
        '    "v": 3,\n'
        '    "workers": 1\n'
        '  },\n'
        '  "subcommand": "compare",\n'
        '  "tool": "bfkit",\n'
        '  "tool_version": "0.1.0"\n'
        '}\n'
    )


# -- global behavior ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--r", 13, "--v", 3, "--seed", 1),
        ("predict", "--r", 13, "--v", 3, "--t-min", 1, "--t-max", 2),
        ("simulate", "--r", 13, "--v", 3, "--t", 2, "--max-trials", 10),
        ("compare", "--trials", 10, "--opcount-trials", 10),
    ],
    ids=lambda argv: argv[0],
)
def test_out_into_missing_directory_exits_one(argv, tmp_path, capsys, monkeypatch):
    # the path is checked before the campaign: no trial may run
    def no_campaign(plan):
        raise AssertionError("campaign ran before --out was checked")

    monkeypatch.setattr("bfkit.cli.run_sim", no_campaign)
    monkeypatch.setattr("bfkit.cli.differential_campaign", no_campaign)
    assert run_cli(*argv, "--out", tmp_path / "missing" / "out.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: error: [Errno 2] No such file or directory")
    assert "Traceback" not in err


def test_unknown_flag_exits_one():
    assert run_cli("gen", "--bogus") == 1


def test_missing_subcommand_exits_one():
    assert run_cli() == 1


def test_reproducible_outputs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli(
            "simulate", "--r", 13, "--v", 3, "--t", 2,
            "--max-trials", 150, "--seed", 6, "--out", out,
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    ma = (tmp_path / "a.csv.manifest.json").read_text()
    mb = (tmp_path / "b.csv.manifest.json").read_text()
    assert ma.replace("a.csv", "X") == mb.replace("b.csv", "X")


def test_package_exports_decode_and_sweep_entry_points():
    for name in ("decode", "decode_group", "predict_sweep", "generate_qc_group"):
        assert callable(getattr(bfkit, name)), name
