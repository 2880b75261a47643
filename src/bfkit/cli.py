"""Command-line front end: generation, prediction, simulation, decoding.

Every file-producing subcommand writes a JSON manifest next to its output
(``<out>.manifest.json``) holding the subcommand, the full parameter set
and the tool version; re-running those parameters reproduces the output
byte for byte. Exit codes: 0 success, 1 usage or parameter error, an
unreadable input or unwritable output, or a worker process that died,
2 differential mismatch. Subcommands raise ValueError/OSError (a dead
worker surfaces as ``BrokenExecutor``); ``main`` alone reports them as
``<subcommand>: error: <message>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .codes import (
    ErrorPattern,
    QcSeedSpec,
    Syndrome,
    generate_qc,
    load_code,
    read_utf8,
    save_code,
    syndrome,
)
from .decoders import DECODERS, decode
from .dfr import predict_dfr, predict_sweep
from .simulate import (
    FileCodeSource,
    FreshQcSource,
    QcCodeSource,
    SimPlan,
    checked_profile,
    differential_campaign,
    opcount_validation,
    run_sim,
)

FORMAT_VERSION = "1"

SIM_CSV_COLUMNS = (
    "n,r,v,w,t,decoder,iter_max,trials,failures,miscorrections,"
    "dfr,ci_low,ci_high,dfr_theory,log2_dfr_theory,seed,format_version"
)

PREDICT_CSV_COLUMNS = "n,r,v,w,t,q_max,dfr,log2_dfr,mode,format_version"

_THRESHOLDS_HELP = "comma-separated per-iteration thresholds, one value for all (bf only)"


class _Parser(argparse.ArgumentParser):
    """argparse parser with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _workers(args) -> int:
    """``--workers``, else ``BFKIT_WORKERS``, else 1."""
    if args.workers is not None:
        return args.workers
    raw = os.environ.get("BFKIT_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"BFKIT_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValueError(f"BFKIT_WORKERS must be at least 1, got {raw!r}")
    return workers


def _write_manifest(out_path: str, subcommand: str, params: dict) -> None:
    manifest = {
        "format_version": FORMAT_VERSION,
        "tool": "bfkit",
        "tool_version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "outputs": [str(out_path)],
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _claim_out(out: str | None) -> None:
    """Fail on an unwritable ``--out`` before any trial runs (and after the
    plan is known to fit its code): opening it for append creates it if
    missing and leaves any content in place."""
    if out is not None:
        with open(out, "a", encoding="utf-8"):
            pass


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


# -- gen ----------------------------------------------------------------------


def _cmd_gen(args) -> int:
    H = generate_qc(QcSeedSpec(args.r, args.v, args.seed))
    save_code(H, args.out, qc_compact=args.qc_compact)
    _write_manifest(
        args.out,
        "gen",
        {"r": args.r, "v": args.v, "seed": args.seed, "qc_compact": args.qc_compact},
    )
    print(f"n={H.n} r={H.r} v={H.v} w={H.w_max}")
    return 0


# -- predict -------------------------------------------------------------------


def _cmd_predict(args) -> int:
    n = args.n if args.n is not None else 2 * args.r
    w = args.w if args.w is not None else 2 * args.v
    if args.t_min < 0 or args.t_max < args.t_min:
        raise ValueError("need 0 <= t-min <= t-max")
    mode = "exact" if args.exact else "fast"
    rows = []
    json_objs = []
    for pred in predict_sweep(n, args.r, args.v, w, args.t_min, args.t_max, mode=mode, dps=args.dps):
        if args.json:
            obj = pred.to_json_dict()
            obj["format_version"] = FORMAT_VERSION
            json_objs.append(obj)
        else:
            q_max = float(pred.per_iteration_failure.max()) if pred.t > 0 else 0.0
            rows.append(
                f"{n},{args.r},{args.v},{w},{pred.t},{_fmt(q_max)},"
                f"{_fmt(pred.dfr_linear)},{_fmt(pred.log2_dfr)},{pred.mode},{FORMAT_VERSION}"
            )
    if args.json:
        text = "\n".join(json.dumps(obj, sort_keys=True) for obj in json_objs) + "\n"
    else:
        text = PREDICT_CSV_COLUMNS + "\n" + "\n".join(rows) + "\n"
    _emit(text, args.out)
    if args.out:
        _write_manifest(
            args.out,
            "predict",
            {
                "n": n, "r": args.r, "v": args.v, "w": w,
                "t_min": args.t_min, "t_max": args.t_max,
                "mode": mode, "dps": args.dps, "json": args.json,
            },
        )
    return 0


# -- simulate ------------------------------------------------------------------


def _resolve_source(args):
    if args.code is not None:
        if (args.r, args.v, args.code_seed) != (None, None, None):
            raise ValueError("give --code or --r/--v, not both")
        return FileCodeSource(args.code)
    if args.r is None or args.v is None:
        raise ValueError("provide --code or both --r and --v")
    if args.code_seed is not None:
        return QcCodeSource(args.r, args.v, args.code_seed)
    return FreshQcSource(args.r, args.v)


def _parse_thresholds(raw: str | None, iter_max: int) -> tuple[int, ...] | None:
    """``--thresholds`` per iteration; a single value serves every iteration."""
    if raw is None:
        return None
    try:
        values = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        values = ()
    if not values:
        raise ValueError("bad --thresholds")
    return values * iter_max if len(values) == 1 else values


def _sim_csv_row(report, theory) -> str:
    if theory is None:
        theory_s = log2_s = ""
    else:
        theory_s, log2_s = _fmt(theory.dfr_linear), _fmt(theory.log2_dfr)
    w = int(report.w_avg) if report.w_avg == int(report.w_avg) else report.w_avg
    return (
        f"{report.n},{report.r},{report.v},{w},{report.t},{report.decoder},"
        f"{report.iter_max},{report.trials_run},{report.failures},{report.miscorrections},"
        f"{_fmt(report.dfr_point)},{_fmt(report.ci_low)},{_fmt(report.ci_high)},"
        f"{theory_s},{log2_s},{report.master_seed},{FORMAT_VERSION}"
    )


def _cmd_simulate(args) -> int:
    source = _resolve_source(args)
    iter_max = args.t if args.iter_max is None else args.iter_max
    thresholds = _parse_thresholds(args.thresholds, iter_max)
    plan = SimPlan(
        source=source,
        t=args.t,
        decoder=args.decoder,
        iter_max=args.iter_max,
        thresholds=thresholds,
        max_trials=args.max_trials,
        target_failures=args.target_failures,
        master_seed=args.seed,
        worker_count=_workers(args),
        chunk_size=args.chunk_size,
    )
    profile = checked_profile(plan)
    _claim_out(args.out)
    report = run_sim(plan)

    theory = None
    if profile.is_row_regular and plan.decoder.startswith("bfmax") and plan.effective_iter_max == plan.t:
        theory = predict_dfr(profile.n, profile.r, profile.v, profile.w_max, plan.t)

    row = _sim_csv_row(report, theory)
    if args.out:
        path = Path(args.out)
        header_needed = not path.exists() or path.stat().st_size == 0
        with path.open("a", encoding="utf-8", newline="\n") as fh:
            if header_needed:
                fh.write(SIM_CSV_COLUMNS + "\n")
            fh.write(row + "\n")
        _write_manifest(
            args.out,
            "simulate",
            {
                "source": source.describe(), "t": args.t, "decoder": args.decoder,
                "iter_max": plan.effective_iter_max, "max_trials": args.max_trials,
                "target_failures": args.target_failures, "workers": plan.worker_count,
                "seed": args.seed, "chunk_size": args.chunk_size,
                "thresholds": list(thresholds) if thresholds else None,
            },
        )
    else:
        print(SIM_CSV_COLUMNS)
        print(row)
    return 0


# -- decode --------------------------------------------------------------------


def _parse_error_support(raw: str, n: int) -> list[int]:
    """``--error-support`` positions, in any order, each once and in [0, n)."""
    try:
        support = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ValueError("bad --error-support") from None
    for k, i in enumerate(support):
        if not 0 <= i < n:
            raise ValueError(f"--error-support position {i} out of range [0, {n})")
        if i in support[:k]:
            raise ValueError(f"--error-support repeats position {i}")
    return support


def _read_syndrome_file(path, r: int) -> Syndrome:
    chars = []
    for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
        for token in line.split():
            if token.strip("01"):
                raise ValueError(f"line {lineno}: syndrome file must contain only 0/1 characters")
            chars += token
    if len(chars) != r:
        raise ValueError(f"syndrome length {len(chars)} does not match r={r}")
    return Syndrome(np.array([int(c) for c in chars], dtype=np.uint8))


def _cmd_decode(args) -> int:
    if (args.error_support is None) == (args.syndrome_file is None):
        raise ValueError("give exactly one of --error-support or --syndrome-file")
    H = load_code(args.code)
    true_error = None
    if args.error_support is not None:
        support = _parse_error_support(args.error_support, H.n)
        true_error = ErrorPattern.from_support(H.n, support)
        s = syndrome(H, true_error)
    else:
        s = _read_syndrome_file(args.syndrome_file, H.r)

    outcome = decode(
        args.decoder, H, s, args.iter_max,
        thresholds=_parse_thresholds(args.thresholds, args.iter_max), tie_seed=args.seed,
    )

    result = {
        "format_version": FORMAT_VERSION,
        "decoder": args.decoder,
        "n": H.n,
        "r": H.r,
        "iter_max": args.iter_max,
        "seed": args.seed,
        "result": "success" if outcome.success else "failure",
        "error_support": (
            [int(i) for i in outcome.error_estimate.support] if outcome.success else None
        ),
        "iterations_used": outcome.iterations_used,
        "flip_log": [int(i) for i in outcome.flip_log],
        "op_counts": outcome.op_counts.as_dict(),
        "recovered_equals_input": (
            None if true_error is None
            else bool(outcome.success and outcome.error_estimate == true_error)
        ),
    }
    print(json.dumps(result, sort_keys=True))
    return 0


# -- compare -------------------------------------------------------------------


def _cmd_compare(args) -> int:
    source = FreshQcSource(args.r, args.v)
    workers = _workers(args)
    diff_plan = SimPlan(
        source=source, t=args.t, decoder="bfmax-sparse",
        max_trials=args.trials, master_seed=args.seed,
        worker_count=workers, chunk_size=args.chunk_size,
    )
    op_plan = SimPlan(
        source=source, t=args.t, decoder="bfmax-sparse",
        max_trials=args.opcount_trials, master_seed=args.seed + 1,
        worker_count=workers, chunk_size=args.chunk_size,
    )
    checked_profile(diff_plan)
    _claim_out(args.out)
    diff = differential_campaign(diff_plan)
    validation = opcount_validation(op_plan)

    lines = ["term,measured,predicted,ratio,format_version"]
    for row in validation.rows:
        lines.append(
            f"{row.term},{_fmt(row.measured)},{_fmt(row.predicted)},"
            f"{_fmt(row.ratio)},{FORMAT_VERSION}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    if args.out:
        _write_manifest(
            args.out,
            "compare",
            {
                "r": args.r, "v": args.v, "t": args.t, "trials": args.trials,
                "opcount_trials": args.opcount_trials, "seed": args.seed,
                "workers": workers,
            },
        )

    print(f"{len(diff.mismatches)} mismatches in {diff.trials_run} trials", file=sys.stderr)
    for miss in diff.mismatches[:10]:
        print(
            f"  mismatch at trial {miss.trial_index} (tie seed {miss.tie_seed}): "
            f"naive={miss.naive_flips} sparse={miss.sparse_flips}",
            file=sys.stderr,
        )
    return 0 if diff.clean else 2


# -- entry point ---------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="bfkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bfkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded quasi-cyclic code file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--qc-compact", action="store_true",
                   help="write the compact QC form instead of full column supports")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("predict", help="closed-form failure-rate sweep over t")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="code length (default 2r)")
    p.add_argument("--w", type=int, default=None, help="row weight (default 2v)")
    p.add_argument("--t-min", type=int, required=True)
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--exact", action="store_true", help="arbitrary-precision mode")
    p.add_argument("--dps", type=int, default=60, help="digits for --exact")
    p.add_argument("--json", action="store_true", help="JSON lines instead of CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("simulate", help="Monte Carlo failure-rate estimation")
    p.add_argument("--code", default=None, help="code file (else --r/--v)")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--v", type=int, default=None)
    p.add_argument("--code-seed", type=int, default=None,
                   help="fixed QC key seed (default: fresh key per trial)")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--decoder", choices=DECODERS, default="bfmax-sparse")
    p.add_argument("--iter-max", type=int, default=None, help="default: t")
    p.add_argument("--thresholds", default=None, help=_THRESHOLDS_HELP)
    p.add_argument("--max-trials", type=int, default=10000)
    p.add_argument("--target-failures", type=int, default=1_000_000_000)
    p.add_argument("--workers", type=int, default=None, help="default: BFKIT_WORKERS, else 1")
    p.add_argument("--chunk-size", type=int, default=512)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", default=None, help="append CSV row here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("decode", help="decode one syndrome, print JSON")
    p.add_argument("--code", required=True)
    p.add_argument("--error-support", default=None,
                   help="comma-separated error positions; syndrome computed from them")
    p.add_argument("--syndrome-file", default=None)
    p.add_argument("--decoder", choices=DECODERS, default="bfmax-sparse")
    p.add_argument("--iter-max", type=int, required=True)
    p.add_argument("--thresholds", default=None, help=_THRESHOLDS_HELP)
    p.add_argument("--seed", type=int, default=0, help="tie-break seed")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("compare", help="naive-vs-sparse differential run and op-count table")
    p.add_argument("--r", type=int, default=13)
    p.add_argument("--v", type=int, default=3)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--opcount-trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None, help="default: BFKIT_WORKERS, else 1")
    p.add_argument("--chunk-size", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, BrokenExecutor) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
