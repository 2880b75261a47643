"""Lockstep single-flip decoding: a group of trials equals the same trials
decoded one by one, whatever the code format and however trials are grouped."""

import numpy as np
import pytest

from bfkit.codes import CodeIndex, QcSeedSpec, generate_qc, random_regular_code, sample_error, syndrome
from bfkit.decoders import bfmax_decode_group, bfmax_decode_naive, bfmax_decode_sparse
from bfkit.rng import make_rng
from bfkit.simulate import FreshQcSource, SimPlan, run_sim

from helpers import bfmax_reference, toy_code_from_columns

TRIALS = 24
KINDS = ["fresh-qc", "shared-qc", "random-regular", "ragged"]


def _codes(kind):
    """TRIALS codes of one kind, one per trial, and the error weight to use."""
    if kind == "fresh-qc":
        return [generate_qc(QcSeedSpec(149, 5, 500 + k)) for k in range(TRIALS)], 8
    if kind == "shared-qc":
        return [generate_qc(QcSeedSpec(149, 5, 77))] * TRIALS, 8
    if kind == "random-regular":
        return [random_regular_code(24, 12, 3, 6, make_rng(4))] * TRIALS, 4
    # ragged rows (weights 3, 3, 2) take the CSR gather
    return [toy_code_from_columns([[0, 1], [0, 1], [0, 2], [1, 2]], 3)] * TRIALS, 2


def test_integers_zero_one_leaves_stream_untouched():
    # the lockstep kernel skips the draw when one position holds the maximum;
    # that is bit-identical only while integers(0, 1) consumes nothing
    for seed in (0, 1, 2**63 + 5):
        drawn, untouched = make_rng(seed), make_rng(seed)
        assert drawn.integers(0, 1) == 0
        assert drawn.integers(0, 1000, 8).tolist() == untouched.integers(0, 1000, 8).tolist()
        assert drawn.bit_generator.state == untouched.bit_generator.state


@pytest.mark.parametrize("fixed_iterations", [False, True], ids=["stop", "fixed"])
@pytest.mark.parametrize("incremental", [False, True], ids=["naive", "sparse"])
@pytest.mark.parametrize("kind", KINDS)
def test_group_equals_one_by_one(kind, incremental, fixed_iterations):
    codes, t = _codes(kind)
    rng = make_rng(4 * KINDS.index(kind) + 2 * incremental + fixed_iterations)
    # weights up to t + 2 make some trials fail and others stop early
    errors = [sample_error(H.n, int(rng.integers(0, t + 3)), rng) for H in codes]
    iter_max = t + 2
    seeds = [int(x) for x in rng.integers(0, 2**63, TRIALS)]
    index = CodeIndex(codes)
    S = np.stack([syndrome(H, e).bits for H, e in zip(codes, errors)])
    group = bfmax_decode_group(
        index, S, iter_max, [make_rng(s) for s in seeds],
        incremental=incremental, fixed_iterations=fixed_iterations,
    )
    single = bfmax_decode_sparse if incremental else bfmax_decode_naive
    for H, e, seed, out in zip(codes, errors, seeds, group):
        alone = single(H, syndrome(H, e), iter_max, make_rng(seed), fixed_iterations=fixed_iterations)
        assert (out.success, out.iterations_used, out.flip_log, out.op_counts) == (
            alone.success, alone.iterations_used, alone.flip_log, alone.op_counts
        )
        assert out.error_estimate == alone.error_estimate
        ok, iterations, flips, ops = bfmax_reference(
            H, syndrome(H, e).bits, iter_max, make_rng(seed),
            incremental=incremental, fixed_iterations=fixed_iterations,
        )
        assert (out.success, out.iterations_used, list(out.flip_log), out.op_counts) == (
            ok, iterations, flips, ops
        )


@pytest.mark.parametrize("kind", KINDS)
def test_group_syndromes_equal_one_by_one(kind):
    codes, t = _codes(kind)
    rng = make_rng(3)
    errors = [sample_error(H.n, t, rng) for H in codes]
    S = CodeIndex(codes).syndromes(np.stack([e.support for e in errors]))
    assert S.dtype == np.uint8
    for H, e, bits in zip(codes, errors, S):
        np.testing.assert_array_equal(bits, syndrome(H, e).bits)


@pytest.mark.parametrize("kind", KINDS)
def test_code_index_matches_tables(kind):
    # group column i*n + c is column c of code i; row i of a row argument is
    # in code i; select keeps the chosen codes in order
    codes, _ = _codes(kind)
    index = CodeIndex(codes)
    keep = np.array([5, 0, 17])
    for idx, chosen in ((index, codes), (index.select(keep), [codes[i] for i in keep])):
        n = idx.n
        for i, H in enumerate(chosen):
            for c in (0, 1, n - 1):
                checks = idx.column_checks(np.int64(i * n + c))
                assert sorted(checks.tolist()) == H.col_supports[c].tolist()
        rows = np.array([[j % H.r for j in range(3)] for H in chosen])
        cols, lengths = idx.row_columns(rows)
        expected = [H.row_support(int(j)).tolist() for H, row in zip(chosen, rows) for j in row]
        lengths = np.broadcast_to(lengths, len(expected)).tolist()
        got = np.split(cols, np.cumsum(lengths)[:-1])
        assert [sorted(g.tolist()) for g in got] == expected


def test_group_rejects_mixed_codes():
    qc = generate_qc(QcSeedSpec(13, 3, 1))
    with pytest.raises(ValueError):
        CodeIndex([qc, generate_qc(QcSeedSpec(17, 3, 1))])
    with pytest.raises(ValueError):
        CodeIndex([qc, toy_code_from_columns([[0, 1], [1, 2], [0, 2]], 3)])


def test_qc_tables_are_built_on_first_use():
    H = generate_qc(QcSeedSpec(149, 5, 3))
    e = sample_error(H.n, 8, make_rng(1))
    bfmax_decode_sparse(H, syndrome(H, e), 8, make_rng(2))
    bfmax_decode_naive(H, syndrome(H, e), 8, make_rng(2))
    assert (H.w_max, H.is_row_regular) == (10, True)
    assert "col_supports" not in vars(H) and "_row_csr" not in vars(H)
    for b, first in enumerate(H.qc_first_columns):
        for c in (0, 4, 148):
            expected = sorted((int(x) + c) % 149 for x in first)
            assert H.col_supports[b * 149 + c].tolist() == expected


@pytest.mark.parametrize("decoder", ["bfmax-naive", "bfmax-sparse"])
def test_report_independent_of_chunks_groups_and_workers(decoder):
    # 90 trials span whole and partial lockstep groups at every chunk size
    reports = [
        run_sim(SimPlan(
            source=FreshQcSource(149, 5), t=8, decoder=decoder, max_trials=90,
            master_seed=31, chunk_size=chunk, worker_count=workers,
        )).deterministic_fields()
        for chunk in (1, 7, 512)
        for workers in (1, 2)
    ]
    assert all(rep == reports[0] for rep in reports)
    assert reports[0]["failures"] > 0
