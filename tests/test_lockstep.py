"""Lockstep decoding: a group of trials equals the same trials decoded one
by one, for every decoder, whatever the code format and however trials are
grouped. A group of one takes the lockstep kernel's one path, while
``bfmax_decode_naive`` and ``bfmax_decode_sparse`` run their own one-trial
loop, so each comparison checks two implementations, and both are checked
against ``helpers.bfmax_reference``. Groups draw ties from their seeds;
the single decodes from generators made from the same seeds."""

import numpy as np
import pytest

from bfkit import codes as codes_module
from bfkit import decoders
from bfkit.codes import CodeIndex, QcSeedSpec, generate_qc, random_regular_code, sample_error, syndrome
from bfkit.decoders import (
    DECODERS,
    OpCounts,
    bfmax_decode_naive,
    bfmax_decode_sparse,
    decode,
    decode_group,
)
from bfkit.rng import make_rng
from bfkit.simulate import FreshQcSource, SimPlan, run_sim

from helpers import (
    bf_decode_dense_reference,
    bfmax_reference,
    dense_matrix,
    recompute_counters,
    toy_code_from_columns,
)

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


@pytest.mark.filterwarnings("ignore:threshold below")
@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("kind", KINDS + ["fresh-qc-ones"])
def test_group_equals_one_by_one(kind, decoder):
    # "-ones" decodes the same trials as groups of one
    base = kind.removesuffix("-ones")
    size = 1 if kind != base else TRIALS
    codes, t = _codes(base)
    rng = make_rng(3 * KINDS.index(base) + DECODERS.index(decoder))
    # weights up to t + 2 make some trials fail and others stop early
    errors = [sample_error(H.n, int(rng.integers(0, t + 3)), rng) for H in codes]
    iter_max = t + 2
    seeds = [int(x) for x in rng.integers(0, 2**63, TRIALS)]
    thresholds = None
    if decoder == "bf":
        thresholds = tuple(rng.integers(1, codes[0].v + 1, iter_max).tolist())
    S = np.stack([syndrome(H, e).bits for H, e in zip(codes, errors)])
    group = [
        out
        for lo in range(0, TRIALS, size)
        for out in decode_group(
            decoder, CodeIndex(codes[lo:lo + size]), S[lo:lo + size], iter_max,
            thresholds=thresholds, tie_seeds=seeds[lo:lo + size],
        ).outcomes()
    ]
    for H, e, seed, out in zip(codes, errors, seeds, group):
        s = syndrome(H, e)
        if decoder == "bf":
            alone = decode("bf", H, s, iter_max, thresholds=thresholds)
            ok, estimate, flips, iterations = bf_decode_dense_reference(
                dense_matrix(H), s.bits, thresholds, iter_max
            )
            assert out.op_counts == OpCounts(H.n * H.v * iterations, H.n * iterations, H.v * len(flips))
            if ok:
                np.testing.assert_array_equal(out.error_estimate.to_dense(), estimate)
        else:
            incremental = decoder == "bfmax-sparse"
            single = bfmax_decode_sparse if incremental else bfmax_decode_naive
            alone = single(H, s, iter_max, make_rng(seed))
            ok, iterations, flips, ops = bfmax_reference(
                H, s.bits, iter_max, make_rng(seed), incremental=incremental
            )
            assert out.op_counts == ops
        assert (out.success, out.iterations_used, list(out.flip_log)) == (ok, iterations, flips)
        assert (out.success, out.iterations_used, out.flip_log, out.op_counts) == (
            alone.success, alone.iterations_used, alone.flip_log, alone.op_counts
        )
        assert out.error_estimate == alone.error_estimate


def test_tie_seed_count_must_match_syndromes():
    codes, t = _codes("shared-qc")
    rng = make_rng(6)
    S = np.stack([syndrome(H, sample_error(H.n, t, rng)).bits for H in codes[:3]])
    for seeds in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match=f"^{len(seeds)} tie seeds for 3 syndromes$"):
            decode_group("bfmax-sparse", CodeIndex(codes[:3]), S, t, tie_seeds=seeds)


@pytest.mark.parametrize("kind", KINDS)
def test_group_syndromes_equal_one_by_one(kind):
    codes, t = _codes(kind)
    rng = make_rng(3)
    errors = [sample_error(H.n, t, rng) for H in codes]
    S = CodeIndex(codes).syndromes(np.stack([e.support for e in errors]))
    assert S.dtype == np.uint8
    for H, e, bits in zip(codes, errors, S):
        np.testing.assert_array_equal(bits, syndrome(H, e).bits)


def test_unsatisfied_counts_in_row_slices(monkeypatch):
    # quasi-cyclic counters gathered one row at a time equal the whole group's
    codes, t = _codes("fresh-qc")
    index = CodeIndex(codes)
    rng = make_rng(5)
    S = index.syndromes(np.stack([sample_error(H.n, t, rng).support for H in codes]))
    whole = index.unsatisfied_counts(S)
    np.testing.assert_array_equal(whole, [recompute_counters(H, s) for H, s in zip(codes, S)])
    monkeypatch.setattr(codes_module, "_GATHER_BYTES", 1)
    np.testing.assert_array_equal(index.unsatisfied_counts(S), whole)


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
    decode("bf", H, syndrome(H, e), 8, thresholds=(3,) * 8)
    assert (H.w_max, H.is_row_regular) == (10, True)
    assert "col_supports" not in vars(H) and "_row_csr" not in vars(H)
    for b, first in enumerate(H.qc_first_columns):
        for c in (0, 4, 148):
            expected = sorted((int(x) + c) % 149 for x in first)
            assert H.col_supports[b * 149 + c].tolist() == expected


@pytest.mark.parametrize("tie_words", [decoders._TIE_WORDS, 2], ids=["read-ahead", "refilled"])
@pytest.mark.parametrize("incremental", [True, False], ids=["sparse", "naive"])
def test_group_of_128_equals_reference(incremental, tie_words, monkeypatch):
    # 128 fresh-key trials of weights 1..12 leave the group at different
    # iterations, some fail; with two read-ahead words every row that ties
    # more than twice reads on from its generator mid-decode
    monkeypatch.setattr(decoders, "_TIE_WORDS", tie_words)
    seeds = [int(x) for x in make_rng(12).integers(0, 2**63, 128)]
    codes = [generate_qc(QcSeedSpec(149, 5, 900 + k)) for k in range(128)]
    rng = make_rng(13)
    errors = [sample_error(H.n, int(rng.integers(1, 13)), rng) for H in codes]
    S = np.stack([syndrome(H, e).bits for H, e in zip(codes, errors)])
    decoder = "bfmax-sparse" if incremental else "bfmax-naive"
    result = decode_group(decoder, CodeIndex(codes), S, 12, tie_seeds=seeds)
    outcomes = result.outcomes()
    assert len(set(result.iterations.tolist())) > 5 and not result.success.all()
    for H, e, seed, out in zip(codes, errors, seeds, outcomes):
        ok, iterations, flips, ops = bfmax_reference(
            H, syndrome(H, e).bits, 12, make_rng(seed), incremental=incremental
        )
        assert (out.success, out.iterations_used, list(out.flip_log), out.op_counts) == (
            ok, iterations, flips, ops
        )
    # rows padded to weight 12 by repeating a position, which counts once
    supports = np.stack([np.pad(e.support, (0, 12 - e.weight), mode="edge") for e in errors])
    exact = [out.success and out.error_estimate == e for out, e in zip(outcomes, errors)]
    assert (result.success & result.recovers(supports)).tolist() == exact
    assert 0 < sum(exact) < 128


@pytest.mark.parametrize("decoder", DECODERS)
def test_report_independent_of_chunks_groups_and_workers(decoder):
    # 150 trials span one whole and one partial lockstep group of 128 at
    # chunk size 512, and groups of one at chunk size 1
    thresholds = (3,) * 8 if decoder == "bf" else None
    reports = [
        run_sim(SimPlan(
            source=FreshQcSource(149, 5), t=8, decoder=decoder, thresholds=thresholds,
            max_trials=150, master_seed=31, chunk_size=chunk, worker_count=workers,
        )).deterministic_fields()
        for chunk in (1, 7, 512)
        for workers in (1, 2)
    ]
    assert all(rep == reports[0] for rep in reports)
    assert reports[0]["failures"] > 0
