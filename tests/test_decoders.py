import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfkit.codes import (
    ErrorPattern,
    QcSeedSpec,
    Syndrome,
    generate_qc,
    random_regular_code,
    sample_error,
    syndrome,
)
from bfkit.decoders import (
    BfConfig,
    OpCounts,
    argmax_scan,
    bf_decode,
    bfmax_decode_naive,
    bfmax_decode_sparse,
    decode,
    predicted_op_count,
)
from bfkit.rng import make_rng

from helpers import (
    bf_decode_dense_reference,
    dense_matrix,
    recompute_counters,
    toy_code_from_columns,
)


def zero_syndrome(H):
    return Syndrome(np.zeros(H.r, dtype=np.uint8))


def max_pairwise_column_intersection(H) -> int:
    best = 0
    for a, b in combinations(range(H.n), 2):
        best = max(best, np.intersect1d(H.col_supports[a], H.col_supports[b]).size)
    return best


# -- argmax scan -----------------------------------------------------------------


def test_argmax_all_zero_ties_everything():
    sigma = np.zeros(8, dtype=np.int16)
    seen = {argmax_scan(sigma, make_rng(k))[0] for k in range(200)}
    assert seen == set(range(8))
    assert argmax_scan(sigma, make_rng(0))[1] == 0


def test_argmax_hand_case():
    sigma = np.array([1, 3, 3, 2], dtype=np.int16)
    picks = set()
    for k in range(64):
        i_star, top = argmax_scan(sigma, make_rng(k))
        assert top == 3
        picks.add(i_star)
    assert picks == {1, 2}


def test_argmax_comparison_count():
    ops = OpCounts()
    argmax_scan(np.array([0, 2, 1], dtype=np.int16), make_rng(0), ops)
    assert ops.argmax_comparisons == 3


def test_argmax_uniform_over_tie_set():
    sigma = np.array([1, 3, 3, 2], dtype=np.int16)
    draws = 100_000
    rng = make_rng(777)
    hits = sum(argmax_scan(sigma, rng)[0] == 1 for _ in range(draws))
    p = 0.5
    assert abs(hits - draws * p) < 5 * math.sqrt(p * (1 - p) * draws)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=40), st.integers(0, 2**32))
def test_argmax_matches_left_to_right_reference(values, seed):
    sigma = np.array(values, dtype=np.int16)
    top_ref, ties_ref = 0, []
    for i, c in enumerate(values):
        if c > top_ref:
            top_ref, ties_ref = c, [i]
        elif c == top_ref:
            ties_ref.append(i)
    i_star, top = argmax_scan(sigma, make_rng(seed))
    assert top == top_ref
    assert i_star in ties_ref


# -- out-of-place bit flipping ------------------------------------------------------


@pytest.fixture(scope="module")
def toy():
    return generate_qc(QcSeedSpec(13, 3, 7))


def test_bf_zero_syndrome_immediate_success(toy):
    out = bf_decode(toy, zero_syndrome(toy), BfConfig.constant(4, 3))
    assert out.success and out.error_estimate.weight == 0
    assert out.iterations_used == 0 and out.flip_log == ()


def test_bf_single_error_threshold_v(toy):
    # precondition for uniqueness of the flip: no two columns share all v checks
    assert max_pairwise_column_intersection(toy) < toy.v
    for i in (0, 9, 25):
        s = syndrome(toy, ErrorPattern.from_support(toy.n, [i]))
        out = bf_decode(toy, s, BfConfig.constant(1, toy.v))
        assert out.success and out.flip_log == (i,)


def test_bf_matches_dense_reference(toy):
    D = dense_matrix(toy)
    rng = make_rng(17)
    thresholds = (3, 2, 2, 2)
    for _ in range(300):
        e = sample_error(toy.n, int(rng.integers(0, 5)), rng)
        s = syndrome(toy, e)
        mine = bf_decode(toy, s, BfConfig(4, thresholds))
        ok_ref, est_ref, flips_ref, _ = bf_decode_dense_reference(D, s.bits, thresholds, 4)
        assert mine.success == ok_ref
        assert list(mine.flip_log) == flips_ref
        if mine.success:
            np.testing.assert_array_equal(mine.error_estimate.to_dense(), est_ref)


def test_bf_success_contract(toy):
    rng = make_rng(5)
    for _ in range(200):
        e = sample_error(toy.n, 3, rng)
        s = syndrome(toy, e)
        out = bf_decode(toy, s, BfConfig.constant(5, 2))
        if out.success:
            assert syndrome(toy, out.error_estimate) == s


def test_bf_config_validation(toy):
    with pytest.raises(ValueError):
        BfConfig(2, (3,))
    with pytest.raises(ValueError):
        BfConfig(1, (0,))
    with pytest.raises(ValueError):
        bf_decode(toy, zero_syndrome(toy), BfConfig.constant(1, toy.v + 1))
    with pytest.warns(UserWarning, match="ceil"):
        bf_decode(toy, zero_syndrome(toy), BfConfig.constant(1, 1))


def test_low_threshold_warning_names_the_caller(toy):
    # the warning points at the line that called the public entry point
    with pytest.warns(UserWarning, match="ceil") as record:
        bf_decode(toy, zero_syndrome(toy), BfConfig.constant(1, 1))
    with pytest.warns(UserWarning, match="ceil") as again:
        decode("bf", toy, zero_syndrome(toy), 1, thresholds=(1,))
    assert [w.filename for w in list(record) + list(again)] == [__file__, __file__]


# -- single-flip decoders ------------------------------------------------------------


def test_bfmax_zero_syndrome(toy):
    for decode in (bfmax_decode_naive, bfmax_decode_sparse):
        out = decode(toy, zero_syndrome(toy), 5, make_rng(0))
        assert out.success and out.iterations_used == 0 and out.flip_log == ()


def test_bfmax_exhaustive_single_error_sweep(toy):
    # no column attains counter v except the error's own column
    assert max_pairwise_column_intersection(toy) < toy.v
    for i in range(toy.n):
        s = syndrome(toy, ErrorPattern.from_support(toy.n, [i]))
        out = bfmax_decode_naive(toy, s, 1, make_rng(i))
        assert out.success and out.flip_log == (i,)


def test_bfmax_tie_break_is_uniform():
    # duplicate columns 0 and 1 tie at the top for an error on position 0
    H = toy_code_from_columns([[0, 1], [0, 1], [0, 2], [1, 2]], 3)
    s = syndrome(H, ErrorPattern.from_support(4, [0]))
    draws = 10_000
    first = [bfmax_decode_sparse(H, s, 1, make_rng(k)).flip_log[0] for k in range(draws)]
    ones = sum(f == 1 for f in first)
    assert set(first) == {0, 1}
    assert abs(ones - draws / 2) < 5 * math.sqrt(0.25 * draws)
    # flipping the duplicate zeroes the syndrome: a miscorrection
    out = next(
        bfmax_decode_sparse(H, s, 1, make_rng(k)) for k in range(draws)
        if bfmax_decode_sparse(H, s, 1, make_rng(k)).flip_log[0] == 1
    )
    assert out.success and out.error_estimate == ErrorPattern.from_support(4, [1])


def test_naive_and_sparse_agree_randomized():
    rng = make_rng(1234)
    cases = 0
    codes = [
        generate_qc(QcSeedSpec(r, v, 1000 * r + c))
        for r, v, blocks in ((13, 3, 40), (31, 4, 40))
        for c in range(blocks)
    ]
    # ragged rows (weights 3, 3, 2) take the CSR path of the counter update
    codes += [toy_code_from_columns([[0, 1], [0, 1], [0, 2], [1, 2]], 3)] * 10
    for H in codes:
        for _ in range(60):
            t = int(rng.integers(0, min(7, H.n + 1)))
            e = sample_error(H.n, t, rng)
            s = syndrome(H, e)
            seed = int(rng.integers(0, 2**63))
            a = bfmax_decode_naive(H, s, t, make_rng(seed))
            b = bfmax_decode_sparse(H, s, t, make_rng(seed))
            assert a.success == b.success
            assert a.flip_log == b.flip_log
            if a.success:
                assert a.error_estimate == b.error_estimate
            cases += 1
    assert cases == 5400


def test_sparse_counters_match_recomputation_each_iteration(toy):
    rng = make_rng(9)
    checked = 0

    def hook(state):
        nonlocal checked
        assert state.counters.shape == (state.H.n,) and state.syndrome.shape == (state.H.r,)
        np.testing.assert_array_equal(
            state.counters, recompute_counters(state.H, state.syndrome)
        )
        checked += 1

    for _ in range(100):
        e = sample_error(toy.n, 4, rng)
        bfmax_decode_sparse(toy, syndrome(toy, e), 6, make_rng(1), on_iteration=hook)
    assert checked > 100


def test_verify_counters_debug_flag(toy):
    # the debug check of the counters is an on_iteration hook that
    # recomputes them from the syndrome after every iteration
    rng = make_rng(13)
    checked = 0

    def hook(state):
        nonlocal checked
        np.testing.assert_array_equal(
            state.counters, recompute_counters(state.H, state.syndrome)
        )
        checked += 1

    for k in range(50):
        e = sample_error(toy.n, 4, rng)
        out = bfmax_decode_sparse(toy, syndrome(toy, e), 6, make_rng(k), on_iteration=hook)
        assert len(out.flip_log) == out.iterations_used
    assert checked > 50


def test_constant_work_per_iteration_on_regular_codes():
    H = generate_qc(QcSeedSpec(53, 4, 2))
    v, w, n = H.v, H.w_max, H.n
    rng = make_rng(21)
    for _ in range(50):
        e = sample_error(n, int(rng.integers(1, 8)), rng)
        snapshots = []
        bfmax_decode_sparse(
            H, syndrome(H, e), 8, make_rng(3),
            on_iteration=lambda st: snapshots.append(st.ops.snapshot()),
        )
        prev = OpCounts(counter_init_adds=n * v)
        for snap in snapshots:
            assert snap.argmax_comparisons - prev.argmax_comparisons == n
            assert snap.counter_update_touches - prev.counter_update_touches == v * w
            assert snap.syndrome_bit_updates - prev.syndrome_bit_updates == v
            assert snap.counter_init_adds == n * v  # never recomputed
            prev = snap


def test_success_contract_and_weight_bound():
    H = generate_qc(QcSeedSpec(31, 4, 5))
    rng = make_rng(77)
    successes = failures = 0
    for _ in range(400):
        t = int(rng.integers(0, 12))
        e = sample_error(H.n, t, rng)
        s = syndrome(H, e)
        out = bfmax_decode_sparse(H, s, t, make_rng(int(rng.integers(0, 2**63))))
        assert len(out.flip_log) == out.iterations_used
        if out.success:
            successes += 1
            assert syndrome(H, out.error_estimate) == s
            assert out.error_estimate.weight <= t
        else:
            failures += 1
    assert successes and failures  # both outcomes exercised


def test_perfect_run_weight_descent():
    H = generate_qc(QcSeedSpec(101, 5, 3))
    rng = make_rng(8)
    seen = 0
    for _ in range(300):
        e = sample_error(H.n, 3, rng)
        out = bfmax_decode_sparse(H, syndrome(H, e), 3, make_rng(int(rng.integers(0, 2**63))))
        flips = set(out.flip_log)
        if out.success and flips <= set(map(int, e.support)) and len(flips) == len(out.flip_log):
            residual = set(map(int, e.support))
            weights = [len(residual)]
            for i in out.flip_log:
                residual.symmetric_difference_update({i})
                weights.append(len(residual))
            assert weights == list(range(e.weight, -1, -1))
            seen += 1
    assert seen > 200


def test_reflips_keep_weight_within_budget():
    # overload a tiny code far beyond its correction ability
    H = generate_qc(QcSeedSpec(13, 3, 3))
    rng = make_rng(2)
    for k in range(100):
        e = sample_error(H.n, 10, rng)
        out = bfmax_decode_sparse(H, syndrome(H, e), 10, make_rng(k))
        if out.success:
            assert out.error_estimate.weight <= 10


# -- cost model -------------------------------------------------------------------


def test_predicted_op_count_direct_substitution():
    H = generate_qc(QcSeedSpec(2003, 13, 1))
    lg = math.log2(13)
    expected = 4006 * 13 * lg + 18 * (4006 * lg + 1 + 13 + 13 * 26.0)
    assert predicted_op_count(H, 18) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(465878.84, rel=1e-6)


def test_predicted_op_count_zero_iterations():
    H = generate_qc(QcSeedSpec(53, 4, 1))
    assert predicted_op_count(H, 0) == pytest.approx(H.n * H.v * math.log2(H.v))


def test_measured_weighted_ops_match_prediction_mid_size():
    H = generate_qc(QcSeedSpec(149, 5, 9))
    t = 8
    total = 0.0
    runs = 300
    for k in range(runs):
        e = sample_error(H.n, t, make_rng(10_000 + k))
        out = bfmax_decode_sparse(H, syndrome(H, e), t, make_rng(20_000 + k))
        total += out.op_counts.weighted_total(H.v, out.iterations_used)
    measured = total / runs
    predicted = predicted_op_count(H, t)
    assert abs(measured - predicted) / predicted < 0.10
