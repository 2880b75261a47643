import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
# scipy's log-sum-exp is the test-only oracle that dfr._logsumexp reproduces
from scipy.special import logsumexp as scipy_logsumexp

from bfkit import dfr
from bfkit.codes import ErrorPattern, random_regular_code, sample_error, syndrome
from bfkit.dfr import counter_pmfs, log_iteration_failure, predict_dfr, predict_sweep, rho
from bfkit.rng import make_rng

from helpers import (
    counter_pmfs_exact,
    enumerate_binom_pmf,
    enumerate_rho,
    iteration_failure_direct,
    linear_cdf,
)


def q_u(n: int, v: int, u: int, dist) -> float:
    return math.exp(log_iteration_failure(n, v, u, dist))


# -- rho --------------------------------------------------------------------------


def test_rho_isolated_error_saturates():
    for n, w in [(10, 3), (100, 7), (4006, 34)]:
        r1, _ = rho(n, w, 1)
        assert r1 == 1.0
        r1_exact, _ = rho(n, w, 1, exact=True)
        assert r1_exact == 1


def test_rho_zero_weight_has_no_unsatisfied_checks():
    r1, r0 = rho(20, 5, 0)
    assert r1 is None and r0 == 0.0
    r1e, r0e = rho(20, 5, 0, exact=True)
    assert r1e is None and r0e == 0


def test_rho_printed_case_six_three_two():
    r1, r0 = rho(6, 3, 2, exact=True)
    assert r1 == Fraction(3, 5) and r0 == Fraction(3, 5)
    r1f, r0f = rho(6, 3, 2)
    assert r1f == pytest.approx(0.6, abs=1e-14)
    assert r0f == pytest.approx(0.6, abs=1e-14)


@pytest.mark.parametrize("n,w", [(6, 3), (8, 4), (9, 5), (11, 3)])
def test_rho_matches_exhaustive_enumeration(n, w):
    for u in range(0, 5):
        r1e, r0e = rho(n, w, u, exact=True)
        r1o, r0o = enumerate_rho(n, w, u)
        assert r0e == r0o
        if u >= 1:
            assert r1e == r1o


def test_rho_fast_tracks_exact():
    # every u on small codes reaches the ends of both sums (w-1-l = n-u)
    cases = [(50, 10, 7), (301, 14, 33), (4006, 26, 60)]
    cases += [(n, w, u) for n, w in [(16, 6), (9, 9), (40, 39)] for u in range(1, n + 1)]
    for n, w, u in cases:
        r1e, r0e = rho(n, w, u, exact=True)
        r1f, r0f = rho(n, w, u)
        assert r1f == pytest.approx(float(r1e), rel=1e-9)
        assert r0f == pytest.approx(float(r0e), rel=1e-9)


def test_rho_domain_errors():
    with pytest.raises(ValueError):
        rho(10, 0, 1)
    with pytest.raises(ValueError):
        rho(10, 11, 1)
    with pytest.raises(ValueError):
        rho(10, 3, 11)


# -- counter pmfs -------------------------------------------------------------------


def test_pmf_degenerate_endpoints():
    dist = counter_pmfs(5, 1.0, 0.0)
    np.testing.assert_allclose(np.exp(dist.log_g1), np.eye(6)[5])
    np.testing.assert_allclose(np.exp(dist.log_g0), np.eye(6)[0])


def test_pmf_matches_bernoulli_enumeration():
    p = Fraction(3, 10)
    oracle = enumerate_binom_pmf(5, p)
    dist = counter_pmfs(5, float(p), float(p))
    np.testing.assert_allclose(np.exp(dist.log_g1), [float(x) for x in oracle], rtol=1e-13)
    exact = counter_pmfs_exact(5, p, p)
    assert exact.g1 == oracle and exact.g0 == oracle


@pytest.mark.parametrize("v", [1, 2, 5, 8])
def test_pmf_enumeration_all_small_v(v):
    p = Fraction(17, 64)
    oracle = [float(x) for x in enumerate_binom_pmf(v, p)]
    dist = counter_pmfs(v, None, float(p))
    np.testing.assert_allclose(np.exp(dist.log_g0), oracle, atol=1e-12)


def test_pmf_normalization_and_cumulative():
    for p in (0.0, 1e-9, 0.3, 0.9999, 1.0):
        dist = counter_pmfs(9, p, p)
        assert abs(np.exp(dist.log_g0).sum() - 1.0) < 1e-12
        assert abs(np.exp(dist.log_g1).sum() - 1.0) < 1e-12
        cum_g0 = linear_cdf(dist.log_g0)
        assert (np.diff(cum_g0) >= -1e-15).all()
        assert cum_g0[-1] == pytest.approx(1.0, abs=1e-12)
    exact = counter_pmfs_exact(6, Fraction(1, 3), Fraction(1, 7))
    assert sum(exact.g1) == 1 and sum(exact.g0) == 1


def test_pmf_rejects_bad_probability():
    with pytest.raises(ValueError):
        counter_pmfs(4, 1.5, 0.2)


def test_log_cdf_takes_both_branches_and_matches_linear_cdf():
    dist = counter_pmfs(13, 0.4, 0.05)
    for log_g, log_cdf in ((dist.log_g1, dist.log_cdf1), (dist.log_g0, dist.log_cdf0)):
        cdf = linear_cdf(log_g)
        assert len(log_cdf) == 14 and all(type(c) is float for c in log_cdf)
        big = cdf > 1e-12
        np.testing.assert_allclose(np.array(log_cdf)[big], np.log(cdf[big]), rtol=1e-10, atol=1e-14)
    # rho1 = 0.4 puts mass above x = 0 beyond 1/2 (the logaddexp branch)
    # and below 1/2 near x = v (the log1p branch)
    assert linear_cdf(dist.log_g1)[0] < 0.5 < linear_cdf(dist.log_g1)[12]


# -- per-iteration failure -----------------------------------------------------------


def test_iteration_failure_needs_rho1():
    n, v, w = 26, 3, 6
    _, r0 = rho(n, w, 0)
    with pytest.raises(ValueError, match=r"without rho1 \(u = 0\)"):
        log_iteration_failure(n, v, 1, counter_pmfs(v, None, r0))


def test_iteration_failure_with_no_error_free_position():
    # u = n: the error-free cdf is raised to the power 0, and its log -inf
    # entries must stay -inf rather than become 0 * -inf = nan
    assert log_iteration_failure(5, 3, 5, counter_pmfs(3, 0.5, 1.0)) == 0.0


def test_single_residual_error_reduces_to_max_reach():
    n, v, w = 40, 4, 6
    r1, r0 = rho(n, w, 1)
    dist = counter_pmfs(v, r1, r0)
    q1 = q_u(n, v, 1, dist)
    # with one residual error its counter is v surely, so failure means some
    # error-free counter also reaches v
    expected = 1.0 - linear_cdf(dist.log_g0)[v - 1] ** (n - 1)
    assert q1 == pytest.approx(expected, rel=1e-12)


def test_complement_and_direct_forms_agree():
    checked = 0
    for n, v, w in [(40, 4, 8), (100, 5, 10), (604, 13, 26)]:
        r = n * v // w
        assert r * w == n * v
        for u in range(1, 12):
            r1, r0 = rho(n, w, u)
            dist = counter_pmfs(v, r1, r0)
            q = q_u(n, v, u, dist)
            q_direct = iteration_failure_direct(n, v, u, dist)
            if q > 1e-12:
                assert q_direct == pytest.approx(q, rel=1e-9)
                checked += 1
    assert checked >= 20


def test_max_distribution_normalizes():
    for n, v, w, u in [(60, 5, 10, 3), (604, 13, 26, 9)]:
        r1, r0 = rho(n, w, u)
        dist = counter_pmfs(v, r1, r0)
        m = n - u
        cum_g0 = linear_cdf(dist.log_g0)
        total = sum(
            cum_g0[x] ** m - (cum_g0[x - 1] ** m if x else 0.0)
            for x in range(v + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-10)


def test_toy_profile_against_counter_event_enumeration():
    # Exhaustive max-counter race over all weight-1 errors on random
    # (3,6)-regular codes with n=12. The independence heuristic is crude at
    # this density: the model overestimates the race probability by a
    # factor near 2.2 (measured 0.296 vs predicted 0.662 over 4000 codes).
    # The assertion pins that relationship so regressions in either
    # direction surface; the tight-agreement regime is covered by the
    # large-n acceptance tests.
    n, r, v, w = 12, 6, 3, 6
    r1, r0 = rho(n, w, 1)
    q1 = q_u(n, v, 1, counter_pmfs(v, r1, r0))
    rng = make_rng(99)
    hits = tot = 0
    for _ in range(800):
        H = random_regular_code(n, r, v, w, rng)
        for i in range(n):
            s = syndrome(H, ErrorPattern.from_support(n, [i]))
            sig = s.bits[H.col_supports].sum(axis=1)
            other = np.delete(sig, i)
            hits += int(other.max() >= sig[i])
            tot += 1
    emp = hits / tot
    assert emp == pytest.approx(0.2965, abs=0.03)
    assert 1.8 <= q1 / emp <= 2.7


# -- full prediction -----------------------------------------------------------------


def test_predict_zero_weight_never_fails():
    p = predict_dfr(40, 20, 3, 6, 0)
    assert p.dfr_linear == 0.0 and p.log_dfr == -math.inf
    assert p.per_iteration_failure.size == 0


def test_predict_monotone_in_t():
    vals = [predict_dfr(4006, 2003, 13, 26, t).dfr_linear for t in range(0, 60, 5)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_predict_rejects_irregular_profile():
    with pytest.raises(ValueError, match="regular"):
        predict_dfr(4006, 2003, 13, 25, 10)


def test_predict_regression_anchors():
    # frozen from the arbitrary-precision oracle at 70 digits
    p18 = predict_dfr(4006, 2003, 17, 34, 18)
    assert p18.dfr_linear == pytest.approx(9.570835421889903e-11, rel=1e-9)
    p50 = predict_dfr(4006, 2003, 17, 34, 50)
    assert p50.dfr_linear == pytest.approx(0.0022637754975404693, rel=1e-9)
    p25 = predict_dfr(1200, 600, 13, 26, 25)
    assert p25.dfr_linear == pytest.approx(0.2518064498951063, rel=1e-9)
    # exact bits, recorded when the model still called scipy.special.logsumexp
    for args, dfr_linear, log_dfr, q_max in [
        ((4006, 2003, 11, 22, 60), 0.007046419852363374, -4.955235613503209, 0.0012067113550821313),
        # the BIKE level-1 shape
        ((24646, 12323, 71, 142, 140), 0.0023241758359123384, -6.064389781962901, 0.0004482171478395102),
        ((4006, 2003, 13, 26, 0), 0.0, -math.inf, None),
        # every q_u below the tiny switch: a log-sum-exp of the prefix
        ((4006, 2003, 13, 26, 5), 1.4074446265860416e-16, -36.49958574932647, None),
        # t = n: the last q_u has no error-free position
        ((16, 8, 1, 2, 16), 1.0, 0.0, 1.0),
    ]:
        p = predict_dfr(*args)
        assert (p.dfr_linear, p.log_dfr) == (dfr_linear, log_dfr), args
        if q_max is not None:
            assert float(p.per_iteration_failure.max()) == q_max
    assert predict_dfr(4006, 2003, 13, 26, 5).per_iteration_failure.max() < math.exp(dfr._LOG_TINY_SWITCH)
    tiny = predict_dfr(16, 8, 1, 2, 16).per_iteration_failure
    assert (tiny[0], tiny[13], tiny[14], tiny[15]) == (0.6447356335058556, 0.9961549970294215, 1.0, 1.0)


# -- log-sum-exp ---------------------------------------------------------------


@pytest.mark.parametrize("values", [
    [-3.5],  # one element
    [-2.0, -7.0, -2.0, -2.0, -9.5],  # repeated maxima
    [-1.0, -math.inf, -4.0, -math.inf],  # -inf entries
    [-5.0, -900.0, -40.0, -745.2, -5.0],  # spread past exp underflow
    [0.0, -800.0, -1e4],  # every other term underflows: the s == 0 branch
    [-math.inf, -6.0],
])
def test_local_logsumexp_matches_scipy(values):
    a = np.array(values)
    got = dfr._logsumexp(a)
    assert a.tolist() == values  # the input is left as it was
    assert repr(got) == repr(float(scipy_logsumexp(a)))


def test_local_logsumexp_matches_scipy_on_random_inputs():
    rng = np.random.default_rng(2)
    for i in range(2000):
        a = -rng.random(int(rng.integers(1, 40))) * (1.0, 30.0, 700.0, 1500.0)[i % 4]
        a -= rng.random() * 300.0
        if i % 3 == 0:  # repeated values, the maximum among them
            a = np.round(a)
        if i % 5 == 0:
            a[rng.integers(0, a.size, a.size // 2)] = -math.inf
        assert repr(dfr._logsumexp(a)) == repr(float(scipy_logsumexp(a))), a


def test_local_logsumexp_of_only_neg_inf_is_quiet():
    a = np.full(4, -math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dfr._logsumexp(a) == -math.inf
    assert scipy_logsumexp(a) == -math.inf


def test_fast_matches_oracle_across_magnitudes():
    # spans DFR from ~1e-30 up toward 1 at r <= 600
    cases = [
        (600, 13, 4), (600, 13, 8), (600, 13, 16), (600, 13, 25),
        (400, 11, 5), (400, 11, 12), (250, 9, 6), (250, 9, 14),
        (600, 17, 6), (600, 17, 12), (600, 21, 2), (600, 23, 1),
    ]
    seen_tiny = False
    for r, v, t in cases:
        fast = predict_dfr(2 * r, r, v, 2 * v, t)
        oracle = predict_dfr(2 * r, r, v, 2 * v, t, mode="exact", dps=60)
        assert 0.0 < oracle.dfr_linear <= 1.0
        assert fast.dfr_linear == pytest.approx(oracle.dfr_linear, rel=5e-4)
        seen_tiny = seen_tiny or oracle.dfr_linear < 1e-29
    assert seen_tiny


def test_per_iteration_probabilities_within_bounds():
    p = predict_dfr(1200, 600, 13, 26, 20)
    q = p.per_iteration_failure
    assert ((q >= 0) & (q <= 1)).all()
    direct = 1.0 - np.prod(1.0 - q)
    assert p.dfr_linear == pytest.approx(direct, rel=1e-9)


def test_q_u_non_increasing_in_code_length():
    # larger code, same weights and residual weight: quieter counters
    for u in (1, 3, 7):
        qs = []
        for r in (100, 200, 400, 800):
            n = 2 * r
            r1, r0 = rho(n, 26, u)
            qs.append(q_u(n, 13, u, counter_pmfs(13, r1, r0)))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(qs, qs[1:]))


def test_deep_tail_is_finite_and_monotone_in_r():
    # the cryptographic regime: log2 DFR crossing -128 stays finite and ordered
    log2s = []
    for r in (40000, 43000, 46000, 49000, 52000):
        p = predict_dfr(2 * r, r, 71, 142, 134)
        assert math.isfinite(p.log2_dfr)
        log2s.append(p.log2_dfr)
    assert all(b < a for a, b in zip(log2s, log2s[1:]))
    assert log2s[0] > -128 > log2s[-1]


def test_assumption_one_first_iteration_total_variation():
    # empirical counter histograms vs the binomial model on a small regular
    # code; about 1e6 counter samples keep the statistical noise well below
    # the 0.02 budget, so what remains is the model error itself
    n, r, v, w, t = 24, 12, 3, 6, 4
    rng = make_rng(5)
    r1, r0 = rho(n, w, t)
    dist = counter_pmfs(v, r1, r0)
    c1 = np.zeros(v + 1)
    c0 = np.zeros(v + 1)
    for _ in range(20):
        H = random_regular_code(n, r, v, w, rng)
        cols = H.col_supports
        for _ in range(2100):
            e = sample_error(n, t, rng)
            s = np.zeros(r, np.uint8)
            np.bitwise_xor.at(s, cols[e.support].ravel(), 1)
            sig = s[cols].sum(axis=1)
            mask = np.zeros(n, bool)
            mask[e.support] = True
            c1 += np.bincount(sig[mask], minlength=v + 1)
            c0 += np.bincount(sig[~mask], minlength=v + 1)
    tv1 = 0.5 * np.abs(c1 / c1.sum() - np.exp(dist.log_g1)).sum()
    tv0 = 0.5 * np.abs(c0 / c0.sum() - np.exp(dist.log_g0)).sum()
    assert c1.sum() + c0.sum() >= 1_000_000
    assert tv1 < 0.02 and tv0 < 0.02


def test_json_payload_shape():
    p = predict_dfr(52, 26, 3, 6, 3)
    obj = p.to_json_dict()
    assert set(obj) == {"n", "r", "v", "w", "t", "q", "dfr", "log2_dfr"}
    assert len(obj["q"]) == 3


# -- sweeps ------------------------------------------------------------------------


def _assert_same_prediction(a, b):
    assert (a.n, a.r, a.v, a.w, a.t, a.mode) == (b.n, b.r, b.v, b.w, b.t, b.mode)
    assert np.array_equal(a.per_iteration_failure, b.per_iteration_failure)
    assert a.dfr_linear == b.dfr_linear
    assert a.log_dfr == b.log_dfr


@pytest.mark.parametrize("r, v, t_max, mode", [(2003, 13, 60, "fast"), (250, 9, 10, "exact")])
def test_sweep_equals_point_predictions(r, v, t_max, mode):
    sweep = predict_sweep(2 * r, r, v, 2 * v, 0, t_max, mode=mode)
    assert [p.t for p in sweep] == list(range(t_max + 1))
    for t, pred in enumerate(sweep):
        _assert_same_prediction(pred, predict_dfr(2 * r, r, v, 2 * v, t, mode=mode))


@pytest.mark.parametrize("mode", ["fast", "exact"])
def test_sweep_single_point_and_zero_start(mode):
    (one,) = predict_sweep(500, 250, 9, 18, 7, 7, mode=mode)
    _assert_same_prediction(one, predict_dfr(500, 250, 9, 18, 7, mode=mode))
    (zero,) = predict_sweep(500, 250, 9, 18, 0, 0, mode=mode)
    assert zero.t == 0 and zero.dfr_linear == 0.0 and zero.log_dfr == -math.inf
    assert zero.per_iteration_failure.size == 0
    (full,) = predict_sweep(26, 13, 3, 6, 26, 26, mode=mode)  # every position in error
    assert full.per_iteration_failure.size == 26 and full.dfr_linear == 1.0
    from_zero = predict_sweep(500, 250, 9, 18, 0, 3, mode=mode)
    for pred, later in zip(from_zero[1:], predict_sweep(500, 250, 9, 18, 1, 3, mode=mode)):
        _assert_same_prediction(pred, later)


@pytest.mark.parametrize("t_min, t_max, message", [
    (-1, 3, "error weight -1 out of range"),
    (4, 3, "t_max 3 < t_min 4"),
    (0, 27, "error weight 27 out of range for length 26"),
])
def test_sweep_rejects_bad_ranges(t_min, t_max, message):
    for mode in ("fast", "exact"):
        with pytest.raises(ValueError, match=message):
            predict_sweep(26, 13, 3, 6, t_min, t_max, mode=mode)


@pytest.mark.parametrize("mode", ["fast", "exact"])
def test_sweep_evaluates_each_residual_weight_once(monkeypatch, mode):
    calls = []

    def counting_rho(n, w, u, **kwargs):
        calls.append(u)
        return rho(n, w, u, **kwargs)

    monkeypatch.setattr(dfr, "rho", counting_rho)
    predict_sweep(1200, 600, 13, 26, 5, 20, mode=mode)
    assert calls == list(range(1, 21))
    calls.clear()
    predict_sweep(1200, 600, 13, 26, 5, 20, mode=mode)
    assert calls == list(range(1, 21))  # nothing carried over between calls
