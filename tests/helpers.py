"""Shared independent oracles for the test suite.

Everything here is deliberately naive: dense matrices, exhaustive
enumeration, Fractions. These paths must stay independent of the package's
sparse/log-domain implementations they are used to check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from bfkit.codes import ErrorPattern, SparseParityCheck
from bfkit.decoders import OpCounts, _bfmax_group, argmax_scan
from bfkit.dfr import CounterDistribution


def sample_distinct_pool(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """``bfkit.rng.sample_distinct`` as a swap loop over a full ``arange(n)`` pool:
    draw j_i uniform in [i, n) with one ``integers`` call, swap slots i and
    j_i, and keep the first ``k`` slots, sorted."""
    if k == 0:
        return np.empty(0, dtype=np.int64)
    pool = np.arange(n, dtype=np.int64)
    draws = rng.integers(low=np.arange(k), high=n)
    for i in range(k):
        j = draws[i]
        pool[i], pool[j] = pool[j], pool[i]
    out = pool[:k]
    out.sort()
    return out


def dense_matrix(H: SparseParityCheck) -> np.ndarray:
    D = np.zeros((H.r, H.n), dtype=np.uint8)
    for i in range(H.n):
        D[H.col_supports[i], i] = 1
    return D


def dense_syndrome(D: np.ndarray, e_dense: np.ndarray) -> np.ndarray:
    return (D @ e_dense) % 2


def toy_code_from_columns(cols, r) -> SparseParityCheck:
    return SparseParityCheck.from_col_supports(np.asarray(cols), r)


def bf_decode_dense_reference(D: np.ndarray, s_bits: np.ndarray, thresholds, iter_max):
    """Dense-matrix out-of-place bit flipping, written from the definition.

    Returns (success, estimate_dense, flip_log, iterations). Counters come
    from a full matrix product each iteration; flips use the iteration-start
    counters.
    """
    r, n = D.shape
    s = s_bits.astype(np.int64).copy()
    est = np.zeros(n, dtype=np.uint8)
    flips = []
    it = 1
    while s.any() and it <= iter_max:
        counters = (D * s[:, None]).sum(axis=0)
        chosen = [i for i in range(n) if counters[i] >= thresholds[it - 1]]
        for i in chosen:
            est[i] ^= 1
            s = (s + D[:, i]) % 2
            flips.append(i)
        it += 1
    return not s.any(), est, flips, it - 1


def enumerate_rho(n: int, w: int, u: int) -> tuple[Fraction | None, Fraction]:
    """Unsatisfied-check probabilities by exhaustive placement enumeration.

    Fix position 0 inside a weight-w check row. For rho1, errors of weight
    u include position 0; for rho0 they avoid it. A check is unsatisfied
    when it meets an odd number of errors.
    """
    rest = range(1, n)
    rows = list(itertools.combinations(rest, w - 1))  # row support minus position 0

    rho1 = None
    if u >= 1:
        hits = total = 0
        for err_rest in itertools.combinations(rest, u - 1):
            err = set(err_rest) | {0}
            for row_rest in rows:
                overlap = len(err & (set(row_rest) | {0}))
                hits += overlap % 2
                total += 1
        rho1 = Fraction(hits, total)

    hits = total = 0
    for err_tuple in itertools.combinations(rest, u):
        err = set(err_tuple)
        for row_rest in rows:
            overlap = len(err & set(row_rest))  # position 0 is not an error
            hits += overlap % 2
            total += 1
    rho0 = Fraction(hits, total)
    return rho1, rho0


def enumerate_binom_pmf(v: int, p: Fraction) -> list[Fraction]:
    """Pmf of a sum of v Bernoulli(p) variables by full 2^v enumeration."""
    out = [Fraction(0)] * (v + 1)
    for bits in itertools.product((0, 1), repeat=v):
        prob = Fraction(1)
        for b in bits:
            prob *= p if b else (1 - p)
        out[sum(bits)] += prob
    return out


@dataclass(frozen=True)
class ExactCounterPmfs:
    """Fraction-valued counter pmfs, for oracle tests at small v."""

    v: int
    g1: list[Fraction] | None
    g0: list[Fraction]


def counter_pmfs_exact(v: int, rho1: Fraction | None, rho0: Fraction) -> ExactCounterPmfs:
    def pmf(p: Fraction) -> list[Fraction]:
        q = 1 - p
        return [Fraction(math.comb(v, x)) * p**x * q ** (v - x) for x in range(v + 1)]

    return ExactCounterPmfs(v, None if rho1 is None else pmf(rho1), pmf(rho0))


def linear_cdf(log_g: np.ndarray) -> np.ndarray:
    """Counter cdf in the linear domain, from a log pmf."""
    return np.cumsum(np.exp(log_g))


def iteration_failure_direct(n: int, v: int, u: int, dist: CounterDistribution) -> float:
    """q_u in the algebraically identical complement form 1 - sum f1*f0.

    Direct linear evaluation, a self-check of ``log_iteration_failure``
    where q_u is large enough to survive the cancellation.
    """
    m = n - u
    cum0 = linear_cdf(dist.log_g0)
    cum1 = linear_cdf(dist.log_g1)
    total = 0.0
    for x in range(v):
        f0 = cum0[x] ** m - (cum0[x - 1] ** m if x > 0 else 0.0)
        f1 = 1.0 - cum1[x] ** u
        total += f0 * f1
    return 1.0 - total


def gf2_rank(H: SparseParityCheck) -> int:
    """Rank of H over F2 by elimination on row-support sets."""
    rows = [set(np.flatnonzero(row).tolist()) for row in dense_matrix(H)]
    pivots: dict[int, set[int]] = {}
    rank = 0
    for row in rows:
        while row:
            p = min(row)
            if p in pivots:
                row = row ^ pivots[p]
            else:
                pivots[p] = row
                rank += 1
                break
    return rank


def check_invariants(H: SparseParityCheck) -> None:
    """Exhaustive structural validation by a full transpose scan: constant
    column weight, distinct in-range columns in every row the decoders read
    (``H.index.row_columns``), every row entry confirmed by its column, and
    each row equal to the dense transpose's."""
    col_sets = [set(map(int, H.col_supports[i])) for i in range(H.n)]
    if any(len(s) != H.v for s in col_sets):
        raise AssertionError("column weight is not constant")
    D = dense_matrix(H)
    cols, lengths = H.index.row_columns(np.arange(H.r))
    rows = np.split(cols, np.cumsum(np.broadcast_to(lengths, H.r))[:-1])
    seen = 0
    for j, sup in enumerate(map(np.sort, rows)):
        if sup.size and (np.diff(sup) <= 0).any():
            raise AssertionError(f"row {j} lists a column twice")
        if sup.size and (sup.min() < 0 or sup.max() >= H.n):
            raise AssertionError(f"row {j} support index out of range")
        for i in map(int, sup):
            if j not in col_sets[i]:
                raise AssertionError(f"row {j} lists column {i}, column disagrees")
        if not np.array_equal(sup, np.flatnonzero(D[j])):
            raise AssertionError(f"row {j} differs from the dense transpose")
        seen += sup.size
    if seen != H.n * H.v:
        raise AssertionError("row/column entry counts disagree")


def recompute_counters(H: SparseParityCheck, s_bits: np.ndarray) -> np.ndarray:
    """Definitional counters: unsatisfied checks touching each position."""
    return s_bits[H.col_supports].sum(axis=1, dtype=np.int64)


def faulty_sparse_group(index, syndromes, iter_max, tie_seeds, *, incremental):
    """Deliberately broken group decoder for negative-control runs: the
    sparse side breaks ties from perturbed seeds (each with its low bit
    flipped), desynchronizing it from the naive side. Tests monkeypatch it
    over ``bfkit.decoders._bfmax_group``; it returns the kernel's
    ``GroupResult``."""
    if incremental:
        tie_seeds = [int(seed) ^ 1 for seed in tie_seeds]
    return _bfmax_group(index, syndromes, iter_max, tie_seeds, incremental=incremental)


def bfmax_reference(H: SparseParityCheck, s_bits: np.ndarray, iter_max: int, rng, *,
                    incremental: bool):
    """The single-flip decoder one trial at a time, written from the
    definition: ``argmax_scan`` picks each flip, and the counters are either
    recounted from the column table every iteration or updated along the
    dense matrix's rows of the flipped column's checks.

    Returns (success, iterations, flip_log, OpCounts).
    """
    D = dense_matrix(H).astype(np.int64)
    ops = OpCounts()
    syn = s_bits.astype(np.uint8).copy()
    counters = None
    if incremental:
        counters = syn[H.col_supports].sum(axis=1, dtype=np.int64)
        ops.counter_init_adds += H.n * H.v
    flips: list[int] = []
    iterations = 0
    for it in range(1, iter_max + 1):
        if not syn.any():
            break
        if not incremental:
            counters = syn[H.col_supports].sum(axis=1, dtype=np.int64)
            ops.counter_init_adds += H.n * H.v
        i_star, _ = argmax_scan(counters, rng, ops)
        checks = H.col_supports[i_star]
        ops.syndrome_bit_updates += checks.size
        if incremental:
            ops.counter_update_touches += int(D[checks].sum())
        syn[checks] ^= 1
        if incremental:
            for j in checks:
                counters += D[j] if syn[j] else -D[j]
        flips.append(i_star)
        iterations = it
    return not syn.any(), iterations, flips, ops


def all_weight_patterns(n: int, t: int):
    for sup in itertools.combinations(range(n), t):
        yield ErrorPattern.from_support(n, sup)
