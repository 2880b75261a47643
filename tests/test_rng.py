"""Seed derivation and sampling: the group forms equal the scalar ones, and
the scalar ones equal numpy's seeding and the pool-swap definition."""

from collections import Counter

import numpy as np
import pytest

import bfkit.rng
from bfkit.codes import CodeIndex, QcSeedSpec, generate_qc, generate_qc_group
from bfkit.decoders import decode_group
from bfkit.rng import (
    bit_generators,
    child_seed,
    child_seeds,
    make_rng,
    sample_distinct,
    sample_distinct_group,
)

from helpers import sample_distinct_pool

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _random_seeds(count, seed):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64)]


def test_sample_distinct_equals_pool_oracle():
    rng = np.random.default_rng(2024)
    cases = [(1, 0), (1, 1), (2, 2), (7, 0), (7, 7), (4006, 4006)]
    cases += [(n, int(rng.integers(0, n + 1))) for n in rng.integers(1, 300, 19_000).tolist()]
    cases += [(n, int(rng.integers(0, 60))) for n in rng.integers(60, 5000, 1000).tolist()]
    for case, (n, k) in enumerate(cases):
        seed = int(rng.integers(0, 2**63))
        mine, pooled = make_rng(seed), make_rng(seed)
        got, want = sample_distinct(mine, n, k), sample_distinct_pool(pooled, n, k)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), (case, n, k, seed)
        assert mine.bit_generator.state == pooled.bit_generator.state, (case, n, k, seed)


def test_bit_generators_states_equal_make_rng():
    seeds = EDGE_SEEDS + _random_seeds(5000, 1)
    for seed, bits in zip(seeds, bit_generators(seeds), strict=True):
        assert bits.state == make_rng(seed).bit_generator.state, seed
    # the same from a uint64 array, and for a group of one
    last = np.random.Generator(bit_generators(np.array(EDGE_SEEDS, dtype=np.uint64))[-1])
    assert last.integers(0, 2**62) == make_rng(2**64 - 1).integers(0, 2**62)
    assert bit_generators([7])[0].state == make_rng(7).bit_generator.state


def test_bit_generators_leave_other_seeds_to_numpy():
    bits, = bit_generators([2**70])
    assert bits.state == make_rng(2**70).bit_generator.state
    with pytest.raises(ValueError):
        bit_generators([-1])


def test_child_seeds_equal_child_seed():
    parents = EDGE_SEEDS + _random_seeds(500, 2)
    indices = [0, 1, 2, 3, 2**32, 2**40 + 7]
    got = child_seeds(np.array(parents, dtype=np.uint64)[:, None], np.array(indices))
    assert got.dtype == np.uint64
    assert got.tolist() == [[child_seed(p, i) for i in indices] for p in parents]
    # a Python int parent is taken mod 2**64, as child_seed does
    assert child_seeds(2**64 + 5, np.arange(4)).tolist() == [child_seed(5, i) for i in range(4)]
    assert child_seeds(-3, 9).tolist() == [child_seed(-3, 9)]
    with pytest.raises(ValueError):
        child_seeds(1, np.array([0, -1]))


def _scalar_rows(seeds, n, k, times):
    rows = []
    for seed in seeds:
        rng = make_rng(seed)
        rows.append([sample_distinct(rng, n, k).tolist() for _ in range(times)])
    return rows


@pytest.mark.parametrize(
    "n, k, times",
    [(2003, 13, 2), (149, 5, 2), (4006, 55, 1), (10, 10, 1), (10, 0, 2), (1, 1, 3), (60, 59, 2)],
)
def test_group_sampler_equals_scalar_calls(n, k, times):
    seeds = EDGE_SEEDS + _random_seeds(400, n + k)
    got = sample_distinct_group(seeds, n, k, times)
    assert got.shape == (len(seeds), times, k) and got.dtype == np.int64
    assert got.tolist() == _scalar_rows(seeds, n, k, times)


@pytest.mark.parametrize(
    "n, k, path", [(3_000_000_000, 3, "some"), (2**32, 4, "none"), (2**32 + 9, 2, "all")]
)
def test_group_sampler_rejection_rows_equal_scalar_calls(n, k, path, monkeypatch):
    # Near 3e9 about a third of the draws fall in numpy's rejection band, so
    # some rows take the call-by-call path and others do not. At 2**32 the
    # first range takes a whole uint32 and the band is a few values wide;
    # past 2**32 numpy draws 64-bit words and every row takes the path.
    redone = []

    def counting(rng, n_, k_):
        redone.append(k_)
        return sample_distinct(rng, n_, k_)

    monkeypatch.setattr(bfkit.rng, "sample_distinct", counting)
    seeds = _random_seeds(200, 3)
    got = sample_distinct_group(seeds, n, k, 2)
    monkeypatch.undo()
    assert got.tolist() == _scalar_rows(seeds, n, k, 2)
    calls = {"none": 0, "all": 2 * len(seeds)}.get(path)
    if calls is None:
        assert 0 < len(redone) < 2 * len(seeds)
    else:
        assert len(redone) == calls


def test_group_sampler_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_distinct_group([1, 2], 5, 6)
    with pytest.raises(ValueError):
        sample_distinct(make_rng(0), 5, -1)


def test_generate_qc_group_equals_generate_qc():
    seeds = EDGE_SEEDS + _random_seeds(26, 4)
    group = generate_qc_group(149, 5, seeds)
    alone = CodeIndex([generate_qc(QcSeedSpec(149, 5, s)) for s in seeds])
    cols = np.arange(len(seeds) * 298)
    np.testing.assert_array_equal(group.column_checks(cols), alone.column_checks(cols))
    with pytest.raises(ValueError):
        generate_qc_group(5, 5, seeds)


@pytest.mark.parametrize("decoder", ["bf", "bfmax-sparse"])
def test_error_estimate_is_odd_count_positions_of_flip_log(decoder):
    seeds = _random_seeds(64, 5)
    index = generate_qc_group(31, 3, seeds)
    rng = make_rng(6)
    errors = np.stack([sample_distinct(rng, 62, 3) for _ in seeds])
    thresholds = (3,) * 12 if decoder == "bf" else None
    outcomes = decode_group(
        decoder, index, index.syndromes(errors), 12, thresholds=thresholds, tie_seeds=seeds
    ).outcomes()
    assert not all(o.success for o in outcomes)
    # successes whose logs flip a position more than once
    assert any(o.success and max(Counter(o.flip_log).values()) > 1 for o in outcomes)
    for out in outcomes:
        if not out.success:
            assert out.error_estimate is None
            continue
        dense = np.zeros(62, dtype=np.uint8)
        for i in out.flip_log:
            dense[i] ^= 1
        assert out.error_estimate.n == 62
        assert out.error_estimate.support.tolist() == np.flatnonzero(dense).tolist()
