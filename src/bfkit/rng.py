"""Deterministic seed derivation and sampling primitives.

Every random decision in the toolkit flows through a named stream derived
from a single 64-bit master seed, so any result is reproducible from
(parameters, master_seed) alone and independent of scheduling.

The derivation function is the SplitMix64 finalizer:

    child_seed(parent, index) = mix64((parent + (index + 1) * GOLDEN) mod 2**64)

with GOLDEN = 0x9E3779B97F4A7C15 and mix64 the xor-shift-multiply finalizer
(constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB). This is frozen: two
machines running the same plan must derive identical child seeds.

A stream is numpy's PCG64 seeded through ``np.random.SeedSequence``
(``make_rng``), and ``sample_distinct`` consumes its uint32 stream by
numpy's bounded-integer rule. The group forms (``child_seeds``,
``bit_generators``, ``sample_distinct_group``) run the same algorithms on
arrays of seeds and give exactly the scalar forms' seeds, streams and
samples.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Stream tags for per-trial substreams. Keys, error patterns and decoder
# tie-breaks never share a stream, so changing one consumer cannot shift
# the randomness seen by another.
STREAM_KEY = 1
STREAM_ERROR = 2
STREAM_TIEBREAK = 3


def mix64(z: int) -> int:
    """SplitMix64 finalizer: bijective 64-bit mixing of ``z``."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def child_seed(parent: int, index: int) -> int:
    """Derive the 64-bit seed of child stream ``index`` from ``parent``."""
    if index < 0:
        raise ValueError("stream index must be non-negative")
    return mix64((parent + (index + 1) * _GOLDEN) & _MASK64)


def child_seeds(parent, index) -> np.ndarray:
    """``child_seed`` elementwise over the broadcast ``parent`` and ``index``,
    as a uint64 array of at least one dimension."""
    index = np.atleast_1d(index)
    if (index < 0).any():
        raise ValueError("stream index must be non-negative")
    if isinstance(parent, int):
        parent &= _MASK64
    # uint64 array arithmetic wraps mod 2**64
    z = np.asarray(parent, dtype=np.uint64) + (index.astype(np.uint64) + 1) * _GOLDEN
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a derived 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


# -- numpy's SeedSequence, for many 64-bit seeds at once ------------------------
#
# ``PCG64(seed)`` seeds itself with ``SeedSequence(seed).generate_state(4,
# np.uint64)``. For a seed below 2**128 the SeedSequence pool is the four
# hashmixed 32-bit words of the seed, low word first and zero-padded (a
# missing word hashes like a zero word); each pool word is then mixed into
# the other three, and eight hashed pool words make the four uint64 outputs.
# The hash multipliers run through fixed sequences, so they are tabulated.


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


# Hashmix call k xors with A[k] and multiplies by A[k + 1]: calls 0-3 fill
# the pool, and calls 4 + 3*src .. 6 + 3*src hash pool word src once for each
# other pool word. _MIX_XOR[src] and _MIX_MULT[src] hold those three calls'
# constants in the rows of the other words (row src is unused). Output word
# k uses B[k] and B[k + 1].
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)


def _mix_constants() -> tuple[np.ndarray, np.ndarray]:
    xor, mult = np.zeros((2, 4, 4, 1), dtype=np.uint32)
    for src in range(4):
        others = [d for d in range(4) if d != src]
        xor[src, others] = _HASH_A[4 + 3 * src:7 + 3 * src]
        mult[src, others] = _HASH_A[5 + 3 * src:8 + 3 * src]
    return xor, mult


_MIX_XOR, _MIX_MULT = _mix_constants()
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashed(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    out = (words ^ xor) * mult
    out ^= out >> 16
    return out


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """(B, 4) uint64: ``SeedSequence(s).generate_state(4, np.uint64)`` for
    each of the uint64 ``seeds``."""
    words = np.zeros((4, seeds.size), dtype=np.uint32)
    words[0] = seeds
    words[1] = seeds >> 32
    pool = _hashed(words, _HASH_A[:4], _HASH_A[1:5])
    for src in range(4):
        # mix the hashes of word src into every word, then put word src back
        mixed = _MIX_L * pool - _MIX_R * _hashed(pool[src], _MIX_XOR[src], _MIX_MULT[src])
        mixed ^= mixed >> 16
        mixed[src] = pool[src]
        pool = mixed
    out = _hashed(np.concatenate([pool, pool]), _HASH_B[:8], _HASH_B[1:]).astype(np.uint64)
    # consecutive uint32 words make one uint64, low word first
    return (out[0::2] | out[1::2] << 32).T.copy()


class _SeedState(ISeedSequence):
    """A seed's SeedSequence output, computed ahead: PCG64 reads its state
    from ``generate_state(4, np.uint64)``."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's four uint64 words are precomputed")
        return self.state


def bit_generators(seeds) -> list[np.random.PCG64]:
    """``[make_rng(s).bit_generator for s in seeds]``, hashing every seed in
    one pass."""
    try:
        seeds = np.asarray(seeds, dtype=np.uint64)
    except OverflowError:  # a seed outside [0, 2**64): numpy seeds it, or rejects it
        return [np.random.PCG64(s) for s in seeds]
    return [np.random.PCG64(_SeedState(state)) for state in _seed_states(seeds.ravel())]


# -- sampling ------------------------------------------------------------------


def _partial_shuffle(picks: list[int]) -> list[int]:
    """Partial Fisher-Yates on the pool 0..n-1: step i swaps slots i and
    ``picks[i]`` (at least i) and fixes slot i. Only moved slots are stored."""
    moved: dict[int, int] = {}
    out = []
    for i, j in enumerate(picks):
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return out


def sample_distinct(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Sample ``k`` distinct values from ``{0..n-1}``, uniformly, sorted.

    Partial Fisher-Yates over an index pool: draw j_i uniform in [i, n) with
    one ``integers`` call and swap, keeping the first ``k`` entries.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} distinct values from {n}")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    picks = rng.integers(low=np.arange(k), high=n).tolist()
    # Distinct picks each move an untouched slot, so they are the sample;
    # a repeated pick needs the swaps.
    if len(set(picks)) < k:
        picks = _partial_shuffle(picks)
    return np.array(sorted(picks), dtype=np.int64)


@lru_cache(maxsize=16)
def _draw_table(n: int, k: int, times: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The range m = n - i of each uint32 draw of ``times`` calls of
    ``sample_distinct(rng, n, k)``, the bound below which numpy rejects a
    draw, and each slot's offset i."""
    draws = k - (k == n)  # the last slot of a full shuffle has one choice and draws nothing
    ranges = np.tile(n - np.arange(draws, dtype=np.uint64), times)
    table = ranges, (2**32 - ranges) % ranges, np.arange(draws)
    for part in table:
        part.setflags(write=False)  # shared by every call with this shape
    return table


def sample_distinct_group(seeds, n: int, k: int, times: int = 1) -> np.ndarray:
    """(B, times, k) int64: row b holds ``times`` successive
    ``sample_distinct(make_rng(seeds[b]), n, k)`` calls.

    Draw i of a call is ``integers(i, n)``: numpy maps a uint32 u of the
    stream (each PCG64 output split low half first) to ``(u * m) >> 32``
    for the range m = n - i, and a range of 1 draws nothing. It redraws u
    when the low 32 bits of the product fall below ``(2**32 - m) % m``;
    a row that meets one is rare and is redone call by call, as is every
    row when n exceeds 2**32 and numpy switches to 64-bit draws.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} distinct values from {n}")
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    count = seeds.size
    out = np.empty((count, times, k), dtype=np.int64)
    if k == 0 or count == 0:
        return out
    redo = range(count)
    if n <= 1 << 32:
        ranges, limits, offsets = _draw_table(n, k, times)
        words = (ranges.size + 1) // 2
        raw = np.concatenate([bg.random_raw(words) for bg in bit_generators(seeds)])
        u = raw.astype("<u8", copy=False).view("<u4").reshape(count, -1)[:, :ranges.size]
        scaled = ranges * u
        redo = np.flatnonzero(((scaled & _MASK32) < limits).any(axis=1))
        picks = (scaled >> 32).astype(np.int64).reshape(count, times, -1) + offsets
        if offsets.size < k:
            picks = np.concatenate([picks, np.full((count, times, 1), n - 1)], axis=2)
        out[:] = np.sort(picks, axis=2)
        # Distinct picks each move an untouched slot, so they are the sample;
        # a repeated pick needs the swaps.
        for b, c in zip(*np.nonzero((out[..., 1:] == out[..., :-1]).any(axis=2))):
            out[b, c] = sorted(_partial_shuffle(picks[b, c].tolist()))
    for b in redo:
        rng = make_rng(int(seeds[b]))
        out[b] = [sample_distinct(rng, n, k) for _ in range(times)]
    return out
