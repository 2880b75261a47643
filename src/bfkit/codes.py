"""Sparse parity-check matrices, quasi-cyclic construction, syndromes, errors.

A parity-check matrix is held column-sparse: every column stores the v row
indices of its set entries, and the transposed row supports are kept in CSR
form for the decoders. Syndromes are dense bit vectors (one byte per bit),
error vectors are sorted index lists. Indices are 0-based everywhere,
including file formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .rng import make_rng, sample_distinct

_INDEX_DTYPE = np.int32

# Stub swaps ``random_regular_code`` tries before giving up on a simple graph.
_MAX_SWAPS = 100_000


class CodeFormatError(ValueError):
    """Raised when a code file cannot be parsed; message names the line."""


@dataclass(frozen=True, eq=False)
class SparseParityCheck:
    """Column-regular sparse binary parity-check matrix.

    ``col_supports`` is an (n, v) array, row i holding the sorted row
    indices of column i. Row supports are derived from it at construction
    (``row_indices``/``row_ptr`` in CSR layout), so the two views are
    transpose-consistent by construction. Instances are immutable and safe
    to share across threads and processes.
    """

    n: int
    r: int
    v: int
    col_supports: np.ndarray
    row_indices: np.ndarray
    row_ptr: np.ndarray
    qc_first_columns: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.n < 1 or self.r < 1 or self.v < 1:
            raise ValueError("n, r and v must be positive")
        if self.v >= 1 << 15:
            raise ValueError("column weight must fit a 16-bit counter")
        if self.col_supports.shape != (self.n, self.v):
            raise ValueError("col_supports must have shape (n, v)")
        if self.col_supports.size:
            if self.col_supports.min() < 0 or self.col_supports.max() >= self.r:
                raise ValueError("column support index out of range")
            if self.v > 1 and not (np.diff(self.col_supports, axis=1) > 0).all():
                raise ValueError("column supports must be strictly increasing")

    # -- derived shape metadata -------------------------------------------

    @cached_property
    def row_weights(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    @cached_property
    def w_max(self) -> int:
        return int(self.row_weights.max())

    @property
    def w_avg(self) -> float:
        return self.n * self.v / self.r

    @cached_property
    def is_row_regular(self) -> bool:
        weights = self.row_weights
        return bool((weights == weights[0]).all())

    @cached_property
    def row_matrix(self) -> np.ndarray:
        """(r, w) row-support matrix; only defined for row-regular codes."""
        if not self.is_row_regular:
            raise ValueError("row supports are ragged; use row_support(j)")
        return self.row_indices.reshape(self.r, self.w_max)

    def row_support(self, j: int) -> np.ndarray:
        return self.row_indices[self.row_ptr[j]:self.row_ptr[j + 1]]

    def row_entries(self, rows: np.ndarray) -> tuple[np.ndarray, int | list[int]]:
        """Column indices of ``rows``, concatenated in order, and the length
        of each row (one int when the code is row-regular)."""
        if self.is_row_regular:
            return self.row_matrix[rows].ravel(), self.row_matrix.shape[1]
        segments = [self.row_support(int(j)) for j in rows]
        return np.concatenate(segments), [seg.size for seg in segments]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseParityCheck):
            return NotImplemented
        return (
            self.n == other.n
            and self.r == other.r
            and self.v == other.v
            and np.array_equal(self.col_supports, other.col_supports)
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_col_supports(
        cls,
        col_supports: np.ndarray,
        r: int,
        qc_first_columns: tuple[np.ndarray, ...] | None = None,
    ) -> "SparseParityCheck":
        """Build from an (n, v) column-support array, deriving row supports."""
        cols = np.ascontiguousarray(np.sort(np.asarray(col_supports, dtype=_INDEX_DTYPE), axis=1))
        n, v = cols.shape
        rows_flat = cols.ravel()
        col_of_entry = np.repeat(np.arange(n, dtype=_INDEX_DTYPE), v)
        if rows_flat.size and (rows_flat.min() < 0 or rows_flat.max() >= r):
            raise ValueError("column support index out of range")
        # Stable sort by row keeps column indices ascending within each row.
        order = np.argsort(rows_flat, kind="stable")
        row_indices = col_of_entry[order]
        row_ptr = np.zeros(r + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows_flat, minlength=r), out=row_ptr[1:])
        return cls(
            n=n, r=r, v=v,
            col_supports=cols,
            row_indices=row_indices,
            row_ptr=row_ptr,
            qc_first_columns=qc_first_columns,
        )


@dataclass(frozen=True, eq=False)
class ErrorPattern:
    """Sparse vector over F2: a sorted support in ``{0..n-1}``."""

    n: int
    support: np.ndarray

    def __post_init__(self):
        sup = np.asarray(self.support, dtype=np.int64)
        object.__setattr__(self, "support", sup)
        if sup.size:
            if sup[0] < 0 or sup[-1] >= self.n:
                raise ValueError("support index out of range")
            if (np.diff(sup) <= 0).any():
                raise ValueError("support must be strictly increasing")

    @property
    def weight(self) -> int:
        return int(self.support.size)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.n, dtype=np.uint8)
        dense[self.support] = 1
        return dense

    def xor(self, other: "ErrorPattern") -> "ErrorPattern":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return ErrorPattern(self.n, np.setxor1d(self.support, other.support))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ErrorPattern):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.support, other.support)

    @classmethod
    def from_support(cls, n: int, support) -> "ErrorPattern":
        return cls(n, np.sort(np.asarray(list(support), dtype=np.int64)))

    @classmethod
    def zero(cls, n: int) -> "ErrorPattern":
        return cls(n, np.empty(0, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class Syndrome:
    """Dense bit vector of length r (one uint8 per bit)."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        object.__setattr__(self, "bits", bits)

    @property
    def r(self) -> int:
        return int(self.bits.size)

    @property
    def weight(self) -> int:
        return int(self.bits.sum())

    @property
    def is_zero(self) -> bool:
        return not self.bits.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Syndrome):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)


@dataclass(frozen=True)
class QcSeedSpec:
    """Parameters of a seeded two-block quasi-cyclic code: H = (H1 | H2)."""

    r: int
    v: int
    rng_seed: int

    def __post_init__(self):
        if self.v < 1:
            raise ValueError("block column weight must be positive")
        if self.v >= self.r:
            raise ValueError(f"column weight {self.v} must be below circulant size {self.r}")


def _expand_qc(first_cols: tuple[np.ndarray, ...], r: int) -> SparseParityCheck:
    """Expand per-block first-column supports into the full sparse matrix.

    Column i of a block is the cyclic down-shift by i of column 0, so its
    support is (S + i) mod r. Row j of a block lists, as column indices,
    (j - S) mod r. Both views are built directly, no transpose pass needed.
    """
    v = first_cols[0].size
    shifts = np.arange(r, dtype=_INDEX_DTYPE)[:, None]
    col_blocks = []
    row_blocks = []
    for b, first in enumerate(first_cols):
        base = np.asarray(first, dtype=_INDEX_DTYPE)[None, :]
        col_blocks.append(np.sort((base + shifts) % r, axis=1))
        row_blocks.append(np.sort((shifts - base) % r, axis=1) + b * r)
    col_supports = np.ascontiguousarray(np.vstack(col_blocks))
    row_matrix = np.ascontiguousarray(np.hstack(row_blocks))
    n = r * len(first_cols)
    w = v * len(first_cols)
    return SparseParityCheck(
        n=n, r=r, v=v,
        col_supports=col_supports,
        row_indices=row_matrix.ravel(),
        row_ptr=np.arange(r + 1, dtype=np.int64) * w,
        qc_first_columns=tuple(np.asarray(f, dtype=_INDEX_DTYPE) for f in first_cols),
    )


def generate_qc(spec: QcSeedSpec) -> SparseParityCheck:
    """Generate a seeded quasi-cyclic code H = (H1 | H2), n = 2r, w = 2v.

    The first-column support of each circulant block is drawn uniformly
    (partial Fisher-Yates) from the spec's seed, first block first, so the
    construction is deterministic for a given seed.
    """
    rng = make_rng(spec.rng_seed)
    firsts = tuple(
        sample_distinct(rng, spec.r, spec.v).astype(_INDEX_DTYPE)
        for _ in range(2)
    )
    return _expand_qc(firsts, spec.r)


def random_regular_code(n: int, r: int, v: int, w: int, rng: np.random.Generator) -> SparseParityCheck:
    """Random (v, w)-regular code via the configuration model.

    Column stubs (each column repeated v times) are shuffled and dealt into
    rows of w slots; a repeated column inside a row is repaired by swapping
    the offending stub with a uniformly random stub elsewhere until the
    graph is simple. Intended for model validation at small sizes.
    """
    if n * v != r * w:
        raise ValueError("regularity requires n*v == r*w")
    if w > n:
        raise ValueError("row weight cannot exceed the number of columns")
    perm = rng.permutation(np.repeat(np.arange(n, dtype=_INDEX_DTYPE), v))
    total = perm.size
    for _ in range(_MAX_SWAPS):
        rows = perm.reshape(r, w)
        dup_row = -1
        for j in range(r):
            if w > 1 and np.unique(rows[j]).size != w:
                dup_row = j
                break
        if dup_row < 0:
            break
        vals, counts = np.unique(rows[dup_row], return_counts=True)
        dup_val = vals[counts > 1][0]
        slot = dup_row * w + int(np.flatnonzero(rows[dup_row] == dup_val)[0])
        other = int(rng.integers(0, total))
        perm[slot], perm[other] = perm[other], perm[slot]
    else:
        raise RuntimeError(f"no simple ({v},{w})-regular graph found in {_MAX_SWAPS} swaps")
    rows_flat = np.repeat(np.arange(r, dtype=_INDEX_DTYPE), w)
    order = np.argsort(perm, kind="stable")
    col_supports = rows_flat[order].reshape(n, v)
    return SparseParityCheck.from_col_supports(col_supports, r)


def syndrome(H: SparseParityCheck, e: ErrorPattern) -> Syndrome:
    """s = e * H^T, accumulated column-wise in O(weight * v)."""
    if e.n != H.n:
        raise ValueError(f"error length {e.n} does not match code length {H.n}")
    bits = np.zeros(H.r, dtype=np.uint8)
    if e.weight:
        idx = H.col_supports[e.support].ravel()
        np.bitwise_xor.at(bits, idx, 1)
    return Syndrome(bits)


def sample_error(n: int, t: int, rng: np.random.Generator) -> ErrorPattern:
    """Uniform random weight-t pattern of length n."""
    if not 0 <= t <= n:
        raise ValueError(f"weight {t} out of range for length {n}")
    return ErrorPattern(n, sample_distinct(rng, n, t))


# -- file format ------------------------------------------------------------
#
# Full format (UTF-8 text):     QC compact format:
#   n r v                         QC r v
#   <v indices of column 0>       <v indices, block 1 first column>
#   ...                           <v indices, block 2 first column>
#   <v indices of column n-1>
#
# Indices are 0-based and space-separated. A line may list them in any
# order (``load_code`` sorts it); ``save_code`` writes them ascending.


def _parse_index_line(line: str, lineno: int, expected: int, label: str, limit: int) -> np.ndarray:
    tokens = line.split()
    try:
        values = [int(tok) for tok in tokens]
    except ValueError:
        raise CodeFormatError(f"line {lineno}: {label}: non-integer index") from None
    if len(values) != expected:
        raise CodeFormatError(
            f"line {lineno}: {label}: expected {expected} indices, got {len(values)}"
        )
    if any(not 0 <= x < limit for x in values):
        raise CodeFormatError(f"line {lineno}: {label}: index out of range [0, {limit})")
    arr = np.asarray(values, dtype=np.int64)
    if arr.size > 1 and (np.diff(np.sort(arr)) == 0).any():
        raise CodeFormatError(f"line {lineno}: {label}: duplicate index")
    return arr


def _reject_trailing(lines: list[str], start: int, after: str) -> None:
    """Raise naming the first non-blank line from index ``start`` on."""
    for k in range(start, len(lines)):
        if lines[k].split():
            raise CodeFormatError(f"line {k + 1}: trailing content after {after}")


def load_code(path) -> SparseParityCheck:
    """Parse a code file (full or QC compact format); see module docstring."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte sits on the last line of the valid prefix plus one char.
        lineno = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise CodeFormatError(f"line {lineno}: not valid UTF-8") from None
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise CodeFormatError("line 1: empty header")
    header = lines[0].split()
    if header[0] == "QC":
        if len(header) != 3:
            raise CodeFormatError("line 1: QC header must be 'QC r v'")
        try:
            r, v = int(header[1]), int(header[2])
        except ValueError:
            raise CodeFormatError("line 1: QC header must be 'QC r v'") from None
        if v < 1 or v >= r:
            raise CodeFormatError(f"line 1: invalid QC parameters r={r} v={v}")
        if len(lines) < 3:
            raise CodeFormatError(f"line {len(lines) + 1}: expected 2 block support lines")
        _reject_trailing(lines, 3, "QC blocks")
        firsts = tuple(
            np.sort(_parse_index_line(lines[1 + b], 2 + b, v, f"block {b}", r)).astype(_INDEX_DTYPE)
            for b in range(2)
        )
        return _expand_qc(firsts, r)

    if len(header) != 3:
        raise CodeFormatError("line 1: header must be 'n r v'")
    try:
        n, r, v = (int(tok) for tok in header)
    except ValueError:
        raise CodeFormatError("line 1: header must be 'n r v'") from None
    if n < 1 or r < 1 or v < 1 or v > r:
        raise CodeFormatError(f"line 1: inconsistent parameters n={n} r={r} v={v}")
    if len(lines) < 1 + n:
        raise CodeFormatError(f"line {len(lines) + 1}: expected {n} column lines, file ends early")
    _reject_trailing(lines, 1 + n, f"{n} columns")
    cols = np.empty((n, v), dtype=np.int64)
    for i in range(n):
        cols[i] = np.sort(_parse_index_line(lines[1 + i], 2 + i, v, f"column {i}", r))
    return SparseParityCheck.from_col_supports(cols, r)


def save_code(H: SparseParityCheck, path, *, qc_compact: bool = False) -> None:
    """Serialize a code; output is canonical, so save/load/save is a fixpoint."""
    if qc_compact:
        if H.qc_first_columns is None or len(H.qc_first_columns) != 2:
            raise ValueError("code has no two-block QC structure to serialize")
        lines = [f"QC {H.r} {H.v}"]
        lines += [" ".join(map(str, block)) for block in H.qc_first_columns]
    else:
        lines = [f"{H.n} {H.r} {H.v}"]
        lines += [" ".join(map(str, H.col_supports[i])) for i in range(H.n)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
