"""Sparse parity-check matrices, quasi-cyclic construction, syndromes, errors.

A parity-check matrix is held column-sparse. A quasi-cyclic code is stored
as the first column of each circulant block; any other code as the v row
indices of each of its columns. Tables a caller asks for (the full column
table of a quasi-cyclic code, the CSR row view of any code) are built on
first use. ``CodeIndex`` does the index arithmetic the decoders and
``syndrome`` need, for one code or for a group of trials' codes, so no other
module reads the storage format. Syndromes are dense bit vectors (one byte
per bit), error vectors are sorted index lists. Indices are 0-based
everywhere, including file formats.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .rng import make_rng, sample_distinct

_INDEX_DTYPE = np.int32

# Stub swaps ``random_regular_code`` tries before giving up on a simple graph.
_MAX_SWAPS = 100_000


class CodeFormatError(ValueError):
    """Raised when a code or syndrome file cannot be parsed; message names the line."""


@dataclass(frozen=True, eq=False)
class SparseParityCheck:
    """Column-regular sparse binary parity-check matrix.

    Exactly one stored form is set: ``qc_first_columns``, the sorted
    first-column support of each circulant block of a quasi-cyclic code
    (column k*r + c has support (S_k + c) mod r), or ``column_table``, an
    (n, v) array whose row i holds the sorted row indices of column i.
    ``col_supports`` and the CSR row view (``row_indices``/``row_ptr``) are
    derived from it on first use, so every view is transpose-consistent by
    construction. Instances are immutable and safe to share across threads
    and processes. Build them with ``from_col_supports`` or
    ``from_qc_first_columns``.
    """

    n: int
    r: int
    v: int
    qc_first_columns: tuple[np.ndarray, ...] | None = None
    column_table: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 1 or self.r < 1 or self.v < 1:
            raise ValueError("n, r and v must be positive")
        if self.v >= 1 << 15:
            raise ValueError("column weight must fit a 16-bit counter")
        if (self.qc_first_columns is None) == (self.column_table is None):
            raise ValueError("give exactly one of qc_first_columns and column_table")
        if self.column_table is not None:
            table = self.column_table
            if table.shape != (self.n, self.v):
                raise ValueError("column_table must have shape (n, v)")
            if table.min() < 0 or table.max() >= self.r:
                raise ValueError("column support index out of range")
            if self.v > 1 and not (np.diff(table, axis=1) > 0).all():
                raise ValueError("column supports must be strictly increasing")
        else:
            if self.n != self.r * len(self.qc_first_columns):
                raise ValueError("QC first columns must be v indices per r-column block")
            for first in self.qc_first_columns:
                # a few dozen indices: plain Python is quicker than numpy here
                rows = first.tolist()
                if first.shape != (self.v,):
                    raise ValueError("QC first columns must be v indices per r-column block")
                if rows[0] < 0 or rows[-1] >= self.r:
                    raise ValueError("column support index out of range")
                if any(a >= b for a, b in zip(rows, rows[1:])):
                    raise ValueError("column supports must be strictly increasing")

    # -- derived views -------------------------------------------------------

    @cached_property
    def col_supports(self) -> np.ndarray:
        """(n, v) table, row i the sorted row indices of column i."""
        if self.column_table is not None:
            return self.column_table
        shifts = np.arange(self.r, dtype=_INDEX_DTYPE)[:, None]
        return np.ascontiguousarray(np.vstack([
            np.sort((first[None, :] + shifts) % self.r, axis=1)
            for first in self.qc_first_columns
        ]))

    @cached_property
    def _row_csr(self) -> tuple[np.ndarray, np.ndarray]:
        rows_flat = self.col_supports.ravel()
        col_of_entry = np.repeat(np.arange(self.n, dtype=_INDEX_DTYPE), self.v)
        # Stable sort by row keeps column indices ascending within each row.
        row_indices = col_of_entry[np.argsort(rows_flat, kind="stable")]
        row_ptr = np.zeros(self.r + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows_flat, minlength=self.r), out=row_ptr[1:])
        return row_indices, row_ptr

    @property
    def row_indices(self) -> np.ndarray:
        return self._row_csr[0]

    @property
    def row_ptr(self) -> np.ndarray:
        return self._row_csr[1]

    @cached_property
    def row_weights(self) -> np.ndarray:
        if self.qc_first_columns is not None:
            # every row meets v columns of each block
            return np.full(self.r, self.n * self.v // self.r, dtype=np.int64)
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
    def index(self) -> "CodeIndex":
        """The ``CodeIndex`` of this code alone, built on first use."""
        return CodeIndex([self])

    def row_support(self, j: int) -> np.ndarray:
        return self.row_indices[self.row_ptr[j]:self.row_ptr[j + 1]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseParityCheck):
            return NotImplemented
        if (self.n, self.r, self.v) != (other.n, other.r, other.v):
            return False
        if self.qc_first_columns is not None and other.qc_first_columns is not None:
            return all(map(np.array_equal, self.qc_first_columns, other.qc_first_columns))
        return np.array_equal(self.col_supports, other.col_supports)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_col_supports(cls, col_supports: np.ndarray, r: int) -> "SparseParityCheck":
        """Build from an (n, v) column-support array (each row sorted here)."""
        cols = np.ascontiguousarray(np.sort(np.asarray(col_supports, dtype=_INDEX_DTYPE), axis=1))
        n, v = cols.shape
        return cls(n=n, r=r, v=v, column_table=cols)

    @classmethod
    def from_qc_first_columns(cls, first_cols, r: int) -> "SparseParityCheck":
        """Build a quasi-cyclic code from the first column of each block."""
        firsts = tuple(np.sort(np.asarray(f, dtype=_INDEX_DTYPE)) for f in first_cols)
        return cls(n=r * len(firsts), r=r, v=firsts[0].size, qc_first_columns=firsts)


@lru_cache(maxsize=16)
def _wrap_table(r: int, blocks: int) -> np.ndarray:
    """Entry k*2r + x is (x mod r) + k*r for x in [0, 2r): one lookup wraps
    a shifted index into block k. At r=2003 this gather is about 3x quicker
    than ``% r`` on the (32, v, 2, v) row indices of a group's flips, and
    ``% r`` would cost validate-fresh about 14% of its trials/s."""
    table = np.arange(2 * r) % r + r * np.arange(blocks)[:, None]
    table.setflags(write=False)
    return table.ravel()


class CodeIndex:
    """Index arithmetic over the codes of a group of trials decoded together.

    ``codes`` holds each trial's code: either one table code shared by every
    trial (ragged rows included) or quasi-cyclic codes of one shape, stacked
    by their first columns (a shared quasi-cyclic code is stacked once per
    trial). Quasi-cyclic codes need no table: column k*r + c has checks
    (S_k + c) mod r, and row j meets the columns (j - S_k) mod r + k*r. A
    table code reads its column table and rows. Row i of an argument, and
    group column i*n + c, are in code i; ``select`` keeps some of the codes.
    ``row_length`` is the common row weight, None when rows are ragged.
    """

    def __init__(self, codes: Sequence[SparseParityCheck]):
        first = codes[0]
        self.n, self.r, self.v = first.n, first.r, first.v
        self._table = None
        if first.qc_first_columns is None and all(H is first for H in codes):
            self._table = first
            self.row_length = first.w_max if first.is_row_regular else None
            return
        if any(
            H.qc_first_columns is None or (H.n, H.r, H.v) != (self.n, self.r, self.v)
            for H in codes
        ):
            raise ValueError("a group needs one shared code or quasi-cyclic codes of one shape")
        # (codes, blocks, v), in the platform index type so gathers need no cast
        self._stack(np.stack([np.stack(H.qc_first_columns) for H in codes]).astype(np.intp))

    def _stack(self, firsts: np.ndarray) -> None:
        r, (count, blocks, _) = self.r, firsts.shape
        self._firsts = firsts
        self.row_length = blocks * self.v
        self._wrap = _wrap_table(r, blocks)
        # Group column x = i*n + k*r + c lies in block x // r = i*blocks + k, so
        # (S_ik + c) mod r = wrap[col_base[x // r] + x], and
        # (j - S_ik) mod r + k*r = wrap[j + row_base[i, k]].
        self._col_base = firsts.reshape(-1, self.v) - r * np.arange(count * blocks)[:, None]
        self._row_base = (r - firsts + 2 * r * np.arange(blocks)[:, None]).reshape(count, -1)

    def select(self, trials: np.ndarray) -> "CodeIndex":
        """The index of the codes of ``trials`` (indices or a mask), in order."""
        if self._table is not None:
            return self
        sub = copy.copy(self)
        sub._stack(self._firsts[trials])
        return sub

    def column_checks(self, cols) -> np.ndarray:
        """Checks of each group column in ``cols`` (a numpy integer or an
        integer array), a trailing axis of v. Group column i*n + c is
        column c of code i, as in a group's flattened (k, n) counters."""
        if self._table is not None:
            return self._table.column_table[cols % self.n]
        return self._wrap[self._col_base[cols // self.r] + cols[..., None]]

    def row_columns(self, rows: np.ndarray) -> tuple[np.ndarray, int | np.ndarray]:
        """Columns meeting each check of the (k, m) ``rows``, concatenated in
        row order, and each row's length (one int for quasi-cyclic codes,
        whose rows all have the same length)."""
        if self._table is None:
            return self._wrap[rows[..., None] + self._row_base[:, None, :]].ravel(), self.row_length
        H = self._table
        rows = rows.ravel()
        lengths = H.row_weights[rows]
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if ends.size else 0
        entries = np.repeat(H.row_ptr[rows] - ends + lengths, lengths) + np.arange(total)
        return H.row_indices[entries], lengths

    def unsatisfied_counts(self, S: np.ndarray) -> np.ndarray:
        """(k, n) int16: for each column, how many of its checks are set in
        row i of the (k, r) syndromes ``S``. Quasi-cyclic block k of row i is
        the sum of its v cyclic shifts of the syndrome by S_k; a table code
        takes a bincount over the columns of the set checks."""
        count, r = S.shape
        if self._table is None:
            # shifts[i, j] is the syndrome of row i rolled left by j (a view)
            shifts = np.lib.stride_tricks.sliding_window_view(np.concatenate([S, S], axis=1), r, axis=1)
            picked = shifts[np.arange(count)[:, None, None], self._firsts]
            return picked.sum(axis=2, dtype=np.int16).reshape(count, self.n)
        rows, checks = np.divmod(np.flatnonzero(S), r)
        cols, lengths = self.row_columns(checks)
        pos = np.repeat(rows * self.n, lengths) + cols
        return np.bincount(pos, minlength=count * self.n).astype(np.int16).reshape(count, self.n)

    def syndromes(self, errors: np.ndarray) -> np.ndarray:
        """(k, r) syndrome bits of the (k, t) error supports."""
        count = errors.shape[0]
        group = np.arange(count)[:, None]
        checks = self.column_checks(errors + group * self.n) + (group * self.r)[..., None]
        bits = np.bincount(checks.ravel(), minlength=count * self.r) & 1
        return bits.astype(np.uint8).reshape(count, self.r)


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
    return SparseParityCheck.from_qc_first_columns(firsts, spec.r)


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
    return Syndrome(H.index.syndromes(e.support[None, :])[0])


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


def read_utf8(path) -> str:
    """The text of a UTF-8 file; a file that is not UTF-8 raises a
    ``CodeFormatError`` naming the line of the first bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bad byte sits on the last line of the valid prefix plus one char.
        lineno = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise CodeFormatError(f"line {lineno}: not valid UTF-8") from None


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
    lines = read_utf8(path).splitlines()
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
        return SparseParityCheck.from_qc_first_columns(firsts, r)

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
