import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfkit import codes as codes_module
from bfkit.codes import (
    CodeFormatError,
    ErrorPattern,
    QcSeedSpec,
    SparseParityCheck,
    Syndrome,
    generate_qc,
    load_code,
    random_regular_code,
    sample_error,
    save_code,
    syndrome,
)
from bfkit.rng import make_rng

from helpers import (
    check_invariants,
    dense_matrix,
    dense_syndrome,
    gf2_rank,
    toy_code_from_columns,
)


# -- quasi-cyclic generation ---------------------------------------------------


def test_qc_large_scale_row_weights():
    H = generate_qc(QcSeedSpec(2003, 13, 12345))
    assert (H.n, H.r, H.v) == (4006, 2003, 13)
    assert (H.row_weights == 26).all()
    assert (np.bincount(H.col_supports.ravel(), minlength=H.r) == 26).all()


def test_qc_weight_one_blocks_are_shifted_identities():
    H = generate_qc(QcSeedSpec(5, 1, 0))
    assert H.n == 10
    assert (H.row_weights == 2).all()
    # column i of a block hits row (c + i) mod 5 for the block's base row c
    for b in range(2):
        base = int(H.qc_first_columns[b][0])
        for i in range(5):
            assert H.col_supports[b * 5 + i, 0] == (base + i) % 5


def test_qc_row_supports_match_dense_transpose():
    H = generate_qc(QcSeedSpec(13, 3, 42))
    D = dense_matrix(H)
    cols, length = H.index.row_columns(np.arange(H.r))
    for j, row in enumerate(cols.reshape(H.r, length)):
        np.testing.assert_array_equal(np.sort(row), np.flatnonzero(D[j]))


def test_qc_determinism():
    a = generate_qc(QcSeedSpec(53, 5, 99))
    b = generate_qc(QcSeedSpec(53, 5, 99))
    assert a == b
    c = generate_qc(QcSeedSpec(53, 5, 100))
    assert a != c


def test_qc_rejects_overweight_column():
    with pytest.raises(ValueError):
        QcSeedSpec(5, 5, 0)
    with pytest.raises(ValueError):
        QcSeedSpec(5, 0, 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_qc_invariants_property(seed):
    H = generate_qc(QcSeedSpec(29, 4, seed))
    check_invariants(H)
    assert sum(H.row_weights) == H.n * H.v


# -- syndromes ------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy():
    return generate_qc(QcSeedSpec(13, 3, 7))


def test_syndrome_zero_error(toy):
    s = syndrome(toy, ErrorPattern.zero(toy.n))
    assert s.is_zero and s.r == toy.r


def test_syndrome_single_error_is_column_indicator(toy):
    for i in (0, 5, toy.n - 1):
        s = syndrome(toy, ErrorPattern.from_support(toy.n, [i]))
        np.testing.assert_array_equal(np.flatnonzero(s.bits), np.sort(toy.col_supports[i]))


def test_syndrome_matches_dense_oracle(toy):
    D = dense_matrix(toy)
    rng = make_rng(3)
    for _ in range(50):
        e = sample_error(toy.n, 5, rng)
        np.testing.assert_array_equal(
            syndrome(toy, e).bits, dense_syndrome(D, e.to_dense())
        )


def test_syndrome_length_mismatch(toy):
    with pytest.raises(ValueError):
        syndrome(toy, ErrorPattern.zero(toy.n + 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2**32))
def test_syndrome_linearity(seed_a, seed_b):
    H = generate_qc(QcSeedSpec(17, 3, 1))
    e1 = sample_error(H.n, 4, make_rng(seed_a))
    e2 = sample_error(H.n, 6, make_rng(seed_b))
    lhs = syndrome(H, e1.xor(e2)).bits
    rhs = syndrome(H, e1).bits ^ syndrome(H, e2).bits
    np.testing.assert_array_equal(lhs, rhs)


# -- error sampling --------------------------------------------------------------


def test_sample_error_extremes():
    rng = make_rng(0)
    assert sample_error(10, 0, rng).weight == 0
    full = sample_error(10, 10, rng)
    np.testing.assert_array_equal(full.support, np.arange(10))
    with pytest.raises(ValueError):
        sample_error(10, 11, rng)


def test_sample_error_uniform_over_supports():
    # all C(10,3) = 120 supports equally likely; 5-sigma per-cell band
    n, t, draws = 10, 3, 1_000_000
    rng = make_rng(31337)
    counts = np.zeros((n, n, n))
    for _ in range(draws):
        a, b, c = sample_error(n, t, rng).support
        counts[a, b, c] += 1
    cells = counts[counts > 0]
    assert cells.size == 120
    p = 1 / 120
    sigma = np.sqrt(p * (1 - p) * draws)
    assert np.abs(cells - draws * p).max() < 5 * sigma


def test_sample_error_deterministic_given_stream():
    a = sample_error(100, 7, make_rng(5))
    b = sample_error(100, 7, make_rng(5))
    assert a == b


# -- regular ensemble ------------------------------------------------------------


def test_random_regular_code_profiles():
    rng = make_rng(11)
    for n, r, v, w in [(16, 8, 3, 6), (24, 12, 3, 6), (30, 10, 2, 6)]:
        H = random_regular_code(n, r, v, w, rng)
        check_invariants(H)
        assert (H.row_weights == w).all()
        assert H.is_row_regular


@pytest.mark.parametrize(
    "shape, seed, digest",
    [
        ((16, 8, 3, 6), 0, "0378cb96a30e1c4f"),
        ((24, 12, 3, 6), 1, "7ea220c4534fae62"),
        ((30, 10, 2, 6), 2, "a3f025312f19a78b"),
        ((10, 30, 3, 1), 3, "9a6a64d3bdc0a955"),
        ((20, 10, 1, 2), 4, "f65b9c94d334a4da"),
        ((200, 100, 3, 6), 6, "3350161b4721ddb5"),
        ((96, 48, 5, 10), 7, "26d099bb42a96ddd"),
        ((4006, 2003, 13, 26), 10, "1cc715f4e4290a67"),
    ],
)
def test_random_regular_code_is_pinned(shape, seed, digest):
    # the stub swaps and their rng draws fix the code bit for bit
    H = random_regular_code(*shape, make_rng(seed))
    assert hashlib.sha256(H.col_supports.astype("<i4").tobytes()).hexdigest()[:16] == digest


def test_random_regular_code_gives_up(monkeypatch):
    # a (6, 12)-regular code on 12 columns puts every column in every row;
    # the random swaps do not reach it in a few steps
    monkeypatch.setattr(codes_module, "_MAX_SWAPS", 50)
    with pytest.raises(RuntimeError, match=r"^no simple \(6,12\)-regular graph found in 50 swaps$"):
        random_regular_code(12, 6, 6, 12, make_rng(9))


def test_random_regular_code_rejects_bad_profile():
    with pytest.raises(ValueError):
        random_regular_code(10, 5, 3, 5, make_rng(0))


# -- file round trips --------------------------------------------------------------


def test_full_format_round_trip(tmp_path, toy):
    p1, p2 = tmp_path / "a.code", tmp_path / "b.code"
    save_code(toy, p1)
    loaded = load_code(p1)
    check_invariants(loaded)
    assert loaded == toy
    save_code(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_qc_compact_round_trip(tmp_path):
    H = generate_qc(QcSeedSpec(31, 4, 8))
    p1, p2 = tmp_path / "a.qc", tmp_path / "b.qc"
    save_code(H, p1, qc_compact=True)
    loaded = load_code(p1)
    check_invariants(loaded)
    assert loaded == H
    assert loaded.qc_first_columns is not None
    save_code(loaded, p2, qc_compact=True)
    assert p1.read_bytes() == p2.read_bytes()


def test_large_code_serialize_parse_serialize_fixpoint(tmp_path):
    H = generate_qc(QcSeedSpec(2003, 17, 4))
    p1, p2 = tmp_path / "big1.code", tmp_path / "big2.code"
    save_code(H, p1)
    save_code(load_code(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_qc_compact_requires_qc_structure(tmp_path):
    H = toy_code_from_columns([[0, 1], [1, 2], [0, 2]], 3)
    with pytest.raises(ValueError):
        save_code(H, tmp_path / "x", qc_compact=True)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("3 3 3\n0 1 2\n0 1\n0 1 2\n", "column 1: expected 3 indices"),
        ("2 3 2\n0 1\n1 1\n", "line 3"),
        ("2 3 2\n0 1\n1 5\n", "out of range"),
        ("2 3 2\n0 1\n", "line 3"),
        ("x y z\n", "header"),
        ("QC 5 2\n0 1\n", "line 3"),
        ("QC 5 2\n0 1\n1 2\n0 3\n", "trailing"),
        ("QC 5 2\n0 1\n1 2\n\n\nx\n", "line 6: trailing"),
        ("2 3 2\n0 1\n1 2\n\nx\n", "line 5: trailing"),
        ("2 3 2\n0 a\n1 2\n", "non-integer"),
        ("2 3 2\n0 1\n1 99999999999999999999\n", "line 3: column 1: index out of range"),
    ],
)
def test_load_code_errors_name_the_line(tmp_path, content, fragment):
    path = tmp_path / "bad.code"
    path.write_text(content)
    with pytest.raises(CodeFormatError, match=fragment):
        load_code(path)


_JUNK_LINE = st.lists(
    st.one_of(st.integers(-2, 70).map(str), st.sampled_from(["QC", "a", "1.5", "9" * 25])),
    max_size=6,
)


@st.composite
def _code_file_bytes(draw):
    """Bytes shaped like a code file, header integers at most 64: mostly
    well-formed index lines, now and then a junk line, a missing or extra
    line, or a stray byte that is not UTF-8."""
    n, r, v = draw(st.integers(-1, 12)), draw(st.integers(-1, 64)), draw(st.integers(-1, 8))
    qc = draw(st.booleans())
    header = f"QC {r} {v}" if qc else f"{n} {r} {v}"
    count = (2 if qc else max(n, 0)) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    k, top = max(v, 0), max(r - 1, 0)
    good = st.lists(st.integers(0, top), min_size=k, max_size=k, unique=k <= top + 1)
    good = good.map(lambda xs: " ".join(map(str, xs)))
    line = st.one_of(good, good, good, _JUNK_LINE.map(" ".join))
    lines = [draw(st.sampled_from(["", "x y z", "QC 5"])) if draw(st.integers(0, 15)) == 7
             else header]
    lines += draw(st.lists(line, min_size=max(count, 0), max_size=max(count, 0)))
    data = "\n".join(lines).encode("utf-8")
    if draw(st.integers(0, 3)) == 2:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(_code_file_bytes())
def test_load_code_fuzz_loads_or_names_the_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "f.code"
    path.write_bytes(data)
    try:
        H = load_code(path)
    except CodeFormatError as exc:
        assert str(exc).startswith("line "), str(exc)
    else:
        assert isinstance(H, SparseParityCheck)
        check_invariants(H)


# -- misc -------------------------------------------------------------------------


def test_error_pattern_validation():
    with pytest.raises(ValueError):
        ErrorPattern(4, np.array([1, 1]))
    with pytest.raises(ValueError):
        ErrorPattern(4, np.array([3, 2]))
    with pytest.raises(ValueError):
        ErrorPattern(4, np.array([4]))


def test_syndrome_equality():
    a = Syndrome(np.array([0, 1, 0], dtype=np.uint8))
    b = Syndrome(np.array([0, 1, 0], dtype=np.uint8))
    c = Syndrome(np.array([1, 1, 0], dtype=np.uint8))
    assert a == b and a != c


def test_gf2_rank_diagnostic():
    H = toy_code_from_columns([[0, 1], [1, 2], [0, 2], [0, 1]], 3)
    # rows: {0,2,3}, {0,1,3}, {1,2}; row2 = row0 + row1 over F2
    assert gf2_rank(H) == 2
    full = generate_qc(QcSeedSpec(13, 3, 21))
    assert gf2_rank(full) <= full.r
