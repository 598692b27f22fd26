from __future__ import annotations

import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import codedshuffle.arrays
import codedshuffle.kernels
from codedshuffle import (
    STAR,
    ArrayFormatError,
    CodedArray,
    JobSpec,
    TruncationError,
    Violation,
    algorithm1,
    choose_iv_bits,
    compute_stats,
    load_fixture,
    load_from_array,
    parse_array,
    run_job,
    truncate_columns,
    validate_l_cyclic,
    validate_mra,
    validate_pda,
)
from codedshuffle.kernels import first_pair_violation, group_cells

from conftest import traced
from oracles import (
    bf_blocks,
    bf_cyclic_shift,
    bf_equal_up_to_relabeling,
    bf_first_orphan,
    bf_first_pair_violation,
    bf_l_cyclic,
    bf_multiplicities,
    bf_normalize,
    bf_pair_conditions,
    bf_parse_array,
    bf_serialize,
    bf_star_run_starts,
    bf_symbol_cells,
    bf_validate_mra,
    bf_validate_pda,
    gather_first_pair_violation,
)


def grid(*rows):
    return CodedArray(np.array(rows, dtype=np.int64))


# --- grid ownership ----------------------------------------------------------


def test_array_takes_over_a_frozen_owned_grid():
    g = np.array([[0, STAR], [STAR, 0]], dtype=np.int64)
    g.setflags(write=False)
    arr = CodedArray(g)
    assert np.shares_memory(arr.grid, g)
    assert not arr.grid.flags.writeable


def test_array_copies_any_other_grid():
    base = np.array([[0, STAR, 1], [STAR, 0, 1]], dtype=np.int64)
    frozen_base = base.copy()
    frozen_base.setflags(write=False)
    fortran = np.asfortranarray(base)
    fortran.setflags(write=False)
    small = base.astype(np.int32)
    small.setflags(write=False)
    cases = {
        "writable": base,
        "view": frozen_base[:, :2],
        "fortran": fortran,
        "int32": small,
        "list": base.tolist(),
    }
    for name, g in cases.items():
        arr = CodedArray(g)
        assert not np.shares_memory(arr.grid, np.asarray(g)), name
        assert arr.grid.dtype == np.int64 and arr.grid.flags.c_contiguous, name
        assert not arr.grid.flags.writeable, name
        assert np.array_equal(arr.grid, g), name
    # later writes to the caller's array do not reach the copy
    arr = CodedArray(base)
    base[0, 0] = 7
    assert arr.grid[0, 0] == 0 and arr.symbols == (0, 1)
    for g in (np.zeros(3, np.int64), np.zeros((0, 3), np.int64)):
        with pytest.raises(ArrayFormatError, match="grid must be a non-empty 2-D array"):
            CodedArray(g)
    with pytest.raises(ArrayFormatError, match=r"entries must be \* or non-negative"):
        CodedArray([[0, -2], [STAR, 0]])


def test_builders_hand_over_their_grids(monkeypatch):
    # a builder's frozen grid is taken over by its array: the copy in
    # CodedArray (np.array) is never reached
    class CountingNumpy:
        copies = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, *args, **kwargs):
            CountingNumpy.copies += 1
            return np.array(*args, **kwargs)

    monkeypatch.setattr(codedshuffle.arrays, "np", CountingNumpy())
    base = algorithm1(4, 1, 1)
    for arr in [
        algorithm1(5, 2, 2),
        parse_array("2 2\n0 *\n# comment\n* 0\n"),
        codedshuffle.algorithm2(codedshuffle.GcParameters(4, 2, (1, 1))),
        codedshuffle.nnc_pda(12, 2, 4),
        CodedArray(base.grid),
    ]:
        assert arr.grid.flags.owndata and not arr.grid.flags.writeable
    assert CountingNumpy.copies == 0


# --- parsing and serialization ---------------------------------------------


def test_parse_golden(golden):
    arr = golden["mra_3col"]
    assert (arr.rows, arr.cols, arr.symbol_count) == (4, 3, 3)


def test_parse_minimal_two_row():
    arr = parse_array("2 1\n0\n0\n")
    assert (arr.rows, arr.cols, arr.symbol_count) == (2, 1, 1)


def test_roundtrip_is_byte_identical(golden):
    for arr in golden.values():
        text = arr.serialize()
        again = parse_array(text)
        assert again == arr
        assert again.serialize() == text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 1\n*",  # missing trailing newline
        "2 2\n* *\n*\n",  # ragged row
        "1 2\n* x\n",  # bad token
        "1 2\n* -3\n",  # negative
        "0 0\n",  # empty grid
        "2 2\n* *\n",  # row count mismatch
        "1 2\n* \u0661\n",  # non-ASCII digit
        "1 2\n* 9223372036854775808\n",  # above int64
        "1 4611686018427387904\n* *\n",  # header width far above the row's
        "\u0661 \u0662\n* *\n",  # non-ASCII header digits
        "+1 2\n* *\n",  # signed header
        "1 1_0\n" + "* " * 10 + "\n",  # header with a digit separator
    ],
)
def test_parse_errors(text):
    with pytest.raises(ArrayFormatError):
        parse_array(text)


def test_comments_are_ignored(monkeypatch):
    arr = parse_array("# hello\n1 2\n# mid\n* 0\n")
    assert arr.rows == 1 and arr.cols == 2
    # comment and blank lines between and after data rows, some indented
    # and some holding tokens after the '#', in one block of rows, in one
    # block per row, and in blocks of a few rows
    text = "3 3\n0 * 1\n  # 7 * x\n\n\t#\n1 0 *\n# 9\n* 1 0\n # tail 5\n"
    want = [[0, STAR, 1], [1, 0, STAR], [STAR, 1, 0]]
    assert bf_parse_array(text) == want
    for block in (codedshuffle.kernels.BLOCK, 1, 12):
        monkeypatch.setattr(codedshuffle.kernels, "BLOCK", block)
        assert parse_array(text).grid.tolist() == want, block


# the symbols on each side of every token width change, 1 to 19 digits
_WIDTH_EDGES = [0] + [s for k in range(1, 19) for s in (10**k - 1, 10**k)] + [2**63 - 1]


@st.composite
def text_grids(draw):
    """Grids of stars and symbols up to the int64 limit: all-star, star-free
    or mixed, 1 x 1 included, some with one row or column all stars."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    symbol = st.one_of(st.integers(0, 2**63 - 1), st.sampled_from(_WIDTH_EDGES))
    cell = draw(
        st.sampled_from([st.just(STAR), symbol, st.one_of(st.just(STAR), symbol)])
    )
    g = np.array(
        draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols)),
        dtype=np.int64,
    ).reshape(rows, cols)
    line = draw(st.sampled_from([None, "row", "column"]))
    if line == "row":
        g[draw(st.integers(0, rows - 1)), :] = STAR
    elif line == "column":
        g[:, draw(st.integers(0, cols - 1))] = STAR
    return g


@settings(max_examples=300, deadline=None)
@given(text_grids())
# every token width in one row, ending in a symbol or in a star
@example(np.array([_WIDTH_EDGES], dtype=np.int64))
@example(np.array([_WIDTH_EDGES + [STAR], [STAR] + _WIDTH_EDGES], dtype=np.int64))
# one column
@example(np.array([[STAR]] + [[s] for s in _WIDTH_EDGES] + [[STAR]], dtype=np.int64))
def test_serialize_matches_bruteforce(g):
    arr = CodedArray(g)
    text = arr.serialize()
    assert text == bf_serialize(g.tolist())
    assert parse_array(text) == arr


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text_grids(), st.integers(1, 24))
@example(np.array([_WIDTH_EDGES + [STAR], [STAR] + _WIDTH_EDGES], dtype=np.int64), 1)
def test_serialize_matches_bruteforce_in_small_blocks(monkeypatch, g, block):
    # one row per block at 1, and blocks of a few rows up to 24 characters
    monkeypatch.setattr(codedshuffle.kernels, "BLOCK", block)
    assert CodedArray(g).serialize() == bf_serialize(g.tolist())


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.text(alphabet="0123456789*# \t\n\r-+_x\u0661\u00a0"),
        text_grids().map(lambda g: CodedArray(g).serialize()),
    )
)
def test_parse_either_round_trips_or_raises_format_error(text):
    # the parser contract: any text gives an array whose text form parses
    # back to it, or ArrayFormatError, never another exception
    try:
        arr = parse_array(text)
    except ArrayFormatError:
        return
    assert parse_array(arr.serialize()) == arr


# line breaks of str.splitlines, whitespace of str.split, a non-ASCII digit
_PARSE_EXTRA = "\r\x0b\x0c\x1c\x1f\x85\xa0\u2003\u2028\u3000\u0661"
_PARSE_ALPHABET = "0123456789*# \t\n" + _PARSE_EXTRA


@st.composite
def texts_with_junk(draw):
    """A valid grid's text with a few characters inserted anywhere."""
    text = CodedArray(draw(text_grids())).serialize()
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        junk = draw(st.text(alphabet=_PARSE_ALPHABET + "x-+", min_size=1, max_size=3))
        text = text[:at] + junk + text[at:]
    return text


@st.composite
def texts_with_wide_tokens(draw):
    """Rows of zero-padded tokens 18 to 25 characters wide, some near 2**63."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    value = st.one_of(
        st.integers(0, 10**18), st.integers(2**63 - 3, 2**63 + 3), st.just(STAR)
    )
    lines = [f"{rows} {cols}"]
    for _ in range(rows):
        toks = []
        for _ in range(cols):
            v = draw(value)
            toks.append("*" if v == STAR else str(v).zfill(draw(st.integers(18, 25))))
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


@st.composite
def texts_with_wide_headers(draw):
    """Headers that declare far more columns than the rows hold."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(3, 2**80))
    body = draw(st.lists(st.text(alphabet="0123456789* ", max_size=6), min_size=rows,
                         max_size=rows))
    return "\n".join([f"{rows} {cols}", *(f"* {b}" for b in body)]) + "\n"


parse_texts = st.one_of(
    st.text(),
    st.text(alphabet=_PARSE_ALPHABET),
    texts_with_junk(),
    texts_with_wide_tokens(),
    texts_with_wide_headers(),
)


def _check_parse(text):
    # the same grid as the token-at-a-time reference, or its exact message
    try:
        want = bf_parse_array(text)
    except ValueError as exc:
        with pytest.raises(ArrayFormatError) as got:
            parse_array(text)
        assert str(got.value) == str(exc)
    else:
        assert parse_array(text).grid.tolist() == want


@settings(max_examples=1000, deadline=None)
@given(parse_texts)
def test_parse_matches_reference(text):
    _check_parse(text)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(parse_texts, st.integers(1, 24))
def test_parse_matches_reference_in_small_blocks(monkeypatch, text, block):
    # blocks of one or a few rows: faults and symbols in later blocks
    monkeypatch.setattr(codedshuffle.kernels, "BLOCK", block)
    _check_parse(text)


# Faults put into a long text at byte p, a space between two stars: each
# takes the text and p and gives the faulty text.  A pair of stars, a star
# before a digit and a digit after a star each replace the three bytes
# "* *" and keep the row's stars plus digit runs at its column count.  A
# tab, \x1f and a non-ASCII space are gaps and a zero-padded 20-digit token
# is a symbol, so those texts still parse; a comment line goes after the
# row that holds p.
_LONG_TEXT_FAULTS = {
    "pair": lambda t, p: t[: p - 1] + "** " + t[p + 2 :],
    "star-digit": lambda t, p: t[: p - 1] + "*7 " + t[p + 2 :],
    "digit-star": lambda t, p: t[: p - 1] + "12*" + t[p + 2 :],
    "bad": lambda t, p: t[: p + 1] + "x" + t[p + 2 :],
    "tab": lambda t, p: t[:p] + "\t" + t[p + 1 :],
    "unit-separator": lambda t, p: t[:p] + "\x1f" + t[p + 1 :],
    "crlf": lambda t, p: t[:p] + "\r\n" + t[p + 1 :],
    "comment": lambda t, p: (
        t[: t.index("\n", p) + 1] + " # 12 * x ** 7\n" + t[t.index("\n", p) + 1 :]
    ),
    "nbsp": lambda t, p: t[:p] + "\u00a0" + t[p + 1 :],
    "dropped": lambda t, p: t[:p] + t[p + 2 :],
    "extra": lambda t, p: t[:p] + " *" + t[p:],
    "wide": lambda t, p: t[: p + 1] + "00000000000000000123" + t[p + 2 :],
}


@pytest.fixture(scope="module")
def long_texts():
    """The texts of two subset-topology arrays, and for each two places p
    (a space with 64 or more bytes of stars and spaces on each side): one
    from ``default_rng(11)`` in the middle half of the text, one in the
    last data row, before its last 64 bytes when it can be."""
    rng = np.random.default_rng(11)
    out = {}
    for point in [(10, 4, 4), (12, 6, 6)]:
        text = algorithm1(*point).serialize()
        b = np.frombuffer(text.encode(), np.uint8)
        other = np.concatenate(([0], np.cumsum((b != ord(" ")) & (b != ord("*")))))
        p = np.arange(64, b.size - 64)
        quiet = p[(b[p] == ord(" ")) & (other[p + 65] == other[p - 64])]
        middle = quiet[(quiet > b.size // 4) & (quiet < 3 * b.size // 4)]
        last = quiet[quiet > text.rindex("\n", 0, -1)]
        out[point] = text, [int(rng.choice(middle)), int(last[-1])]
    return out


@pytest.mark.parametrize("fault", sorted(_LONG_TEXT_FAULTS))
@pytest.mark.parametrize("point", [(10, 4, 4), (12, 6, 6)], ids=["10-4-4", "12-6-6"])
def test_parse_matches_reference_on_long_texts(monkeypatch, long_texts, point, fault):
    # one fault deep inside a long star run and one in the last row, at the
    # default block and at blocks of a few rows
    text, places = long_texts[point]
    for p in places:
        faulty = _LONG_TEXT_FAULTS[fault](text, p)
        for block in (codedshuffle.kernels.BLOCK, 1 << 12):
            monkeypatch.setattr(codedshuffle.kernels, "BLOCK", block)
            _check_parse(faulty)


# --- statistics --------------------------------------------------------------


def test_stats_irregular(golden):
    st_ = compute_stats(golden["mra_irregular"])
    assert st_.multiplicity == {0: 3, 1: 2, 2: 2, 3: 2}
    assert st_.histogram == {2: 3, 3: 1}
    assert st_.column_stars == (2, 2, 2, 2, 3)
    assert st_.common_g is None


def test_stats_regular(golden):
    st_ = compute_stats(golden["regular_pda_3"])
    assert st_.common_g == 3
    assert golden["regular_pda_3"].symbol_count == 4


def test_stats_all_star():
    arr = grid([STAR, STAR], [STAR, STAR])
    st_ = compute_stats(arr)
    assert st_.multiplicity == {} and st_.histogram == {}
    assert {} == st_.multiplicity and len(st_.multiplicity) == 0
    assert list(st_.multiplicity.items()) == [] and list(st_.multiplicity.values()) == []
    assert arr.symbols == () and arr.symbol_count == 0 and arr.is_normalized


def test_census_is_a_read_only_mapping_over_two_columns():
    arr = grid([7, STAR, 7, 3], [STAR, 12, 3, 7])
    census = compute_stats(arr).multiplicity
    assert census.labels.tolist() == [3, 7, 12] and census.counts.tolist() == [2, 3, 1]
    assert census.labels.dtype == census.counts.dtype == np.int64
    assert not census.labels.flags.writeable and not census.counts.flags.writeable
    # ascending, as Python ints, whichever way it is read
    assert list(census) == list(census.keys()) == [3, 7, 12]
    assert list(census.values()) == [2, 3, 1]
    assert list(census.items()) == [(3, 2), (7, 3), (12, 1)]
    assert all(type(v) is int for kv in census.items() for v in kv)
    assert [census[s] for s in (3, 7, 12)] == [2, 3, 1]
    assert type(census[7]) is int and census.get(7) == 3
    # equality with a dict either way, and with another census
    assert census == {3: 2, 7: 3, 12: 1} and {3: 2, 7: 3, 12: 1} == census
    assert census != {3: 2, 7: 3} and {3: 2, 7: 3, 12: 2} != census
    assert census == compute_stats(CodedArray(arr.grid.copy())).multiplicity
    with pytest.raises(TypeError):
        census[3] = 5
    with pytest.raises(TypeError):
        del census[3]


@pytest.mark.parametrize("key", [3, np.int64(3), np.int32(3), np.uint64(3), np.intp(3)])
def test_census_takes_python_and_numpy_ints(key):
    census = compute_stats(grid([3, STAR], [STAR, 3])).multiplicity
    assert key in census and census[key] == 2


@pytest.mark.parametrize(
    "key", [0, 2, 4, 6, 8, -1, 2**63, 2**64 + 4, -(2**63), np.uint64(2**64 - 1), 4.0, "4", None]
)
def test_census_misses_raise_key_error(key):
    # every label but the one looked up sits on either side of it
    census = compute_stats(grid([1, 3, 5, 7], [1, 3, 5, 7])).multiplicity
    assert key not in census and census.get(key) is None
    with pytest.raises(KeyError):
        census[key]


def test_census_labels_near_the_int64_limit():
    top = 2**63 - 1
    arr = grid([top, top - 1], [top - 1, top - 1])
    census = compute_stats(arr).multiplicity
    assert census == {top - 1: 3, top: 1}
    assert census[top] == 1 and census[np.int64(top)] == 1 and census[top - 1] == 3
    assert top - 2 not in census and 2**63 not in census
    assert arr.symbols == (top - 1, top) and not arr.is_normalized
    assert validate_pda(arr).violation == Violation("A2", symbol=0)


def test_stats_conservation(golden, constructor_sweep):
    arrays = list(golden.values())
    arrays += [a for family, _, a in constructor_sweep if family == "ct"]
    for arr in arrays:
        st_ = compute_stats(arr)
        nonstar = int((arr.grid != STAR).sum())
        assert sum(g * n for g, n in st_.histogram.items()) == nonstar
        assert sum(st_.column_stars) + nonstar == arr.rows * arr.cols


def test_cyclic_shift_detection(golden):
    assert compute_stats(golden["cyclic_pda_4"]).cyclic_shift == 2
    assert compute_stats(golden["cyclic_pda_12"]).cyclic_shift == 2
    assert compute_stats(golden["basic_pda"]).cyclic_shift is None


def _count_grouping(monkeypatch) -> list:
    """Record every grid that ``arrays`` groups into symbol cells."""
    calls = []

    def counting_group_cells(grid):
        calls.append(grid)
        return group_cells(grid)

    monkeypatch.setattr(codedshuffle.arrays, "group_cells", counting_group_cells)
    return calls


def test_array_facts_computed_once(monkeypatch):
    # every consumer of the grouped cells reads the one cached plan; the
    # labels are spread out so that normalize has work to do
    fixture = load_fixture("mra_irregular")
    arr = CodedArray(np.where(fixture.grid == STAR, STAR, fixture.grid * 7 + 3))
    fixture.shuffle_plan
    calls = _count_grouping(monkeypatch)
    assert parse_array(arr.serialize()) == arr
    assert validate_mra(arr).ok and not validate_pda(arr).ok
    load = load_from_array(arr)
    assert arr.normalize() == fixture
    assert arr.equal_up_to_relabeling(fixture)
    t = choose_iv_bits(arr, 1)
    _, report = run_job(arr, JobSpec(arr.rows, arr.cols, t))
    assert report.all_ok and report.measured_load == load
    assert len(calls) == 1 and calls[0] is arr.grid
    assert compute_stats(arr) is compute_stats(arr)


# --- validators ---------------------------------------------------------------


def test_validate_mra_golden(golden):
    assert validate_mra(golden["mra_irregular"]).ok
    assert validate_mra(golden["mra_3col"]).ok
    assert validate_mra(golden["gc_4_2_k23"]).ok
    # the basic PDA has a symbol occurring once, so it fails C1
    rep = validate_mra(golden["basic_pda"])
    assert not rep.ok and not rep.checks["C1"]
    assert rep.violation.symbol == 3


def test_validate_mra_fails_after_column_removal(golden):
    clipped = CodedArray(golden["mra_irregular"].grid[:, :4])
    rep = validate_mra(clipped)
    assert not rep.ok and not rep.checks["C1"]


def test_same_row_pair_fails():
    rep = validate_mra(grid([0, 0]))
    assert not rep.checks["C2-1"]
    assert rep.violation.cells == ((0, 0), (0, 1))


def test_missing_crossing_star_fails():
    rep = validate_mra(grid([0, 1], [1, 0]))
    assert rep.checks["C2-1"] and not rep.checks["C2-2"]


def test_both_crossing_parts_fail_with_the_first_pair_as_witness():
    # symbol 2 repeats row 2, so C2-1 fails as well as C2-2, although the
    # scan's first pair, symbol 1's, misses a crossing star
    arr = grid([0, 1, STAR], [1, 0, STAR], [2, STAR, 2])
    rep = validate_mra(arr)
    assert dict(rep.checks) == {"C1": True, "C2-1": False, "C2-2": False}
    assert rep.violation.describe() == "C2-2 symbol=1 cells=(0,1),(1,0)"
    with pytest.raises(ValueError) as err:
        run_job(arr, JobSpec(3, 3, 1))
    assert str(err.value) == (
        "array is not a valid map-reduce array: C2-2 symbol=1 cells=(0,1),(1,0)"
    )


@pytest.mark.parametrize(
    "rows",
    [
        ([0, STAR], [STAR, 0]),  # no orphan
        ([STAR, 1, 0], [1, STAR, 2], [0, STAR, STAR]),  # one, at (1, 2)
        ([3, STAR, 5], [7, 3, STAR], [STAR, 9, 5]),  # several, first (1, 0)
        ([STAR, STAR], [STAR, STAR]),  # no symbols at all
    ],
)
def test_first_orphan_matches_bruteforce(rows):
    arr = grid(*rows)
    expect = bf_first_orphan(arr.grid.tolist())
    viol = codedshuffle.arrays._first_orphan(arr)
    assert (viol and (viol.cells[0], viol.symbol)) == expect
    rep = validate_mra(arr)
    if expect is not None:
        assert rep.violation.condition == "C1"
        assert (rep.violation.cells, rep.violation.symbol) == ((expect[0],), expect[1])


def test_shuffle_plan_is_lazy_cached_and_grouped(golden, monkeypatch):
    calls = _count_grouping(monkeypatch)
    for name, fixture in golden.items():
        # the census never builds the plan, so summarised arrays keep none
        arr = CodedArray(fixture.grid)
        compute_stats(arr)
        arr.star_run_starts
        assert not calls and "shuffle_plan" not in arr.__dict__, name
        plan = arr.shuffle_plan
        assert arr.shuffle_plan is plan and len(calls) == 1
        calls.clear()
        cells = bf_symbol_cells(arr.grid.tolist())
        assert plan.symbols.tolist() == list(cells), name
        got = {
            s: list(zip(plan.rows[lo:hi].tolist(), plan.cols[lo:hi].tolist()))
            for s, lo, hi in zip(
                plan.symbols.tolist(), plan.offsets[:-1].tolist(), plan.offsets[1:].tolist()
            )
        }
        assert got == cells, name
        for a in (plan.symbols, plan.offsets, plan.rows, plan.cols):
            assert not a.flags.writeable


def test_validate_pda_golden(golden):
    rep = validate_pda(golden["basic_pda"])
    assert rep.ok and rep.details["Z"] == 2
    rep = validate_pda(golden["mra_irregular"])
    assert not rep.ok and not rep.checks["A1"]
    assert rep.violation.condition == "A1" and rep.violation.column == 4


def test_validate_pda_star_only_column():
    rep = validate_pda(grid([STAR], [STAR]))
    assert rep.checks["A1"] and not rep.checks["A2"]


def test_validate_pda_gappy_labels():
    # raw labels {0, 2}: the declared range [0, 3) is not covered
    rep = validate_pda(grid([0, 2], [2, 0], [STAR, STAR]))
    assert not rep.checks["A2"] and rep.violation.symbol == 1
    # (grid with uniform column stars, labels are 0..S-1, least missing label)
    cases = [
        (grid([0, 1], [1, 0]), True, None),  # {0, 1}
        (grid([1, 2], [2, 1]), False, 0),  # {1, 2}
        (grid([0, STAR], [STAR, 2]), False, 1),  # {0, 2}
        (grid([5, STAR], [STAR, 5]), False, 0),  # {5}
        (grid([STAR, STAR], [STAR, STAR]), True, None),  # no labels
    ]
    for arr, normalized, missing in cases:
        assert arr.is_normalized == normalized
        rep = validate_pda(arr)
        assert rep.checks["A1"] and rep.checks["A2"] == (arr.symbol_count > 0 and normalized)
        if not rep.checks["A2"]:
            assert rep.violation.condition == "A2" and rep.violation.symbol == missing


def test_validate_pda_large_label_is_cheap():
    # the A2 witness reads the ascending labels, never the range below the
    # largest; built from that range, this check took 5.4 s and a 347 MiB
    # tracemalloc peak on a 2-core VM, so no larger label is tried against
    # such code
    arr = parse_array("2 2\n3000000 *\n* 3000000\n")
    t0 = time.perf_counter()
    rep, peak, _ = traced(lambda: validate_pda(arr))
    assert time.perf_counter() - t0 < 0.2
    assert peak < 2**20
    assert rep.violation.describe() == "A2 symbol=0"


def test_validate_l_cyclic(golden):
    assert validate_l_cyclic(golden["cyclic_pda_4"], 2).ok
    rep = validate_l_cyclic(golden["cyclic_pda_12"], 2)
    assert rep.ok and rep.details["g"] == 4
    # star layout of the basic PDA is not a cyclic shift
    assert not validate_l_cyclic(golden["basic_pda"], 1).ok
    # regular but wrong shift
    assert not validate_l_cyclic(golden["cyclic_pda_4"], 1).ok


def test_pda_with_min_multiplicity_two_is_mra(golden, constructor_sweep):
    arrays = [golden["regular_pda_3"], golden["cyclic_pda_4"]]
    arrays += [a for family, _, a in constructor_sweep if family == "nnc"]
    for arr in arrays:
        st_ = compute_stats(arr)
        if validate_pda(arr).ok and min(st_.multiplicity.values()) >= 2:
            assert validate_mra(arr).ok


# --- truncation ---------------------------------------------------------------


def test_truncate_to_golden(golden):
    assert truncate_columns(golden["mra_irregular"], {0, 1, 2}) == golden["mra_3col"]


def test_truncate_orphan(golden):
    with pytest.raises(TruncationError) as err:
        truncate_columns(golden["mra_irregular"], {0, 1, 2, 3})
    assert err.value.symbol == 3
    # symbols 0 and 2 are both orphaned; the smallest is named
    with pytest.raises(TruncationError) as err:
        truncate_columns(golden["mra_irregular"], {2, 0})
    assert err.value.symbol == 0


def test_truncate_identity(golden):
    arr = golden["mra_irregular"]
    assert truncate_columns(arr, range(arr.cols)) == arr


def test_truncate_bad_args(golden):
    with pytest.raises(ValueError):
        truncate_columns(golden["mra_irregular"], [])
    with pytest.raises(ValueError):
        truncate_columns(golden["mra_irregular"], [99])


def test_truncate_preserves_star_positions(golden):
    arr = golden["gc_4_2_k23"]
    keep = list(range(8))  # the whole first block keeps every symbol twice+
    out = truncate_columns(arr, keep)
    assert np.array_equal(out.star_mask, arr.star_mask[:, keep])


# --- normalization and relabeling --------------------------------------------


def test_normalize_is_idempotent_and_order_preserving():
    arr = grid([5, STAR, 9], [STAR, 9, 5])
    norm = arr.normalize()
    assert norm.symbols == (0, 1)
    assert norm == norm.normalize()
    assert np.array_equal(norm.star_mask, arr.star_mask)


def test_normalize_preserves_validation_outcomes(golden):
    for arr in golden.values():
        shifted = CodedArray(
            np.where(arr.grid == STAR, STAR, arr.grid * 7 + 3)
        )
        assert shifted.normalize() == arr.normalize()
        assert validate_mra(shifted).ok == validate_mra(arr).ok


def test_relabel_equality():
    a = grid([0, 1], [1, 0])
    b = grid([1, 0], [0, 1])
    assert a.equal_up_to_relabeling(b)
    c = grid([0, 1], [STAR, 0])
    assert not a.equal_up_to_relabeling(c)
    # non-injective mapping must be rejected
    d = grid([0, 0], [1, 0])
    e = grid([0, 0], [0, 0])
    assert not d.equal_up_to_relabeling(e)
    # plain equality is on the grid itself
    arr = algorithm1(4, 1, 1)
    assert repr(arr) == "CodedArray(4x4, S=6)"
    assert arr == algorithm1(4, 1, 1) and hash(arr) == hash(algorithm1(4, 1, 1))
    assert (arr == "x") is False


# --- brute-force oracle agreement ---------------------------------------------


def test_validators_match_bruteforce_on_fixtures(golden):
    for name, arr in golden.items():
        g = arr.grid.tolist()
        assert validate_mra(arr).ok == bf_validate_mra(g), name
        assert validate_pda(arr).ok == bf_validate_pda(g), name


def test_validators_match_bruteforce_on_constructed(constructor_sweep):
    sample = [a for f, _, a in constructor_sweep if f != "gc" and a.rows * a.cols <= 10_000]
    sample += [a for f, _, a in constructor_sweep if f == "gc"][::97]
    for arr in sample:
        assert validate_mra(arr).ok == bf_validate_mra(arr.grid.tolist())


@st.composite
def small_grids(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    cells = draw(
        st.lists(
            st.integers(-1, 4),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(cells, dtype=np.int64).reshape(rows, cols)


def _check_pair_scan(g):
    arr = CodedArray(g)
    rows = g.tolist()
    want = bf_pair_conditions(rows)
    hit = first_pair_violation(arr.grid)
    assert (hit is None) == all(want)
    # the exact pair reported: first in row-major order, later cell first
    assert hit == bf_first_pair_violation(rows)
    # each C2 flag of both validators is the brute force's, whichever kind
    # the first pair is
    for report in (validate_mra(arr), validate_pda(arr)):
        assert (report.checks["C2-1"], report.checks["C2-2"]) == want
    # the screen itself gives the first pair, as (later, earlier) row-major
    # positions, and both C2 flags
    plan = arr.shuffle_plan
    nonstar_rows = codedshuffle.kernels._nonstar_rows(g.shape, plan.rows, plan.cols)
    pair, *flags = codedshuffle.kernels._screen(nonstar_rows, plan.offsets, plan.rows, plan.cols)
    K = g.shape[1]
    assert pair == (hit and (hit[2][0] * K + hit[2][1], hit[1][0] * K + hit[1][1]))
    assert tuple(flags) == want


@settings(max_examples=300, deadline=None)
@given(small_grids())
def test_pair_scan_matches_bruteforce(g):
    _check_pair_scan(g)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(small_grids())
def test_pair_scan_matches_bruteforce_one_symbol_per_chunk(monkeypatch, g):
    # every symbol is its own chunk, so the earliest violation is chosen
    # across chunks as well as within one
    monkeypatch.setattr(codedshuffle.kernels, "BLOCK", 1)
    _check_pair_scan(g)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(st.integers(0, 12), max_size=12), st.integers(1, 24))
@example([], 5)  # no items
@example([9], 5)  # one item over the budget
@example([9, 2, 3, 5, 4, 1], 5)  # exact fits, after an item over it
@example([1, 2, 3], 24)  # all items in one block
def test_blocks_matches_bruteforce(monkeypatch, sizes, budget):
    monkeypatch.setattr(codedshuffle.kernels, "BLOCK", budget)
    ends = np.cumsum(np.array(sizes, dtype=np.int64))
    assert codedshuffle.kernels.blocks(ends) == bf_blocks(sizes, budget)


def test_pair_scan_memory_is_bounded():
    # one symbol of multiplicity 1024, clean and then with one more copy in
    # column 0, which gives its cells hits: the bound holds the screen's row
    # bitsets (16 words per cell or column), but not int64 indices for its
    # 524 800 pairs
    g = np.full((1024, 1024), STAR, dtype=np.int64)
    np.fill_diagonal(g, 0)
    broken = g.copy()
    broken[5, 0] = 0
    for grid, want in [(g, None), (broken, bf_first_pair_violation(broken.tolist()))]:
        got, peak, _ = traced(lambda: first_pair_violation(grid))
        assert got == want
        assert peak < 8 * 2**20


# algorithm1(1024, 1, 1): 1024 x 1024 cells, 523 776 symbols of two cells
# each; an 8 MiB grid and a text of this many bytes
_THOUSAND_TEXT_BYTES = 7_112_702


@pytest.fixture(scope="module")
def thousand_mappers():
    return algorithm1(1024, 1, 1)


def test_census_memory_follows_the_symbols(thousand_mappers):
    # the census keeps two int64 columns, 16 bytes a symbol (8 MiB here);
    # one dict entry per symbol kept 36 MiB
    arr = CodedArray(thousand_mappers.grid)  # the same grid, nothing cached
    stats, _, kept = traced(lambda: arr.stats)
    assert len(stats.multiplicity) == 523_776 and stats.common_g == 2
    assert kept < 0.75 * (arr.grid.nbytes + _THOUSAND_TEXT_BYTES)


def test_serialize_memory_follows_the_text(thousand_mappers):
    # the text's blocks and the joined text, plus one block's temporaries
    # (15 MiB here); a whole-grid serializer peaked at 225 MiB
    arr = CodedArray(thousand_mappers.grid)
    text, peak, _ = traced(arr.serialize)
    assert len(text) == _THOUSAND_TEXT_BYTES
    assert peak < 1.25 * (arr.grid.nbytes + len(text))


def test_serialize_block_holds_at_most_the_grid():
    # a block's all-star text is cut to the grid's rows; cut only by the
    # block rule, a 2 x 2 grid's text peaked at 261 KiB
    arr = CodedArray(np.array([[0, STAR], [STAR, 0]]))
    text, peak, _ = traced(arr.serialize)
    assert text == "2 2\n0 *\n* 0\n"
    assert peak < 2**14


@settings(max_examples=200, deadline=None)
@given(small_grids())
def test_first_orphan_property(g):
    viol = codedshuffle.arrays._first_orphan(CodedArray(g))
    got = viol and (viol.cells[0], viol.symbol)
    assert got == bf_first_orphan(g.tolist())


def test_pair_scan_reports_earliest_violation_across_symbols():
    # Every symbol violates.  Symbol 2's pair (0,0)-(1,1) lacks the crossing
    # star at (0,1) and ends at scan position 2; symbol 1's pair ends at 3
    # and symbol 0's (sharing row 2) at 5.  The scan visits symbol groups in
    # ascending order, but the earliest pair is the highest symbol's.
    g = np.array(
        [
            [2, 1, STAR],
            [STAR, 2, 1],
            [0, STAR, 0],
        ],
        dtype=np.int64,
    )
    hit = (2, (0, 0), (1, 1))
    assert bf_first_pair_violation(g.tolist()) == hit
    assert first_pair_violation(g) == hit


@st.composite
def tall_grids(draw):
    """Sparse grids of 60-140 rows, so that row bitsets span two or three
    64-bit words; placed cells favour the rows beside word boundaries."""
    rows = draw(st.integers(60, 140))
    cols = draw(st.integers(1, 6))
    g = np.full((rows, cols), STAR, dtype=np.int64)
    edges = [f for f in (0, 62, 63, 64, 65, 126, 127, 128, 129) if f < rows]
    row = st.one_of(st.sampled_from(edges + [rows - 1]), st.integers(0, rows - 1))
    for _ in range(draw(st.integers(0, 16))):
        g[draw(row), draw(st.integers(0, cols - 1))] = draw(st.integers(0, 3))
    return g


def _edge_repeat(row: int, times: int) -> np.ndarray:
    """Symbol 0 ``times`` times in row ``row`` (63 or 64, the first word's
    last row or the second's first) and in two more rows of the next
    column, column-mates; symbols 1 and 2 in rows 63 and 65 of that column.
    A row bitset that added the repeated row's bit ``times`` times would
    miss row 63 or hold row 65."""
    g = np.full((72, times + 1), STAR, dtype=np.int64)
    g[row, :times] = 0
    g[[20, 70], times] = 0
    g[[63, 65], times] = [1, 2]
    return g


def _pair_above_word_edge() -> np.ndarray:
    """Symbol 0 at (63, 0) and (64, 1), symbol 1 at (64, 0): the first pair
    is (2, (63, 0), (64, 1)), which misses the crossing star (64, 0).  Only
    the earlier cell's hit holds it, one row above its own and across a
    word edge."""
    g = np.full((72, 2), STAR, dtype=np.int64)
    g[63, 0] = g[64, 1] = 0
    g[64, 0] = 1
    return g


@pytest.mark.parametrize("block", [None, 1], ids=["default-chunks", "one-symbol-chunks"])
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(tall_grids())
@example(_edge_repeat(63, 2))
@example(_edge_repeat(63, 3))
@example(_edge_repeat(64, 2))
@example(_edge_repeat(64, 3))
@example(_pair_above_word_edge())
def test_pair_scan_matches_bruteforce_on_tall_grids(monkeypatch, block, g):
    if block is not None:
        monkeypatch.setattr(codedshuffle.kernels, "BLOCK", block)
    _check_pair_scan(g)


def _pair_scan_mutations(grid: np.ndarray, rng: random.Random):
    """Two broken copies of a grid: a symbol copied into a starred cell of
    its own column (a shared column), and a fresh symbol written on a
    crossing cell of two equal symbols (a missing crossing star)."""
    out = []
    star = grid == STAR
    cells = np.argwhere(~star & star.any(axis=0))
    if len(cells):
        f, k = cells[rng.randrange(len(cells))]
        g = grid.copy()
        g[rng.choice(np.flatnonzero(star[:, k]).tolist()), k] = grid[f, k]
        out.append(g)
    syms, counts = np.unique(grid[~star], return_counts=True)
    if (counts >= 2).any():
        sym = rng.choice(syms[counts >= 2].tolist())
        (f1, k1), (f2, k2) = rng.sample(np.argwhere(grid == sym).tolist(), 2)
        g = grid.copy()
        g[f1, k2] = syms.max() + 1
        out.append(g)
    return out


def test_pair_scan_matches_gather_scan(constructor_sweep):
    # the kernel against a frozen copy of the plain star-gather scan: a
    # seeded sample of the sweep, the large subset-topology arrays, and two
    # broken copies of each
    sweep = [a for *_, a in constructor_sweep]
    rng = random.Random(1906)
    arrays = rng.sample(sweep, 300)
    arrays += [algorithm1(*p) for p in [(16, 2, 2), (12, 5, 5), (12, 6, 6), (12, 2, 4)]]
    broken = 0
    for arr in arrays:
        assert first_pair_violation(arr.grid) is None
        assert gather_first_pair_violation(arr.grid) is None
        for g in _pair_scan_mutations(arr.grid, rng):
            hit = first_pair_violation(g)
            assert hit is not None
            assert hit == gather_first_pair_violation(g)
            broken += 1
    assert broken >= len(arrays)


def _check_stats(g: np.ndarray):
    arr = CodedArray(g)
    st_ = compute_stats(arr)
    rows = g.tolist()
    mult = bf_multiplicities(rows)
    assert list(st_.multiplicity.items()) == sorted(mult.items())
    assert st_.histogram == Counter(mult.values())
    hist = set(mult.values())
    assert st_.common_g == (hist.pop() if len(hist) == 1 else None)
    assert st_.column_stars == tuple(
        sum(row[k] == STAR for row in rows) for k in range(arr.cols)
    )
    assert st_.cyclic_shift == bf_cyclic_shift(rows)
    assert arr.star_run_starts.tolist() == bf_star_run_starts(rows)


def test_stats_match_bruteforce_on_constructed(constructor_sweep):
    # a seeded sample of the sweep, the large subset-topology arrays, and
    # each with a symbol copied into a starred cell of its column
    sweep = [a for *_, a in constructor_sweep]
    rng = random.Random(1907)
    arrays = rng.sample(sweep, 200)
    arrays += [algorithm1(*p) for p in [(16, 2, 2), (12, 5, 5), (12, 6, 6), (12, 2, 4)]]
    for arr in arrays:
        _check_stats(arr.grid)
        _check_stats(_pair_scan_mutations(arr.grid, rng)[0])


@st.composite
def column_grids(draw):
    """Small grids, some columns fully starred and some without stars."""
    g = draw(star_layout_grids())
    for k in range(g.shape[1]):
        fill = draw(st.sampled_from(["keep", "stars", "symbols"]))
        if fill == "stars":
            g[:, k] = STAR
        elif fill == "symbols":
            g[:, k] = draw(st.lists(st.integers(0, 4), min_size=g.shape[0], max_size=g.shape[0]))
    return g


@settings(max_examples=300, deadline=None)
@given(column_grids())
def test_stats_match_bruteforce(g):
    _check_stats(g)


@st.composite
def star_layout_grids(draw):
    """Small grids, half of them with one cyclic star run per column (equal
    lengths, a fixed start step), some of those with one cell overwritten."""
    g = draw(small_grids())
    rows, cols = g.shape
    if draw(st.booleans()):
        length = draw(st.integers(0, rows))
        start = draw(st.integers(0, rows - 1))
        step = draw(st.integers(0, rows - 1))
        g[g == STAR] = 0
        for k in range(cols):
            for i in range(length):
                g[(start + k * step + i) % rows, k] = STAR
        if draw(st.booleans()):
            g[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = (
                draw(st.integers(-1, 4))
            )
    return g


@settings(max_examples=300, deadline=None)
@given(star_layout_grids(), st.integers(-1, 6))
def test_star_layout_matches_bruteforce(g, shift):
    arr = CodedArray(g)
    assert compute_stats(arr).cyclic_shift == bf_cyclic_shift(g.tolist())
    rep = validate_l_cyclic(arr, shift)
    got = rep.violation and (rep.violation.condition, rep.violation.column)
    assert (rep.checks, got) == bf_l_cyclic(g.tolist(), shift)


@settings(max_examples=200, deadline=None)
@given(small_grids())
def test_normalization_idempotent_property(g):
    arr = CodedArray(g).normalize()
    assert arr.is_normalized
    assert arr.normalize() == arr
    assert arr.grid.tolist() == bf_normalize(g.tolist())


@settings(max_examples=300, deadline=None)
@given(small_grids(), st.sampled_from(["relabel", "change a cell", "move a star"]), st.data())
def test_relabel_equality_matches_bruteforce(g, how, data):
    # a relabelled copy, then perhaps one cell overwritten or one star
    # swapped with another cell
    image = data.draw(st.permutations(range(8)))
    other = np.where(g == STAR, STAR, np.array(image)[g])
    cells = st.tuples(st.integers(0, g.shape[0] - 1), st.integers(0, g.shape[1] - 1))
    if how == "change a cell":
        other[data.draw(cells)] = data.draw(st.integers(-1, 8))
    elif how == "move a star" and (g == STAR).any():
        star = tuple(data.draw(st.sampled_from(np.argwhere(g == STAR).tolist())))
        to = data.draw(cells)
        other[star], other[to] = other[to], other[star]
    same = CodedArray(g).equal_up_to_relabeling(CodedArray(other))
    assert same == bf_equal_up_to_relabeling(g.tolist(), other.tolist())
    assert same or how != "relabel"
