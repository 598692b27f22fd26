"""Star/integer coded arrays: parsing, statistics, and validators.

An array is an F x K grid whose entries are either a star (wildcard access
marker) or a non-negative integer symbol.  Rows model file batches, columns
model reducer nodes; a star at (f, k) means reducer k can read batch f, an
integer marks a batch the reducer must recover during the shuffle.  The
validators check the two classical condition sets:

* placement delivery array (PDA): uniform per-column star count, every
  symbol present, and the pairwise crossing condition;
* map-reduce array (MRA): every symbol occurring at least twice plus the
  same crossing condition (column star counts may differ).
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable

import numpy as np

from .kernels import STAR, group_cells, scan_groups

__all__ = [
    "STAR",
    "ArrayFormatError",
    "TruncationError",
    "CodedArray",
    "ArrayStats",
    "Violation",
    "ValidationReport",
    "parse_array",
    "compute_stats",
    "validate_mra",
    "validate_pda",
    "validate_l_cyclic",
    "truncate_columns",
]


class ArrayFormatError(ValueError):
    """Raised when array text does not follow the exchange format."""


class TruncationError(ValueError):
    """Raised when a column restriction orphans a symbol."""

    def __init__(self, symbol: int):
        super().__init__(
            f"symbol {symbol} would occur only once after truncation"
        )
        self.symbol = symbol


@dataclass(frozen=True, eq=False)
class CodedArray:
    """Immutable F x K grid of stars (-1) and non-negative integer symbols.

    The array owns its grid.  A read-only, C-contiguous int64 ndarray that
    owns its data is taken over as it is, so builders freeze their fresh
    grids and hand them over without a copy; any other grid is copied into
    a new read-only one, so later writes to the caller's array do not reach
    it.  Derived facts (star mask, symbols, statistics, star-run starts, the
    crossing-condition scan and the shuffle plan) are computed on first use
    and cached on the instance, so the grid must stay read-only.

    The shuffle plan, the symbol cells grouped by symbol, is the only
    grouping: the pair scan, ``normalize``, ``equal_up_to_relabeling``, the
    C1 witness and the coded shuffle all read it, so an array that is
    validated and then run groups its cells once.  Neither the census
    (``stats`` and ``star_run_starts``) nor ``serialize`` builds the plan:
    each takes the symbol cells from its own pass over the flat grid.  The
    plan holds three int64 values per symbol cell and stays cached as long
    as the array lives, and many arrays are only ever summarised or
    written.  When ``stats`` read the plan, every summarised array kept
    one, which took perfbench's sweep of arrays from 16.4 to 26.0 MiB and
    its peak RSS up by 9 MB.  The census keeps its multiplicities as two
    int64 columns (:class:`SymbolCounts`), not one dict entry per symbol.
    """

    grid: np.ndarray

    def __post_init__(self):
        g = self.grid
        if not (
            type(g) is np.ndarray
            and g.dtype == np.int64
            and g.flags.c_contiguous
            and g.flags.owndata
            and not g.flags.writeable
        ):
            g = np.array(g, dtype=np.int64, order="C")
            g.setflags(write=False)
        if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
            raise ArrayFormatError("grid must be a non-empty 2-D array")
        if g.min() < STAR:
            raise ArrayFormatError("entries must be * or non-negative integers")
        object.__setattr__(self, "grid", g)

    @property
    def rows(self) -> int:
        return self.grid.shape[0]

    @property
    def cols(self) -> int:
        return self.grid.shape[1]

    @cached_property
    def star_mask(self) -> np.ndarray:
        mask = self.grid == STAR
        mask.setflags(write=False)
        return mask

    @cached_property
    def symbols(self) -> tuple[int, ...]:
        """Distinct integer symbols, ascending."""
        return tuple(self.stats.multiplicity.labels.tolist())

    @property
    def symbol_count(self) -> int:
        return len(self.stats.multiplicity)

    @property
    def is_normalized(self) -> bool:
        """Labels are 0 .. S - 1, as distinct labels >= 0 are when the largest is S - 1."""
        labels = self.stats.multiplicity.labels  # ascending
        return not labels.size or bool(labels[-1] == labels.size - 1)

    @cached_property
    def stats(self) -> "ArrayStats":
        """Exact symbol multiplicities, histogram, and star layout, read
        from the symbol cells; the multiplicities are ``np.unique``'s two
        columns, kept as they come."""
        F, K = self.grid.shape
        at = np.flatnonzero(self.grid != STAR)  # symbol cells, row-major
        vals, counts = np.unique(self.grid.reshape(-1)[at], return_counts=True)
        histogram = dict(Counter(counts.tolist()))
        column_stars = F - np.bincount(at % K, minlength=K)
        return ArrayStats(
            multiplicity=SymbolCounts(vals, counts),
            histogram=MappingProxyType(histogram),
            column_stars=tuple(column_stars.tolist()),
            common_g=next(iter(histogram)) if len(histogram) == 1 else None,
            cyclic_shift=_cyclic_shift(self, column_stars),
        )

    @cached_property
    def star_run_starts(self) -> np.ndarray:
        """Start row of each column's single cyclic star run, else -1.

        A fully-starred column counts as one run starting at row 0; a column
        without stars, or whose stars form several runs, gets -1.  A run
        begins at row (f + 1) mod F of column k exactly when symbol cell
        (f, k) has a star under it, cyclically, so one gather over the
        symbol cells finds every column's runs.
        """
        F, K = self.grid.shape
        below = np.flatnonzero(self.grid != STAR) + K  # the cell under each
        below[below >= F * K] -= F * K
        f, k = np.divmod(below[self.grid.reshape(-1)[below] == STAR], K)
        runs = np.bincount(k, minlength=K)
        starts = np.full(K, -1, np.int64)
        starts[k] = f
        starts[runs != 1] = -1
        # a column without a begin is all stars or has none
        starts[(runs == 0) & (self.grid[0] == STAR)] = 0
        starts.setflags(write=False)
        return starts

    @cached_property
    def pair_scan(self):
        """:func:`~codedshuffle.kernels.scan_groups` of the shuffle plan:
        the first violating pair and the C2-1 and C2-2 flags, shared by
        every validator."""
        plan = self.shuffle_plan
        return scan_groups(self.grid.shape, plan.offsets, plan.rows, plan.cols)

    @cached_property
    def shuffle_plan(self) -> "ShufflePlan":
        """Each symbol's cells in row-major order: the read-only
        :func:`~codedshuffle.kernels.group_cells` of the grid, the one
        grouping of its cells (see the class docstring).  It checks nothing;
        ``validate_mra`` in ``mapreduce._check_job`` is the crossing check
        that puts every XOR term on a star of the column using it.
        """
        plan = ShufflePlan(*group_cells(self.grid))
        for a in (plan.symbols, plan.offsets, plan.rows, plan.cols):
            a.setflags(write=False)
        return plan

    def normalize(self) -> "CodedArray":
        """Relabel symbols onto the dense range [0, S) preserving value order.

        Star positions and the symbol-equality classes are untouched, so
        every validation outcome is preserved; applying it twice is a no-op.
        """
        if self.is_normalized:
            return self
        plan = self.shuffle_plan
        grid = self.grid.copy()
        grid[plan.rows, plan.cols] = np.repeat(
            np.arange(plan.symbols.shape[0]), np.diff(plan.offsets)
        )
        grid.setflags(write=False)
        return CodedArray(grid)

    def entry(self, f: int, k: int) -> int:
        return int(self.grid[f, k])

    def serialize(self) -> str:
        """Canonical text form; re-parsing yields an equal array.

        The rows are written in blocks of about ``_BLOCK_CHARS`` characters
        (a row's text holds at least 2K; a block holds at least one row), as
        the parser reads them, so the temporaries follow the block and not
        the grid.  Each block is built by :func:`_block_text` from the
        symbol cells of its own slice of the grid.
        """
        F, K = self.grid.shape
        step = max(1, _BLOCK_CHARS // (2 * K))  # rows per block
        stars = np.frombuffer((b"* " * (K - 1) + b"*\n") * step, np.uint8)
        flat = self.grid.reshape(-1)
        parts = [f"{F} {K}\n"]
        for f0 in range(0, F, step):
            cells = flat[f0 * K : (f0 + step) * K]
            parts.append(_block_text(cells, stars[: 2 * cells.size]))
        return "".join(parts)

    def equal_up_to_relabeling(self, other: "CodedArray") -> bool:
        """True when a symbol bijection maps this grid onto ``other``.

        That holds exactly when the two grids have the same shape and the
        same canonical labelling, in which each symbol cell holds the
        row-major position of its symbol's first cell and stars stay stars.
        """
        return (
            self.grid.shape == other.grid.shape
            and np.array_equal(self._first_cells(), other._first_cells())
        )

    def _first_cells(self) -> np.ndarray:
        """The flat grid with each symbol cell relabelled to the row-major
        position of its symbol's first cell."""
        plan = self.shuffle_plan
        at = plan.rows * self.cols + plan.cols
        canon = np.full(self.grid.size, STAR, np.int64)
        canon[at] = np.repeat(at[plan.offsets[:-1]], np.diff(plan.offsets))
        return canon

    def __eq__(self, other) -> bool:
        if not isinstance(other, CodedArray):
            return NotImplemented
        return np.array_equal(self.grid, other.grid)

    def __hash__(self) -> int:
        return hash((self.grid.shape, self.grid.tobytes()))

    def __repr__(self) -> str:
        return f"CodedArray({self.rows}x{self.cols}, S={self.symbol_count})"


_INT64_MAX = int(np.iinfo(np.int64).max)
_INT64_DIGITS = len(str(_INT64_MAX))

# Data rows are parsed in blocks of about this many characters (a block
# holds at least one row), which bounds the parser's temporaries.
_BLOCK_CHARS = 1 << 18

# bytes.translate table: the class of each byte of the text.  A token is a
# run of non-zero classes once line breaks (the ASCII ones of
# str.splitlines) count as gaps, which _BREAK & 3 makes them; inside a line,
# str.split separates ASCII text only at space, tab and \x1f.  Two
# neighbouring bytes whose classes sum to _BAD or more hold a fault: a byte
# of no token class, or a star beside another token byte.
_GAP, _DIGIT, _STAR, _BAD, _BREAK = range(5)
_CLASS = bytes(
    _BREAK if b in b"\n\r\x0b\x0c\x1c\x1d\x1e" else
    _GAP if b in b" \t\x1f" else
    _DIGIT if b in b"0123456789" else
    _STAR if b == ord("*") else _BAD
    for b in range(256)
)
# place values of the digits of tokens shorter than _INT64_DIGITS
_POW10 = 10 ** np.arange(_INT64_DIGITS - 1, dtype=np.int64)
# the least symbol of each token width from 2 to _INT64_DIGITS
_DECADES = 10 ** np.arange(1, _INT64_DIGITS, dtype=np.int64)


def _block_text(cells: np.ndarray, stars: np.ndarray) -> str:
    """The text of whole rows whose cells, row-major, are ``cells``, with
    ``stars`` their all-star text.

    Numpy passes whose cost grows with the symbol cells and the text's
    bytes: each symbol token's extra digits are new bytes after its star
    byte, the all-star text fills the other bytes in order, and the digits
    are written one place value per pass.  np.insert of the new bytes gave
    the same text with about 40 bytes of temporaries per new byte: a
    35 MiB peak, not 15, serializing ``algorithm1(1024, 1, 1)``.
    """
    at = np.flatnonzero(cells != STAR)  # symbol cells, row-major
    syms = cells[at]
    width = 1 + _DECADES.searchsorted(syms, "right")  # digits of each symbol
    # every token moves right by the bytes added before it
    added = np.cumsum(width - 1)
    last = 2 * at + added  # each token's last digit
    text = np.empty(stars.size + (int(added[-1]) if added.size else 0), np.uint8)
    new = np.zeros(text.size, bool)
    digits = int(width.max(initial=0))
    for place in range(digits - 1):
        new[last[width > place + 1] - place] = True
    text[~new] = stars
    for place in range(digits):
        on = width > place
        text[last[on] - place] = ord("0") + syms[on] // 10**place % 10
    return str(text, "ascii")


def parse_array(text: str) -> CodedArray:
    """Parse the text exchange format.

    Format: a header line ``F K`` of ASCII decimals, then F lines of K
    whitespace-separated tokens (``*`` or an ASCII decimal non-negative
    integer within int64).  ``#`` lines are comments.  A trailing newline
    is required.  Line breaks are those of ``str.splitlines``.

    The text is read as one byte per character (see
    :func:`_one_byte_per_char`) and never split into Python strings.  One
    pass over the byte classes finds the line breaks and the lines that
    hold a token; ``#`` bytes, found with ``bytes.find``, mark the comment
    lines, whose bytes then become gaps in the byte classes.  The data rows
    are read in blocks of about ``_BLOCK_CHARS`` characters cut at line
    breaks, each with a few numpy passes over its bytes: tokens and faults
    per row as sums over each line's bytes, symbols from the place values of their digits, and
    each symbol's cell from the token starts before its digits, scattered
    into a grid that starts as stars.
    Tokens of ``_INT64_DIGITS`` or more digits are read with ``int``.  The
    passes only flag suspect rows; :func:`_check_row` reads the first one
    token by token and raises the message naming its fault, so a valid row
    never reaches a per-token Python loop.  The grid is allocated only when
    the text is long enough to hold it, so a header that declares more
    cells than the text has raises at its first short row.
    """
    if not text:
        raise ArrayFormatError("empty input")
    if not text.endswith("\n"):
        raise ArrayFormatError("trailing newline required")
    buf = _one_byte_per_char(text)
    cls = np.frombuffer(buf.translate(_CLASS), np.uint8)
    # line i is text[begins[i]:ends[i]], ends[i] its line break
    ends = (cls == _BREAK).nonzero()[0]
    begins = np.empty_like(ends)
    begins[0] = 0
    np.add(ends[:-1], 1, out=begins[1:])
    at = buf.find(b"#")
    if at >= 0:
        cls = cls.copy()  # frombuffer's classes are read-only
    while at >= 0:
        i = int(ends.searchsorted(at))
        if not buf[begins[i] : at].strip(b" \t\x1f"):
            cls[begins[i] : ends[i]] = _GAP  # a comment holds no token
        at = buf.find(b"#", ends[i])
    # the lines that hold a token: the header, then the data rows; each
    # line's segment ends at its break, whose class has no token bit
    held = np.bitwise_or.reduceat(cls, begins) & 3
    lines = held.nonzero()[0]
    if not lines.size:
        raise ArrayFormatError("empty grid")
    head = text[begins[lines[0]] : ends[lines[0]]]
    header = head.split()
    if len(header) != 2:
        raise ArrayFormatError("header must be 'F K'")
    try:
        if not all(h.isascii() and h.isdigit() for h in header):
            raise ValueError("F and K must be ASCII decimal")
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ArrayFormatError(f"bad header: {head!r}") from exc
    if rows < 1 or cols < 1:
        raise ArrayFormatError("empty grid")
    if lines.size - 1 != rows:
        raise ArrayFormatError(
            f"expected {rows} data rows, found {lines.size - 1}"
        )
    # A row of K tokens and its line break take at least 2K characters, so
    # a text too short for the grid has a short row, which raises.
    grid = None
    if 2 * rows * cols <= len(text):
        grid = np.full((rows, cols), STAR, dtype=np.int64)
    data = lines[1:]
    row_ends = ends[data]
    lo = 0
    while lo < rows:
        # from the line break before row lo to the one after row hi - 1
        a = ends[data[lo] - 1]
        hi = min(rows, int(row_ends.searchsorted(a + _BLOCK_CHARS)) + 1)
        _parse_block(text, buf, cls, ends, data[lo:hi], lo, cols, grid)
        lo = hi
    grid.setflags(write=False)
    return CodedArray(grid)


def _one_byte_per_char(text: str) -> bytes:
    """``text`` as one byte per character, so byte offsets are character
    offsets: ASCII as it is, and each other character as the ASCII byte it
    reads as: a line break of ``str.splitlines`` as ``\\n``, whitespace as
    a space, anything else as ``?``, which no token holds.  One ``str.translate``
    gives the same bytes but took 38 ms, not 2.7, on 1 MB of mixed text (2-core VM)."""
    if text.isascii():
        return text.encode("ascii")
    code = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
    wide = np.flatnonzero(code > 127)
    kinds, which = np.unique(code[wide], return_inverse=True)
    out = code.astype(np.uint8)
    out[wide] = np.array([_ascii_stand_in(chr(k)) for k in kinds.tolist()], np.uint8)[which]
    return out.tobytes()


def _ascii_stand_in(ch: str) -> int:
    if len(f"x{ch}x".splitlines()) > 1:
        return ord("\n")
    return ord(" ") if ch.isspace() else ord("?")


def _parse_block(text, buf, cls, ends, data, f0: int, cols: int, grid) -> None:
    """Check data rows ``f0, f0 + 1, ...``, on lines ``data``, and write
    their symbols to ``grid``.  ``cls`` holds the byte classes of ``buf``,
    in which the lines between the rows hold only gaps.
    """
    a = ends[data[0] - 1]
    cb = cls[a : ends[data[-1]] + 1] & 3  # starts and ends at a line break
    tok = cb != _GAP
    starts = tok[1:] > tok[:-1]  # starts[j]: a token begins at a + j + 1
    # digit runs; in a row without faults each is a whole symbol token
    digit = cb == _DIGIT
    edges = (digit[1:] != digit[:-1]).nonzero()[0] + 1
    run_at, run_end = edges[0::2], edges[1::2]
    run_len = run_end - run_at
    # Row f0 + i owns starts[seg[i]:seg[i + 1]] and the neighbouring byte
    # pairs at the same offsets; the blank lines after it hold neither a
    # token start nor a fault.  starts[:run_at[r]] counts run r's token and
    # those before it.  Merged, the two sets of cuts (breaks and digits, so
    # never equal) take one sum of token starts per segment; a prefix sum over
    # the bytes took the six large perfbench texts 21 ms, not 12.6 (2-core VM).
    seg = ends[data - 1] - a
    cuts = np.empty(seg.size + run_at.size, np.intp)
    at_seg = np.arange(seg.size) + run_at.searchsorted(seg)
    at_run = np.arange(run_at.size) + seg.searchsorted(run_at)
    cuts[at_seg], cuts[at_run] = seg, run_at
    # uint32 sums take half the time of intp ones; they cannot overflow in
    # a block of fewer than 2**32 bytes
    dtype = np.uint32 if cb.size < 1 << 32 else np.intp
    sums = np.add.reduceat(starts.view(np.uint8), cuts, dtype=dtype)
    suspect = np.add.reduceat(sums, at_seg) != cols
    suspect |= np.logical_or.reduceat(cb[1:] + cb[:-1] >= _BAD, seg)
    wide = {}
    for r in (run_len >= _INT64_DIGITS).nonzero()[0].tolist():
        digits = buf[a + run_at[r] : a + run_end[r]].lstrip(b"0") or b"0"
        if len(digits) > _INT64_DIGITS or int(digits) > _INT64_MAX:
            suspect[seg.searchsorted(run_at[r]) - 1] = True
        else:
            wide[r] = int(digits)
    if suspect.any():
        f = int(suspect.argmax())
        line = data[f]
        _check_row(f0 + f, text[ends[line - 1] + 1 : ends[line]], cols)
    if grid is None or run_len.size == 0:
        return
    # every row holds ``cols`` tokens and the lines between rows none, so
    # token i of the block is cell i of its rows; each digit is weighted by
    # the digits after it in its run
    digit_at = digit.nonzero()[0]
    place = (run_end - 1).repeat(run_len) - digit_at
    np.minimum(place, _POW10.size - 1, out=place)  # wide runs are set below
    raw = np.frombuffer(buf, np.uint8, count=cb.size, offset=a)
    terms = _POW10[place] * (raw[digit_at] - ord("0"))
    # the token starts up to each run's cut include its own
    flat = grid.reshape(-1)
    cells = sums.cumsum(dtype=np.intp)[at_run - 1] + (f0 * cols - 1)
    flat[cells] = np.add.reduceat(terms, run_len.cumsum() - run_len)
    for r, value in wide.items():
        flat[cells[r]] = value


def _check_row(f: int, line: str, cols: int) -> None:
    """Raise the first fault of data row ``f``, token by token."""
    toks = line.split()
    if len(toks) != cols:
        raise ArrayFormatError(f"row {f} has {len(toks)} entries, expected {cols}")
    for k, tok in enumerate(toks):
        if tok == "*":
            continue
        if not (tok.isascii() and tok.isdigit()):
            raise ArrayFormatError(
                f"token {tok!r} at ({f}, {k}) is neither '*' nor a "
                "non-negative integer"
            )
        if len(tok) >= _INT64_DIGITS:
            # shorter tokens always fit; int() refuses very long strings
            digits = tok.lstrip("0") or "0"
            if len(digits) > _INT64_DIGITS or int(digits) > _INT64_MAX:
                raise ArrayFormatError(
                    f"token {tok!r} at ({f}, {k}) exceeds the int64 range"
                )
    raise AssertionError(f"row {f} was flagged but has no fault")


class SymbolCounts(Mapping):
    """Read-only ``symbol -> multiplicity`` mapping held as two read-only
    int64 columns: ``labels``, ascending, and ``counts``.

    A lookup is a binary search of ``labels``; keys and values come out as
    Python ints.  ``values()`` and ``items()`` read the columns with one
    ``tolist()`` each and return lists, where the default views would look
    every key up.
    """

    __slots__ = ("labels", "counts")

    def __init__(self, labels: np.ndarray, counts: np.ndarray):
        labels.setflags(write=False)
        counts.setflags(write=False)
        self.labels, self.counts = labels, counts

    def __getitem__(self, symbol) -> int:
        labels = self.labels
        try:
            s = operator.index(symbol)
        except TypeError:
            raise KeyError(symbol) from None
        i = int(labels.searchsorted(s)) if 0 <= s <= _INT64_MAX else labels.size
        if i == labels.size or labels[i] != s:
            raise KeyError(symbol)
        return int(self.counts[i])

    def __iter__(self):
        return iter(self.labels.tolist())

    def __len__(self) -> int:
        return self.labels.size

    def values(self) -> list[int]:
        return self.counts.tolist()

    def items(self) -> list[tuple[int, int]]:
        return list(zip(self.labels.tolist(), self.counts.tolist()))

    def __repr__(self) -> str:
        return f"SymbolCounts({dict(self.items())})"


@dataclass(frozen=True)
class ArrayStats:
    """Symbol multiplicities and per-column star layout of an array.

    ``multiplicity`` is a :class:`SymbolCounts`, whose two columns the
    array's ``symbols``, ``is_normalized``, the A2 witness and
    ``truncate_columns``' orphan read directly; ``histogram`` maps each
    multiplicity g to its number of symbols.
    """

    multiplicity: SymbolCounts
    histogram: Mapping[int, int]
    column_stars: tuple[int, ...]
    common_g: int | None
    cyclic_shift: int | None


@dataclass(frozen=True, eq=False)
class ShufflePlan:
    """Cells grouped by symbol: symbol ``symbols[s]`` occupies the cells
    ``(rows[i], cols[i])`` for ``offsets[s] <= i < offsets[s + 1]``, in
    row-major order."""

    symbols: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def _cyclic_shift(arr: CodedArray, counts: np.ndarray) -> int | None:
    """Common row shift between consecutive columns' star runs, if any.

    Requires at least two columns with equal, partial star counts
    ``counts`` whose stars each form one cyclic run.
    """
    F = arr.rows
    if (counts != counts[0]).any() or counts[0] in (0, F):
        return None
    starts = arr.star_run_starts
    if (starts < 0).any():
        return None
    steps = np.diff(starts) % F
    if steps.size == 0 or (steps != steps[0]).any():
        return None
    return int(steps[0])


def compute_stats(arr: CodedArray) -> ArrayStats:
    """Exact symbol multiplicities, histogram, and star layout (cached)."""
    return arr.stats


@dataclass(frozen=True)
class Violation:
    """Concrete witness for a failed validation condition."""

    condition: str
    cells: tuple[tuple[int, int], ...] = ()
    column: int | None = None
    symbol: int | None = None

    def describe(self) -> str:
        parts = [self.condition]
        if self.symbol is not None:
            parts.append(f"symbol={self.symbol}")
        if self.column is not None:
            parts.append(f"column={self.column}")
        if self.cells:
            parts.append("cells=" + ",".join(f"({f},{k})" for f, k in self.cells))
        return " ".join(parts)


@dataclass(frozen=True)
class ValidationReport:
    """The outcome of one validator.

    ``checks`` maps each condition, in the order the validator checks
    them, to whether it holds.  ``violation`` is the witness of the first
    condition that fails, or None when all hold.  Both crossing checks,
    C2-1 and C2-2, take as their witness the crossing scan's first
    violating pair, whose condition names its own kind.  In
    ``validate_l_cyclic`` a column whose stars are not one cyclic run fails
    both ``stars-consecutive`` and ``cyclic-shift``, with that column as
    the witness.  ``details`` holds the validator's extra facts: the
    common column star count Z and the column star counts for a PDA, the
    common multiplicity g and the shift l for the cyclic layout.
    """

    checks: Mapping[str, bool]
    violation: Violation | None = None
    details: Mapping[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _report(found, **details) -> ValidationReport:
    """The report of ``found``, each condition's (name, witness) in check
    order: a condition holds when its witness is None."""
    return ValidationReport(
        checks={name: witness is None for name, witness in found},
        violation=next((w for _, w in found if w is not None), None),
        details=details,
    )


def _crossing(arr: CodedArray):
    """The witnesses of C2-1 and C2-2: the crossing scan's first violating
    pair for each that fails, else None."""
    hit, c21_ok, c22_ok = arr.pair_scan
    first = hit and Violation(f"C2-{hit[0]}", cells=hit[1:], symbol=arr.entry(*hit[1]))
    return (None if c21_ok else first), (None if c22_ok else first)


def _first_orphan(arr: CodedArray):
    """The first row-major cell whose symbol occurs exactly once, if any."""
    plan = arr.shuffle_plan
    alone = plan.offsets[:-1][np.diff(plan.offsets) == 1]  # their one cell
    if not alone.size:
        return None
    i = alone[np.argmin(plan.rows[alone] * arr.cols + plan.cols[alone])]
    f, k = int(plan.rows[i]), int(plan.cols[i])
    return Violation("C1", cells=((f, k),), symbol=arr.entry(f, k))


def _first(flags: np.ndarray) -> int | None:
    """The index of the first true flag, or None."""
    return int(flags.argmax()) if flags.any() else None


def validate_mra(arr: CodedArray) -> ValidationReport:
    """Check C1 (every symbol more than once) and the crossing condition."""
    histogram = arr.stats.histogram
    c1 = None if histogram and 1 not in histogram else _first_orphan(arr) or Violation("C1")
    c21, c22 = _crossing(arr)
    return _report([("C1", c1), ("C2-1", c21), ("C2-2", c22)])


def validate_pda(arr: CodedArray) -> ValidationReport:
    """Check A1 (uniform column stars), A2 (dense symbols), and crossings."""
    counts = np.asarray(arr.stats.column_stars)
    bad = _first(counts != counts[0])
    a1 = None if bad is None else Violation("A1", column=bad)
    # A2 on the raw labels: every integer of the declared range [0, S) must
    # occur, so gappy or empty labelings fail even though normalize() would
    # silently repair them.  The least missing label is the first place
    # where the ascending labels part from their index.
    labels = arr.stats.multiplicity.labels
    a2 = None
    if not (labels.size and arr.is_normalized):
        a2 = Violation("A2", symbol=_first(labels != np.arange(labels.size)))
    c21, c22 = _crossing(arr)
    return _report(
        [("A1", a1), ("A2", a2), ("C2-1", c21), ("C2-2", c22)],
        Z=None if a1 else int(counts[0]),
        column_stars=counts.tolist(),
    )


def validate_l_cyclic(arr: CodedArray, shift: int) -> ValidationReport:
    """Check g-regularity plus the consecutive/shifted star layout.

    Passes when every symbol occurs the same number of times, the stars of
    each column form one cyclically-consecutive block, and each column's
    block is the previous column's shifted down by ``shift`` rows (mod F).
    """
    stats = arr.stats
    F = arr.rows
    starts = arr.star_run_starts
    counts = np.asarray(stats.column_stars)
    broken = _first(starts < 0)
    moved = _first(
        (counts[1:] != counts[:-1]) | ((counts[1:] < F) & (np.diff(starts) % F != shift % F))
    )
    runs = None if broken is None else Violation("l-cyclic", column=broken)
    steps = runs or (None if moved is None else Violation("l-cyclic", column=moved + 1))
    regular = None if stats.common_g is not None else Violation("C1'")
    return _report(
        [("C1'", regular), ("stars-consecutive", runs), ("cyclic-shift", steps)],
        g=stats.common_g,
        l=shift,
    )


def truncate_columns(arr: CodedArray, keep: Iterable[int]) -> CodedArray:
    """Restrict to a column subset; valid only while C1 survives.

    Column removal never breaks the crossing condition, so the result is an
    MRA exactly when every surviving symbol still occurs at least twice;
    otherwise :class:`TruncationError` names the first orphaned symbol.
    """
    cols = sorted(set(int(k) for k in keep))
    if not cols:
        raise ValueError("keep must name at least one column")
    if cols[0] < 0 or cols[-1] >= arr.cols:
        raise ValueError(f"column index out of range: {cols}")
    sub = CodedArray(arr.grid[:, cols])
    if 1 in sub.stats.histogram:
        census = sub.stats.multiplicity
        raise TruncationError(int(census.labels[census.counts == 1][0]))
    return sub.normalize()
