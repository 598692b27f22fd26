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

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .kernels import STAR, first_pair_violation, group_cells

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

    Derived facts (star mask, symbols, statistics, star-run starts, the
    crossing-condition scan and the shuffle plan) are computed on first use
    and cached on the instance, so the grid must stay read-only.
    """

    grid: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.int64)
        if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
            raise ArrayFormatError("grid must be a non-empty 2-D array")
        if (g < STAR).any():
            raise ArrayFormatError("entries must be * or non-negative integers")
        g = np.ascontiguousarray(g.copy())
        g.setflags(write=False)
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
        return tuple(self.stats.multiplicity)

    @property
    def symbol_count(self) -> int:
        return len(self.symbols)

    @property
    def is_normalized(self) -> bool:
        return self.symbols == tuple(range(self.symbol_count))

    @cached_property
    def stats(self) -> "ArrayStats":
        """Exact symbol multiplicities, histogram, and star layout."""
        vals, counts = np.unique(self.grid[~self.star_mask], return_counts=True)
        histogram = dict(Counter(counts.tolist()))
        column_stars = self.star_mask.sum(axis=0)
        return ArrayStats(
            multiplicity=MappingProxyType(dict(zip(vals.tolist(), counts.tolist()))),
            histogram=MappingProxyType(histogram),
            column_stars=tuple(column_stars.tolist()),
            common_g=next(iter(histogram)) if len(histogram) == 1 else None,
            cyclic_shift=_cyclic_shift(column_stars, self.star_run_starts, self.rows),
        )

    @cached_property
    def star_run_starts(self) -> np.ndarray:
        """Start row of each column's single cyclic star run, else -1.

        A fully-starred column counts as one run starting at row 0; a column
        without stars, or whose stars form several runs, gets -1.
        """
        mask = self.star_mask
        begins = mask & ~np.roll(mask, 1, axis=0)
        starts = np.where(begins.sum(axis=0) == 1, begins.argmax(axis=0), -1)
        starts[mask.all(axis=0)] = 0
        starts.setflags(write=False)
        return starts

    @cached_property
    def pair_scan(self):
        """:func:`~codedshuffle.kernels.first_pair_violation` of the grid,
        shared by every validator."""
        return first_pair_violation(self.grid)

    @cached_property
    def shuffle_plan(self) -> "ShufflePlan":
        """Each symbol's cells in row-major order: the read-only
        :func:`~codedshuffle.kernels.group_cells` of the grid.  It checks
        nothing; ``validate_mra`` in ``mapreduce._check_job`` is the
        crossing check that puts every XOR term on a star of the column
        using it.
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
        grid = self.grid.copy()
        nonstar = grid != STAR
        lookup = {s: i for i, s in enumerate(self.symbols)}
        grid[nonstar] = np.vectorize(lookup.__getitem__)(grid[nonstar])
        return CodedArray(grid)

    def entry(self, f: int, k: int) -> int:
        return int(self.grid[f, k])

    def serialize(self) -> str:
        """Canonical text form; re-parsing yields an equal array.

        The text is built as bytes with numpy passes whose cost grows with
        the symbol cells: it starts as the all-star text, each symbol
        token's extra digit bytes are inserted after its star byte, and its
        digits are written one place value per pass.
        """
        F, K = self.grid.shape
        head = f"{F} {K}\n".encode()
        at = np.flatnonzero(self.grid != STAR)  # symbol cells, row-major
        syms = self.grid.reshape(-1)[at]
        width = 1 + _DECADES.searchsorted(syms, "right")  # digits of each symbol
        star_at = len(head) + 2 * at
        text = np.insert(
            np.frombuffer(head + (b"* " * (K - 1) + b"*\n") * F, np.uint8),
            (star_at + 1).repeat(width - 1),
            ord("0"),
        )
        # every token moves right by the bytes inserted before it
        last = star_at + np.cumsum(width - 1)  # each token's last digit
        for place in range(int(width.max(initial=0))):
            on = width > place
            text[last[on] - place] = ord("0") + syms[on] // 10**place % 10
        return str(text, "ascii")

    def equal_up_to_relabeling(self, other: "CodedArray") -> bool:
        """True when a symbol bijection maps this grid onto ``other``."""
        if self.grid.shape != other.grid.shape:
            return False
        if not np.array_equal(self.star_mask, other.star_mask):
            return False
        fwd: dict[int, int] = {}
        seen: set[int] = set()
        a = self.grid[~self.star_mask]
        b = other.grid[~other.star_mask]
        for x, y in zip(a.tolist(), b.tolist()):
            if x in fwd:
                if fwd[x] != y:
                    return False
            else:
                if y in seen:
                    return False
                fwd[x] = y
                seen.add(y)
        return True

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

# bytes.translate table: the class of each byte of a block.  A token is a
# run of non-zero classes; inside a line, str.split separates ASCII text
# only at space, tab and \x1f.  Two neighbouring bytes whose classes sum to
# _BAD or more hold a fault: a byte of no token class, or a star beside
# another token byte.
_GAP, _DIGIT, _STAR, _BAD = range(4)
_CLASS = bytes(
    _GAP if b in b" \t\x1f\n" else
    _DIGIT if b in b"0123456789" else
    _STAR if b == ord("*") else _BAD
    for b in range(256)
)
# place values of the digits of tokens shorter than _INT64_DIGITS
_POW10 = 10 ** np.arange(_INT64_DIGITS - 1, dtype=np.int64)
# the least symbol of each token width from 2 to _INT64_DIGITS
_DECADES = 10 ** np.arange(1, _INT64_DIGITS, dtype=np.int64)


def parse_array(text: str) -> CodedArray:
    """Parse the text exchange format.

    Format: a header line ``F K`` of ASCII decimals, then F lines of K
    whitespace-separated tokens (``*`` or an ASCII decimal non-negative
    integer within int64).  ``#`` lines are comments.  A trailing newline
    is required.

    The data rows are read in blocks of about ``_BLOCK_CHARS`` characters,
    each with a few numpy passes over its bytes: token bounds and tokens per
    row from the byte classes, symbols from the place values of their
    digits, scattered into a grid that starts as stars.  Tokens of
    ``_INT64_DIGITS`` or more digits are read with ``int``.  The passes only
    flag suspect rows; :func:`_check_row` reads the first one token by token
    and raises the message naming its fault, so a valid row never reaches a
    per-token Python loop.  The grid is allocated only when the text is
    long enough to hold it, so a header that declares more cells than the
    text has raises at its first short row.
    """
    if not text:
        raise ArrayFormatError("empty input")
    if not text.endswith("\n"):
        raise ArrayFormatError("trailing newline required")
    lines = [
        ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ArrayFormatError("empty grid")
    header = lines[0].split()
    if len(header) != 2:
        raise ArrayFormatError("header must be 'F K'")
    try:
        if not all(h.isascii() and h.isdigit() for h in header):
            raise ValueError("F and K must be ASCII decimal")
        rows, cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ArrayFormatError(f"bad header: {lines[0]!r}") from exc
    if rows < 1 or cols < 1:
        raise ArrayFormatError("empty grid")
    if len(lines) - 1 != rows:
        raise ArrayFormatError(
            f"expected {rows} data rows, found {len(lines) - 1}"
        )
    # A row of K tokens and its line break take at least 2K characters, so
    # a text too short for the grid has a short row, which raises.
    grid = None
    if 2 * rows * cols <= len(text):
        grid = np.full((rows, cols), STAR, dtype=np.int64)
    lo = size = 0
    for hi, line in enumerate(lines[1:], 1):
        size += len(line) + 1
        if size >= _BLOCK_CHARS or hi == rows:
            _parse_block(lines[lo + 1 : hi + 1], lo, cols, grid)
            lo, size = hi, 0
    del lines  # let the row strings go before CodedArray copies the grid
    return CodedArray(grid)


def _parse_block(block: list[str], f0: int, cols: int, grid: np.ndarray | None) -> None:
    """Check data rows ``f0, f0 + 1, ...`` and write their symbols to ``grid``."""
    text = "\n".join(block)
    if not text.isascii():
        # any Unicode whitespace becomes a space; other non-ASCII characters
        # become '?' below, so their tokens are faults
        text = "\n".join(ln if ln.isascii() else " ".join(ln.split()) for ln in block)
    buf = b"\n" + text.encode("ascii", "replace") + b"\n"
    raw = np.frombuffer(buf, dtype=np.uint8)
    c = np.frombuffer(buf.translate(_CLASS), dtype=np.uint8)
    tok = c != _GAP
    starts = (tok[1:] > tok[:-1]).nonzero()[0] + 1
    # row r of the block lies between newlines[r] and newlines[r + 1]
    newlines = (raw == ord("\n")).nonzero()[0]
    before = starts.searchsorted(newlines)
    suspect = before[1:] - before[:-1] != cols
    bad = (c[1:] + c[:-1] >= _BAD).nonzero()[0] + 1
    if bad.size:
        suspect[newlines.searchsorted(bad) - 1] = True
    # digit runs; in a row without faults each is a whole symbol token
    digit = c == _DIGIT
    edges = (digit[1:] != digit[:-1]).nonzero()[0] + 1
    run_at, run_end = edges[0::2], edges[1::2]
    run_len = run_end - run_at
    wide = {}
    for r in (run_len >= _INT64_DIGITS).nonzero()[0].tolist():
        digits = buf[run_at[r] : run_end[r]].lstrip(b"0") or b"0"
        if len(digits) > _INT64_DIGITS or int(digits) > _INT64_MAX:
            suspect[newlines.searchsorted(run_at[r]) - 1] = True
        else:
            wide[r] = int(digits)
    if suspect.any():
        f = int(suspect.argmax())
        _check_row(f0 + f, block[f], cols)
    if grid is None or run_len.size == 0:
        return
    # every row holds ``cols`` tokens, so token i of the block is cell i of
    # its rows; each digit is weighted by the digits after it in its run
    digit_at = digit.nonzero()[0]
    place = (run_end - 1).repeat(run_len) - digit_at
    np.minimum(place, _POW10.size - 1, out=place)  # wide runs are set below
    terms = _POW10[place] * (raw[digit_at] - ord("0"))
    cells = f0 * cols + starts.searchsorted(run_at)
    flat = grid.reshape(-1)
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


@dataclass(frozen=True)
class ArrayStats:
    """Symbol multiplicities and per-column star layout of an array."""

    multiplicity: Mapping[int, int]
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


def _cyclic_shift(counts: np.ndarray, starts: np.ndarray, F: int) -> int | None:
    """Common row shift between consecutive columns' star runs, if any.

    Requires at least two columns with equal, partial star counts whose
    stars each form one cyclic run.
    """
    if (counts != counts[0]).any() or counts[0] in (0, F) or (starts < 0).any():
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
    checks: Mapping[str, bool]
    violation: Violation | None = None
    details: Mapping[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


_PAIR_TAGS = {1: "C2-1", 2: "C2-2"}


def _pair_checks(arr: CodedArray):
    """Shared crossing-condition scan; returns (c21_ok, c22_ok, violation)."""
    hit = arr.pair_scan
    if hit is None:
        return True, True, None
    code, c1, c2 = hit
    tag = _PAIR_TAGS[code]
    sym = arr.entry(*c1)
    viol = Violation(tag, cells=(c1, c2), symbol=sym)
    return code != 1, code != 2, viol


def _first_orphan(arr: CodedArray):
    """The first row-major cell whose symbol occurs exactly once, if any."""
    mult = arr.stats.multiplicity
    orphans = [s for s, g in mult.items() if g == 1]
    if not orphans:
        return None
    hit = np.isin(arr.grid, orphans)
    f, k = np.unravel_index(int(np.argmax(hit)), hit.shape)
    return Violation("C1", cells=((int(f), int(k)),), symbol=arr.entry(f, k))


def validate_mra(arr: CodedArray) -> ValidationReport:
    """Check C1 (every symbol more than once) and the crossing condition."""
    stats = arr.stats
    c1_ok = bool(stats.multiplicity) and min(stats.multiplicity.values()) >= 2
    c21_ok, c22_ok, pair_viol = _pair_checks(arr)
    violation = None
    if not c1_ok:
        violation = _first_orphan(arr) or Violation("C1")
    elif pair_viol is not None:
        violation = pair_viol
    return ValidationReport(
        checks={"C1": c1_ok, "C2-1": c21_ok, "C2-2": c22_ok},
        violation=violation,
    )


def validate_pda(arr: CodedArray) -> ValidationReport:
    """Check A1 (uniform column stars), A2 (dense symbols), and crossings."""
    counts = list(arr.stats.column_stars)
    z = counts[0]
    a1_ok = all(c == z for c in counts)
    a1_viol = None
    if not a1_ok:
        bad = next(k for k, c in enumerate(counts) if c != z)
        a1_viol = Violation("A1", column=bad)
    # A2 on the raw labels: every integer of the declared range [0, S) must
    # occur, so gappy or empty labelings fail even though normalize() would
    # silently repair them.
    syms = arr.symbols
    a2_ok = len(syms) > 0 and syms == tuple(range(len(syms)))
    a2_viol = None
    if not a2_ok:
        missing = None
        if syms:
            expect = set(range(max(syms) + 1))
            missing = min(expect - set(syms)) if expect - set(syms) else None
        a2_viol = Violation("A2", symbol=missing)
    c21_ok, c22_ok, pair_viol = _pair_checks(arr)
    violation = a1_viol or a2_viol or pair_viol
    return ValidationReport(
        checks={"A1": a1_ok, "A2": a2_ok, "C2-1": c21_ok, "C2-2": c22_ok},
        violation=violation,
        details={"Z": z if a1_ok else None, "column_stars": counts},
    )


def validate_l_cyclic(arr: CodedArray, shift: int) -> ValidationReport:
    """Check g-regularity plus the consecutive/shifted star layout.

    Passes when every symbol occurs the same number of times, the stars of
    each column form one cyclically-consecutive block, and each column's
    block is the previous column's shifted down by ``shift`` rows (mod F).
    """
    stats = arr.stats
    regular_ok = stats.common_g is not None
    reg_viol = None
    if not regular_ok:
        reg_viol = Violation("C1'")
    starts = arr.star_run_starts
    broken = np.flatnonzero(starts < 0)
    consec_ok = broken.size == 0
    consec_viol = None
    if not consec_ok:
        consec_viol = Violation("l-cyclic", column=int(broken[0]))
    shift_ok = consec_ok
    shift_viol = None
    if consec_ok:
        F = arr.rows
        counts = np.asarray(stats.column_stars)
        wrong = (counts[1:] != counts[:-1]) | (
            (counts[1:] < F) & (np.diff(starts) % F != shift % F)
        )
        if wrong.any():
            shift_ok = False
            shift_viol = Violation("l-cyclic", column=int(np.argmax(wrong)) + 1)
    return ValidationReport(
        checks={
            "C1'": regular_ok,
            "stars-consecutive": consec_ok,
            "cyclic-shift": shift_ok,
        },
        violation=reg_viol or consec_viol or shift_viol,
        details={"g": stats.common_g, "l": shift},
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
    orphans = [s for s, g in sub.stats.multiplicity.items() if g == 1]
    if orphans:
        raise TruncationError(orphans[0])
    return sub.normalize()
