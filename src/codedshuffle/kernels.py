"""Validation kernel: cells grouped by symbol and the crossing-condition scan.

:func:`group_cells` is the one pass that finds a grid's symbol cells and
groups them by symbol.  ``CodedArray`` runs it once and caches the result
as its shuffle plan, which the pair scan, the orphan search, relabelling
and the coded shuffle all read; :func:`first_pair_violation`
groups a bare grid itself.

The scan, :func:`scan_groups`, costs time in proportion to the symbol cells,
not to the grid or the pairs.  It first screens every symbol with packed row
bitsets of W = ceil(F/64) uint64 words: one per symbol (its rows) and one
per column (its non-star rows).  A symbol is clean exactly when its rows are
distinct and, for each of its cells, the symbol's rows other than the cell's
own miss the non-star rows of the cell's column.  Only the symbols the
screen flags go on to the locate pass, one per multiplicity g, which finds
each one's first violating pair from prefix ORs of the same bitsets, in O(g)
words per cell rather than a g x g gather, and to :func:`_conditions`,
which decides from the same bitsets which parts of the condition fail.
"""

from __future__ import annotations

import numpy as np

STAR = -1

# Chunk size: the screen and the locate pass take symbols whose cells hold
# at most this many bitset words.  One symbol is never split, so a chunk
# holds at least one.
_BLOCK_CELLS = 1 << 18


def group_cells(grid: np.ndarray):
    """Non-star cells grouped by symbol.

    Returns ``(symbols, offsets, rows, cols)``: symbol ``symbols[s]``
    (ascending) occupies the cells ``(rows[i], cols[i])`` for
    ``offsets[s] <= i < offsets[s + 1]``, in row-major order.
    """
    at = np.flatnonzero(grid != STAR)  # row-major
    syms = grid.reshape(-1)[at]
    order = np.argsort(syms, kind="stable")
    syms = syms[order]
    starts = np.flatnonzero(np.diff(syms, prepend=STAR))
    offsets = np.append(starts, syms.shape[0])
    fs, ks = np.divmod(at[order], grid.shape[1])
    return syms[starts], offsets, fs, ks


def first_pair_violation(grid: np.ndarray):
    """Scan all equal-symbol cell pairs for a crossing-condition violation.

    Returns ``None`` when every pair of equal symbols sits in distinct rows
    and columns with stars at the two crossing cells, otherwise a tuple
    ``(code, (f1, k1), (f2, k2))`` where code 1 means a shared row/column and
    code 2 a missing crossing star.  The reported pair is the first one in
    row-major scan order (ordered by the later cell, then the earlier).
    """
    return scan_groups(grid.shape, *group_cells(grid)[1:])[0]


def scan_groups(shape, offsets, rows, cols):
    """The crossing scan of an F x K grid of ``shape`` whose cells are
    grouped as :func:`group_cells` returns them.

    Returns ``(first, c21_ok, c22_ok)``: the :func:`first_pair_violation`
    of the grid, whether no equal pair shares a row or a column (C2-1), and
    whether every equal pair in distinct rows and columns has stars at its
    two crossing cells (C2-2).
    """
    K = shape[1]
    counts = np.diff(offsets)
    nonstar_rows = _nonstar_rows(shape, rows, cols)
    # the locate pass alone would decide every symbol, but on a 2-core VM clean scans
    # took 2-3x as long: algorithm1(16, 2, 2) 0.27 -> 0.85 ms, 1 906 sweep arrays 80 -> 200 ms
    flagged = _screen(nonstar_rows, offsets, rows, cols)
    firsts = [
        _locate(nonstar_rows, offsets[:-1][flagged & (counts == g)], g, rows, cols)
        for g in np.unique(counts[flagged]).tolist()
    ]
    if not firsts:
        return None, True, True
    # (later, earlier) row-major positions of the first violation
    (f2, k2), (f1, k1) = (divmod(x, K) for x in min(firsts))
    code = 1 if f1 == f2 or k1 == k2 else 2
    first = code, (f1, k1), (f2, k2)
    return (first, *_conditions(nonstar_rows, offsets, rows, cols, flagged))


def _nonstar_rows(shape, rows, cols) -> np.ndarray:
    """The row bitsets of the columns: [:, k] holds the non-star rows of
    column k.  Bitsets are held word-major, one row per word index, so the
    passes run along contiguous rows."""
    return _bitsets((-(-shape[0] // 64), shape[1]), cols, rows >> 6, _row_bit(rows))


def _screen(nonstar_rows: np.ndarray, offsets: np.ndarray, rows, cols) -> np.ndarray:
    """Which symbols violate the crossing condition: exactly those that
    repeat a row or have another of their rows non-star in one of their
    cells' columns.  Takes :func:`group_cells` output and the columns'
    non-star row bitsets; returns a flag per symbol."""
    counts = np.diff(offsets)
    flagged = np.zeros(counts.shape[0], bool)
    for lo, hi in _chunks(offsets, nonstar_rows.shape[0]):
        a, b = offsets[lo], offsets[hi]
        r, local = rows[a:b], np.repeat(np.arange(hi - lo), counts[lo:hi])
        # distinct rows set distinct bits in the symbols' row bitsets, and
        # a repeated row flags the symbol whatever its bitset holds
        hit = _other_rows(nonstar_rows, local, r, cols[a:b], slice(None)).any(axis=0)
        # rows never decrease within a symbol, so a repeat is a neighbour's
        hit[1:] |= (r[1:] == r[:-1]) & (local[1:] == local[:-1])
        flagged[lo:hi] = np.logical_or.reduceat(hit, offsets[lo:hi] - a)
    return flagged


def _conditions(nonstar_rows: np.ndarray, offsets, rows, cols, flagged):
    """Whether C2-1 and C2-2 hold, decided on the symbols ``flagged`` by
    :func:`_screen`, which are the ones that violate.

    C2-1 fails exactly when one of them repeats a row or a column.  For a
    cell i, let h_i be the rows of its symbol other than r_i that are
    non-star in column c_i.  A row of h_i that holds one cell of the
    symbol, in column c_i, is there only through that cell; any other row
    holds a cell j outside column c_i whose crossing (r_j, c_i) is not a
    star.  So C2-2 fails exactly when some h_i holds more rows than the T_i
    rows of the first kind, that is, a row outside them.
    """
    words, K = nonstar_rows.shape
    counts = np.diff(offsets)[flagged]
    sub = np.append(0, counts.cumsum())  # the flagged symbols' offsets
    at = np.repeat(offsets[:-1][flagged] - sub[:-1], counts) + np.arange(sub[-1])
    r, c = rows[at], cols[at]
    sym = np.repeat(np.arange(counts.size), counts)
    # repeat[i]: cell i shares its row with the cell before it; rows never
    # decrease within a symbol, so that is how every repeated row shows
    repeat = np.zeros(at.size + 1, bool)
    repeat[1:-1] = (r[1:] == r[:-1]) & (sym[1:] == sym[:-1])
    columns, column = np.unique(sym * K + c, return_inverse=True)
    c21_ok = columns.size == at.size and not repeat.any()
    alone = ~(repeat[:-1] | repeat[1:])  # no other cell of its symbol in its row
    for lo, hi in _chunks(sub, words):
        a, b = sub[lo], sub[hi]
        # each row once in the symbols' row bitsets: a repeat's bit would carry
        hits = _other_rows(nonstar_rows, sym[a:b] - lo, r[a:b], c[a:b], ~repeat[a:b])
        # less the rows of the alone cells in each cell's column
        group, one = column[a:b] - column[a:b].min(), alone[a:b]
        lone = r[a:b][one]
        shape = words, int(group.max()) + 1
        hits &= ~_bitsets(shape, group[one], lone >> 6, _row_bit(lone)).take(group, axis=1)
        if hits.any():
            return c21_ok, False
    return c21_ok, True


def _chunks(offsets: np.ndarray, words: int):
    """Runs [lo, hi) of whole symbols whose cells hold at most
    ``_BLOCK_CELLS`` bitset words of ``words`` each, one symbol at least."""
    lo, budget = 0, max(1, _BLOCK_CELLS // words)
    while lo < offsets.shape[0] - 1:
        hi = max(lo + 1, int(offsets.searchsorted(offsets[lo] + budget, "right")) - 1)
        yield lo, hi
        lo = hi


def _other_rows(nonstar_rows: np.ndarray, local, r, c, own) -> np.ndarray:
    """hits[:, i]: the rows of cell i's symbol other than r[i] that are
    non-star in column c[i].  ``local`` numbers the cells' symbols from 0,
    and the cells ``own`` selects make up the symbols' row bitsets."""
    word, bit = r >> 6, _row_bit(r)
    shape = nonstar_rows.shape[0], int(local[-1]) + 1
    hits = nonstar_rows.take(c, axis=1)
    hits &= _bitsets(shape, local[own], word[own], bit[own]).take(local, axis=1)
    hits[word, np.arange(r.size)] ^= bit  # its own row is always non-star
    return hits


def _bitsets(shape, index, word, bit) -> np.ndarray:
    """Word-major row bitsets of ``shape``, (words, n), with bit ``bit`` of
    word ``word`` set in bitset ``index``; each bit is added, which sets it
    when no bitset gets one row twice."""
    out = np.zeros(shape, np.uint64)
    np.add.at(out.reshape(-1), word * shape[1] + index, bit)
    return out


def _row_bit(rows: np.ndarray) -> np.ndarray:
    """Each row's bit within its 64-bit word of a row bitset."""
    return np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))


def _locate(nonstar_rows: np.ndarray, starts: np.ndarray, g: int, rows, cols):
    """The first violating pair of the g-cell symbols at ``starts``, as
    (later, earlier) row-major positions; the screen flagged each of them,
    so each has one.

    Cells i < j of a symbol violate exactly when (r_i, c_j) or (r_j, c_i)
    is not a star; a shared row or column makes it one of the pair's own
    cells.  So cell j has an earlier partner when a row of the cells before
    it is non-star in its column, or its row is non-star in the column of a
    cell before it.  Prefix ORs of the cells' row bits and of their columns'
    non-star rows test both for every cell at once, in O(g) bitset words
    per cell; the first cell that hits is the later one, and one gather
    along the cells before it finds the earliest partner.
    """
    words, K = nonstar_rows.shape
    by_col = nonstar_rows.T  # by_col[k]: the non-star rows of column k
    step = max(1, _BLOCK_CELLS // (g * words))
    place = np.arange(g)  # each cell's place in its symbol
    found = []
    for lo in range(0, starts.shape[0], step):
        cells = starts[lo : lo + step, None] + place
        r, c = rows[cells], cols[cells]
        word, bit = r >> 6, _row_bit(r)
        n = np.arange(cells.shape[0])[:, None]
        # seen[n, j]: the rows of cells 0..j; reach[n, j]: the rows that
        # are non-star in the column of one of them
        seen = np.zeros(cells.shape + (words,), np.uint64)
        seen[n, place, word] = bit
        np.bitwise_or.accumulate(seen, axis=1, out=seen)
        column = by_col[c]
        reach = np.bitwise_or.accumulate(column, axis=1)
        # hit[n, j - 1]: cell j of symbol n has an earlier partner
        hit = (seen[:, :-1] & column[:, 1:]).any(axis=2)
        hit |= reach[n, place[:-1], word[:, 1:]] & bit[:, 1:] != 0
        js = hit.argmax(axis=1)[:, None] + 1
        rj, cj = r[n, js], c[n, js]
        partner = by_col[cj, r >> 6] & bit != 0
        partner |= by_col[c, rj >> 6] & _row_bit(rj) != 0
        is_ = (partner & (place < js)).argmax(axis=1)[:, None]
        later = (rj * K + cj).ravel()
        earlier = (r[n, is_] * K + c[n, is_]).ravel()
        pos = later.argmin()  # each symbol's later cell is its own
        found.append((int(later[pos]), int(earlier[pos])))
    return min(found)
