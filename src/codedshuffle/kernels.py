"""Validation kernel: cells grouped by symbol and the crossing-condition scan.

:func:`group_cells` is the one pass that finds a grid's symbol cells and
groups them by symbol.  ``CodedArray`` runs it once and caches the result
as its shuffle plan, which the pair scan, the serializer, the orphan search,
relabelling and the coded shuffle all read; :func:`first_pair_violation`
groups a bare grid itself.

The scan, :func:`scan_groups`, costs time in proportion to the symbol cells,
not to the grid or the pairs.  It first screens every symbol with packed row
bitsets of W = ceil(F/64) uint64 words: one per symbol (its rows) and one
per column (its non-star rows).  A symbol is clean exactly when its rows are
distinct and, for each of its cells, the symbol's rows other than the cell's
own miss the non-star rows of the cell's column.  Only the symbols the
screen flags go on to the locate pass, one per multiplicity g, which finds
each one's first violating pair from prefix ORs of the same bitsets, in O(g)
words per cell rather than a g x g gather.
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
    return scan_groups(grid.shape, *group_cells(grid)[1:])


def scan_groups(shape, offsets, rows, cols):
    """:func:`first_pair_violation` of an F x K grid of ``shape`` whose
    cells are grouped as :func:`group_cells` returns them."""
    F, K = shape
    counts = np.diff(offsets)
    # Bitsets are held word-major, one row per word index, so the passes run
    # along contiguous rows.  nonstar_rows[:, k]: the non-star rows of
    # column k; the cells are distinct, so adding their bits sets them.
    nonstar_rows = np.zeros((-(-F // 64), K), np.uint64)
    np.add.at(nonstar_rows.reshape(-1), (rows >> 6) * K + cols, _row_bit(rows))
    # the locate pass alone would decide every symbol, but on a 2-core VM clean scans
    # took 2-3x as long: algorithm1(16, 2, 2) 0.27 -> 0.85 ms, 1 906 sweep arrays 80 -> 200 ms
    flagged = _screen(nonstar_rows, offsets, rows, cols)
    best = None  # (later, earlier) row-major positions of the first violation
    for g in np.unique(counts[flagged]).tolist():
        starts = offsets[:-1][flagged & (counts == g)]
        cand = _locate(nonstar_rows, starts, g, rows, cols)
        if cand is not None and (best is None or cand < best):
            best = cand
    if best is None:
        return None
    (f2, k2), (f1, k1) = (divmod(x, K) for x in best)
    code = 1 if f1 == f2 or k1 == k2 else 2
    return code, (f1, k1), (f2, k2)


def _screen(nonstar_rows: np.ndarray, offsets: np.ndarray, rows, cols) -> np.ndarray:
    """Which symbols may violate the crossing condition: exactly those that
    repeat a row or have another of their rows non-star in one of their
    cells' columns.  Takes :func:`group_cells` output and the columns'
    non-star row bitsets; returns a flag per symbol."""
    counts = np.diff(offsets)
    words = nonstar_rows.shape[0]
    flagged = np.zeros(counts.shape[0], bool)
    lo, budget = 0, max(1, _BLOCK_CELLS // words)
    while lo < counts.shape[0]:
        hi = max(lo + 1, int(offsets.searchsorted(offsets[lo] + budget, "right")) - 1)
        a, b = offsets[lo], offsets[hi]
        r, local = rows[a:b], np.repeat(np.arange(hi - lo), counts[lo:hi])
        word, bit = r >> 6, _row_bit(r)
        # own[:, s]: the rows of symbol lo + s; distinct rows set distinct
        # bits, and a repeated row flags the symbol whatever its bitset holds
        own = np.zeros((words, hi - lo), np.uint64)
        np.add.at(own.reshape(-1), word * (hi - lo) + local, bit)
        # hits[:, i]: the rows of cell i's symbol that are non-star in its
        # column, less its own row, which always is
        hits = nonstar_rows.take(cols[a:b], axis=1)
        hits &= own.take(local, axis=1)
        hits[word, np.arange(b - a)] ^= bit
        hit = hits.any(axis=0)
        # rows never decrease within a symbol, so a repeat is a neighbour's
        hit[1:] |= (r[1:] == r[:-1]) & (local[1:] == local[:-1])
        flagged[lo:hi] = np.logical_or.reduceat(hit, offsets[lo:hi] - a)
        lo = hi
    return flagged


def _row_bit(rows: np.ndarray) -> np.ndarray:
    """Each row's bit within its 64-bit word of a row bitset."""
    return np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))


def _locate(nonstar_rows: np.ndarray, starts: np.ndarray, g: int, rows, cols):
    """The first violating pair of the g-cell symbols at ``starts``, as
    (later, earlier) row-major positions, or None when none violates.

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
    best = None
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
        groups = np.flatnonzero(hit.any(axis=1))
        if groups.size == 0:
            continue
        js = hit[groups].argmax(axis=1) + 1
        rj, cj = r[groups, js, None], c[groups, js, None]
        ri, ci = r[groups], c[groups]
        partner = by_col[cj, ri >> 6] & _row_bit(ri) != 0
        partner |= by_col[ci, rj >> 6] & _row_bit(rj) != 0
        is_ = (partner & (place < js[:, None])).argmax(axis=1)
        later = rj[:, 0] * K + cj[:, 0]
        earlier = r[groups, is_] * K + c[groups, is_]
        pos = later.argmin()  # each group's later cell is its own
        cand = (int(later[pos]), int(earlier[pos]))
        if best is None or cand < best:
            best = cand
    return best
