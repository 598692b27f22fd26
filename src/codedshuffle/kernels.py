"""Validation kernel: cells grouped by symbol and the crossing-condition scan.

:func:`group_cells` is the one pass that finds a grid's symbol cells and
groups them by symbol.  ``CodedArray`` runs it once and caches the result
as its shuffle plan, which the pair scan, the orphan search, relabelling
and the coded shuffle all read; :func:`first_pair_violation`
groups a bare grid itself.

The scan, :func:`scan_groups`, costs time in proportion to the symbol cells,
not to the grid or the pairs.  It is one pass, the screen, over packed row
bitsets of W = ceil(F/64) uint64 words: one per symbol (its rows) and one
per column (its non-star rows).  A symbol is clean exactly when its rows are
distinct and, for each of its cells, the symbol's rows other than the cell's
own miss the non-star rows of the cell's column.  In the blocks where some
symbol is not, the screen reads from the same bitsets which parts of the
condition fail and the first violating pair, from three candidates per cell.

The one block rule of the package is here too.  Each pass that bounds its
temporaries cuts its items into runs with :func:`blocks`, each run holding
at most :data:`BLOCK` of the pass's units or one item: the parser's rows by
their text bytes, the screen's symbols by their cells' bitset words and the
executor's symbols by their carrier bits; the serializer takes the rows whose
all-star text fits in :data:`BLOCK` bytes, and the parser's scan for line
breaks :data:`BLOCK` bytes at a time.  Each reads ``kernels.BLOCK`` when it
runs, so setting it sizes them all.
"""

from __future__ import annotations

import numpy as np

STAR = -1

# Units per block of every pass that bounds its temporaries (text bytes,
# bitset words, carrier bits); a block of one item may hold more.
BLOCK = 1 << 18


def blocks(ends: np.ndarray) -> list[int]:
    """The cuts 0 = c0 < ... < ck = n of n items whose sizes sum to
    ``ends[i]`` over items 0..i: each run [c, c') greedily holds the most
    items that fit in :data:`BLOCK` units, or one item that does not fit."""
    n = len(ends)
    if n and ends[-1] <= BLOCK:  # one block, without a search
        return [0, n]
    cuts = [0]
    while cuts[-1] < n:
        lo = cuts[-1]
        base = ends[lo - 1] if lo else 0
        cuts.append(max(lo + 1, int(ends.searchsorted(base + BLOCK, "right"))))
    return cuts


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
    two crossing cells (C2-2).  The screen gives all three in one pass.
    """
    pair, c21_ok, c22_ok = _screen(_nonstar_rows(shape, rows, cols), offsets, rows, cols)
    if pair is None:
        return None, True, True
    (f2, k2), (f1, k1) = (divmod(x, shape[1]) for x in pair)
    code = 1 if f1 == f2 or k1 == k2 else 2
    return (code, (f1, k1), (f2, k2)), c21_ok, c22_ok


def _nonstar_rows(shape, rows, cols) -> np.ndarray:
    """The row bitsets of the columns: [:, k] holds the non-star rows of
    column k.  Bitsets are held word-major, one row per word index, so the
    passes run along contiguous rows."""
    return _bitsets((-(-shape[0] // 64), shape[1]), cols, rows >> 6, _row_bit(rows))


def _screen(nonstar_rows: np.ndarray, offsets: np.ndarray, rows, cols):
    """The first violating pair and whether C2-1 and C2-2 hold.  Takes
    :func:`group_cells` output and the columns' non-star row bitsets;
    returns ``(pair, c21_ok, c22_ok)``, where ``pair`` is None or the
    (later, earlier) row-major positions of the first violating pair.

    Cell i has a hit when h_i, the symbol's rows other than r_i that are
    non-star in column c_i, is not empty.  Cells i < j of a symbol violate
    exactly when they share a row, r_i is in h_j or r_j is in h_i.  So the
    least pair of a block, by later cell and then earlier, is among three
    candidates per cell: (1) a cell whose row the cell before it holds, with
    the first cell in that row; (2) a hit cell whose lowest hit row is below
    its own, with the first cell in that row; (3) a hit cell with the first
    cell in the lowest row of its hit above its own.  The later cell of (1)
    and (2) is their own, so only the least one counts; the earlier cell of
    (3) is its own, so only cells before that one are tried.

    Two cells of a symbol in one column hit each other, so C2-1 fails
    exactly when a symbol repeats a row or two of its hit cells share a
    column.  A row of h_i that holds one cell of the symbol, in column c_i,
    is there only through that cell; any other row holds a cell j outside
    column c_i whose crossing (r_j, c_i) is not a star.  So C2-2 fails
    exactly when some h_i holds a row outside the rows of the symbol's
    cells in column c_i that are alone in their row.
    """
    words, K = nonstar_rows.shape
    counts = np.diff(offsets)
    best = None
    c21_ok = c22_ok = True
    cuts = blocks(offsets[1:] * words)
    for lo, hi in zip(cuts, cuts[1:]):
        a, b = offsets[lo], offsets[hi]
        r, c, local = rows[a:b], cols[a:b], np.repeat(np.arange(hi - lo), counts[lo:hi])
        # repeat[i]: cell i shares its row with the cell before it; rows never
        # decrease within a symbol, so that is how every repeated row shows
        repeat = np.zeros(b - a + 1, bool)
        repeat[1:-1] = (r[1:] == r[:-1]) & (local[1:] == local[:-1])
        hits = _other_rows(nonstar_rows, local, r, c, repeat[:-1])
        at = hits.any(axis=0).nonzero()[0]
        hits = hits[:, at]
        j = repeat.nonzero()[0]
        if not (at.size or j.size):
            continue
        if c21_ok or c22_ok:  # once both fail, only the first pair is left
            columns, group = np.unique(local[at] * K + c[at], return_inverse=True)
            c21_ok &= not j.size
            c21_ok &= columns.size == at.size
            # less, from each hit, the rows of the alone cells in its cell's column
            one = ~(repeat[at] | repeat[at + 1])
            lone = r[at][one]
            sets = _bitsets((words, columns.size), group[one], lone >> 6, _row_bit(lone))
            c22_ok &= not (hits & ~sets.take(group, axis=1)).any()
        # the candidates, each a cell and the row of its partner (the first
        # cell of its symbol there): 1 and 2 at the least later cell, 3 before it
        pos = r * K + c
        low = _lowest(hits)
        below = low < r[at]
        cell, row = np.concatenate((j, at[below])), np.concatenate((r[j], low[below]))
        least = pos[cell].min(initial=pos.max() + 1)
        near = pos[at] < least
        above, i = hits[:, near], at[near]
        word = r[i] >> 6
        above[np.arange(words)[:, None] < word] = 0
        above[word, np.arange(i.size)] &= ~(_row_bit(r[i]) - 1)
        up = above.any(axis=0)
        keep = pos[cell] == least
        cell = np.concatenate((cell[keep], i[up]))
        row = np.concatenate((row[keep], _lowest(above[:, up])))
        span = 64 * words  # the block's (symbol, row) keys ascend
        partner = (local * span + r).searchsorted(local[cell] * span + row)
        later = np.maximum(pos[cell], pos[partner])
        first = int(later.min())
        pair = first, int(np.minimum(pos[cell], pos[partner])[later == first].min())
        best = pair if best is None else min(best, pair)
    return best, c21_ok, c22_ok


def _other_rows(nonstar_rows: np.ndarray, local, r, c, repeat) -> np.ndarray:
    """hits[:, i]: the rows of cell i's symbol other than r[i] that are
    non-star in column c[i].  ``local`` numbers the cells' symbols from 0,
    and ``repeat`` marks the cells whose row the cell before them holds."""
    word, bit = r >> 6, _row_bit(r)
    shape = nonstar_rows.shape[0], int(local[-1]) + 1
    sets = _bitsets(shape, local, word, bit)
    if repeat.any():
        # each row once: a repeat's bit was added again, and would carry
        np.subtract.at(sets.reshape(-1), (word * shape[1] + local)[repeat], bit[repeat])
    hits = nonstar_rows.take(c, axis=1)
    hits &= sets.take(local, axis=1)
    hits[word, np.arange(r.size)] ^= bit  # its own row is always non-star
    return hits


def _bitsets(shape, index, word, bit) -> np.ndarray:
    """Word-major row bitsets of ``shape``, (words, n), with bit ``bit`` of
    word ``word`` set in bitset ``index``; each bit is added, which sets it
    when no bitset gets one row twice."""
    out = np.zeros(shape, np.uint64)
    np.add.at(out.reshape(-1), word * shape[1] + index, bit)
    return out


def _lowest(sets: np.ndarray) -> np.ndarray:
    """The lowest row of each word-major bitset of ``sets``, none empty."""
    word = (sets != 0).argmax(axis=0)
    w = sets[word, np.arange(sets.shape[1])]
    # the lowest set bit alone is a power of two, whose exponent is exact
    return word * 64 + np.frexp(w & (~w + 1))[1] - 1


def _row_bit(rows: np.ndarray) -> np.ndarray:
    """Each row's bit within its 64-bit word of a row bitset."""
    return np.left_shift(np.uint64(1), (rows & 63).astype(np.uint64))

