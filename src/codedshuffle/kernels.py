"""Validation kernel: cells grouped by symbol and the crossing-condition scan.

:func:`group_cells` serves both the pair scan and the coded shuffle's plan.
The scan checks all symbols of one multiplicity g together, as one boolean
(n, g, g) star gather per chunk of at most ``_BLOCK_CELLS`` gathered cells.
"""

from __future__ import annotations

import numpy as np

STAR = -1

# Gathered cells per chunk of same-g symbols; one symbol is never split, so a
# chunk holds max(1, _BLOCK_CELLS // g**2) symbols.
_BLOCK_CELLS = 1 << 18


def group_cells(grid: np.ndarray):
    """Non-star cells grouped by symbol.

    Returns ``(symbols, offsets, rows, cols)``: symbol ``symbols[s]``
    (ascending) occupies the cells ``(rows[i], cols[i])`` for
    ``offsets[s] <= i < offsets[s + 1]``, in row-major order.
    """
    fs, ks = np.nonzero(grid != STAR)  # row-major
    syms = grid[fs, ks]
    order = np.argsort(syms, kind="stable")
    syms = syms[order]
    starts = np.flatnonzero(np.diff(syms, prepend=STAR))
    offsets = np.append(starts, syms.shape[0])
    return syms[starts], offsets, fs[order], ks[order]


def first_pair_violation(grid: np.ndarray):
    """Scan all equal-symbol cell pairs for a crossing-condition violation.

    Returns ``None`` when every pair of equal symbols sits in distinct rows
    and columns with stars at the two crossing cells, otherwise a tuple
    ``(code, (f1, k1), (f2, k2))`` where code 1 means a shared row/column and
    code 2 a missing crossing star.  The reported pair is the first one in
    row-major scan order (ordered by the later cell, then the earlier).
    """
    _, offsets, rows, cols = group_cells(grid)
    counts = np.diff(offsets)
    nonstar = grid != STAR
    best = None  # (later, earlier) row-major positions of the first violation
    for g in np.unique(counts[counts >= 2]).tolist():
        starts = offsets[:-1][counts == g]
        pairs = ~np.tri(g, dtype=bool)  # [i, j] with i < j: cell i comes first
        step = max(1, _BLOCK_CELLS // (g * g))
        for lo in range(0, starts.shape[0], step):
            cells = starts[lo : lo + step, None] + np.arange(g)
            r, c = rows[cells], cols[cells]
            # block[n, i, j]: crossing cell (r[n, i], c[n, j]) is not a star;
            # a shared row or column makes it the symbol's own cell
            block = nonstar[r[:, :, None], c[:, None, :]]
            block |= block.transpose(0, 2, 1)
            block &= pairs
            hit_j = block.any(axis=1)
            groups = np.flatnonzero(hit_j.any(axis=1))
            if groups.size == 0:
                continue
            js = hit_j[groups].argmax(axis=1)
            is_ = block[groups, :, js].argmax(axis=1)
            later = r[groups, js] * grid.shape[1] + c[groups, js]
            earlier = r[groups, is_] * grid.shape[1] + c[groups, is_]
            pos = later.argmin()  # each group's later cell is its own
            cand = (int(later[pos]), int(earlier[pos]))
            if best is None or cand < best:
                best = cand
    if best is None:
        return None
    (f2, k2), (f1, k1) = (divmod(x, grid.shape[1]) for x in best)
    code = 1 if f1 == f2 or k1 == k2 else 2
    return code, (f1, k1), (f2, k2)
