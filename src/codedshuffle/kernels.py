"""Validation kernel: the numpy pairwise crossing-condition scan.

The scan over equal-symbol cell pairs is the only part of array validation
whose cost grows quadratically with symbol multiplicity; it checks all pairs
of one symbol in a single vectorized pass.
"""

from __future__ import annotations

import numpy as np

STAR = -1


def first_pair_violation(grid: np.ndarray):
    """Scan all equal-symbol cell pairs for a crossing-condition violation.

    Returns ``None`` when every pair of equal symbols sits in distinct rows
    and columns with stars at the two crossing cells, otherwise a tuple
    ``(code, (f1, k1), (f2, k2))`` where code 1 means a shared row/column and
    code 2 a missing crossing star.  The reported pair is the first one in
    row-major scan order (ordered by the later cell, then the earlier).
    """
    cells = np.argwhere(grid != STAR)
    if cells.shape[0] < 2:
        return None
    fs = cells[:, 0]
    ks = cells[:, 1]
    # Cells are indexed in row-major scan order; `order` groups them by
    # symbol while preserving that order within each group.
    syms = grid[fs, ks]
    order = np.argsort(syms, kind="stable")
    bounds = np.flatnonzero(np.diff(syms[order])) + 1
    starts = [0, *bounds.tolist(), order.shape[0]]
    best = None  # (j, i, code) of the first violation, j the later cell
    for lo, hi in zip(starts, starts[1:]):
        if hi - lo < 2:
            continue
        idx = order[lo:hi]
        gf = fs[idx]
        gk = ks[idx]
        ii, jj = np.triu_indices(idx.shape[0], k=1)
        same = (gf[ii] == gf[jj]) | (gk[ii] == gk[jj])
        crossing = (grid[gf[ii], gk[jj]] != STAR) | (grid[gf[jj], gk[ii]] != STAR)
        viol = same | crossing
        if not viol.any():
            continue
        cand_i = idx[ii[viol]]
        cand_j = idx[jj[viol]]
        pos = np.lexsort((cand_i, cand_j))[0]
        cand = (int(cand_j[pos]), int(cand_i[pos]), 1 if same[viol][pos] else 2)
        if best is None or cand[:2] < best[:2]:
            best = cand
    if best is None:
        return None
    j, i, code = best
    return code, (int(fs[i]), int(ks[i])), (int(fs[j]), int(ks[j]))
