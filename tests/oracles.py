"""Independent brute-force references the fast paths are checked against.

Everything here is deliberately naive: full pair enumeration, full subset
enumeration, pointwise hull checks.  Nothing imports the production
validators or kernels.  The one exception to naivety is
:func:`gather_first_pair_violation`, a frozen copy of the numpy star-gather
scan the kernel used before it screened symbols with row bitsets; it is
fast enough to check the kernel on arrays far too large for the pairwise
reference.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

STAR = -1


def bf_pair_conditions(grid) -> tuple[bool, bool]:
    """Scan every unordered cell pair; returns (rows_cols_ok, crossing_ok)."""
    rows = len(grid)
    cols = len(grid[0])
    cells = [
        (f, k)
        for f in range(rows)
        for k in range(cols)
        if grid[f][k] != STAR
    ]
    distinct_ok = True
    crossing_ok = True
    for (f1, k1), (f2, k2) in combinations(cells, 2):
        if grid[f1][k1] != grid[f2][k2]:
            continue
        if f1 == f2 or k1 == k2:
            distinct_ok = False
        elif grid[f1][k2] != STAR or grid[f2][k1] != STAR:
            crossing_ok = False
    return distinct_ok, crossing_ok


def bf_violating_symbols(grid) -> set[int]:
    """The symbols with a cell pair that shares a row or a column or misses
    a crossing star."""
    cells = [
        (f, k)
        for f in range(len(grid))
        for k in range(len(grid[0]))
        if grid[f][k] != STAR
    ]
    return {
        grid[f1][k1]
        for (f1, k1), (f2, k2) in combinations(cells, 2)
        if grid[f1][k1] == grid[f2][k2]
        and (grid[f1][k2] != STAR or grid[f2][k1] != STAR)
    }


def bf_first_pair_violation(grid):
    """First violating equal-symbol pair, ordered by later then earlier cell.

    Cells are the non-star entries in row-major order.  Returns
    ``(code, (f1, k1), (f2, k2))`` with code 1 for a shared row/column and
    code 2 for a missing crossing star, or None when no pair violates.
    """
    cells = [
        (f, k)
        for f in range(len(grid))
        for k in range(len(grid[0]))
        if grid[f][k] != STAR
    ]
    for j, (f2, k2) in enumerate(cells):
        for f1, k1 in cells[:j]:
            if grid[f1][k1] != grid[f2][k2]:
                continue
            if f1 == f2 or k1 == k2:
                return 1, (f1, k1), (f2, k2)
            if grid[f1][k2] != STAR or grid[f2][k1] != STAR:
                return 2, (f1, k1), (f2, k2)
    return None


# Gathered cells per chunk of same-g symbols; one symbol is never split, so a
# chunk holds max(1, _BLOCK_CELLS // g**2) symbols.
_BLOCK_CELLS = 1 << 18


def gather_group_cells(grid: np.ndarray):
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


def gather_first_pair_violation(grid: np.ndarray):
    """Scan all equal-symbol cell pairs for a crossing-condition violation.

    Returns ``None`` when every pair of equal symbols sits in distinct rows
    and columns with stars at the two crossing cells, otherwise a tuple
    ``(code, (f1, k1), (f2, k2))`` where code 1 means a shared row/column and
    code 2 a missing crossing star.  The reported pair is the first one in
    row-major scan order (ordered by the later cell, then the earlier).
    """
    _, offsets, rows, cols = gather_group_cells(grid)
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


def bf_multiplicities(grid) -> dict[int, int]:
    out: dict[int, int] = {}
    for row in grid:
        for v in row:
            if v != STAR:
                out[v] = out.get(v, 0) + 1
    return out


def bf_first_orphan(grid):
    """First row-major cell whose symbol occurs once, as ((f, k), symbol)."""
    mult = bf_multiplicities(grid)
    for f, row in enumerate(grid):
        for k, v in enumerate(row):
            if v != STAR and mult[v] == 1:
                return (f, k), v
    return None


def bf_normalize(grid) -> list[list[int]]:
    """The grid with its symbols relabelled 0, 1, ... in ascending order."""
    rank = {s: i for i, s in enumerate(sorted(bf_multiplicities(grid)))}
    return [[STAR if v == STAR else rank[v] for v in row] for row in grid]


def bf_equal_up_to_relabeling(a, b) -> bool:
    """True when a symbol bijection maps grid ``a`` onto grid ``b``."""
    if len(a) != len(b) or any(len(x) != len(y) for x, y in zip(a, b)):
        return False
    fwd: dict[int, int] = {}
    seen: set[int] = set()
    for x, y in zip(sum(a, []), sum(b, [])):
        if (x == STAR) != (y == STAR):
            return False
        if x == STAR:
            continue
        if x in fwd:
            if fwd[x] != y:
                return False
        else:
            if y in seen:
                return False
            fwd[x] = y
            seen.add(y)
    return True


def bf_symbol_cells(grid) -> dict[int, list[tuple[int, int]]]:
    """Each symbol's cells in row-major order, symbols ascending."""
    out: dict[int, list[tuple[int, int]]] = {}
    for f, row in enumerate(grid):
        for k, v in enumerate(row):
            if v != STAR:
                out.setdefault(v, []).append((f, k))
    return dict(sorted(out.items()))


def bf_carrier(oracle, u: int, v: int, eta1: int, eta2: int) -> int:
    """The IVs reducer v needs from batch u, one ``oracle.value`` call each:
    functions ascending, then files, first IV in the most significant bits."""
    acc = 0
    for q in range(v * eta2, (v + 1) * eta2):
        for n in range(u * eta1, (u + 1) * eta1):
            acc = (acc << oracle.t) | oracle.value(q, n)
    return acc


def bf_dump(messages) -> str:
    """Transcript text, one f-string per message: ``k s len_bits hex``, the
    payload big-endian and left-padded to whole bytes."""
    lines = [
        f"{m.sender} {m.symbol} {m.bits} "
        f"{m.payload.to_bytes((m.bits + 7) // 8, 'big').hex()}"
        for m in messages
    ]
    return "\n".join(lines) + "\n"


def bf_run_job(grid, oracle, eta1: int, eta2: int, messages=None):
    """Reference coded shuffle, one ``oracle.value`` call per IV.

    A symbol with cells c_0, ..., c_{g-1} (row-major) splits the carrier of
    each cell into g - 1 equal packets, most significant first, labelled by
    the symbol's other cells in order; the column of cell j sends the XOR of
    the packets labelled j.  Column k holds the IVs of batch u only where it
    has a star in row u.  Every term it needs from another batch, to build
    what it sends or to cancel the other terms of what it receives, is a
    failure of column k.

    Returns ``(messages, per_reducer)``: ``(sender, symbol, bits, payload)``
    tuples by sender, then symbol, and ``(ok, recovered_ivs)`` per column.
    With ``messages`` given, the reducers decode those payloads instead; a
    payload wider than its packet fails every reader of it.
    """
    width = eta1 * eta2 * oracle.t
    cols = len(grid[0])
    ok = [True] * cols
    recovered = [0] * cols
    carrier = {}

    def packet(cells, i, j, k):
        """Packet of cells[i] labelled j, as column k computes it."""
        u, v = cells[i]
        if grid[u][k] != STAR:
            ok[k] = False
        if (u, v) not in carrier:
            carrier[u, v] = bf_carrier(oracle, u, v, eta1, eta2)
        plen = width // (len(cells) - 1)
        p = j - (j > i)
        return (carrier[u, v] >> ((len(cells) - 2 - p) * plen)) & ((1 << plen) - 1)

    symbols = bf_symbol_cells(grid)
    own = []
    for s, cells in symbols.items():
        for j, (_, v) in enumerate(cells):
            payload = 0
            for i in range(len(cells)):
                if i != j:
                    payload ^= packet(cells, i, j, v)
            own.append((v, s, width // (len(cells) - 1), payload))
    own.sort(key=lambda m: m[0])

    sent = {(k, s): payload for k, s, _, payload in messages or own}
    for s, cells in symbols.items():
        plen = width // (len(cells) - 1)
        for i, (u, k) in enumerate(cells):
            acc = 0
            for j, (_, v) in enumerate(cells):
                if j == i:
                    continue
                x = sent[v, s]
                if x >> plen:  # pad bits set: not a packet of plen bits
                    ok[k] = False
                for l in range(len(cells)):
                    if l not in (i, j):
                        x ^= packet(cells, l, j, k)
                acc = (acc << plen) | x
            recovered[k] += eta1 * eta2
            if acc != bf_carrier(oracle, u, k, eta1, eta2):
                ok[k] = False
    return own, list(zip(ok, recovered))


def bf_validate_mra(grid) -> bool:
    mult = bf_multiplicities(grid)
    if not mult or min(mult.values()) < 2:
        return False
    return all(bf_pair_conditions(grid))


def bf_validate_pda(grid) -> bool:
    star_counts = {
        sum(1 for f in range(len(grid)) if grid[f][k] == STAR)
        for k in range(len(grid[0]))
    }
    if len(star_counts) != 1:
        return False
    mult = bf_multiplicities(grid)
    if not mult or sorted(mult) != list(range(len(mult))):
        return False
    return all(bf_pair_conditions(grid))


def _bf_star_run_start(grid, k):
    """Row s whose run s, s+1, ... (mod F) covers exactly column k's stars."""
    rows = len(grid)
    stars = {f for f in range(rows) if grid[f][k] == STAR}
    if not stars:
        return None
    # only row 0 of a fully starred column, or a star whose cyclic
    # predecessor is no star, can start the run; trying just those, and
    # stopping at a candidate's first gap, keeps the reference usable on
    # columns of a thousand rows
    for s in range(rows):
        if s in stars and (s == 0 or (s - 1) % rows not in stars):
            if all((s + i) % rows in stars for i in range(len(stars))):
                return s
    return None


def bf_star_run_starts(grid) -> list[int]:
    """Start row of each column's single cyclic star run: 0 for a fully
    starred column, -1 for a column without stars or with several runs."""
    starts = [_bf_star_run_start(grid, k) for k in range(len(grid[0]))]
    return [-1 if s is None else s for s in starts]


def _bf_column_stars(grid):
    return [
        sum(1 for f in range(len(grid)) if grid[f][k] == STAR)
        for k in range(len(grid[0]))
    ]


def bf_cyclic_shift(grid):
    """Common start-row step between consecutive columns' star runs.

    None unless there are at least two columns, all with the same star count
    strictly between 0 and F, each forming one cyclic run.
    """
    rows, cols = len(grid), len(grid[0])
    counts = _bf_column_stars(grid)
    if cols < 2 or len(set(counts)) != 1 or counts[0] in (0, rows):
        return None
    starts = [_bf_star_run_start(grid, k) for k in range(cols)]
    if None in starts:
        return None
    steps = {(starts[k] - starts[k - 1]) % rows for k in range(1, cols)}
    return steps.pop() if len(steps) == 1 else None


def bf_l_cyclic(grid, shift):
    """(checks, (condition, column) of the first violation or None)."""
    rows, cols = len(grid), len(grid[0])
    mult = bf_multiplicities(grid)
    regular = len(set(mult.values())) == 1
    counts = _bf_column_stars(grid)
    starts = [_bf_star_run_start(grid, k) for k in range(cols)]
    consecutive = None not in starts
    wrong = None
    if consecutive:
        for k in range(1, cols):
            if counts[k] != counts[k - 1] or (
                counts[k] < rows
                and (starts[k] - starts[k - 1]) % rows != shift % rows
            ):
                wrong = k
                break
    checks = {
        "C1'": regular,
        "stars-consecutive": consecutive,
        "cyclic-shift": consecutive and wrong is None,
    }
    if not regular:
        violation = ("C1'", None)
    elif not consecutive:
        violation = ("l-cyclic", starts.index(None))
    elif wrong is not None:
        violation = ("l-cyclic", wrong)
    else:
        violation = None
    return checks, violation


def bf_lex_rank(subset, universe: int) -> int:
    """Position of a subset in an explicit lexicographic enumeration."""
    target = tuple(sorted(subset))
    for i, cand in enumerate(combinations(range(universe), len(target))):
        if cand == target:
            return i
    raise ValueError("subset not found")


def bf_algorithm1(mappers: int, r: int, alpha: int) -> list[list[int]]:
    """The subset-topology grid cell by cell: rows are the r-subsets and
    columns the alpha-subsets in lexicographic order, a star where they
    intersect, else the rank of their union among the (r+alpha)-subsets."""
    rank: dict[tuple[int, ...], int] = {}
    grid = []
    for t in combinations(range(mappers), r):
        tset = set(t)
        row = []
        for u in combinations(range(mappers), alpha):
            if not tset.isdisjoint(u):
                row.append(STAR)
                continue
            union = tuple(sorted(t + u))
            if union not in rank:
                rank[union] = bf_lex_rank(union, mappers)
            row.append(rank[union])
        grid.append(row)
    return grid


def bf_clique_partition(mask, g: int):
    """Some partition of the non-star cells of ``mask`` (True for a star)
    into groups of g cells, every two of which lie in different rows and
    columns and see both crossing entries starred; None when there is none.

    Each group of the first uncovered cell and g - 1 later cells is tried
    in turn; the groups are lists of (row, column) pairs.
    """
    cells = [
        (f, k)
        for f in range(len(mask))
        for k in range(len(mask[0]))
        if not mask[f][k]
    ]

    def fits(a, b):
        (f1, k1), (f2, k2) = a, b
        return f1 != f2 and k1 != k2 and mask[f1][k2] and mask[f2][k1]

    def cover(left):
        if not left:
            return []
        for mates in combinations(left[1:], g - 1):
            group = [left[0], *mates]
            if all(fits(a, b) for a, b in combinations(group, 2)):
                rest = cover([c for c in left[1:] if c not in mates])
                if rest is not None:
                    return [group, *rest]
        return None

    return cover(cells)


_INT64_MAX = 2**63 - 1
_INT64_DIGITS = len(str(_INT64_MAX))


def bf_parse_array(text: str) -> list[list[int]]:
    """The text exchange format, one token at a time.

    Returns the grid as lists of ints (stars as ``STAR``) or raises
    ``ValueError`` with the message the production parser must give.
    """
    if not text:
        raise ValueError("empty input")
    if not text.endswith("\n"):
        raise ValueError("trailing newline required")
    lines = [
        ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty grid")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must be 'F K'")
    try:
        if not all(h.isascii() and h.isdigit() for h in header):
            raise ValueError
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"bad header: {lines[0]!r}") from None
    if rows < 1 or cols < 1:
        raise ValueError("empty grid")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
    grid = []
    for f, line in enumerate(lines[1:]):
        toks = line.split()
        if len(toks) != cols:
            raise ValueError(f"row {f} has {len(toks)} entries, expected {cols}")
        row = []
        for k, tok in enumerate(toks):
            if tok == "*":
                row.append(STAR)
                continue
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(
                    f"token {tok!r} at ({f}, {k}) is neither '*' nor a "
                    "non-negative integer"
                )
            digits = tok
            if len(tok) >= _INT64_DIGITS:
                digits = tok.lstrip("0") or "0"
                if len(digits) > _INT64_DIGITS or int(digits) > _INT64_MAX:
                    raise ValueError(
                        f"token {tok!r} at ({f}, {k}) exceeds the int64 range"
                    )
            row.append(int(digits))
        grid.append(row)
    return grid


def bf_serialize(grid) -> str:
    """The text exchange format, one token at a time."""
    lines = [f"{len(grid)} {len(grid[0])}"]
    for row in grid:
        lines.append(" ".join("*" if v == STAR else str(v) for v in row))
    return "\n".join(lines) + "\n"


def bf_is_lower_envelope(points, curve_corners) -> bool:
    """Corners must be a convex chain lying on/below all points and touching
    the first and last point."""
    pts = sorted(points)
    corners = list(curve_corners)
    if corners[0] != pts[0] or corners[-1] != pts[-1]:
        return False
    # convexity: slopes non-decreasing
    slopes = [
        (y2 - y1) / (x2 - x1)
        for (x1, y1), (x2, y2) in zip(corners, corners[1:])
    ]
    if any(s2 < s1 for s1, s2 in zip(slopes, slopes[1:])):
        return False
    # every input point lies on or above the chain
    def chain_value(x):
        for (x1, y1), (x2, y2) in zip(corners, corners[1:]):
            if x1 <= x <= x2:
                return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
        raise AssertionError("x outside chain")

    return all(chain_value(x) <= y for x, y in pts)
