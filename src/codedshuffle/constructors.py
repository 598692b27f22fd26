"""Deterministic builders for the coded-array families.

Three families are produced:

* ``algorithm1``: the combinatorial-topology array indexed by r-subsets
  (rows) and alpha-subsets (columns) of the mapper set, starred where the
  subsets intersect and otherwise carrying the lexicographic rank of their
  union;
* ``algorithm2``: horizontal concatenation of symbol-offset copies of
  ``algorithm1`` blocks, one group per connectivity degree alpha;
* ``nnc_pda``: the r-cyclic g-regular family for the wrap-around topology
  where mapper m stores r consecutive batches and reducer m reads alpha
  consecutive mappers.

All builders are pure and deterministic: identical parameters give
byte-identical serialized arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .arrays import STAR, CodedArray

__all__ = [
    "ConstructionError",
    "SearchBudgetExceeded",
    "GcParameters",
    "gc_points",
    "check_ct_parameters",
    "ct_parameters",
    "ct_points",
    "check_nnc_parameters",
    "nnc_points",
    "lex_rank",
    "lex_unrank",
    "algorithm1",
    "shift_symbols",
    "algorithm2",
    "nnc_pda",
]


class ConstructionError(ValueError):
    """Raised when constructor parameters violate a precondition."""


MAX_ARRAY_CELLS = 2**24
"""Cells (F x K) one built array may hold: 128 MiB of int64 grid."""


def _check_cells(rows: int, cols: int, least: str = "") -> None:
    """Refuse an array of more than MAX_ARRAY_CELLS cells before building it;
    ``least`` says when ``rows`` and ``cols`` only bound it from below."""
    if rows * cols > MAX_ARRAY_CELLS:
        # str() refuses more than 4300 digits; name a long side by a power of
        # two that it reaches
        rows, cols = (
            n if n.bit_length() <= 64 else f"2**{n.bit_length() - 1}-or-more" for n in (rows, cols)
        )
        raise ConstructionError(
            f"{least}a {rows} x {cols} array exceeds MAX_ARRAY_CELLS = {MAX_ARRAY_CELLS} cells"
        )


def lex_rank(subset, universe: int) -> int:
    """0-based position of a subset in lexicographic order of its size class.

    ``subset`` must be a collection of distinct integers in [0, universe).
    """
    t = sorted(int(x) for x in subset)
    m = len(t)
    if m == 0:
        raise ValueError("subset must be non-empty")
    if len(set(t)) != m:
        raise ValueError("subset contains duplicate elements")
    if t[0] < 0 or t[-1] >= universe:
        raise ValueError(f"element out of range [0, {universe})")
    rank = 0
    prev = -1
    for j, tj in enumerate(t):
        for v in range(prev + 1, tj):
            rank += comb(universe - 1 - v, m - 1 - j)
        prev = tj
    return rank


def lex_unrank(rank: int, size: int, universe: int) -> tuple[int, ...]:
    """Inverse of :func:`lex_rank` for subsets of the given size."""
    if size < 1 or size > universe:
        raise ValueError("size must be in [1, universe]")
    if rank < 0 or rank >= comb(universe, size):
        raise ValueError(f"rank out of range [0, C({universe},{size}))")
    out = []
    v = 0
    remaining = size
    while remaining > 0:
        block = comb(universe - 1 - v, remaining - 1)
        if rank < block:
            out.append(v)
            remaining -= 1
        else:
            rank -= block
        v += 1
    return tuple(out)


def _subsets(mappers: int, size: int) -> np.ndarray:
    """The size-subsets of range(mappers) in lexicographic order, one
    ascending row each."""
    # np.fromiter with its exact count allocates once and builds no tuple
    # list; without the count it grows its buffer by reallocation, which
    # left about 0.5 MB of heap holes between the arrays a sweep keeps
    members = chain.from_iterable(combinations(range(mappers), size))
    return np.fromiter(members, np.intp, count=comb(mappers, size) * size).reshape(-1, size)


def _lex_ranks(sets: np.ndarray, mappers: int) -> np.ndarray:
    """:func:`lex_rank` of each row of ``sets`` (ascending size-q subsets).

    The closed form C(mappers, q) - 1 - sum_j C(mappers-1-t_j, q-j) of
    t_0 < ... < t_{q-1} reads C(a, b) only at a - b <= mappers-1-q, where
    it is at most C(mappers, q); the other table entries stay 0, so the
    table is exact in int64 whenever the ranks are.
    """
    q = sets.shape[-1]
    binom = np.array(
        [[comb(a, b) if a - b < mappers - q else 0 for b in range(q + 1)] for a in range(mappers)],
        np.int64,
    )
    return comb(mappers, q) - 1 - binom[mappers - 1 - sets, q - np.arange(q)].sum(axis=-1)


def algorithm1(mappers: int, r: int, alpha: int) -> CodedArray:
    """Combinatorial-topology array: C(mappers, r) x C(mappers, alpha).

    Rows are the r-subsets T and columns the alpha-subsets U of the mapper
    set, both in lexicographic order.  The entry is a star when T and U
    intersect, otherwise the lexicographic rank of T | U among the
    (alpha+r)-subsets, making the result C(r+alpha, r)-regular with
    C(mappers, alpha+r) symbols.

    Only the symbol cells are enumerated: symbol s is the s-th
    (r+alpha)-subset S, and its cells are the splits of S into a row T and
    the column S - T.  The r-subsets of S's positions come in lexicographic
    order and their complements in reverse order, and each row and column
    index is the closed-form rank of :func:`_lex_ranks`, so no Python work
    is done per cell and no work per star.
    """
    lam = mappers
    check_ct_parameters(lam, r, alpha)
    # C(lam, k) >= lam for 0 < k < lam: refuse before any binomial
    _check_cells(lam, lam, least="at least ")
    _check_cells(comb(lam, r), comb(lam, alpha))
    unions = _subsets(lam, r + alpha)
    split = _subsets(r + alpha, r)
    rest = _subsets(r + alpha, alpha)[::-1]  # the complement of each split
    grid = np.full((comb(lam, r), comb(lam, alpha)), STAR, dtype=np.int64)
    grid[_lex_ranks(unions[:, split], lam), _lex_ranks(unions[:, rest], lam)] = (
        np.arange(len(unions))[:, None]
    )
    grid.setflags(write=False)
    return CodedArray(grid)


def shift_symbols(arr: CodedArray, offset: int) -> CodedArray:
    """Add a constant to every integer entry; stars are unchanged."""
    if offset < 0:
        raise ValueError("offset must be non-negative")
    return CodedArray(_shifted(arr.grid, offset))


def _shifted(grid: np.ndarray, offset: int) -> np.ndarray:
    """A frozen copy of ``grid`` with ``offset`` added to each symbol."""
    out = grid.copy()
    out[out != STAR] += offset
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GcParameters:
    """Topology with multiplicities: K_alpha reducers per alpha-subset.

    ``multiplicities[a - 1]`` is the reducer count attached to every
    alpha-subset of mappers of size ``a``, for a in [1, mappers - computation].
    """

    mappers: int
    computation: int
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        lam, r = self.mappers, self.computation
        if lam < 2:
            raise ConstructionError("at least two mappers required")
        if not 1 <= r <= lam - 1:
            raise ConstructionError(f"computation load must be in [1, {lam - 1}]")
        ks = tuple(int(k) for k in self.multiplicities)
        object.__setattr__(self, "multiplicities", ks)
        if len(ks) != lam - r:
            raise ConstructionError(
                f"expected {lam - r} multiplicities, got {len(ks)}"
            )
        if any(k < 0 for k in ks):
            raise ConstructionError("multiplicities must be non-negative")
        if not any(ks):
            raise ConstructionError("at least one multiplicity must be positive")

    @property
    def reducer_count(self) -> int:
        lam = self.mappers
        return sum(
            k * comb(lam, a)
            for a, k in enumerate(self.multiplicities, start=1)
            if k
        )

    @property
    def symbol_total(self) -> int:
        lam, r = self.mappers, self.computation
        return sum(
            k * comb(lam, a + r)
            for a, k in enumerate(self.multiplicities, start=1)
            if k
        )

    def __iter__(self):
        """(mappers, computation, multiplicities), like every family's points."""
        return iter((self.mappers, self.computation, self.multiplicities))


def gc_points(mappers: int, multiplicities):
    """The multiplicity topology's points at r = 1 .. mappers - 1: the vector
    of K_alpha, alpha in [1, mappers - 1], cut to alpha <= mappers - r
    (reducers of higher degree read everything), where a reducer is left."""
    lam, ks = mappers, tuple(multiplicities)
    if len(ks) != lam - 1:
        raise ConstructionError(
            f"gc sweep needs {lam - 1} multiplicities, got {len(ks)}"
        )
    for r in range(1, lam):
        trunc = ks[: lam - r]
        if any(trunc):
            yield GcParameters(lam, r, trunc)


def check_ct_parameters(mappers: int, r: int, alpha: int) -> None:
    """The subset topology's parameter rules, alpha in [1, mappers-1] and
    r in [1, mappers-alpha]; every entry point of the family checks them here."""
    if not 1 <= alpha <= mappers - 1:
        raise ConstructionError(f"alpha must be in [1, {mappers - 1}], got {alpha}")
    if not 1 <= r <= mappers - alpha:
        raise ConstructionError(f"r must be in [1, {mappers - alpha}], got {r}")


def ct_parameters(mappers: int, r: int, alpha: int) -> GcParameters:
    """The subset topology as multiplicities: one reducer per alpha-subset."""
    check_ct_parameters(mappers, r, alpha)
    return GcParameters(mappers, r, tuple(int(a == alpha) for a in range(1, mappers - r + 1)))


def ct_points(mappers: int):
    """The subset topology's points (mappers, r, alpha), alpha-major."""
    for alpha in range(1, mappers):
        for r in range(1, mappers - alpha + 1):
            yield mappers, r, alpha


def algorithm2(params: GcParameters) -> CodedArray:
    """Concatenate symbol-offset copies of the per-alpha blocks.

    Blocks are ordered by ascending alpha and, within an alpha, by copy
    index; copy m of a block is offset by (m-1) times the block's symbol
    count, and each alpha group is offset past all preceding groups.
    """
    lam, r = params.mappers, params.computation
    _check_cells(lam, lam, least="at least ")  # as in algorithm1
    _check_cells(comb(lam, r), params.reducer_count)
    blocks: list[np.ndarray] = []
    group_offset = 0
    for a, count in enumerate(params.multiplicities, start=1):
        if count == 0:
            continue
        base = algorithm1(lam, r, a)
        s1 = comb(lam, a + r)
        for m in range(count):
            blocks.append(_shifted(base.grid, group_offset + m * s1))
        group_offset += count * s1
    grid = np.hstack(blocks)
    grid.setflags(write=False)
    return CodedArray(grid)


# --- r-cyclic g-regular family -------------------------------------------
#
# Column k carries stars on rows [r*k, r*k + alpha*r) mod the row count.  Two
# integer cells may share a symbol only when each one's row is starred in the
# other's column, which the star mask answers directly (a cell's own entry is
# no star, so such cells also differ in row and column).  A g-regular fill is
# a partition of the integer cells into size-g cliques of that adjacency.
#
# The array repeats with period n = columns / r (column k and column k + n
# carry identical star blocks, rows group into bands of r), so the search
# runs on the reduced n x n one-step-shift grid and the result is blown back
# up r-fold; that path reproduces the published arrays cell-for-cell.  For
# r > 1 it covers only the band-aligned fills.  No full-size search backs it
# up: on every point with r > 1 and at most 90 mappers where the reduced
# search finds no fill, a full-size search found none either, or gave up.

MAX_FILL_STEPS = 300_000
"""Cells one fill search may place, besides those opening a clique."""


class SearchBudgetExceeded(ConstructionError):
    """Raised when a fill search stops at MAX_FILL_STEPS undecided."""


def check_nnc_parameters(mappers: int, r: int, alpha: int) -> None:
    """Parameter rules shared by every use of the wrap-around family."""
    lam = mappers
    if lam < 2:
        raise ConstructionError(f"mappers must be at least 2, got {lam}")
    if r < 1:
        raise ConstructionError(f"r must be at least 1, got {r}")
    if alpha < 1:
        raise ConstructionError(f"alpha must be at least 1, got {alpha}")
    if lam % r != 0:
        raise ConstructionError(f"r must divide the mapper count ({r} | {lam} fails)")
    if alpha >= lam // r:
        raise ConstructionError(
            f"alpha must be smaller than mappers/r = {lam // r}, got {alpha}"
        )


def nnc_points(mappers: int):
    """The wrap-around family's points (mappers, r, alpha), r-major."""
    for r in range(1, mappers + 1):
        if mappers % r == 0:
            for alpha in range(1, mappers // r):
                yield mappers, r, alpha


def _star_layout(size: int, r: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """The size x size wrap-around star mask and its integer cells as
    (row, column) pairs: column by column, each column's cells in wrap order
    from the end of its star block."""
    z = alpha * r
    k = np.arange(size)
    mask = (k[:, None] - r * k) % size < z
    rows = (r * k[:, None] + z + np.arange(size - z)) % size
    return mask, np.stack([rows.ravel(), np.repeat(k, size - z)], axis=1)


def _bitset(flags: np.ndarray) -> int:
    """The positions of the true entries as the set bits of an int."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _check_fill_steps(count: int, g: int) -> None:
    """Raise SearchBudgetExceeded when a g-regular fill of ``count`` cells
    places more than MAX_FILL_STEPS cells besides the g-cliques' first."""
    if count - count // g > MAX_FILL_STEPS:
        raise SearchBudgetExceeded(
            f"a {g}-regular fill of {count} cells needs more than "
            f"MAX_FILL_STEPS = {MAX_FILL_STEPS} steps"
        )


def _clique_partition(mask: np.ndarray, cells: np.ndarray, g: int):
    """Deterministic exact search for a size-g clique partition of ``cells``.

    ``mask`` is the array's star mask, ``cells`` its integer cells as
    (row, column) pairs in search order, and g >= 2 divides their number.
    The first free cell opens a new clique, extensions are tried in order
    over the current candidate pool, and a candidate is skipped when what
    would remain of its pool cannot finish the clique.  Returns the cliques
    in discovery order as a (cliques, g) array of positions in ``cells``, or
    None when the search proves that no partition exists.  Raises
    SearchBudgetExceeded when the search takes more than MAX_FILL_STEPS
    steps; callers refuse a cell count that needs more with
    :func:`_check_fill_steps` before building the layout.
    """
    f, k = cells.T
    # Sets of positions in cells are ints with bit x set for position x.
    # Cell y is adjacent to cell x when y is in starred_in[f[x]] (its column
    # stars x's row) and in starring[k[x]] (x's column stars its row).
    starred_in = [_bitset(mask[row, k]) for row in range(mask.shape[0])]
    starring = [_bitset(mask[f, col]) for col in range(mask.shape[1])]
    f, k = f.tolist(), k.tolist()
    free = (1 << len(cells)) - 1
    trail: list[tuple[int, int]] = []  # placed cells, each with its untried pool
    pool = None
    steps = 0
    while True:
        if pool is None:
            if not free:
                return np.array([cell for cell, _ in trail], np.intp).reshape(-1, g)
            head = (free & -free).bit_length() - 1
            free ^= 1 << head
            trail.append((head, 0))
            pool = starred_in[f[head]] & starring[k[head]] & free
        need = g - len(trail) % g
        while pool:
            low = pool & -pool
            pool ^= low
            cell = low.bit_length() - 1
            rest = pool & starred_in[f[cell]] & starring[k[cell]]
            if rest.bit_count() >= need - 1:
                steps += 1
                if steps > MAX_FILL_STEPS:
                    raise SearchBudgetExceeded(
                        f"{g}-regular fill search gave up undecided after "
                        f"MAX_FILL_STEPS = {MAX_FILL_STEPS} steps"
                    )
                free ^= low
                trail.append((cell, pool))
                pool = rest if need > 1 else None
                break
        else:
            if not trail:
                return None
            cell, pool = trail.pop()
            free |= 1 << cell


def nnc_pda(mappers: int, r: int, alpha: int) -> CodedArray:
    """r-cyclic g-regular array for the wrap-around topology.

    Column k carries stars on rows [r*k, r*k + alpha*r) mod mappers; the
    integer fill realizes coding gain g = 2*mappers / (mappers - (alpha-1)*r)
    with (mappers - alpha*r) * (mappers - (alpha-1)*r) / 2 symbols.  For
    r > 1 only fills aligned to r-row bands are searched, so a
    ConstructionError there says that none of those exists.  Raises
    SearchBudgetExceeded when the fill search gives up undecided.
    """
    lam = mappers
    check_nnc_parameters(lam, r, alpha)
    _check_cells(lam, lam)
    d = lam - (alpha - 1) * r
    if (2 * lam) % d != 0:
        raise ConstructionError(f"coding gain 2*{lam}/{d} is not an integer")
    g = 2 * lam // d
    n = lam // r
    # the step bound needs only the cell count, so check it before the
    # layout is built
    _check_fill_steps(n * (n - alpha), g)
    mask, cells = _star_layout(n, 1, alpha)
    cliques = _clique_partition(mask, cells, g)
    if cliques is None and r == 1:
        raise ConstructionError(
            f"no {g}-regular fill exists for mappers={lam}, r={r}, "
            f"alpha={alpha} (exhaustive search)"
        )
    if cliques is None:
        raise ConstructionError(
            f"no {g}-regular fill aligned to {r}-row bands exists for "
            f"mappers={lam}, r={r}, alpha={alpha} (exhaustive search of the "
            f"reduced {n} x {n} layout; unaligned fills were not searched)"
        )
    # Blow the partition up r-fold: each searched cell becomes an r x r
    # block of cells (row offset a, column copy t), and the diagonal
    # labeling (same a, same t across a clique) preserves the crossing
    # condition because star blocks align to r-row bands.
    s = len(cliques)
    f, k = cells[cliques].T
    t, a = np.indices((r, r)).reshape(2, -1, 1, 1)
    grid = np.full((lam, lam), STAR, dtype=np.int64)
    grid[r * f + a, k + t * n] = (t * r + a) * s + np.arange(s)
    grid.setflags(write=False)
    return CodedArray(grid)
