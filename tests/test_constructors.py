from __future__ import annotations

import gc
import hashlib
import random
import time
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedshuffle import (
    access_pattern,
    algorithm1,
    algorithm2,
    compute_stats,
    lex_rank,
    lex_unrank,
    mrg_nnc,
    nnc_pda,
    parse_array,
    validate_l_cyclic,
    validate_mra,
    validate_pda,
)
from codedshuffle.cli import FAMILIES
from codedshuffle.constructors import (
    ConstructionError,
    GcParameters,
    SearchBudgetExceeded,
    _binomials,
    _clique_partition,
    _star_layout,
    _subsets,
    check_ct_parameters,
    check_nnc_parameters,
    ct_points,
    gc_points,
    nnc_points,
)
from codedshuffle.metrics import be_load, be_points, load_from_array, nnc_load

from conftest import alg2_params, nnc_triples, one_hot, traced
from oracles import bf_algorithm1, bf_algorithm2, bf_clique_partition, bf_lex_rank


# --- subset ranking -----------------------------------------------------------


def test_rank_examples():
    # the size-4 subsets of a 5-element universe, in order
    assert lex_rank({0, 1, 2, 3}, 5) == 0
    assert lex_rank({0, 1, 2, 4}, 5) == 1
    assert lex_rank({0, 1, 3, 4}, 5) == 2
    assert lex_rank({0, 2, 3, 4}, 5) == 3
    assert lex_rank({1, 2, 3, 4}, 5) == 4


def test_rank_single_subset():
    assert lex_rank(range(6), 6) == 0


def test_rank_roundtrip_6_choose_3():
    for i, t in enumerate(combinations(range(6), 3)):
        assert lex_rank(t, 6) == i == bf_lex_rank(t, 6)
        assert lex_unrank(i, 3, 6) == t


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rank_roundtrip_property(data):
    n = data.draw(st.integers(1, 10))
    m = data.draw(st.integers(1, n))
    rank = data.draw(st.integers(0, comb(n, m) - 1))
    subset = lex_unrank(rank, m, n)
    assert lex_rank(subset, n) == rank


@pytest.mark.parametrize("mappers,size", [(1, 1), (5, 1), (5, 5), (6, 4), (9, 3), (12, 6)])
def test_subsets_are_lexicographic(mappers, size):
    sets = _subsets(mappers, size)
    assert sets.dtype == np.intp and sets.shape == (comb(mappers, size), size)
    assert sets.tolist() == [list(c) for c in combinations(range(mappers), size)]


@pytest.mark.parametrize("mappers", range(2, 8))
def test_binomial_table_holds_what_the_ranks_read(mappers):
    # row t, column b holds C(mappers-1-t, b) exactly where the closed form
    # of lex_rank reads it for some size in use, and 0 everywhere else
    for n in range(1, mappers):
        for sizes in combinations(range(1, mappers), n):
            expect = np.zeros((mappers, max(sizes) + 1), np.int64)
            for q in sizes:
                for subset in combinations(range(mappers), q):
                    for j, t in enumerate(subset):
                        expect[t, q - j] = comb(mappers - 1 - t, q - j)
            assert _binomials(mappers, sizes).tolist() == expect.tolist(), sizes


def test_rank_errors():
    with pytest.raises(ValueError):
        lex_rank([0, 0], 4)  # duplicates (as list; sets dedupe silently)
    with pytest.raises(ValueError):
        lex_rank([5], 4)
    with pytest.raises(ValueError):
        lex_unrank(comb(5, 2), 2, 5)
    with pytest.raises(ValueError, match="subset must be non-empty"):
        lex_rank([], 4)
    for size in (0, 5):
        with pytest.raises(ValueError, match=r"size must be in \[1, universe\]"):
            lex_unrank(0, size, 4)


# --- subset-topology blocks ----------------------------------------------------


def test_algorithm1_matches_golden(golden):
    assert algorithm1(4, 2, 2) == golden["ct_4_2_2"]
    assert algorithm1(4, 2, 1) == golden["ct_4_2_1"]


def test_algorithm1_5_2_2():
    arr = algorithm1(5, 2, 2)
    st_ = compute_stats(arr)
    assert (arr.rows, arr.cols, arr.symbol_count) == (10, 10, 5)
    assert st_.common_g == 6
    assert set(st_.column_stars) == {7}
    assert validate_pda(arr).ok


def test_algorithm1_bounds():
    with pytest.raises(ConstructionError):
        algorithm1(4, 2, 3)  # r + alpha > mappers
    with pytest.raises(ConstructionError):
        algorithm1(4, 1, 4)  # alpha too large


@pytest.mark.parametrize("lam", range(2, 15))
def test_algorithm1_matches_reference(lam):
    points = list(ct_points(lam))
    if lam > 10:
        # a seeded sample of the points whose grid fits in 2 MiB
        points = [p for p in points if comb(lam, p[1]) * comb(lam, p[2]) <= 2**18]
        points = random.Random(lam).sample(points, 6)
    for point in points:
        assert algorithm1(*point).grid.tolist() == bf_algorithm1(*point)


@pytest.mark.parametrize("lam", range(2, 10))
def test_algorithm1_transposes_with_its_sides(lam):
    # the entry of rows T and columns U is the rank of T | U either way round
    for _, r, alpha in ct_points(lam):
        assert np.array_equal(algorithm1(lam, r, alpha).grid, algorithm1(lam, alpha, r).grid.T)


# sha256 of serialize() for the large arrays the benchmark builds
_ALG1_TEXT_DIGESTS = {
    (16, 2, 2): "69467b2191ba041539a295d8ea88a8f9d17233f902677247cdfae405d97ebc19",
    (12, 5, 5): "57c1d7dffac83605386bb7f5955a94a66f3ddea4468d5e3b7af29e865498889d",
    (12, 6, 6): "058e23023f824f4c64d829506a5eaf32da6347481f1406f0bc33aaf8079b5582",
    (12, 2, 4): "af255cb11f7fc04210634b9d9689ae136194ea840ffd4f28d3cfbbc81149f71e",
}


@pytest.mark.parametrize("point", list(_ALG1_TEXT_DIGESTS))
def test_algorithm1_text_digests_pinned(point):
    text = algorithm1(*point).serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == _ALG1_TEXT_DIGESTS[point]


def test_algorithm1_refuses_a_huge_lambda_before_its_parameters(monkeypatch):
    # C(mappers, r) and the binomial table grow with the mapper count, so
    # the mappers**2 cell refusal comes before any binomial
    def unreachable(*_):
        raise AssertionError("binomials built before the cell refusal")

    monkeypatch.setattr("codedshuffle.constructors._binomials", unreachable)
    for build in (
        lambda: algorithm1(4097, 1, 1),
        lambda: algorithm2(GcParameters(4097, 1, (1,) + (0,) * 4095)),
    ):
        with pytest.raises(
            ConstructionError, match="at least a 4097 x 4097 array exceeds MAX_ARRAY_CELLS"
        ):
            build()


def test_algorithm1_memory_is_bounded():
    # 924 x 924: the int64 grid is 6.5 MiB.  The builder and the parser
    # freeze their grids and hand them over, so no copy of the grid is made;
    # the parser adds the text's bytes (1.6 MiB) and its row-block
    # temporaries (8.9 MiB in all).
    arr, build_peak, _ = traced(lambda: algorithm1(12, 6, 6))
    text, text_peak, _ = traced(arr.serialize)
    parsed, parse_peak, _ = traced(lambda: parse_array(text))
    assert build_peak < 9 * 2**20
    assert text_peak < 8 * 2**20
    assert parse_peak < 9.5 * 2**20
    assert parsed == arr


@pytest.mark.parametrize("lam", range(2, 9))
def test_algorithm1_regularity_sweep(lam):
    for _, r, alpha in ct_points(lam):
        arr = algorithm1(lam, r, alpha)
        st_ = compute_stats(arr)
        assert arr.symbol_count == comb(lam, alpha + r)
        assert st_.common_g == comb(r + alpha, r)
        assert set(st_.column_stars) == {comb(lam, r) - comb(lam - alpha, r)}
        assert validate_pda(arr).ok


def test_algorithm1_symbol_semantics():
    # two cells share a symbol exactly when row-set | column-set coincide
    lam, r, alpha = 6, 2, 2
    arr = algorithm1(lam, r, alpha)
    rows = list(combinations(range(lam), r))
    cols = list(combinations(range(lam), alpha))
    seen = {}
    for i, t in enumerate(rows):
        for j, u in enumerate(cols):
            if set(t) & set(u):
                continue
            key = tuple(sorted(t + u))
            seen.setdefault(key, set()).add(arr.entry(i, j))
    for members in seen.values():
        assert len(members) == 1


# --- concatenated family ---------------------------------------------------------


def test_algorithm2_matches_golden(golden):
    assert algorithm2(GcParameters(4, 2, (2, 0))) == golden["gc_4_2_k20"]
    assert algorithm2(GcParameters(4, 2, (0, 3))) == golden["gc_4_2_k03"]
    assert algorithm2(GcParameters(4, 2, (2, 3))) == golden["gc_4_2_k23"]


def _larger_gc_points(count: int = 10, seed: int = 7):
    """``count`` points of 6 to 10 mappers, multiplicities in 0..3, each
    grid at most 2**15 cells, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        lam = rng.randint(6, 10)
        r = rng.randint(1, lam - 1)
        ks = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(lam - r))
        if any(ks) and comb(lam, r) * GcParameters(lam, r, ks).reducer_count <= 2**15:
            points.append(GcParameters(lam, r, ks))
    return points


def test_algorithm2_matches_reference():
    larger = _larger_gc_points()
    # the sample holds skipped degrees and triple copies
    assert any(0 in p.multiplicities for p in larger)
    assert any(3 in p.multiplicities for p in larger)
    for params in [*alg2_params(max_mappers=5), *larger]:
        assert algorithm2(params).grid.tolist() == bf_algorithm2(*params), params


def test_algorithm2_builds_a_high_degree_block_quickly():
    # the 1024 x 1024 grid of degree 1023 ranks 1023-subsets of 1024
    # mappers; a binomial table over every (a, b) it could index would hold
    # a million entries, most of them too large for int64
    t0 = time.perf_counter()
    arr = algorithm2(GcParameters(1024, 1, (0,) * 1022 + (1,)))
    assert time.perf_counter() - t0 < 2
    assert arr.grid.shape == (1024, 1024) and arr.symbol_count == 1


def test_algorithm2_memory_is_bounded():
    # three copies of the 924 x 924 block of (12, 6, 6), 19.5 MiB of grid:
    # each copy is written straight into the grid, so nothing else of its
    # size is allocated
    arr, peak, _ = traced(lambda: algorithm2(GcParameters(12, 6, (0,) * 5 + (3,))))
    assert arr.grid.shape == (924, 3 * 924)
    assert peak < arr.grid.nbytes + 2**20


def test_algorithm2_single_block_equals_algorithm1():
    for lam in range(2, 8):
        for point in ct_points(lam):
            arr = algorithm1(*point)
            assert algorithm2(one_hot(*point)) == arr, point
            assert arr.grid.tolist() == bf_algorithm1(*point), point


def test_algorithm2_5_2_111():
    arr = algorithm2(GcParameters(5, 2, (1, 1, 1)))
    assert (arr.rows, arr.cols) == (10, 25)
    assert arr.symbol_count == comb(5, 3) + comb(5, 4) + comb(5, 5)
    assert validate_mra(arr).ok


def test_algorithm2_histogram(constructor_sweep):
    gc = [(p, arr) for family, p, arr in constructor_sweep if family == "gc"]
    for (lam, r, kvec), arr in gc[::17]:
        st_ = compute_stats(arr)
        expect: dict[int, int] = {}
        for a, k in enumerate(kvec, start=1):
            if k:
                g = comb(r + a, r)
                expect[g] = expect.get(g, 0) + k * comb(lam, a + r)
        assert st_.histogram == expect
        assert validate_mra(arr).ok


def test_gc_parameter_errors():
    with pytest.raises(ConstructionError):
        GcParameters(4, 2, (0, 0))
    with pytest.raises(ConstructionError):
        GcParameters(4, 2, (1,))
    with pytest.raises(ConstructionError):
        GcParameters(4, 4, (1, 1))
    with pytest.raises(ConstructionError):
        GcParameters(4, 2, (-1, 2))
    with pytest.raises(ConstructionError, match="at least two mappers required"):
        GcParameters(1, 1, (1,))


# --- wrap-around family ----------------------------------------------------------


def test_nnc_matches_golden(golden):
    assert nnc_pda(12, 2, 4).equal_up_to_relabeling(golden["cyclic_pda_12"])
    assert nnc_pda(4, 2, 1).equal_up_to_relabeling(golden["cyclic_pda_4"])


def test_nnc_6_2_2():
    arr = nnc_pda(6, 2, 2)
    st_ = compute_stats(arr)
    assert (arr.rows, arr.cols, arr.symbol_count) == (6, 6, 4)
    assert st_.common_g == 3
    assert set(st_.column_stars) == {4}
    assert validate_pda(arr).ok
    assert validate_l_cyclic(arr, 2).ok


def test_nnc_star_rows():
    lam, r, alpha = 12, 2, 4
    arr = nnc_pda(lam, r, alpha)
    for k in range(lam):
        stars = {f for f in range(lam) if arr.entry(f, k) == -1}
        assert stars == {(r * k + j) % lam for j in range(alpha * r)}


def test_nnc_preconditions():
    with pytest.raises(ConstructionError, match="divide"):
        nnc_pda(5, 2, 2)
    with pytest.raises(ConstructionError, match="alpha"):
        nnc_pda(12, 2, 6)
    with pytest.raises(ConstructionError, match="integer"):
        nnc_pda(8, 1, 2)  # coding gain 16/7


@pytest.mark.parametrize(
    "family, point, message",
    [
        ("ct", (4, 3, 2), "r must be in [1, 2], got 3"),
        ("nnc", (12, 2, 6), "alpha must be smaller than mappers/r = 6, got 6"),
        ("nnc", (12, 0, 2), "r must be at least 1, got 0"),
        ("nnc", (12, 2, 0), "alpha must be at least 1, got 0"),
        ("nnc", (1, 1, 1), "mappers must be at least 2, got 1"),
    ],
    ids=["ct", "nnc", "nnc-r", "nnc-alpha", "nnc-mappers"],
)
def test_family_rules_raise_one_message(family, point, message):
    # the array, graph, load and bound all check the point by the same rule
    for call in filter(None, FAMILIES[family][1:]):
        with pytest.raises(ConstructionError) as exc:
            call(point)
        assert str(exc.value) == message


def _range_neighbours(points):
    """The points just outside the ranges around each of ``points``: r = 0,
    its alpha's top r + 1, alpha = 0 and alpha = mappers, each with the
    parameter that leaves its range."""
    top: dict = {}
    for _, r, alpha in points:
        top[alpha] = max(top.get(alpha, 0), r)
    for lam, r, alpha in points:
        yield (lam, 0, alpha), "r"
        yield (lam, top[alpha] + 1, alpha), "r"
        yield (lam, r, 0), "alpha"
        yield (lam, r, lam), "alpha"


def _gc_neighbours(points):
    """gc's r (its computation load) leaves [1, mappers-1], and its alpha
    range is the length of the multiplicity vector."""
    for lam, r, ks in points:
        yield (lam, 0, ks), "computation load"
        yield (lam, lam, ks), "computation load"
        yield (lam, r, ks + (1,)), "multiplicities"
        yield (lam, r, ks[:-1]), "multiplicities"


# family: its parameter rule, its points at a mapper count, their neighbours
_RULES = {
    "ct": (check_ct_parameters, ct_points, _range_neighbours),
    "be": (lambda lam, r, alpha: be_load(lam, alpha, r), be_points, _range_neighbours),
    "nnc": (check_nnc_parameters, nnc_points, _range_neighbours),
    "gc": (
        GcParameters,
        lambda lam: gc_points(lam, [a % 3 for a in range(1, lam)]),
        _gc_neighbours,
    ),
}


@pytest.mark.parametrize("family", list(_RULES))
def test_family_rule_accepts_its_points_and_names_what_leaves_them(family):
    rule, points_at, neighbours = _RULES[family]
    for lam in range(2, 13):
        points = list(points_at(lam))
        assert points
        for point in points:
            rule(*point)
        for point, name in neighbours(points):
            with pytest.raises(ValueError, match=rf"\b{name}\b"):
                rule(*point)


@pytest.mark.parametrize("family", ["ct", "be", "nnc"])
def test_family_rule_accepts_only_its_points(family):
    rule, points_at, _ = _RULES[family]
    for lam in range(2, 13):
        points = set(points_at(lam))
        for r in range(lam + 2):
            for alpha in range(lam + 1):
                try:
                    rule(lam, r, alpha)
                except ValueError:
                    assert (lam, r, alpha) not in points
                else:
                    assert (lam, r, alpha) in points


def test_nnc_search_leaves_no_reference_cycles():
    # the fill search's int bitsets and its explicit trail must be freed
    # when it returns, not at the next cyclic garbage collection
    gc.collect()
    gc.disable()
    try:
        nnc_pda(12, 2, 4)
        with pytest.raises(ConstructionError):
            nnc_pda(6, 1, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nnc_infeasible_points_raise():
    # these satisfy the arithmetic preconditions but admit no valid fill
    for lam, r, alpha in [(6, 1, 3), (9, 1, 4), (10, 1, 7), (12, 1, 5), (12, 2, 3)]:
        with pytest.raises(ConstructionError, match="exhaustive"):
            nnc_pda(lam, r, alpha)


def test_nnc_no_fill_message_names_the_searched_layout():
    # r = 1 searches the whole layout; r > 1 only the band-aligned fills
    with pytest.raises(ConstructionError) as exc:
        nnc_pda(6, 1, 3)
    assert str(exc.value) == (
        "no 3-regular fill exists for mappers=6, r=1, alpha=3 (exhaustive search)"
    )
    with pytest.raises(ConstructionError) as exc:
        nnc_pda(12, 2, 3)
    assert str(exc.value) == (
        "no 3-regular fill aligned to 2-row bands exists for mappers=12, r=2, "
        "alpha=3 (exhaustive search of the reduced 6 x 6 layout; unaligned "
        "fills were not searched)"
    )


def _small_wrap_layouts(max_cells: int):
    """(size, r, alpha) of each wrap-around star layout with at most
    max_cells integer cells."""
    for size in range(2, max_cells + 1):
        for _, r, alpha in nnc_points(size):
            if size * (size - alpha * r) <= max_cells:
                yield size, r, alpha


@pytest.mark.parametrize(
    "layout", list(_small_wrap_layouts(16)), ids=lambda t: "-".join(map(str, t))
)
def test_clique_partition_matches_reference(layout):
    size, r, alpha = layout
    mask = access_pattern(mrg_nnc(size, r, alpha))
    cells = np.argwhere(~mask)
    if r == 1:
        # the search's layout is the graph's mask, its cells in search order
        star_mask, star_cells = _star_layout(size, alpha)
        assert np.array_equal(star_mask, mask)
        assert sorted(star_cells.tolist()) == cells.tolist()
    for g in [g for g in range(2, len(cells) + 1) if len(cells) % g == 0]:
        cliques = _clique_partition(mask, cells, g)
        assert (cliques is None) == (bf_clique_partition(mask, g) is None), g
        if cliques is None:
            continue
        assert sorted(cliques.ravel().tolist()) == list(range(len(cells)))
        for clique in cells[cliques].tolist():
            for (f1, k1), (f2, k2) in combinations(clique, 2):
                assert f1 != f2 and k1 != k2 and mask[f1, k2] and mask[f2, k1]


# sha256 over serialize() of each wrap-around point with up to 20 mappers
# and integral coding gain that has a fill, in nnc_triples order, and the
# points that have none
_NNC_TEXT_DIGEST = "fbf31d7de46a0f4f75d6ad1446fae67b1ede260f7d7fef57db526d83d9d81e2b"
_NNC_NO_FILL = [
    (6, 1, 3), (9, 1, 4), (10, 1, 7), (12, 1, 5), (12, 2, 3), (14, 1, 11),
    (15, 1, 6), (15, 1, 10), (18, 1, 7), (18, 1, 15), (18, 2, 4), (18, 3, 3),
    (20, 1, 13), (20, 2, 7),
]


def test_nnc_fills_pinned():
    # and each built array's load is the closed form that loads nnc prints
    digest = hashlib.sha256()
    no_fill = []
    for point in nnc_triples(20, min_g=2):
        try:
            arr = nnc_pda(*point)
        except ConstructionError as exc:
            assert "exhaustive" in str(exc)
            no_fill.append(point)
            continue
        digest.update(arr.serialize().encode())
        assert load_from_array(arr) == nnc_load(*point), point
    assert no_fill == _NNC_NO_FILL
    assert digest.hexdigest() == _NNC_TEXT_DIGEST


def test_nnc_builds_large_points():
    # a fill places every cell, so these go far deeper than a recursive
    # search could
    for point in [(60, 1, 31), (80, 1, 41)]:
        assert validate_mra(nnc_pda(*point)).ok


@pytest.mark.parametrize(
    "point", [(26, 1, 23), (1000, 1, 1), (4096, 1, 1)], ids=lambda t: "-".join(map(str, t))
)
def test_nnc_search_gives_up_at_step_cap(point):
    # (26, 1, 23) reaches the cap mid-search, too slowly to trace; the
    # others have too many cells to fill within it, which is refused before
    # the layout is built
    refused = point != (26, 1, 23)
    if refused:
        tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceeded, match="MAX_FILL_STEPS") as exc:
            nnc_pda(*point)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "no fill exists" not in str(exc.value)
    if refused:
        assert peak < 1 << 20


def test_nnc_sweep_parameters(constructor_sweep):
    nnc = [(p, arr) for family, p, arr in constructor_sweep if family == "nnc"]
    for (lam, r, alpha), arr in nnc:
        st_ = compute_stats(arr)
        d = lam - (alpha - 1) * r
        assert st_.common_g == 2 * lam // d
        assert arr.symbol_count == (lam - alpha * r) * d // 2
        assert set(st_.column_stars) == {alpha * r}
        assert validate_pda(arr).ok
        assert validate_l_cyclic(arr, r).ok


# --- determinism ------------------------------------------------------------------


def test_constructors_are_deterministic():
    assert algorithm1(6, 2, 3).serialize() == algorithm1(6, 2, 3).serialize()
    p = GcParameters(5, 1, (2, 0, 1, 3))
    assert algorithm2(p).serialize() == algorithm2(p).serialize()
    assert nnc_pda(10, 2, 4).serialize() == nnc_pda(10, 2, 4).serialize()
