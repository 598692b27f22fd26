from __future__ import annotations

import time
from fractions import Fraction
from math import comb

import pytest

from codedshuffle import (
    GcParameters,
    be_corners,
    be_load,
    be_lower_bound,
    ct_load,
    ct_lower_bound,
    format_rational,
    gc_load,
    gc_lower_bound,
    gc_lower_envelope,
    load_from_array,
    lower_convex_envelope,
    nnc_load,
)
from codedshuffle.cli import FAMILIES
from codedshuffle.constructors import ConstructionError
from codedshuffle.metrics import LoadCurve, be_lower_bound_corners

from conftest import one_hot
from oracles import bf_is_lower_envelope


# --- load from array ------------------------------------------------------------


def test_load_from_array_golden(golden):
    assert load_from_array(golden["mra_irregular"]) == Fraction(15, 40)
    assert load_from_array(golden["ct_4_2_2"]) == Fraction(1, 30)
    assert load_from_array(golden["mra_3col"]) == Fraction(1, 2)
    assert load_from_array(golden["cyclic_pda_12"]) == Fraction(1, 9)
    assert load_from_array(golden["gc_4_2_k23"]) == Fraction(1, 10)


def test_load_from_array_rejects_invalid(golden):
    with pytest.raises(ValueError):
        load_from_array(golden["basic_pda"])


# --- closed forms ------------------------------------------------------------------


def test_be_corners():
    curve = be_corners(4, 2)
    assert curve.value_at(2) == Fraction(1, 30)
    # final corner hits zero: no files remain unknown
    assert curve.corners[-1] == (Fraction(3), Fraction(0))
    assert be_load(12, 4, 2) == Fraction(28, 924)
    # fractional r interpolates linearly
    mid = (be_load(4, 2, 1) + be_load(4, 2, 2)) / 2
    assert be_load(4, 2, Fraction(3, 2)) == mid


def test_be_lower_bound():
    assert be_lower_bound(4, 2, 2) == Fraction(1, 36)
    # single-access reducers: closed form (L-r)/(L(r+1))
    for r in range(1, 6):
        assert be_lower_bound(6, 1, r) == Fraction(6 - r, 6 * (r + 1))
    # r = mappers - alpha gives the fully-symmetric corner
    assert be_lower_bound(5, 2, 3) == Fraction(1, comb(5, 2) * comb(5, 3))
    assert be_lower_bound_corners(6, 2).corners[0][0] == 1


def test_be_points_read_two_corners_of_the_curve():
    # be_load and be_lower_bound read only the corners at floor(r) and
    # ceil(r); the whole corner curves give the same value at every quarter
    # and third of a step, and refuse the same r
    for lam in range(2, 21):
        for alpha in range(1, lam):
            curves = ((be_load, be_corners(lam, alpha)),
                      (be_lower_bound, be_lower_bound_corners(lam, alpha)))
            top = lam - alpha + 1
            grid = {Fraction(n, d) for d in (3, 4) for n in range(d, d * top + 1)}
            for point, curve in curves:
                for r in grid:
                    assert point(lam, alpha, r) == curve.value_at(r), (lam, alpha, r)
                for r in (Fraction(3, 4), top + Fraction(1, 4)):
                    with pytest.raises(ValueError, match="outside curve range") as got:
                        point(lam, alpha, r)
                    with pytest.raises(ValueError) as want:
                        curve.value_at(r)
                    assert str(got.value) == str(want.value)


def test_ct_load():
    assert ct_load(4, 2, 2) == Fraction(1, 30)
    assert ct_load(12, 2, 4) == Fraction(28, 924)
    # r = mappers - alpha collapses to 1 / (g * (g - 1))
    g = comb(4, 2)
    assert ct_load(4, 2, 2) == Fraction(1, g * (g - 1))
    with pytest.raises(ConstructionError):
        ct_load(4, 3, 2)


def test_nnc_load():
    assert nnc_load(12, 2, 4) == Fraction(1, 9)
    # alpha = 1: both factors keep the full wrap distance
    assert nnc_load(4, 2, 1) == Fraction((4 - 2) * 4, 4 * 4) == Fraction(1, 2)
    assert nnc_load(12, 3, 3) == Fraction((12 - 9) * (12 - 6), 12 * (12 + 6))
    with pytest.raises(ConstructionError):
        nnc_load(5, 2, 1)


def test_gc_load():
    assert gc_load(GcParameters(4, 2, (2, 3))) == Fraction(1, 10)
    # one block reduces to the subset-topology load
    assert gc_load(GcParameters(5, 2, (0, 1, 0))) == ct_load(5, 2, 2)


def test_gc_lower_bound():
    assert gc_lower_bound(GcParameters(4, 2, (2, 3))) == Fraction(7, 494)
    for r in range(1, 6):
        params = GcParameters(6, r, (1,) + (0,) * (5 - r))
        assert gc_lower_bound(params) == Fraction(6 - r, 6 * r)


def test_one_hot_closed_forms_skip_zero_terms():
    # a subset-topology point has one nonzero multiplicity among
    # mappers - r; the sums over them took over 20 s on a 2-core VM while
    # every zero term was still multiplied by a binomial
    start = time.perf_counter()
    params = GcParameters(30_000, 15_000, (1,) + (0,) * 14_999)
    bound = gc_lower_bound(params)
    assert params.reducer_count == 30_000
    assert params.symbol_total == comb(30_000, 15_001)
    assert bound == Fraction(15_000, 30_000 * 15_000)
    assert ct_lower_bound(30_000, 15_000, 1) == bound
    assert time.perf_counter() - start < 1


def test_bound_below_achievable(constructor_sweep):
    gc = [p for family, p, _ in constructor_sweep if family == "gc"]
    for params in gc[::13]:
        assert gc_lower_bound(params) <= gc_load(params)
    be = FAMILIES["be"]
    for lam in range(2, 9):
        for point in be.points(lam):
            assert be.bound(point) <= be.load(point)


def test_optimality_corner():
    # on every subset-topology point with up to 20 mappers the load is never
    # below the bound, and equals it exactly at alpha = 1 (the scheme of Li
    # et al.) and at alpha = mappers - r
    ct = FAMILIES["ct"]
    points = [point for lam in range(2, 21) for point in ct.points(lam)]
    assert len(points) == 1330
    for point in points:
        lam, r, alpha = point
        ach, low = ct.load(point), ct.bound(point)
        assert ach >= low, point
        assert (ach == low) == (alpha in (1, lam - r)), point


def test_ct_bound_equals_the_one_hot_gc_bound():
    # the subset topology is the multiplicity topology with one degree
    ct = FAMILIES["ct"]
    for lam in range(2, 13):
        for point in ct.points(lam):
            assert ct.bound(point) == gc_lower_bound(one_hot(*point)), point


def test_ct_bound_refuses_points_outside_the_family():
    # r = 3 > mappers - alpha = 2
    with pytest.raises(ConstructionError, match=r"r must be in \[1, 2\], got 3"):
        FAMILIES["ct"].bound((4, 3, 2))


# --- identities against constructed arrays -------------------------------------


def test_nnc_identity_holds_at_gain_two():
    # alpha = 1 gives coding gain 2; the identity holds there as well
    from codedshuffle import nnc_pda
    from conftest import nnc_triples

    pairs = [t for t in nnc_triples(12, min_g=2) if t not in set(nnc_triples(12))]
    assert pairs
    for lam, r, alpha in pairs:
        arr = nnc_pda(lam, r, alpha)
        assert load_from_array(arr) == nnc_load(lam, r, alpha)


# --- curves ----------------------------------------------------------------------


def test_curve_validation():
    with pytest.raises(ValueError):
        LoadCurve(((1, 1), (1, 2)))
    curve = LoadCurve(((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        curve.value_at(3)


def test_envelope_single_point():
    curve = lower_convex_envelope([(2, 5)])
    assert curve.corners == ((Fraction(2), Fraction(5)),)
    assert curve.value_at(2) == 5


def test_envelope_collinear():
    curve = lower_convex_envelope([(1, 1), (2, 2), (3, 3)])
    assert curve.value_at(Fraction(5, 2)) == Fraction(5, 2)


def test_envelope_keeps_low_middle():
    pts = [(1, 3), (2, 1), (3, 2)]
    curve = lower_convex_envelope(pts)
    assert curve.corners == (
        (Fraction(1), Fraction(3)),
        (Fraction(2), Fraction(1)),
        (Fraction(3), Fraction(2)),
    )
    assert bf_is_lower_envelope(pts, curve.corners)


def test_envelope_drops_high_middle():
    pts = [(1, 1), (2, 3), (3, 1)]
    curve = lower_convex_envelope(pts)
    assert curve.corners == ((Fraction(1), Fraction(1)), (Fraction(3), Fraction(1)))
    assert bf_is_lower_envelope(pts, curve.corners)


def test_envelope_duplicate_r():
    with pytest.raises(ValueError):
        lower_convex_envelope([(1, 1), (1, 2)])
    with pytest.raises(ValueError, match="at least one point required"):
        lower_convex_envelope([])


def test_gc_lower_envelope():
    curve = gc_lower_envelope(6, (1, 0, 0, 0, 0))
    assert curve.value_at(1) <= Fraction(5, 6)
    pts = [
        (Fraction(r), Fraction(6 - r, 6 * r)) for r in range(1, 6)
    ]
    assert bf_is_lower_envelope(pts, curve.corners)
    # mixed multiplicities stay positive and defined wherever some reducer exists
    curve = gc_lower_envelope(5, (2, 0, 1, 0))
    assert all(v > 0 for _, v in curve.corners)
    with pytest.raises(ValueError, match="no computation load has a positive reducer count"):
        gc_lower_envelope(4, (0, 0, 0))


def test_format_rational():
    assert format_rational(Fraction(15, 40)) == "3/8"
    assert format_rational(Fraction(2)) == "2/1"
    # past the 4300 digits that str() of an int writes by default
    big = Fraction(-(10**5000 + 7), 10**4400)
    assert format_rational(big) == "-1" + "0" * 4999 + "7/1" + "0" * 4400
