"""Exact-rational communication loads and lower bounds.

Every function returns :class:`fractions.Fraction`; decimals appear only in
the reporting layer.  The achievable loads come in two independent routes:
from an array's symbol statistics (:func:`load_from_array`) and from the
closed forms per topology family, and the test suite pins their equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb, floor

from .arrays import CodedArray, validate_mra
from .constructors import GcParameters, check_ct_parameters, check_nnc_parameters, gc_points

__all__ = [
    "LoadCurve",
    "format_rational",
    "load_from_array",
    "be_points",
    "be_corners",
    "be_load",
    "be_lower_bound_corners",
    "be_lower_bound",
    "nnc_load",
    "ct_load",
    "gc_load",
    "gc_lower_bound",
    "gc_lower_envelope",
    "lower_convex_envelope",
]


def format_rational(x: Fraction) -> str:
    # Decimal writes an int's digits exactly, past str()'s 4300-digit limit
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


@dataclass(frozen=True)
class LoadCurve:
    """Piecewise-linear curve through (r, L) corner points."""

    corners: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pts = tuple(
            (Fraction(r), Fraction(v)) for r, v in self.corners
        )
        for (r1, _), (r2, _) in zip(pts, pts[1:]):
            if r2 <= r1:
                raise ValueError("corner r values must be strictly increasing")
        object.__setattr__(self, "corners", pts)

    def value_at(self, r) -> Fraction:
        r = Fraction(r)
        pts = self.corners
        if r < pts[0][0] or r > pts[-1][0]:
            raise ValueError(
                f"r={r} outside curve range [{pts[0][0]}, {pts[-1][0]}]"
            )
        for (r1, v1), (r2, v2) in zip(pts, pts[1:]):
            if r1 <= r <= r2:
                return v1 + (v2 - v1) * (r - r1) / (r2 - r1)
        return pts[-1][1]


def load_from_array(arr: CodedArray) -> Fraction:
    """Shuffle load of the coded scheme an array encodes.

    Each symbol of multiplicity g contributes g carriers split into g - 1
    packets, giving S/(K*F) + sum_g S_g / (K*F*(g-1)).
    """
    report = validate_mra(arr)
    if not report.ok:
        raise ValueError(f"not a valid map-reduce array: {report.violation.describe()}")
    kf = arr.cols * arr.rows
    total = Fraction(arr.symbol_count, kf)
    for g, count in arr.stats.histogram.items():
        total += Fraction(count, kf * (g - 1))
    return total


def _be_corner(lam: int, alpha: int, r: int) -> Fraction:  # see be_corners
    return ct_load(lam, r, alpha) if r <= lam - alpha else Fraction(0)


def _be_bound_corner(lam: int, alpha: int, r: int) -> Fraction:
    return Fraction(comb(lam, r + alpha), comb(lam, r) * comb(lam, alpha))


def _be_range(lam: int, alpha: int) -> range:
    """be's integer r, 1 .. lam - alpha + 1, where the last has every reducer
    read every batch; checks alpha against the subset topology's range."""
    check_ct_parameters(lam, 1, alpha)
    return range(1, lam - alpha + 2)


def be_points(mappers: int):
    """be's integer points (mappers, r, alpha), alpha-major."""
    for alpha in range(1, mappers):
        for r in _be_range(mappers, alpha):
            yield mappers, r, alpha


def _corners(lam: int, alpha: int, corner) -> LoadCurve:
    return LoadCurve(tuple((r, corner(lam, alpha, r)) for r in _be_range(lam, alpha)))


def _memory_sharing(lam: int, alpha: int, r, corner) -> Fraction:
    """The corner curve at r, read from the corners at floor(r) and ceil(r)."""
    top = _be_range(lam, alpha)[-1]
    r = Fraction(r)
    if not 1 <= r <= top:
        raise ValueError(f"r={r} outside curve range [1, {top}]")
    lo = floor(r)
    low = corner(lam, alpha, lo)
    return low + (corner(lam, alpha, lo + 1) - low) * (r - lo) if r > lo else low


def be_corners(mappers: int, alpha: int) -> LoadCurve:
    """Achievable corner points for the subset topology, r in [1, L-a+1].

    The integer corners are :func:`ct_load`; at r = L-a+1 every reducer
    reads every batch and the load is zero.
    """
    return _corners(mappers, alpha, _be_corner)


def be_load(mappers: int, alpha: int, r) -> Fraction:
    """Achievable load at (possibly fractional) r via memory sharing."""
    return _memory_sharing(mappers, alpha, r, _be_corner)


def be_lower_bound_corners(mappers: int, alpha: int) -> LoadCurve:
    return _corners(mappers, alpha, _be_bound_corner)


def be_lower_bound(mappers: int, alpha: int, r) -> Fraction:
    """Cut-set style lower bound for the subset topology."""
    return _memory_sharing(mappers, alpha, r, _be_bound_corner)


def nnc_load(mappers: int, r: int, alpha: int) -> Fraction:
    """Achievable load of the wrap-around family."""
    lam = mappers
    check_nnc_parameters(lam, r, alpha)
    return Fraction(
        (lam - alpha * r) * (lam - (alpha - 1) * r),
        lam * (lam + (alpha - 1) * r),
    )


def ct_load(mappers: int, r: int, alpha: int) -> Fraction:
    """Achievable load of the subset topology at an integer corner."""
    lam = mappers
    check_ct_parameters(lam, r, alpha)
    return Fraction(
        comb(lam - alpha, r), comb(lam, r) * (comb(r + alpha, r) - 1)
    )


def gc_load(params: GcParameters) -> Fraction:
    """Achievable load with K_alpha reducers per alpha-subset."""
    lam, r = params.mappers, params.computation
    total = Fraction(0)
    for a, k in enumerate(params.multiplicities, start=1):
        if k:
            total += Fraction(k * comb(lam - r, a), comb(r + a, r) - 1)
    return total / params.reducer_count


def gc_lower_bound(params: GcParameters) -> Fraction:
    """Homogeneous-network lower bound at the parameters' computation load."""
    lam, r = params.mappers, params.computation
    terms = [(a, k) for a, k in enumerate(params.multiplicities, start=1) if k]
    num = sum(k * comb(lam - r, a) for a, k in terms)
    reach = sum(k * (comb(lam, a) - comb(lam - r, a)) for a, k in terms)
    return Fraction(num, params.reducer_count * reach)


def gc_lower_envelope(mappers: int, multiplicities) -> LoadCurve:
    """Lower convex envelope of the bound over integer computation loads.

    ``multiplicities`` gives K_alpha for alpha in [1, mappers - 1]; the bound
    is taken at each of its :func:`gc_points`.
    """
    points = [
        (Fraction(p.computation), gc_lower_bound(p))
        for p in gc_points(mappers, multiplicities)
    ]
    if not points:
        raise ValueError("no computation load has a positive reducer count")
    return lower_convex_envelope(points)


def lower_convex_envelope(points) -> LoadCurve:
    """Greatest convex piecewise-linear minorant of a point set."""
    pts = sorted((Fraction(r), Fraction(v)) for r, v in points)
    if not pts:
        raise ValueError("at least one point required")
    for (r1, _), (r2, _) in zip(pts, pts[1:]):
        if r1 == r2:
            raise ValueError(f"duplicate r value: {r1}")
    hull: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop the middle point when it lies strictly above the chord
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) < 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return LoadCurve(tuple(hull))
