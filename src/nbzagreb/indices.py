"""Neighborhood Zagreb indices and their closed-form reconstructions.

For a real exponent a (a != 0, a != 1) the general neighborhood Zagreb index
is ``NM_a = sum_u nbr_deg(u)**a`` and the 2-distance variant is
``NM2_a = sum_u dist2_deg(u)**a``.

Both admit exact reconstructions from nothing but the vertex count, the
first Zagreb index M1 and the degree histogram, in two flavours:

* the *secant* form interpolates between the extreme degrees ``lo`` and
  ``hi`` with the slope ``s = (hi**a - lo**a) / (hi - lo)`` and corrects
  every interior histogram entry;
* the *unit* form uses the first unit step ``(lo+1)**a - lo**a`` instead
  and corrects entries from ``lo+2`` upward.

The 2-distance reconstructions require diameter exactly 2, where the total
2-distance degree satisfies ``sum_u dist2_deg(u) = 2m(n-1) - M1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    Dist2Regular,
    ForbiddenAlpha,
    NeighborhoodRegular,
    NotDiameterTwo,
    ZeroBaseNegativeExponent,
    ZeroMinDist2Degree,
)
from .graphs import DegreeProfile, Graph, degree_profile

__all__ = [
    "Alpha",
    "IndexReport",
    "as_alpha",
    "first_zagreb",
    "general_neighborhood_zagreb",
    "two_distance_index",
    "nm_direct",
    "nm2_direct",
    "nm_reconstruct_secant",
    "nm_reconstruct_unit",
    "nm2_reconstruct_secant",
    "nm2_reconstruct_unit",
    "index_report",
    "secant_slope",
    "chemical_tree_m1",
]

_ALPHA_EPS = 1e-12

LOW = "LOW"  # a < 0
MID = "MID"  # 0 < a < 1
HIGH = "HIGH"  # a > 1


@dataclass(frozen=True)
class Alpha:
    """Validated exponent; rejects anything within 1e-12 of 0 or 1."""

    value: float

    def __post_init__(self) -> None:
        v = self.value
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ForbiddenAlpha(f"exponent must be a real number, got {v!r}")
        v = float(v)
        object.__setattr__(self, "value", v)
        if not math.isfinite(v):
            raise ForbiddenAlpha(f"exponent must be finite, got {v!r}")
        if abs(v) <= _ALPHA_EPS or abs(v - 1.0) <= _ALPHA_EPS:
            raise ForbiddenAlpha(f"exponent {v!r} is too close to the excluded values 0 and 1")

    @property
    def regime(self) -> str:
        if self.value < 0.0:
            return LOW
        return MID if self.value < 1.0 else HIGH


def as_alpha(a: float | Alpha) -> Alpha:
    return a if isinstance(a, Alpha) else Alpha(a)


def _pow(base: int, a: Alpha) -> float:
    """base**a with an exact integer path for integral a >= 2."""
    v = a.value
    if v.is_integer() and v >= 2.0:
        return float(base ** int(v))
    if base == 0 and v < 0.0:
        raise ZeroBaseNegativeExponent("0 raised to a negative exponent")
    return float(base) ** v


def _powersum(values: tuple[int, ...], a: Alpha, what: str) -> float:
    if a.value < 0.0 and min(values) == 0:
        raise ZeroBaseNegativeExponent(
            f"negative exponent requires every {what} to be at least 1"
        )
    if a.value.is_integer() and a.value >= 2.0:
        k = int(a.value)
        return float(sum(x**k for x in values))
    return sum(float(x) ** a.value for x in values)


@dataclass(frozen=True)
class IndexReport:
    """Direct index value next to both reconstructions and their residuals."""

    alpha: float
    direct: float
    via_secant: float
    via_unit: float
    residual_secant: float
    residual_unit: float
    s_alpha: float


def first_zagreb(g: Graph) -> int:
    """Sum of squared vertex degrees, exact."""
    return sum(len(nbrs) ** 2 for nbrs in g.adjacency)


def nm_direct(p: DegreeProfile, a: float | Alpha) -> float:
    """NM_a by direct summation over per-vertex neighborhood degrees."""
    return _powersum(p.nbr_deg, as_alpha(a), "neighborhood degree")


def nm2_direct(p: DegreeProfile, a: float | Alpha) -> float:
    """NM2_a by direct summation over per-vertex 2-distance degrees."""
    return _powersum(p.dist2_deg, as_alpha(a), "2-distance degree")


def general_neighborhood_zagreb(g: Graph, a: float | Alpha) -> float:
    return nm_direct(degree_profile(g), a)


def two_distance_index(g: Graph, a: float | Alpha) -> float:
    return nm2_direct(degree_profile(g), a)


def _reconstruct(
    hist: dict[int, int], n: int, total: int, lo: int, hi: int, a: Alpha, form: str
) -> float:
    """Shared core of both reconstruction flavours.

    ``total`` is the degree mass sum(i * hist[i]); for neighborhood degrees
    it equals M1, for 2-distance degrees on a diameter-2 graph it equals
    2m(n-1) - M1.  Callers guarantee lo != hi.
    """
    lo_pow = _pow(lo, a)
    if form == "secant":
        slope = (_pow(hi, a) - lo_pow) / (hi - lo)
        value = n * lo_pow + (total - n * lo) * slope
        for d, cnt in hist.items():
            if lo < d < hi:
                value += cnt * (_pow(d, a) - lo_pow - (d - lo) * slope)
        return value
    step = _pow(lo + 1, a) - lo_pow
    value = n * lo_pow + (total - n * lo) * step
    for d, cnt in hist.items():
        if d >= lo + 2:
            value += cnt * (_pow(d, a) - lo_pow - (d - lo) * step)
    return value


def secant_slope(p: DegreeProfile, a: float | Alpha) -> float:
    """The secant slope s_a = (hi**a - lo**a) / (hi - lo) between the
    extreme neighborhood degrees; requires delta_min != delta_max."""
    alpha = as_alpha(a)
    lo, hi = p.delta_min, p.delta_max
    return (_pow(hi, alpha) - _pow(lo, alpha)) / (hi - lo)


def nm_reconstruct_secant(p: DegreeProfile, a: float | Alpha) -> float:
    """NM_a from (n, M1, histogram) via the secant-slope identity."""
    alpha = as_alpha(a)
    if p.delta_min == p.delta_max:
        raise NeighborhoodRegular("all neighborhood degrees are equal")
    return _reconstruct(p.nbr_hist, p.n, p.m1, p.delta_min, p.delta_max, alpha, "secant")


def nm_reconstruct_unit(p: DegreeProfile, a: float | Alpha) -> float:
    """NM_a from (n, M1, histogram) via the unit-step identity."""
    alpha = as_alpha(a)
    if p.delta_min == p.delta_max:
        raise NeighborhoodRegular("all neighborhood degrees are equal")
    return _reconstruct(p.nbr_hist, p.n, p.m1, p.delta_min, p.delta_max, alpha, "unit")


def _check_dist2_preconditions(p: DegreeProfile) -> None:
    if p.diameter != 2:
        raise NotDiameterTwo(f"diameter is {p.diameter}, need exactly 2")
    if p.d2_min == 0:
        raise ZeroMinDist2Degree("a vertex has 2-distance degree 0")
    if p.d2_min == p.d2_max:
        raise Dist2Regular("all 2-distance degrees are equal")


def nm2_reconstruct_secant(p: DegreeProfile, a: float | Alpha) -> float:
    """NM2_a via the secant identity; diameter-2 graphs only."""
    alpha = as_alpha(a)
    _check_dist2_preconditions(p)
    total = 2 * p.m * (p.n - 1) - p.m1
    return _reconstruct(p.dist2_hist, p.n, total, p.d2_min, p.d2_max, alpha, "secant")


def nm2_reconstruct_unit(p: DegreeProfile, a: float | Alpha) -> float:
    """NM2_a via the unit-step identity; diameter-2 graphs only."""
    alpha = as_alpha(a)
    _check_dist2_preconditions(p)
    total = 2 * p.m * (p.n - 1) - p.m1
    return _reconstruct(p.dist2_hist, p.n, total, p.d2_min, p.d2_max, alpha, "unit")


def index_report(p: DegreeProfile, a: float | Alpha) -> IndexReport:
    """Direct NM_a next to both reconstructions; requires delta_min != delta_max."""
    alpha = as_alpha(a)
    direct = nm_direct(p, alpha)
    via_s = nm_reconstruct_secant(p, alpha)
    via_u = nm_reconstruct_unit(p, alpha)
    return IndexReport(
        alpha=alpha.value,
        direct=direct,
        via_secant=via_s,
        via_unit=via_u,
        residual_secant=abs(via_s - direct),
        residual_unit=abs(via_u - direct),
        s_alpha=secant_slope(p, alpha),
    )


def chemical_tree_m1(n: int, n2: int, n3: int) -> int:
    """First Zagreb index of a chemical tree (max degree <= 4) with n
    vertices, n2 of degree 2 and n3 of degree 3: 6n - 10 - 2*n2 - 2*n3."""
    return 6 * n - 10 - 2 * n2 - 2 * n3
