"""Neighborhood Zagreb indices and their closed-form reconstructions.

For a real exponent a (a != 0, a != 1) the general neighborhood Zagreb index
is ``NM_a = sum_u nbr_deg(u)**a`` and the 2-distance variant is
``NM2_a = sum_u dist2_deg(u)**a``.

Both admit exact reconstructions from nothing but the vertex count, the
first Zagreb index M1 and the degree histogram.  Each follows the line
through ``(lo, lo**a)`` and ``(top, top**a)`` and corrects every histogram
entry ``d`` off those two points by ``d**a - lo**a - (d - lo) * rate``:

* the *secant* form takes ``top = hi``, so the rate is the slope
  ``s = (hi**a - lo**a) / (hi - lo)`` and the interior entries are corrected;
* the *unit* form takes ``top = lo + 1``, so the rate is the first unit
  step ``(lo+1)**a - lo**a`` and entries from ``lo+2`` upward are corrected.

The bounds of :mod:`nbzagreb.bounds` are the same sums with entries dropped.

The 2-distance reconstructions require diameter exactly 2, where the total
2-distance degree satisfies ``sum_u dist2_deg(u) = 2m(n-1) - M1``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .errors import (
    Dist2Regular,
    ForbiddenAlpha,
    NeighborhoodRegular,
    NotDiameterTwo,
    PowerOverflow,
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
    """Validated exponent; rejects anything within 1e-12 of 0 or 1.

    ``_int_exponent`` is the exponent of the exact integer path of
    :func:`_pow` and :func:`_powersum`, set for integral values >= 2 and 0
    for the float path.  It is cut at 1024: a base of at least 2 overflows
    there, and the powers of 0 and 1 do not depend on the exponent."""

    value: float
    _int_exponent: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = self.value
        if not isinstance(v, numbers.Real) or isinstance(v, bool):
            raise ForbiddenAlpha(f"exponent must be a real number, got {v!r}")
        v = float(v)
        object.__setattr__(self, "value", v)
        if not math.isfinite(v):
            raise ForbiddenAlpha(f"exponent must be finite, got {v!r}")
        if abs(v) <= _ALPHA_EPS or abs(v - 1.0) <= _ALPHA_EPS:
            raise ForbiddenAlpha(f"exponent {v!r} is too close to the excluded values 0 and 1")
        k = int(min(v, 1024.0)) if v.is_integer() and v >= 2.0 else 0
        object.__setattr__(self, "_int_exponent", k)

    @property
    def regime(self) -> str:
        if self.value < 0.0:
            return LOW
        return MID if self.value < 1.0 else HIGH


def as_alpha(a: float | Alpha) -> Alpha:
    return a if isinstance(a, Alpha) else Alpha(a)


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise PowerOverflow("a sum of powers leaves the float range")
    return x


def _pow(base: int, a: Alpha) -> float:
    """base**a with an exact integer path for integral a >= 2."""
    v, k = a.value, a._int_exponent
    if base == 0 and v < 0.0:
        raise ZeroBaseNegativeExponent("0 raised to a negative exponent")
    try:
        if k:
            if (base.bit_length() - 1) * k >= 1024:  # base**k >= 2**1024, past every float
                raise OverflowError
            return float(base**k)
        return float(base) ** v
    except OverflowError:
        raise PowerOverflow(f"{base}**{v!r} leaves the float range") from None


def _powersum(values: tuple[int, ...], a: Alpha, what: str) -> float:
    v, k = a.value, a._int_exponent
    if v < 0.0 and min(values) == 0:
        raise ZeroBaseNegativeExponent(
            f"negative exponent requires every {what} to be at least 1"
        )
    try:
        if k:
            if (max(values).bit_length() - 1) * k >= 1024:  # as in _pow
                raise OverflowError
            return _finite(float(sum(x**k for x in values)))
        total = 0.0
        for x in values:
            total += float(x) ** v
        return _finite(total)
    except OverflowError:
        raise PowerOverflow(f"a {what} to the power {v!r} leaves the float range") from None


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


def _line(lo: int, top: int, a: Alpha) -> tuple[float, float]:
    """lo**a and the rate (top**a - lo**a) / (top - lo) of the line through
    (lo, lo**a) and (top, top**a)."""
    lo_pow = _pow(lo, a)
    return lo_pow, (_pow(top, a) - lo_pow) / (top - lo)


def _correction(d: int, lo: int, lo_pow: float, rate: float, a: Alpha) -> float:
    """Correction coefficient d**a - lo**a - (d - lo)*rate of an entry at d."""
    return _pow(d, a) - lo_pow - (d - lo) * rate


def _reconstruct(
    kept: dict[int, int], n: int, total: int, lo: int, top: int, a: Alpha
) -> float:
    """n*lo**a + (total - n*lo)*rate plus the corrections of the ``kept``
    histogram entries off the line (entries at lo and top lie on it); the
    whole histogram gives the reconstruction.

    ``total`` is the degree mass sum(d * hist[d]); for neighborhood degrees
    it equals M1, for 2-distance degrees on a diameter-2 graph it equals
    2m(n-1) - M1.  Callers guarantee lo != top.
    """
    lo_pow, rate = _line(lo, top, a)
    value = n * lo_pow + (total - n * lo) * rate
    for d, cnt in kept.items():
        if d != lo and d != top:
            value += cnt * _correction(d, lo, lo_pow, rate, a)
    return _finite(value)


def _nbr_extremes(p: DegreeProfile) -> tuple[int, int]:
    """(delta_min, delta_max), for the operations that need them distinct."""
    if p.delta_min == p.delta_max:
        raise NeighborhoodRegular("all neighborhood degrees are equal")
    return p.delta_min, p.delta_max


def secant_slope(p: DegreeProfile, a: float | Alpha) -> float:
    """The secant slope s_a = (hi**a - lo**a) / (hi - lo) between the
    extreme neighborhood degrees; requires delta_min != delta_max."""
    alpha = as_alpha(a)
    lo, hi = _nbr_extremes(p)
    return _line(lo, hi, alpha)[1]


def nm_reconstruct_secant(p: DegreeProfile, a: float | Alpha) -> float:
    """NM_a from (n, M1, histogram) via the secant-slope identity."""
    alpha = as_alpha(a)
    lo, hi = _nbr_extremes(p)
    return _reconstruct(p.nbr_hist, p.n, p.m1, lo, hi, alpha)


def nm_reconstruct_unit(p: DegreeProfile, a: float | Alpha) -> float:
    """NM_a from (n, M1, histogram) via the unit-step identity."""
    alpha = as_alpha(a)
    lo, _hi = _nbr_extremes(p)
    return _reconstruct(p.nbr_hist, p.n, p.m1, lo, lo + 1, alpha)


def _dist2_total(p: DegreeProfile) -> int:
    """2m(n-1) - M1, once the 2-distance reconstructions apply."""
    if p.diameter != 2:
        raise NotDiameterTwo(f"diameter is {p.diameter}, need exactly 2")
    if p.d2_min == 0:
        raise ZeroMinDist2Degree("a vertex has 2-distance degree 0")
    if p.d2_min == p.d2_max:
        raise Dist2Regular("all 2-distance degrees are equal")
    return 2 * p.m * (p.n - 1) - p.m1


def nm2_reconstruct_secant(p: DegreeProfile, a: float | Alpha) -> float:
    """NM2_a via the secant identity; diameter-2 graphs only."""
    alpha = as_alpha(a)
    return _reconstruct(p.dist2_hist, p.n, _dist2_total(p), p.d2_min, p.d2_max, alpha)


def nm2_reconstruct_unit(p: DegreeProfile, a: float | Alpha) -> float:
    """NM2_a via the unit-step identity; diameter-2 graphs only."""
    alpha = as_alpha(a)
    return _reconstruct(p.dist2_hist, p.n, _dist2_total(p), p.d2_min, p.d2_min + 1, alpha)


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
