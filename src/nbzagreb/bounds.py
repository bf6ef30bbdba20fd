"""Sharp bounds on NM_a with structural equality detection.

Each bound is a reconstruction of :mod:`nbzagreb.indices` that keeps only
some histogram entries, so direct - bound is the sum of n_d * coefficient
over the dropped entries, the histogram minus the kept ones.  The
coefficients' sign is fixed by the exponent regime, and they vanish only
at the line's ends lo and top, so a bound is attained exactly when every
dropped entry lies at one of them (:func:`_bound`).  Equality flags are
thus structural (decided from the histogram), not numeric; sweeps
cross-check them against the numeric slack.

* secant form, keeping no entry: the coefficients are <= 0 for a < 0 or
  a > 1 and >= 0 for 0 < a < 1, so it is an upper (resp. lower) bound,
  attained exactly on two-valued neighborhood-degree histograms;
* unit form, keeping the top entry {hi: n_hi}: the coefficient signs flip,
  so it bounds NM_a from below (resp. above), with equality on paths and
  whenever no entry lies strictly between lo + 1 and hi;
* congruence form, the secant form keeping one vertex at lo + r: writing
  M1 - n*lo = q*(hi - lo) + r, that correction sharpens the secant bound
  whenever r >= 1 and the degree lo + r is occupied; equality needs the
  histogram to be exactly {hi: q, lo + r: 1, lo: n - q - 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    GapTooSmall,
    NonPositiveQuotient,
    OutOfRangeIndex,
    RemainderZero,
    UnoccupiedRemainderDegree,
)
from .graphs import DegreeProfile
from .indices import (
    MID, Alpha, _correction, _line, _nbr_extremes, _reconstruct, as_alpha, nm_direct,
)

__all__ = [
    "BoundReport",
    "CongruenceData",
    "UPPER",
    "LOWER",
    "secant_coefficient",
    "unit_coefficient",
    "nm_bound_secant",
    "nm_bound_unit",
    "congruence_classify",
    "nm_bound_congruence",
    "BOUND_SOURCES",
]

UPPER = "UPPER"
LOWER = "LOWER"

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound.  ``holds``: on the bound's side and, when
    ``equality`` is set, at the bound, both within ``tolerance``."""

    source: str
    alpha: float
    regime: str
    direction: str
    bound: float
    computed: float
    slack: float
    tolerance: float
    holds: bool
    equality: bool


@dataclass(frozen=True)
class CongruenceData:
    """Euclidean division M1 - n*lo = q*(hi - lo) + r plus the two
    histogram classifications it supports.

    ``is_bi_degree_case`` records whether the hypothesis (r = 0 and the top
    degree is hit exactly q times) holds, in which case the histogram must
    be supported on the two extremes only.  ``part2_constraints_hold`` is
    True when r >= 1, the top degree is hit exactly q times, and the forced
    consequences (no entries strictly between lo + r and hi, at most one
    vertex at lo + r) are satisfied.
    """

    q: int
    r: int
    is_bi_degree_case: bool
    part2_constraints_hold: bool


def secant_coefficient(p: int, q: int, i: int, a: float | Alpha) -> float:
    """Interior coefficient of the secant identity:
    (p+i)**a - p**a - i*s with s = (q**a - p**a)/(q - p).

    Nonpositive for a < 0 or a > 1, nonnegative for 0 < a < 1.
    """
    alpha = as_alpha(a)
    if p < 1 or q <= p:
        raise OutOfRangeIndex(f"need 1 <= p < q, got p={p}, q={q}")
    if not 1 <= i <= q - p - 1:
        raise OutOfRangeIndex(f"need 1 <= i <= q-p-1, got i={i} for p={p}, q={q}")
    return _correction(p + i, p, *_line(p, q, alpha), alpha)


def unit_coefficient(p: int, i: int, a: float | Alpha) -> float:
    """Interior coefficient of the unit-step identity:
    (p+i)**a - p**a - i*((p+1)**a - p**a).

    Nonnegative for a < 0 or a > 1, nonpositive for 0 < a < 1.
    """
    alpha = as_alpha(a)
    if p < 1:
        raise OutOfRangeIndex(f"need p >= 1, got p={p}")
    if i < 2:
        raise OutOfRangeIndex(f"need i >= 2, got i={i}")
    return _correction(p + i, p, *_line(p, p + 1, alpha), alpha)


def _check_tolerance(tolerance: float) -> None:
    """An infinite tolerance passes every comparison and NaN fails every one."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")


def _report(
    source: str,
    alpha: Alpha,
    direction: str,
    bound: float,
    computed: float,
    equality: bool,
    tolerance: float,
) -> BoundReport:
    tol = tolerance * max(1.0, abs(computed))
    slack = abs(computed - bound)
    on_side = computed <= bound + tol if direction == UPPER else computed >= bound - tol
    return BoundReport(
        source=source,
        alpha=alpha.value,
        regime=alpha.regime,
        direction=direction,
        bound=bound,
        computed=computed,
        slack=slack,
        tolerance=tol,
        holds=on_side and (not equality or slack <= tol),
        equality=equality,
    )


def _bound(source: str, p: DegreeProfile, alpha: Alpha, kept: dict[int, int], top: int,
           outer_upper: bool, tolerance: float) -> BoundReport:
    """NM_a's reconstruction on the line from lo = delta_min to ``top``,
    keeping only the ``kept`` entries: an upper bound for a < 0 or a > 1
    exactly when ``outer_upper``, with equality when no dropped entry lies
    off the line's ends."""
    lo = p.delta_min
    bound = _reconstruct(kept, p.n, p.m1, lo, top, alpha)
    direction = UPPER if outer_upper == (alpha.regime != MID) else LOWER
    equality = all(d in (lo, top) for d, c in p.nbr_hist.items() if c > kept.get(d, 0))
    return _report(source, alpha, direction, bound, nm_direct(p, alpha), equality, tolerance)


def nm_bound_secant(
    p: DegreeProfile, a: float | Alpha, tolerance: float = DEFAULT_TOLERANCE
) -> BoundReport:
    """Secant-form bound n*lo**a + (M1 - n*lo)*s_a: the secant form keeping no entry.

    Upper bound for a < 0 or a > 1, lower bound for 0 < a < 1; equality
    exactly when the neighborhood-degree histogram is supported on the two
    extreme values.
    """
    alpha = as_alpha(a)
    _check_tolerance(tolerance)
    _lo, hi = _nbr_extremes(p)
    return _bound("secant", p, alpha, {}, hi, True, tolerance)


def nm_bound_unit(
    p: DegreeProfile, a: float | Alpha, tolerance: float = DEFAULT_TOLERANCE
) -> BoundReport:
    """Unit-form bound: the unit form keeping only the top entry {hi: n_hi}.

    Lower bound for a < 0 or a > 1, upper bound for 0 < a < 1; equality
    whenever no histogram entry strictly between lo + 1 and hi exists
    (paths in particular).
    """
    alpha = as_alpha(a)
    _check_tolerance(tolerance)
    lo, hi = _nbr_extremes(p)
    return _bound("unit", p, alpha, {hi: p.nbr_hist.get(hi, 0)}, lo + 1, False, tolerance)


def congruence_classify(p: DegreeProfile) -> CongruenceData:
    """Divide M1 - n*lo by the degree gap and classify the histogram.

    Requires a gap of at least 2 and a positive quotient.  Note that any
    real profile with lo != hi has M1 - n*lo >= hi - lo (the vertex
    attaining hi contributes that much), so NonPositiveQuotient can only
    fire on synthetic inputs.
    """
    lo, hi = p.delta_min, p.delta_max
    gap = hi - lo
    if gap < 2:
        raise GapTooSmall(f"need max - min >= 2, got {gap}")
    excess = p.m1 - p.n * lo
    if excess < gap:
        raise NonPositiveQuotient(f"M1 - n*min = {excess} is below the gap {gap}")
    q, r = divmod(excess, gap)
    n_hi = p.nbr_hist.get(hi, 0)
    is_bi = r == 0 and n_hi == q
    part2 = (
        r >= 1
        and n_hi == q
        and all(p.nbr_hist.get(d, 0) == 0 for d in range(lo + r + 1, hi))
        and p.nbr_hist.get(lo + r, 0) <= 1
    )
    return CongruenceData(q=q, r=r, is_bi_degree_case=is_bi, part2_constraints_hold=part2)


def nm_bound_congruence(
    p: DegreeProfile, a: float | Alpha, tolerance: float = DEFAULT_TOLERANCE
) -> BoundReport:
    """Congruence-refined bound: the secant form keeping one vertex at lo + r.

    Requires gap >= 2, remainder r >= 1 and an occupied degree lo + r.
    Upper bound for a < 0 or a > 1, lower bound for 0 < a < 1; equality for
    the histogram {hi: q, lo + r: 1, lo: n - q - 1}.
    """
    alpha = as_alpha(a)
    _check_tolerance(tolerance)
    cd = congruence_classify(p)
    lo_r = p.delta_min + cd.r
    if cd.r == 0:
        raise RemainderZero("remainder is 0; the secant bound is already tight here")
    if p.nbr_hist.get(lo_r, 0) == 0:
        raise UnoccupiedRemainderDegree(f"no vertex has neighborhood degree {lo_r}")
    return _bound("congruence", p, alpha, {lo_r: 1}, p.delta_max, True, tolerance)


# Every bound form by source name.
_SOURCE_OPS = {
    "secant": nm_bound_secant,
    "unit": nm_bound_unit,
    "congruence": nm_bound_congruence,
}

BOUND_SOURCES = tuple(_SOURCE_OPS)
