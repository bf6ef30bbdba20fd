"""The claim that ``verify_all`` checks, stated once.

One row per check, in report order: its name, a one-line statement, whether
it counts once per exponent, and its preconditions.  In the statements lo
and hi are the least and greatest neighborhood degree, q and r the quotient
and remainder of M1 - n lo by hi - lo, and rho the adjacency spectral
radius.  A graph runs a check only when all its preconditions hold; else it
is skipped under the first one it fails, once per exponent where the check
counts so.  Both engines test the preconditions in the row's order, each
with its own predicates.  Each is named by its skip reason: the
``errors.reason`` of the ``PreconditionError`` that the per-graph ops raise
for it, or, leading the row, ``n_lt_3``, ``no_edges`` or ``not_regular``,
which no op decides.  Exponents and overflow are refused before a sweep
starts, so no row lists them.
"""

from typing import NamedTuple


class Claim(NamedTuple):
    name: str
    statement: str
    per_exponent: bool
    rungs: tuple[str, ...]


_NM = ("n_lt_3", "neighborhood_regular")
_CONGRUENCE = ("n_lt_3", "gap_too_small", "non_positive_quotient")
_NM2 = ("not_diameter_two", "zero_min_dist2_degree", "dist2_regular")

CLAIMS = (
    Claim("m1_identity", "the neighborhood degrees sum to M1", False, ()),
    Claim("nm_reconstruct_secant",
          "NM_a equals its secant-slope reconstruction from n, M1 and the neighborhood-degree"
          " histogram", True, _NM),
    Claim("nm_reconstruct_unit",
          "NM_a equals its unit-step reconstruction from n, M1 and the neighborhood-degree"
          " histogram", True, _NM),
    Claim("nm_bound_secant",
          "NM_a <= the secant bound for a < 0 or a > 1, >= for 0 < a < 1, with equality on"
          " two-valued histograms", True, _NM),
    Claim("nm_bound_unit",
          "NM_a >= the unit bound for a < 0 or a > 1, <= for 0 < a < 1, with equality when no"
          " degree lies strictly between lo + 1 and hi", True, _NM),
    Claim("nm_bound_congruence",
          "NM_a <= the congruence bound for a < 0 or a > 1, >= for 0 < a < 1, with equality on"
          " the histogram {hi: q, lo + r: 1, lo: n - q - 1}",
          True, (*_CONGRUENCE, "remainder_zero", "unoccupied_remainder_degree")),
    Claim("congruence_classify",
          "with q vertices at hi, r = 0 forces the support {lo, hi}, and r >= 1 leaves no degree"
          " above lo + r below hi and at most one vertex at lo + r", False, _CONGRUENCE),
    Claim("dist2_identity", "the 2-distance degrees sum to 2m(n - 1) - M1", False,
          ("not_diameter_two",)),
    Claim("nm2_reconstruct_secant",
          "NM2_a equals its secant-slope reconstruction from n, 2m(n - 1) - M1 and the"
          " 2-distance-degree histogram", True, _NM2),
    Claim("nm2_reconstruct_unit",
          "NM2_a equals its unit-step reconstruction from n, 2m(n - 1) - M1 and the"
          " 2-distance-degree histogram", True, _NM2),
    Claim("spectral_chain", "rho^2 >= NM_2 / M1 >= (M1 (2 lo + 1) - n lo^2 - n lo) / M1",
          False, ("no_edges",)),
    Claim("spectral_regular", "on a k-regular graph both lower bounds on rho^2 equal k^2",
          False, ("no_edges", "not_regular")),
    Claim("coefficient_sign_grid",
          "secant coefficients are <= 0 for a < 0 or a > 1 and >= 0 for 0 < a < 1, unit"
          " coefficients the reverse, for 1 <= p < q <= 12", True, ()),
)

CHECK_NAMES = tuple(claim.name for claim in CLAIMS)
_BY_NAME = {claim.name: claim for claim in CLAIMS}


def gate_row(checks: tuple[str, ...], rungs: tuple[str, ...], prefix: bool = False) -> Claim:
    """The row that a gate counting ``checks`` on ``rungs`` follows.

    Every check must have a row, all of them the same rungs and repetition,
    and ``rungs`` must be that row's rungs in order: all of them, or with
    ``prefix`` a leading part.  Raises ValueError otherwise."""
    for check in checks:
        if check not in _BY_NAME:
            raise ValueError(f"no claim is named {check!r}")
    row = _BY_NAME[checks[0]]
    for check in checks[1:]:
        other = _BY_NAME[check]
        if (other.per_exponent, other.rungs) != (row.per_exponent, row.rungs):
            raise ValueError(f"{check!r} and {row.name!r} do not share one gate")
    expected = row.rungs[: len(rungs)] if prefix else row.rungs
    if rungs != expected:
        raise ValueError(f"{row.name!r} tests {expected} in this order, not {rungs}")
    return row
