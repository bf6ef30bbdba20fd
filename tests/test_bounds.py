import math

import pytest

from conftest import oracle_nm
from nbzagreb import (
    DegreeProfile,
    congruence_classify,
    degree_profile,
    enumerate_connected,
    nm_bound_congruence,
    nm_bound_secant,
    nm_bound_unit,
    nm_reconstruct_secant,
    path_graph,
    secant_coefficient,
    star_graph,
    unit_coefficient,
)
from nbzagreb.errors import (
    GapTooSmall,
    NeighborhoodRegular,
    NonPositiveQuotient,
    OutOfRangeIndex,
    PreconditionError,
    RemainderZero,
    UnoccupiedRemainderDegree,
)

SIGN_TOL = 1e-12
UNIT_ROUNDOFF = 2.0**-53


class TestCoefficients:
    def test_secant_integer_case(self):
        assert secant_coefficient(2, 4, 1, 2) == 9 - 4 - (16 - 4) / 2 == -1.0

    def test_secant_sqrt_case(self):
        expected = math.sqrt(3) - math.sqrt(2) - (2 - math.sqrt(2)) / 2
        got = secant_coefficient(2, 4, 1, 0.5)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got > 0

    def test_secant_negative_alpha(self):
        assert secant_coefficient(1, 3, 1, -1) == pytest.approx(-1 / 6, abs=1e-15)

    def test_unit_integer_cases(self):
        assert unit_coefficient(2, 2, 2) == 16 - 4 - 2 * (9 - 4) == 2.0
        assert unit_coefficient(3, 3, 3) == 216 - 27 - 3 * (64 - 27) == 78.0

    def test_unit_sqrt_case(self):
        expected = 2 - math.sqrt(2) - 2 * (math.sqrt(3) - math.sqrt(2))
        got = unit_coefficient(2, 2, 0.5)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got < 0

    @pytest.mark.parametrize("p,q,i", [(2, 2, 1), (4, 2, 1), (2, 4, 0), (2, 4, 2), (0, 3, 1)])
    def test_secant_out_of_range(self, p, q, i):
        with pytest.raises(OutOfRangeIndex):
            secant_coefficient(p, q, i, 2)

    @pytest.mark.parametrize("p,i", [(2, 1), (2, 0), (0, 2)])
    def test_unit_out_of_range(self, p, i):
        with pytest.raises(OutOfRangeIndex):
            unit_coefficient(p, i, 2)

    @pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0])
    def test_sign_spot_grid(self, alpha):
        mid = 0 < alpha < 1
        for p in range(1, 8):
            for q in range(p + 1, 9):
                for i in range(1, q - p):
                    v = secant_coefficient(p, q, i, alpha)
                    assert (v >= -SIGN_TOL) if mid else (v <= SIGN_TOL)
                for i in range(2, q - p + 1):
                    v = unit_coefficient(p, i, alpha)
                    assert (v <= SIGN_TOL) if mid else (v >= -SIGN_TOL)


class TestSecantBound:
    def test_figure1_equality(self, figure1):
        rep = nm_bound_secant(degree_profile(figure1), 2)
        assert rep.direction == "UPPER"
        assert rep.bound == 12 * 16 + 24 * 14 == 528
        assert rep.computed == 528.0
        assert rep.holds and rep.equality
        assert rep.slack == 0.0

    def test_p5_strict(self):
        rep = nm_bound_secant(degree_profile(path_graph(5)), 2)
        assert rep.bound == 5 * 4 + 4 * 6 == 44
        assert rep.computed == 42.0
        assert rep.holds and not rep.equality

    def test_p5_mid_regime_is_lower(self):
        rep = nm_bound_secant(degree_profile(path_graph(5)), 0.5)
        assert rep.direction == "LOWER"
        assert rep.regime == "MID"
        assert rep.holds

    def test_regular_rejected(self):
        with pytest.raises(NeighborhoodRegular):
            nm_bound_secant(degree_profile(star_graph(3)), 2)


class TestUnitBound:
    def test_p5_equality(self):
        rep = nm_bound_unit(degree_profile(path_graph(5)), 2)
        assert rep.direction == "LOWER"
        assert rep.bound == rep.computed == 42.0
        assert rep.equality

    def test_p4_termwise(self):
        # neighborhood degrees (2, 3, 3, 2): 4*4 + (10-8)*5 + 2*(9-4-5) = 26
        rep = nm_bound_unit(degree_profile(path_graph(4)), 2)
        assert rep.bound == 26.0
        assert rep.computed == 4 + 9 + 9 + 4 == 26
        assert rep.holds and rep.equality

    def test_figure1_holds(self, figure1):
        rep = nm_bound_unit(degree_profile(figure1), 2)
        assert rep.direction == "LOWER"
        assert rep.holds
        assert rep.bound <= 528 + rep.tolerance

    def test_mid_regime_is_upper(self, figure2):
        rep = nm_bound_unit(degree_profile(figure2), 0.5)
        assert rep.direction == "UPPER"
        assert rep.holds


class TestCongruenceClassify:
    def test_figure2(self, figure2):
        cd = congruence_classify(degree_profile(figure2))
        # M1 - n*min = 7 = 3*(max - min) + 1
        assert (cd.q, cd.r) == (3, 1)
        assert not cd.is_bi_degree_case
        assert cd.part2_constraints_hold

    def test_figure1(self, figure1):
        cd = congruence_classify(degree_profile(figure1))
        assert (cd.q, cd.r) == (4, 0)
        assert cd.is_bi_degree_case

    def test_p5(self):
        cd = congruence_classify(degree_profile(path_graph(5)))
        assert (cd.q, cd.r) == (2, 0)
        assert not cd.is_bi_degree_case  # one vertex of degree 4, but q = 2

    def test_gap_too_small(self):
        with pytest.raises(GapTooSmall):
            congruence_classify(degree_profile(path_graph(4)))
        with pytest.raises(GapTooSmall):
            congruence_classify(degree_profile(path_graph(3)))

    def test_non_positive_quotient_synthetic(self):
        # unreachable from real graphs: M1 - n*min >= max - min always;
        # exercised through a hand-built profile
        p = DegreeProfile(
            n=4, m=3, deg=(1, 1, 1, 1), nbr_deg=(2, 2, 2, 5),
            dist2_deg=(0, 0, 0, 0), deg_hist={1: 4}, nbr_hist={2: 3, 5: 1},
            dist2_hist={0: 4}, delta_min=2, delta_max=5, d2_min=0, d2_max=0,
            m1=9, diameter=2,
        )
        with pytest.raises(NonPositiveQuotient):
            congruence_classify(p)


class TestCongruenceBound:
    def test_figure2_equality(self, figure2):
        rep = nm_bound_congruence(degree_profile(figure2), 2)
        assert rep.bound == 45 + 56 + (16 - 9 - 8) == 100
        assert rep.computed == 100.0
        assert rep.holds and rep.equality

    def test_figure2_mid_regime(self, figure2):
        p = degree_profile(figure2)
        rep = nm_bound_congruence(p, 0.5)
        assert rep.direction == "LOWER"
        assert rep.holds and rep.equality
        assert rep.computed == pytest.approx(oracle_nm(figure2, 0.5), rel=1e-12)

    def test_figure2_bound_is_the_reconstruction(self, figure2):
        # Every entry it drops lies at lo or hi, so the bound is the secant
        # reconstruction term for term, and here the direct sum to the bit.
        p = degree_profile(figure2)
        rep = nm_bound_congruence(p, 0.5)
        assert rep.bound == nm_reconstruct_secant(p, 0.5)
        assert rep.slack == 0.0

    def test_figure1_remainder_zero(self, figure1):
        with pytest.raises(RemainderZero):
            nm_bound_congruence(degree_profile(figure1), 2)

    def test_p5_remainder_zero(self):
        with pytest.raises(RemainderZero):
            nm_bound_congruence(degree_profile(path_graph(5)), 2)

    def test_unoccupied_remainder_degree_exists(self):
        # search the 5-vertex classes for a profile with r >= 1 but no
        # vertex at min + r, then check the rejection
        for g in enumerate_connected(5, dedup=True):
            p = degree_profile(g)
            gap = p.delta_max - p.delta_min
            if gap < 2:
                continue
            q, r = divmod(p.m1 - p.n * p.delta_min, gap)
            if q >= 1 and r >= 1 and p.nbr_hist.get(p.delta_min + r, 0) == 0:
                with pytest.raises(UnoccupiedRemainderDegree):
                    nm_bound_congruence(p, 2)
                return
        pytest.fail("no qualifying graph found at n = 5")


class TestEqualitySoundness:
    """Structural equality flags must agree with numeric slack."""

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_exhaustive_small(self, alpha):
        for n in range(3, 6):
            for g in enumerate_connected(n):
                p = degree_profile(g)
                if p.delta_min == p.delta_max:
                    continue
                for fn in (nm_bound_secant, nm_bound_unit):
                    rep = fn(p, alpha)
                    assert rep.holds
                    if rep.equality:
                        assert rep.slack <= rep.tolerance
                rep = nm_bound_secant(p, alpha)
                if set(p.nbr_hist) == {p.delta_min, p.delta_max}:
                    assert rep.equality

    def test_classify_consistency_small(self):
        for n in range(3, 6):
            for g in enumerate_connected(n):
                p = degree_profile(g)
                gap = p.delta_max - p.delta_min
                if gap < 2:
                    continue
                cd = congruence_classify(p)
                if cd.is_bi_degree_case:
                    assert set(p.nbr_hist) == {p.delta_min, p.delta_max}
                if cd.r >= 1 and p.nbr_hist.get(p.delta_max, 0) == cd.q:
                    assert cd.part2_constraints_hold


def _dropped(p, source):
    """The histogram entries a bound leaves out, {d: n_d}, and the public
    coefficient of an entry at d."""
    lo, hi = p.delta_min, p.delta_max
    interior = {d: c for d, c in p.nbr_hist.items() if lo < d < hi}
    if source == "unit":
        # Entries at lo + 1 carry no correction, and the top entry is kept.
        dropped = {d: c for d, c in interior.items() if d >= lo + 2}
        return dropped, lambda d, a: unit_coefficient(lo, d - lo, a)
    if source == "congruence":
        # The secant form keeping one vertex at lo + r.
        r = (p.m1 - p.n * lo) % (hi - lo)
        interior[lo + r] -= 1
    return interior, lambda d, a: secant_coefficient(lo, hi, d - lo, a)


class TestBoundsAreReconstructionsWithEntriesDropped:
    """direct - bound equals the sum of n_d times the public coefficient
    over the entries each bound drops, and has the regime's sign."""

    SOURCES = (
        ("secant", nm_bound_secant, 1.0),
        ("unit", nm_bound_unit, -1.0),
        ("congruence", nm_bound_congruence, 1.0),
    )

    def test_every_connected_graph_up_to_6(self):
        # One graph per isomorphism class: the bounds read only n, M1 and
        # the histogram, and the allowance covers any summation order.
        checked = {source: 0 for source, _op, _sign in self.SOURCES}
        strict = dict(checked)
        for n in range(3, 7):
            for g in enumerate_connected(n, dedup=True):
                p = degree_profile(g)
                lo, hi = p.delta_min, p.delta_max
                for alpha in (-1.0, 0.5, 2.0, 3.0):
                    # Every term either side adds is at most max(lo**a, hi**a)
                    # per vertex times 5 + 4(hi - lo) in all (the corrections
                    # hold (d - lo) * rate with |rate| <= 2 max(...)), and both
                    # sides are sums of at most 3n + 6 terms each within a few
                    # ulps.
                    scale = n * max(lo**alpha, hi**alpha) * (5 + 4 * (hi - lo))
                    allowance = 2 * (3 * n + 10) * UNIT_ROUNDOFF * scale
                    # Secant coefficients are <= 0 for a < 0 or a > 1, unit
                    # ones the other way around, and all flip for 0 < a < 1.
                    regime = -1.0 if alpha < 0 or alpha > 1 else 1.0
                    for source, op, sign in self.SOURCES:
                        try:
                            rep = op(p, alpha)
                        except PreconditionError:
                            continue
                        dropped, coefficient = _dropped(p, source)
                        expected = 0.0
                        for d, count in dropped.items():
                            coef = coefficient(d, alpha)
                            assert coef * sign * regime > 0
                            expected += count * coef
                        delta = rep.computed - rep.bound
                        assert abs(delta - expected) <= allowance, (source, g.adjacency, alpha)
                        assert delta * sign * regime >= -allowance
                        assert rep.equality == (sum(dropped.values()) == 0)
                        checked[source] += 1
                        strict[source] += not rep.equality
        assert all(strict.values()), strict
        assert checked == {"secant": 500, "unit": 500, "congruence": 108}, checked


@pytest.mark.parametrize("op", [nm_bound_secant, nm_bound_unit, nm_bound_congruence])
@pytest.mark.parametrize("tolerance", [math.inf, math.nan, 0.0, -1e-9])
def test_tolerance_must_be_finite_and_positive(op, tolerance):
    # Checked before any precondition, so a regular star is rejected too.
    for g in (path_graph(5), star_graph(3)):
        with pytest.raises(ValueError):
            op(degree_profile(g), 2.0, tolerance)
