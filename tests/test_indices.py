import math
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_nm, prufer_tree
from nbzagreb import (
    Alpha,
    Graph,
    chemical_tree_m1,
    complete_graph,
    cycle_graph,
    degree_profile,
    enumerate_connected,
    first_zagreb,
    general_neighborhood_zagreb,
    index_report,
    nm2_reconstruct_secant,
    nm2_reconstruct_unit,
    nm_direct,
    nm_reconstruct_secant,
    nm_reconstruct_unit,
    parse_edge_list,
    path_graph,
    secant_slope,
    star_graph,
    two_distance_index,
)
from nbzagreb.errors import (
    Dist2Regular,
    ForbiddenAlpha,
    NeighborhoodRegular,
    NotDiameterTwo,
    PowerOverflow,
    ZeroBaseNegativeExponent,
    ZeroMinDist2Degree,
    reason,
)
from nbzagreb.indices import _powersum

RELATIVE_TOL = 1e-9
SWEEP_ALPHAS = (-1.0, 0.5, 2.0, 3.0)


def close(a, b):
    return abs(a - b) <= RELATIVE_TOL * max(1.0, abs(b))


class TestAlpha:
    @pytest.mark.parametrize("value", [0.0, 1.0, 1 + 5e-13, -1e-13, math.inf, math.nan])
    def test_forbidden(self, value):
        with pytest.raises(ForbiddenAlpha):
            Alpha(value)

    @pytest.mark.parametrize(
        "value,regime", [(-2.0, "LOW"), (0.5, "MID"), (2.0, "HIGH"), (1.0001, "HIGH")]
    )
    def test_regimes(self, value, regime):
        assert Alpha(value).regime == regime

    @pytest.mark.parametrize("value,expected", [(np.int64(2), 2.0), (np.float32(2.5), 2.5)])
    def test_numpy_scalars_are_real_numbers(self, value, expected):
        alpha = Alpha(value)
        assert type(alpha.value) is float and alpha.value == expected
        assert nm_direct(degree_profile(path_graph(5)), value) == nm_direct(
            degree_profile(path_graph(5)), expected
        )

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "2", None])
    def test_non_real_values_rejected(self, value):
        with pytest.raises(ForbiddenAlpha, match="real number"):
            Alpha(value)


class TestPowerOverflow:
    """Powers past the float64 range raise a named precondition, quickly."""

    @pytest.mark.parametrize("name,alpha", [("p4", 1000), ("p4", 1e300), ("figure1", 400.5)])
    def test_direct_sum_raises_within_a_second(self, figure1, name, alpha):
        # 3**400.5 fits a float, so the fractional case needs figure 1's 10**400.5.
        p = degree_profile(path_graph(4) if name == "p4" else figure1)
        start = time.perf_counter()
        with pytest.raises(PowerOverflow) as info:
            nm_direct(p, alpha)
        assert time.perf_counter() - start < 1.0
        assert reason(info.value) == "power_overflow"

    @pytest.mark.parametrize("alpha", [1000, 400.5, 1e300])
    def test_every_op_raises(self, figure1, c5_chord, alpha):
        p = degree_profile(figure1)
        for op in (nm_reconstruct_secant, nm_reconstruct_unit, secant_slope):
            with pytest.raises(PowerOverflow):
                op(p, alpha)
        if alpha == 400.5:
            return  # c5_chord's 2-distance degrees reach 5, and 5**400.5 fits
        p2 = degree_profile(c5_chord)
        for op in (nm2_reconstruct_secant, nm2_reconstruct_unit):
            with pytest.raises(PowerOverflow):
                op(p2, alpha)

    def test_sum_past_the_range_raises(self):
        # Each power fits, their sum does not: on the exact integer path
        # float() refuses the sum, on the float path the sum reaches inf.
        with pytest.raises(PowerOverflow):
            _powersum((2**511,) * 4, Alpha(2), "value")
        big = int(1.2e123)
        assert math.isfinite(float(big) ** 2.5)
        with pytest.raises(PowerOverflow):
            _powersum((big,) * 4, Alpha(2.5), "value")

    def test_line_past_the_range_raises_where_the_sum_fits(self):
        # P5 at 511.9: NM_a is about 4**a, 1.6e308, but the secant line's
        # base n*lo**a + (M1 - n*lo)*s is about twice that.
        p = degree_profile(path_graph(5))
        direct = nm_direct(p, 511.9)
        assert math.isfinite(direct)
        assert nm_reconstruct_unit(p, 511.9) == direct
        with pytest.raises(PowerOverflow):
            nm_reconstruct_secant(p, 511.9)

    def test_bases_zero_and_one_at_a_huge_exponent(self):
        # 0 and 1 keep their powers at every exponent, so nothing overflows.
        p = degree_profile(parse_edge_list("n 3\n0 1"))
        assert p.nbr_deg == (1, 1, 0)
        start = time.perf_counter()
        assert nm_direct(p, 1e300) == 2.0
        assert nm_direct(p, 1000) == 2.0
        assert time.perf_counter() - start < 1.0

    def test_powers_that_fit_are_unchanged(self, figure1):
        p = degree_profile(figure1)
        assert nm_direct(p, 300) == float(8 * 4**300 + 4 * 10**300)
        assert nm_direct(p, 2) == 528.0


class TestFirstZagreb:
    def test_fixtures(self, figure1, figure2):
        assert first_zagreb(figure1) == 72
        assert first_zagreb(figure2) == 3**2 + 3 * 2**2 + 1**2 == 22

    def test_small_graphs(self):
        assert first_zagreb(complete_graph(4)) == 4 * 3**2 == 36
        assert first_zagreb(path_graph(4)) == 1 + 4 + 4 + 1 == 10


class TestDirectIndices:
    def test_figure1_squared(self, figure1):
        assert general_neighborhood_zagreb(figure1, 2) == 8 * 4**2 + 4 * 10**2 == 528

    def test_figure2_squared(self, figure2):
        assert general_neighborhood_zagreb(figure2, 2) == 3 * 5**2 + 4**2 + 3**2 == 100

    def test_p5_squared(self):
        # neighborhood degrees (2, 3, 4, 3, 2)
        assert general_neighborhood_zagreb(path_graph(5), 2) == 42

    def test_integral_alpha_is_exact_integer_sum(self):
        for g in (complete_graph(5), path_graph(6)):
            nm = general_neighborhood_zagreb(g, 3)
            assert nm == sum(d**3 for d in degree_profile(g).nbr_deg)
            assert nm == int(nm)

    def test_fractional_alpha_matches_oracle(self, figure2):
        got = general_neighborhood_zagreb(figure2, 0.5)
        assert got == pytest.approx(oracle_nm(figure2, 0.5), rel=1e-12)

    def test_negative_alpha_needs_positive_degrees(self):
        g = parse_edge_list("n 3\n0 1")  # vertex 2 isolated
        with pytest.raises(ZeroBaseNegativeExponent):
            general_neighborhood_zagreb(g, -1)

    def test_forbidden_alpha_rejected(self, figure2):
        with pytest.raises(ForbiddenAlpha):
            general_neighborhood_zagreb(figure2, 1.0)


class TestReconstructions:
    def test_figure1_exact(self, figure1):
        p = degree_profile(figure1)
        # 12*16 + 24*14, with an empty interior correction
        assert nm_reconstruct_secant(p, 2) == 528.0
        assert nm_reconstruct_unit(p, 2) == 528.0

    def test_figure2_exact(self, figure2):
        p = degree_profile(figure2)
        assert nm_reconstruct_secant(p, 2) == 100.0
        assert nm_reconstruct_unit(p, 2) == 100.0

    def test_p5_termwise(self):
        p = degree_profile(path_graph(5))
        # unit form: 5*4 + 4*5 + 1*(16 - 4 - 2*5)
        assert nm_reconstruct_unit(p, 2) == 5 * 4 + 4 * 5 + 1 * (16 - 4 - 2 * 5) == 42
        assert nm_reconstruct_secant(p, 2) == 42.0

    def test_neighborhood_regular_rejected(self):
        p = degree_profile(star_graph(3))
        with pytest.raises(NeighborhoodRegular):
            nm_reconstruct_secant(p, 2)
        with pytest.raises(NeighborhoodRegular):
            nm_reconstruct_unit(p, 2)

    def test_negative_alpha_needs_positive_extremes(self):
        # An isolated vertex puts lo at 0, which the line cannot raise to -1.
        p = degree_profile(Graph.from_edges(3, [(0, 1)]))
        with pytest.raises(ZeroBaseNegativeExponent) as info:
            nm_reconstruct_secant(p, -1)
        assert str(info.value) == "0 raised to a negative exponent"

    def test_secant_slope_needs_two_extremes(self):
        assert secant_slope(degree_profile(path_graph(5)), 2) == (16 - 4) / 2
        with pytest.raises(NeighborhoodRegular):
            secant_slope(degree_profile(cycle_graph(5)), 2)

    def test_fractional_alpha_figure2(self, figure2):
        p = degree_profile(figure2)
        direct = oracle_nm(figure2, 0.5)
        assert close(nm_reconstruct_secant(p, 0.5), direct)
        assert close(nm_reconstruct_unit(p, 0.5), direct)

    def test_exhaustive_small(self):
        for n in range(3, 6):
            for g in enumerate_connected(n):
                p = degree_profile(g)
                if p.delta_min == p.delta_max:
                    continue
                for alpha in SWEEP_ALPHAS:
                    direct = oracle_nm(g, alpha)
                    assert close(nm_reconstruct_secant(p, alpha), direct)
                    assert close(nm_reconstruct_unit(p, alpha), direct)

    def test_index_report_residuals(self, figure2):
        rep = index_report(degree_profile(figure2), 2)
        assert rep.direct == 100.0
        assert rep.residual_secant == 0.0
        assert rep.residual_unit == 0.0
        assert rep.s_alpha == (25 - 9) / 2


class TestTwoDistanceIndex:
    def test_c5_chord(self, c5_chord):
        assert two_distance_index(c5_chord, 2) == 2 * 4 + 16 + 2 * 25 == 74

    def test_c5(self):
        assert two_distance_index(cycle_graph(5), 2) == 5 * 16 == 80

    def test_paw_negative_alpha(self, paw):
        # the triangle vertex adjacent to everything has dist2 degree 0
        assert degree_profile(paw).d2_min == 0
        with pytest.raises(ZeroBaseNegativeExponent):
            two_distance_index(paw, -1)

    def test_reconstructions_c5_chord(self, c5_chord):
        p = degree_profile(c5_chord)
        # secant form: 5*4 + 8*7 + 1*(16 - 4 - 2*7)
        assert nm2_reconstruct_secant(p, 2) == 5 * 4 + 8 * 7 + 1 * (16 - 4 - 2 * 7) == 74
        assert nm2_reconstruct_unit(p, 2) == 74.0

    def test_dist2_regular_rejected(self):
        with pytest.raises(Dist2Regular):
            nm2_reconstruct_secant(degree_profile(cycle_graph(5)), 2)

    def test_not_diameter_two_rejected(self):
        with pytest.raises(NotDiameterTwo):
            nm2_reconstruct_secant(degree_profile(path_graph(4)), 2)

    def test_zero_min_rejected(self, paw):
        with pytest.raises(ZeroMinDist2Degree):
            nm2_reconstruct_secant(degree_profile(paw), 2)

    def test_exhaustive_small(self):
        for n in range(3, 6):
            for g in enumerate_connected(n):
                p = degree_profile(g)
                if p.diameter != 2 or p.d2_min == 0 or p.d2_min == p.d2_max:
                    continue
                for alpha in SWEEP_ALPHAS:
                    direct = sum(d**alpha for d in p.dist2_deg)
                    assert close(nm2_reconstruct_secant(p, alpha), direct)
                    assert close(nm2_reconstruct_unit(p, alpha), direct)


class TestChemicalTreeIdentity:
    def test_examples(self):
        assert chemical_tree_m1(4, 2, 0) == 10 == first_zagreb(path_graph(4))
        assert chemical_tree_m1(5, 0, 0) == 20 == first_zagreb(star_graph(4))
        assert chemical_tree_m1(2, 0, 0) == 2 == first_zagreb(path_graph(2))

    def test_all_chemical_trees_up_to_7(self):
        # every labeled tree via its Pruefer sequence
        for n in range(2, 8):
            count = 0
            for seq in product(range(n), repeat=n - 2):
                g = prufer_tree(list(seq))
                p = degree_profile(g)
                count += 1
                if max(p.deg) > 4:
                    continue
                n2 = p.deg_hist.get(2, 0)
                n3 = p.deg_hist.get(3, 0)
                assert p.m1 == chemical_tree_m1(g.n, n2, n3)
            assert count == n ** (n - 2)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=7),
    data=st.data(),
    alpha=st.one_of(
        st.floats(min_value=-3.0, max_value=-0.1),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=1.05, max_value=4.0),
    ),
)
def test_reconstructions_match_direct_on_random_graphs(n, data, alpha):
    slots = [(i, j) for j in range(n) for i in range(j)]
    picked = data.draw(st.sets(st.sampled_from(slots), min_size=1))
    g = Graph.from_edges(n, sorted(picked))
    p = degree_profile(g)
    if p.delta_min == p.delta_max or (alpha < 0 and p.delta_min == 0):
        return
    direct = nm_direct(p, alpha)
    assert close(nm_reconstruct_secant(p, alpha), direct)
    assert close(nm_reconstruct_unit(p, alpha), direct)
