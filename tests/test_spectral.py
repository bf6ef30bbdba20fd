import math

import numpy as np
import pytest

from nbzagreb import (
    Graph,
    complete_graph,
    cycle_graph,
    degree_profile,
    enumerate_connected,
    min_nbr_lower_bound,
    nm2_ratio_lower_bound,
    path_graph,
    spectral_radius,
    spectral_report,
)
from nbzagreb._bulk import (
    _adj_of,
    _bits_of,
    batched_power_iteration,
    connected_masks,
    edges_of_mask,
    pair_count,
)
from nbzagreb.errors import Disconnected, EmptyGraph, NoConvergence


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


class TestSpectralRadius:
    def test_complete_graph(self):
        assert spectral_radius(complete_graph(4)).rho == pytest.approx(3.0, abs=1e-8)

    def test_cycle(self):
        assert spectral_radius(cycle_graph(6)).rho == pytest.approx(2.0, abs=1e-8)

    def test_path4_closed_form_and_charpoly(self):
        rho = spectral_radius(path_graph(4)).rho
        assert rho == pytest.approx(2 * math.cos(math.pi / 5), abs=1e-7)
        # independent oracle: largest root of x^4 - 3x^2 + 1
        largest_root = max(np.roots([1, 0, -3, 0, 1]).real)
        assert rho == pytest.approx(largest_root, abs=1e-7)

    def test_matches_eigvalsh_exhaustively(self):
        for n in range(2, 6):
            for g in enumerate_connected(n):
                rho = spectral_radius(g).rho
                expected = float(np.linalg.eigvalsh(g.adjacency_matrix()).max())
                assert rho == pytest.approx(expected, abs=1e-8)

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            spectral_radius(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_no_convergence(self):
        with pytest.raises(NoConvergence):
            spectral_radius(path_graph(4), max_iter=1)

    def test_deterministic(self):
        a = spectral_radius(petersen())
        b = spectral_radius(petersen())
        assert a.rho == b.rho
        assert a.iterations == b.iterations
        assert a.residual == b.residual

    def test_result_fields(self):
        r = spectral_radius(complete_graph(4))
        assert r.iterations >= 1
        assert r.residual < 1e-10
        assert r.rho_squared == r.rho * r.rho
        assert r.bound_nm2_ratio is None


def _connected_adjacency(n: int, stride: int = 1):
    masks = connected_masks(n, 0, 1 << pair_count(n))[::stride]
    return masks, _adj_of(_bits_of(masks, pair_count(n)), n)


class TestBatchedPowerIteration:
    @pytest.mark.parametrize("n,stride", [(2, 1), (3, 1), (4, 1), (5, 7), (6, 499)])
    def test_batch_equals_each_row_alone(self, n, stride):
        # Rows finish at different iterations, so the batch is compacted
        # while other rows still run; no row may notice.
        _masks, adj = _connected_adjacency(n, stride)
        batch = batched_power_iteration(adj)
        if n >= 4:
            assert np.unique(batch[1]).size > 1
        for row in range(adj.shape[0]):
            alone = batched_power_iteration(adj[row : row + 1])
            for got, want in zip(batch, alone):
                assert got[row] == want[0]

    def test_matches_scalar_power_iteration(self):
        for n in range(2, 6):
            masks, adj = _connected_adjacency(n)
            rho, iterations, _residual, converged = batched_power_iteration(adj)
            assert converged.all()
            for row, mask in enumerate(masks):
                scalar = spectral_radius(Graph.from_edges(n, edges_of_mask(n, int(mask))))
                assert iterations[row] == scalar.iterations
                assert abs(rho[row] - scalar.rho) <= 1e-12


class TestLowerBounds:
    def test_ratio_bound_k4(self):
        # NM_2 = 4 * 81, M1 = 36, rho^2 = 9: tight
        assert nm2_ratio_lower_bound(complete_graph(4)) == 9.0

    def test_ratio_bound_p3(self):
        assert nm2_ratio_lower_bound(path_graph(3)) == 12 / 6 == 2.0
        assert spectral_radius(path_graph(3)).rho == pytest.approx(math.sqrt(2), abs=1e-8)

    def test_ratio_bound_figure1(self, figure1):
        assert nm2_ratio_lower_bound(figure1) == pytest.approx(528 / 72, rel=1e-12)

    def test_min_nbr_bound_k3(self):
        assert min_nbr_lower_bound(complete_graph(3)) == (12 * 9 - 3 * 16 - 3 * 4) / 12 == 4.0

    def test_min_nbr_bound_p3(self):
        assert min_nbr_lower_bound(path_graph(3)) == (6 * 5 - 3 * 4 - 3 * 2) / 6 == 2.0

    def test_min_nbr_bound_figure1(self, figure1):
        assert min_nbr_lower_bound(figure1) == pytest.approx(408 / 72, rel=1e-12)

    def test_empty_graph_rejected(self):
        lonely = Graph.from_edges(1, [])
        with pytest.raises(EmptyGraph):
            nm2_ratio_lower_bound(lonely)
        with pytest.raises(EmptyGraph):
            min_nbr_lower_bound(lonely)

    def test_report_combines_everything(self, figure1):
        rep = spectral_report(figure1)
        assert rep.bound_nm2_ratio == pytest.approx(528 / 72, rel=1e-12)
        assert rep.bound_min_nbr == pytest.approx(408 / 72, rel=1e-12)
        assert rep.rho_squared + 1e-7 >= rep.bound_nm2_ratio >= rep.bound_min_nbr - 1e-9


class TestChain:
    def test_chain_exhaustive_small(self):
        for n in range(2, 6):
            for g in enumerate_connected(n):
                rep = spectral_report(g)
                assert rep.rho_squared + 1e-7 >= rep.bound_nm2_ratio
                assert rep.bound_nm2_ratio >= rep.bound_min_nbr - 1e-9

    @pytest.mark.parametrize(
        "g,k",
        [
            (complete_graph(3), 2),
            (complete_graph(5), 4),
            (cycle_graph(4), 2),
            (cycle_graph(7), 2),
            (petersen(), 3),
        ],
    )
    def test_regular_graphs_are_tight(self, g, k):
        assert min(degree_profile(g).deg) == max(degree_profile(g).deg) == k
        rep = spectral_report(g)
        assert rep.rho == pytest.approx(k, abs=1e-8)
        assert rep.bound_nm2_ratio == pytest.approx(k * k, abs=1e-9)
        assert rep.bound_min_nbr == pytest.approx(k * k, abs=1e-9)
