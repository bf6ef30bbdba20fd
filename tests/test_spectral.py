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
    parse_graph6,
    path_graph,
    ratio_bound_is_exact,
    spectral_radius,
    spectral_report,
)
from nbzagreb._bulk import (
    _adj_of,
    _bits_of,
    batched_power_iteration,
    connected_masks,
    pair_count,
    ratio_is_exact,
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


def _chain_batch(n: int, stride: int = 1):
    """Adjacency, NM_2 / M1 and the exact flag of connected n-vertex graphs."""
    _masks, adj = _connected_adjacency(n, stride)
    adj64 = adj.astype(np.int64)
    deg = adj64.sum(axis=2)
    nbr = np.matmul(adj64, deg[:, :, None])[:, :, 0]
    m1 = (deg * deg).sum(axis=1)
    nm2 = (nbr * nbr).sum(axis=1)
    return adj, nm2 / m1, ratio_is_exact(adj64, deg, nbr, m1, nm2)


class TestBatchedPowerIteration:
    @pytest.mark.parametrize("n,stride", [(2, 1), (3, 1), (4, 1), (5, 7), (6, 499)])
    def test_batch_equals_each_row_alone(self, n, stride):
        # Rows finish at different iterations, so the batch is compacted
        # while other rows still run; no row may notice.
        adj, ratio, exact = _chain_batch(n, stride)
        batch = batched_power_iteration(adj, ratio, exact)
        if n >= 4:
            assert np.unique(batch[1]).size > 1
        for row in range(adj.shape[0]):
            alone = batched_power_iteration(
                adj[row : row + 1], ratio[row : row + 1], exact[row : row + 1]
            )
            for got, want in zip(batch, alone):
                assert got[row] == want[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_certificates_against_eigvalsh(self, n):
        adj, ratio, exact = _chain_batch(n)
        rho, steps, certified, converged = batched_power_iteration(adj, ratio, exact)
        eig_rho = np.linalg.eigvalsh(adj.astype(np.float64))[:, -1]
        assert certified.all() and not converged.any()
        assert (rho <= eig_rho + 1e-12).all()
        assert ((steps == 0) == exact).all()
        assert (exact == (np.abs(eig_rho**2 - ratio) <= 1e-12)).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_guard_never_certifies_an_equality(self, n):
        # On equality rows rho**2 == ratio, so no Rayleigh quotient may
        # clear ratio * (1 + guard), however close rounding brings it.
        adj, ratio, exact = _chain_batch(n)
        rho, _steps, certified, converged = batched_power_iteration(
            adj[exact], ratio[exact], np.zeros(int(exact.sum()), dtype=bool)
        )
        assert exact.any()
        assert not certified.any() and converged.all()
        assert np.allclose(rho * rho, ratio[exact], rtol=1e-9)

    def test_exact_family_is_not_only_regular(self):
        adj, _ratio, exact = _chain_batch(4)
        deg = adj.sum(axis=2)
        assert (exact & (deg.min(axis=1) != deg.max(axis=1))).any()

    def test_uncertifiable_row_converges_without_certificate(self):
        # P3 has rho**2 == 2; asking for 2.5 can only end by the tolerance.
        adj, ratio, exact = _chain_batch(3)
        rho, steps, certified, converged = batched_power_iteration(
            adj, ratio + 0.5, np.zeros_like(exact)
        )
        assert not certified.any() and converged.all()
        assert (steps > 1).all()
        eig_rho = np.linalg.eigvalsh(adj.astype(np.float64))[:, -1]
        assert np.allclose(rho, eig_rho, atol=1e-8)

    def test_exhausted_budget_has_neither_flag(self):
        adj, ratio, exact = _chain_batch(4)
        _rho, steps, certified, converged = batched_power_iteration(
            adj, ratio + 100.0, np.zeros_like(exact), max_iter=1
        )
        assert not certified.any() and not converged.any()
        assert (steps == 1).all()


class TestRatioCertificate:
    @pytest.mark.parametrize("g6,exact", [
        ("BW", True),  # P3
        ("CF", True),  # K1,3
        ("C~", True),  # K4
        ("Ch", False),  # P4
    ])
    def test_named_graphs(self, g6, exact):
        g = parse_graph6(g6)
        assert ratio_bound_is_exact(g, degree_profile(g)) is exact

    def test_agrees_with_eigvalsh_exhaustively(self):
        for n in range(2, 6):
            for g in enumerate_connected(n):
                p = degree_profile(g)
                rho = float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])
                tight = abs(rho * rho - nm2_ratio_lower_bound(g)) <= 1e-12
                assert ratio_bound_is_exact(g, p) == tight

    def test_figure1_is_strict(self, figure1):
        assert not ratio_bound_is_exact(figure1, degree_profile(figure1))

    def test_empty_graph_rejected(self):
        lonely = Graph.from_edges(1, [])
        with pytest.raises(EmptyGraph):
            ratio_bound_is_exact(lonely, degree_profile(lonely))

    def test_report_carries_the_certificates(self):
        rep = spectral_report(parse_graph6("CF"))
        # Power iteration lands just below rho**2 == 3; the certificate
        # decides the equality.
        assert rep.rho_squared < rep.bound_nm2_ratio == 3.0
        assert rep.ratio_bound_exact and rep.bounds_ordered
        assert spectral_radius(parse_graph6("CF")).ratio_bound_exact is None


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
