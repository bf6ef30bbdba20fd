import math
import random
import tracemalloc

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
    spectral,
    spectral_radius,
    spectral_report,
)
from nbzagreb._bulk import (
    _adj_of,
    _bits_of,
    batched_power_iteration,
    connected_masks,
    pair_count,
    ratio_certificates,
)
from nbzagreb.errors import Disconnected, EmptyGraph, NoConvergence

U = np.finfo(np.float64).eps / 2


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


def _seeded_large() -> list[Graph]:
    """Paths, random trees and trees with about n extra edges, 200 to 1000
    vertices."""
    rng = random.Random(10)
    graphs = []
    for n in (200, 500, 1000):
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        extra = set(tree)
        while len(extra) < 2 * n - 1:
            extra.add(tuple(sorted(rng.sample(range(n), 2))))
        graphs += [path_graph(n), Graph.from_edges(n, tree), Graph.from_edges(n, sorted(extra))]
    return graphs


def _accuracy_cases() -> list[Graph]:
    small = [g for n in range(1, 7) for g in enumerate_connected(n, dedup=True)]
    return small + _seeded_large()


def _rounding(g: Graph, rho: float) -> float:
    """Rounding allowance between the Lanczos rho and eigvalsh.

    rho is x.Ax / x.x, two dot products of n terms, each within n*u
    relative; eigvalsh's own error is of the same order.
    """
    return 4 * g.n * U * max(1.0, rho)


def _broom(handle: int, leaves: int) -> Graph:
    """A path of ``handle`` vertices with ``leaves`` leaves at its end."""
    edges = [(v - 1, v) for v in range(1, handle)]
    edges += [(handle - 1, handle + i) for i in range(leaves)]
    return Graph.from_edges(handle + leaves, edges)


class TestLanczos:
    @pytest.fixture(scope="class")
    def cases(self):
        out = []
        for g in _accuracy_cases():
            r = spectral_radius(g)
            eig = float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])
            out.append((g, r, eig))
        return out

    def test_encloses_eigvalsh(self, cases):
        # rho is a Rayleigh quotient and rho_upper a Collatz-Wielandt
        # quotient, so they sit on either side of the true radius.
        assert len(cases) == 143 + 9
        for g, r, eig in cases:
            slack = _rounding(g, eig)
            assert r.rho <= eig + slack
            if r.rho_upper is not None:
                assert eig <= r.rho_upper + slack

    def test_residual_bounds_the_error(self, cases):
        for g, r, eig in cases:
            assert abs(r.rho - eig) <= r.residual + _rounding(g, eig)
            # The stop compares against the Lanczos value, which rounding
            # separates from rho.
            assert r.residual <= 1.0001 * spectral.DEFAULT_TOL * max(1.0, r.rho)

    def test_upper_end_is_set_on_small_classes(self, cases):
        # Perron vectors of graphs with n <= 6 are far from underflow.
        assert all(r.rho_upper is not None for g, r, _eig in cases if g.n <= 6)

    def test_long_path_to_rounding(self):
        # The earlier stopping rule, "the estimate moved by less than tol",
        # missed this radius by 2.9e-6.
        r = spectral_radius(path_graph(2000))
        assert abs(r.rho - 2 * math.cos(math.pi / 2001)) <= 1e-12

    @pytest.mark.parametrize("g,k", [
        (complete_graph(5), 4), (cycle_graph(7), 2), (petersen(), 3), (path_graph(2), 1),
    ])
    def test_regular_graph_breaks_down_at_step_one(self, g, k):
        # A 1 = k 1: the first residual is exactly zero.
        r = spectral_radius(g)
        assert (r.iterations, r.rho, r.rho_upper, r.residual) == (1, k, k, 0.0)

    def test_single_vertex(self):
        r = spectral_radius(Graph.from_edges(1, []))
        assert (r.iterations, r.rho, r.rho_upper, r.residual) == (1, 0.0, 0.0, 0.0)

    def test_broom_has_no_upper_end(self):
        # The Perron entries along the handle shrink by about rho per
        # vertex and underflow long before its end.
        g = _broom(300, 300)
        r = spectral_radius(g)
        assert r.rho_upper is None
        eig = float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])
        assert abs(r.rho - eig) <= r.residual + _rounding(g, eig)

    @pytest.mark.parametrize("g", [path_graph(300), _seeded_large()[4]])
    def test_restart_past_the_basis_budget(self, monkeypatch, g):
        # Ten basis vectors: the iteration restarts from its Ritz vector.
        monkeypatch.setattr(spectral, "_BASIS_BYTES", 10 * 8 * g.n)
        r = spectral_radius(g)
        assert r.iterations > 10
        eig = float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])
        assert abs(r.rho - eig) <= r.residual + _rounding(g, eig)

    def test_never_densifies(self, monkeypatch, figure1):
        def dense(self):
            raise AssertionError("adjacency_matrix called")

        monkeypatch.setattr(Graph, "adjacency_matrix", dense)
        for g in (figure1, path_graph(50), petersen()):
            spectral_report(g)

    def test_large_tree_in_bounded_memory(self):
        # The dense matrix of this tree alone would take 3.2 GB.  The
        # iteration holds the edge arrays and a basis of about 64 rows of
        # 20,000 floats (10 MB).
        rng = random.Random(20000)
        n = 20_000
        g = Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
        tracemalloc.start()
        try:
            r = spectral_radius(g)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40_000_000
        assert r.iterations < 100
        assert r.residual <= 1.0001 * spectral.DEFAULT_TOL * r.rho


def _connected_rows(n: int, stride: int = 1):
    """Masks and (n, graphs) neighbor rows of connected n-vertex graphs."""
    masks = connected_masks(n, 0, 1 << pair_count(n))[::stride]
    return masks, _adj_of(_bits_of(masks, pair_count(n)), n)


def _dense(rows):
    """(graphs, n, n) int64 adjacency of a neighbor-row batch: bit u of
    rows[v, g] is entry (v, u) of graph g."""
    n = rows.shape[0]
    return (rows.T[:, :, None].astype(np.int64) >> np.arange(n)) & 1


def _certificate_inputs(rows):
    """(deg, nbr, m1, nm2) of a neighbor-row batch, from its dense
    adjacency; deg and nbr are (graphs, n)."""
    adj = _dense(rows)
    deg = adj.sum(axis=2)
    nbr = np.matmul(adj, deg[:, :, None])[:, :, 0]
    return deg, nbr, (deg * deg).sum(axis=1), (nbr * nbr).sum(axis=1)


def _chain_batch(n: int, stride: int = 1):
    """Neighbor rows, NM_2 / M1 and the exact flag of connected n-vertex graphs."""
    _masks, rows = _connected_rows(n, stride)
    deg, nbr, m1, nm2 = _certificate_inputs(rows)
    return rows, nm2 / m1, ratio_certificates(rows, deg.T, nbr.T, m1, nm2)[0]


class TestBatchedPowerIteration:
    @pytest.mark.parametrize("n,stride", [(2, 1), (3, 1), (4, 1), (5, 7), (6, 499)])
    def test_batch_equals_each_row_alone(self, n, stride):
        # Chunk boundaries decide which open rows share one eigensolve; no
        # row may notice.
        rows, ratio, exact = _chain_batch(n, stride)
        batch = batched_power_iteration(rows, ratio, exact)
        if n >= 4:
            assert np.unique(batch[1]).size > 1
        for row in range(rows.shape[1]):
            alone = batched_power_iteration(
                rows[:, row : row + 1], ratio[row : row + 1], exact[row : row + 1]
            )
            for got, want in zip(batch, alone):
                assert got[row] == want[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_certificates_against_eigvalsh(self, n):
        # Settle the exact rows only, so every strict row is solved.
        rows, ratio, exact = _chain_batch(n)
        rho_sq, solves = batched_power_iteration(rows, ratio, exact)
        eig_sq = np.linalg.eigvalsh(_dense(rows).astype(np.float64))[:, -1] ** 2
        assert solves.dtype == np.int64
        assert (rho_sq[exact] == ratio[exact]).all() and (solves[exact] == 0).all()
        assert (rho_sq[~exact] == eig_sq[~exact]).all() and (solves[~exact] == 1).all()
        # Exact rows are the equality rows.  The float comparison the sweep
        # makes on open rows never sits near a tie: every inexact row
        # clears NM_2 / M1 by far more than eigvalsh's error.
        assert (np.abs(eig_sq[exact] - ratio[exact]) <= 1e-12 * ratio[exact]).all()
        assert (eig_sq[~exact] >= ratio[~exact] * (1 + 1e-5)).all()

    def test_exact_family_is_not_only_regular(self):
        rows, _ratio, exact = _chain_batch(4)
        deg = _dense(rows).sum(axis=2)
        assert (exact & (deg.min(axis=1) != deg.max(axis=1))).any()


class TestBulkRatioCertificates:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_against_eigvalsh(self, n):
        _masks, rows = _connected_rows(n)
        deg, nbr, m1, nm2 = _certificate_inputs(rows)
        exact, strict = ratio_certificates(rows, deg.T, nbr.T, m1, nm2)
        assert (exact ^ strict).all()
        adj = _dense(rows)
        eig_sq = np.linalg.eigvalsh(adj.astype(np.float64))[:, -1] ** 2
        assert (eig_sq[strict] > (nm2 / m1)[strict]).all()
        # |x3|**2 / NM_2 is a Rayleigh quotient of A**2, so at most rho**2;
        # eigvalsh itself may sit a few ulps low.
        x3 = np.matmul(adj, nbr[:, :, None])[:, :, 0]
        rayleigh = (x3 * x3).sum(axis=1) / nm2
        assert (rayleigh <= eig_sq * (1 + 4 * n * U)).all()

    def test_int64_headroom_at_n8(self):
        # x3_v <= (n - 1)**3 and M1 <= n (n - 1)**2, and K8 attains both.
        n = 8
        k8 = np.array([[0xFF & ~(1 << v) for v in range(n)]], dtype=np.uint8).T
        deg, nbr, m1, nm2 = _certificate_inputs(k8)
        x3 = np.matmul(_dense(k8), nbr[:, :, None])[:, :, 0]
        top = sum(int(v) ** 2 for v in x3[0]) * int(m1[0])
        assert top == n**2 * (n - 1) ** 8 == 368_947_264 < 2**31
        exact, strict = ratio_certificates(k8, deg.T, nbr.T, m1, nm2)
        assert exact[0] and not strict[0]


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

    def test_equality_family_on_isomorphism_classes(self):
        # Tight exactly when A**2 d is parallel to d: at n <= 7 that is 33
        # classes, and only 15 of them are regular.
        tight = regular = 0
        for n in range(2, 8):
            for g in enumerate_connected(n, dedup=True):
                p = degree_profile(g)
                rho = float(np.linalg.eigvalsh(g.adjacency_matrix())[-1])
                exact = ratio_bound_is_exact(g, p)
                assert exact == (abs(rho * rho - nm2_ratio_lower_bound(g)) <= 1e-12)
                tight += exact
                regular += exact and min(p.deg) == max(p.deg)
        assert (tight, regular) == (33, 15)

    def test_figure1_is_strict(self, figure1):
        assert not ratio_bound_is_exact(figure1, degree_profile(figure1))

    def test_empty_graph_rejected(self):
        lonely = Graph.from_edges(1, [])
        with pytest.raises(EmptyGraph):
            ratio_bound_is_exact(lonely, degree_profile(lonely))

    def test_report_carries_the_certificates(self):
        rep = spectral_report(parse_graph6("CF"))
        # The Rayleigh quotient lands just below rho**2 == 3; the
        # certificate decides the equality.
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
