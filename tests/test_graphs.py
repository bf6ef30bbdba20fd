import dataclasses
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_graphs,
    load_fixture,
    oracle_bfs_distances,
    oracle_dist2_degrees,
    oracle_nbr_degrees,
    sample_connected,
)
from nbzagreb import (
    Graph,
    complete_graph,
    cycle_graph,
    degree_profile,
    diameter,
    encode_graph6,
    is_connected,
    is_path,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
)
from nbzagreb import graphs
from nbzagreb.cli import main
from nbzagreb.errors import (
    DuplicateEdge,
    InvalidGraph6,
    MalformedLine,
    NonContiguousIds,
    ParseError,
    SelfLoop,
    VertexCountTooLarge,
)
from nbzagreb.graphs import MAX_DECLARED_N


class TestParseEdgeList:
    def test_two_edge_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert (g.n, g.m) == (3, 2)
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_header_allows_isolated_vertices(self):
        g = parse_edge_list("n 3\n0 1")
        assert (g.n, g.m) == (3, 1)
        assert g.adjacency[2] == ()

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a path\n\n0 1  # first edge\n1 2\n")
        assert (g.n, g.m) == (3, 2)

    def test_header_only(self):
        g = parse_edge_list("n 4")
        assert (g.n, g.m) == (4, 0)

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            parse_edge_list("0 0")

    def test_duplicate_edge_including_reversed(self):
        with pytest.raises(DuplicateEdge):
            parse_edge_list("0 1\n1 0")

    @pytest.mark.parametrize("text", ["0", "0 1 2", "a b", "0 -1", "0 1_0", "+0 1", "n 1_0"])
    def test_malformed_lines(self, text):
        with pytest.raises(MalformedLine):
            parse_edge_list(text)

    def test_empty_input(self):
        with pytest.raises(MalformedLine):
            parse_edge_list("")

    def test_non_contiguous_ids(self):
        with pytest.raises(NonContiguousIds):
            parse_edge_list("0 2")

    def test_large_id_gap_in_bounded_memory(self):
        # Contiguity is decided by counting, and only a few gaps are named.
        tracemalloc.start()
        try:
            with pytest.raises(NonContiguousIds) as info:
                parse_edge_list("0 1000000\n")
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert str(info.value) == "ids must cover 0..1000000; 999999 missing, first [1, 2, 3, 4, 5]"

    def test_declared_count_above_limit_in_bounded_memory(self):
        # The header is rejected before any per-vertex storage exists.
        tracemalloc.start()
        try:
            with pytest.raises(VertexCountTooLarge):
                parse_edge_list(f"n {MAX_DECLARED_N + 1}\n0 1\n")
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_declared_count_above_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.edges"
        path.write_text(f"n {MAX_DECLARED_N + 1}\n0 1\n")
        assert main(["compute", "--input", str(path), "--alpha", "2"]) == 2
        assert "VertexCountTooLarge" in capsys.readouterr().err

    def test_declared_count_at_limit_builds_and_profiles(self):
        # One pointer per isolated vertex, which costs O(1) in the profile.
        assert MAX_DECLARED_N == 1_000_000
        start = time.perf_counter()
        tracemalloc.start()
        try:
            p = degree_profile(parse_edge_list("n 1000000\n0 1\n"))
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Measured at about 5 s and 56 MB under tracing on 2 cores; the
        # bounds leave room for a slower machine but not for a per-vertex
        # set (over 200 MB) or a per-vertex n-bit mask (minutes).
        assert time.perf_counter() - start < 60
        assert peak < 100_000_000
        assert (p.n, p.m, p.m1, p.nbr_hist, p.dist2_hist) == (
            1_000_000, 1, 2, {0: 999_998, 1: 2}, {0: 1_000_000}
        )
        assert math.isinf(p.diameter)

    def test_id_beyond_declared_count(self):
        with pytest.raises(NonContiguousIds):
            parse_edge_list("n 2\n0 5")

    def test_figure1_fixture_shape(self):
        g = load_fixture("figure1.edges")
        assert (g.n, g.m) == (12, 12)
        assert is_connected(g)


class TestGraph6:
    def test_decode_k4(self):
        # decode against an independently constructed K4
        assert parse_graph6("C~").adjacency == complete_graph(4).adjacency

    def test_decode_single_edge(self):
        g = parse_graph6("A_")
        assert (g.n, g.m) == (2, 1)

    def test_optional_header(self):
        assert parse_graph6(">>graph6<<A_").m == 1

    def test_empty_is_invalid(self):
        with pytest.raises(InvalidGraph6):
            parse_graph6("")

    @pytest.mark.parametrize("text", ["~", "C", "C~~", chr(200)])
    def test_invalid_inputs(self, text):
        with pytest.raises(InvalidGraph6):
            parse_graph6(text)

    def test_round_trip_all_graphs_up_to_5(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert parse_graph6(encode_graph6(g)).adjacency == g.adjacency

    def test_round_trip_sampled_larger(self):
        for n in (6, 7):
            for g in sample_connected(n, 40):
                assert parse_graph6(encode_graph6(g)).adjacency == g.adjacency


# Edge-list documents: a header with a small count, edge lines over small
# ids, and lines without any digit (so no large count can appear).
_EDGE_LINES = st.one_of(
    st.builds("n {}".format, st.integers(-2, 12)),
    st.builds("{} {}".format, st.integers(-1, 12), st.integers(-1, 12)),
    st.builds("{} {} {}".format, st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12),
)


def _graph(n: int, pairs) -> Graph:
    return Graph.from_edges(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})


def _graphs(max_n: int, max_pairs: int):
    """Graphs on 1..max_n vertices from up to max_pairs vertex pairs."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=max_pairs
        ).map(lambda pairs: _graph(n, pairs))
    )


class TestParserProperties:
    @settings(max_examples=200, deadline=None)
    @given(_graphs(62, 80))
    def test_graph6_round_trip(self, g):
        text = encode_graph6(g)
        assert parse_graph6(text).adjacency == g.adjacency
        assert encode_graph6(parse_graph6(text)) == text

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40))
    def test_graph6_parses_or_raises_parse_error(self, text):
        try:
            g = parse_graph6(text)
        except ParseError:
            return
        assert 1 <= g.n <= 62

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_EDGE_LINES, max_size=12))
    def test_edge_list_parses_or_raises_parse_error(self, lines):
        try:
            g = parse_edge_list("\n".join(lines))
        except ParseError:
            return
        assert g.n >= 1 and g.m <= len(lines)


class TestDegreeProfile:
    def test_figure1_profile(self, figure1):
        p = degree_profile(figure1)
        # stated extremes; histogram and M1 by direct summation
        assert (p.delta_min, p.delta_max) == (4, 10)
        assert p.nbr_hist == {4: 8, 10: 4}
        assert p.m1 == 4 * 4**2 + 8 * 1**2 == 72

    def test_figure2_profile(self, figure2):
        p = degree_profile(figure2)
        assert (p.delta_min, p.delta_max) == (3, 5)
        assert p.nbr_hist == {3: 1, 4: 1, 5: 3}
        assert p.m1 == 22

    def test_c5_chord_dist2(self, c5_chord):
        p = degree_profile(c5_chord)
        assert p.dist2_deg == tuple(oracle_dist2_degrees(c5_chord))
        assert p.dist2_hist == {2: 2, 4: 1, 5: 2}
        assert (p.d2_min, p.d2_max) == (2, 5)

    def test_p5_neighborhood_degrees(self):
        p = degree_profile(path_graph(5))
        assert p.nbr_deg == (2, 3, 4, 3, 2)

    def test_deg_hist_houses_n2_n3(self):
        p = degree_profile(path_graph(4))
        assert p.deg_hist == {1: 2, 2: 2}

    def test_isolated_vertex_degrees(self):
        p = degree_profile(parse_edge_list("n 3\n0 1"))
        assert p.nbr_deg[2] == 0
        assert p.dist2_deg[2] == 0

    def test_profile_matches_oracles_exhaustively(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                p = degree_profile(g)
                assert list(p.nbr_deg) == oracle_nbr_degrees(g)
                assert list(p.dist2_deg) == oracle_dist2_degrees(g)
                assert sum(p.nbr_deg) == p.m1

    def test_dist2_oracle_sampled_larger(self):
        for n in (6, 7):
            for g in sample_connected(n, 60):
                assert list(degree_profile(g).dist2_deg) == oracle_dist2_degrees(g)

    def test_diameter2_total_identity_exhaustive(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                p = degree_profile(g)
                if p.diameter == 2:
                    assert sum(p.dist2_deg) == 2 * p.m * (p.n - 1) - p.m1

    def test_large_star_in_linear_time(self):
        # Distance-2 sums by degree class: each leaf sees the other leaves
        # through two popcounts, not one big-int step per leaf.
        start = time.perf_counter()
        g = star_graph(5000)
        p = degree_profile(g)
        assert time.perf_counter() - start < 5
        assert list(p.nbr_deg) == oracle_nbr_degrees(g)
        for u in (0, 1, 2500, 5000):
            dist = oracle_bfs_distances(g, u)
            assert p.dist2_deg[u] == sum(g.degree(v) for v in range(g.n) if dist[v] == 2)
        assert p.dist2_hist == {0: 1, 4999: 5000}
        assert p.diameter == 2

    def test_profile_is_frozen(self, figure1):
        p = degree_profile(figure1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.m1 = 0


def oracle_diameter(g: Graph) -> int | float:
    """One BFS from every vertex: the largest distance, or inf when some
    vertex is unreachable."""
    best = 0
    for src in range(g.n):
        dist = oracle_bfs_distances(g, src)
        if min(dist) < 0:
            return math.inf
        best = max(best, max(dist))
    return best


def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a random recursive tree: vertex i hangs below a random earlier one."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def tree_plus_edges(n: int, extra: int, seed: int) -> Graph:
    """A random tree on n vertices with ``extra`` more random edges."""
    rng = random.Random(seed)
    edges = set(random_tree(n, rng))
    while len(edges) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, edges)


def double_star(leaves: int) -> Graph:
    """Two stars of ``leaves`` leaves each with their centres 0 and 1 joined:
    diameter 3, and the top fringe of the middle's levels is a whole star."""
    hub_of = [0] * leaves + [1] * leaves
    return Graph.from_edges(
        2 * leaves + 2, [(0, 1), *((hub, 2 + j) for j, hub in enumerate(hub_of))]
    )


def grid_graph(rows: int, cols: int) -> Graph:
    def at(r, c):
        return r * cols + c

    return Graph.from_edges(
        rows * cols,
        [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
        + [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)],
    )


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


SCALE_CASES = {
    **{
        f"tree{n}": (lambda n=n: Graph.from_edges(n, random_tree(n, random.Random(n))))
        for n in (200, 377, 600)
    },
    **{f"path{n}": (lambda n=n: path_graph(n)) for n in (200, 401, 600)},
    **{f"tree{n}+{n}": (lambda n=n: tree_plus_edges(n, n, n)) for n in (200, 206, 450, 600)},
    # Two sweeps undershoot these by one, and only the fringe of the level
    # the stop rule is about to skip holds the longer pair.
    **{f"tree{n}+30": (lambda n=n: tree_plus_edges(n, 30, n)) for n in (208, 236, 374)},
    "cycle200": lambda: cycle_graph(200),
    "cycle301": lambda: cycle_graph(301),
    "grid15x20": lambda: grid_graph(15, 20),
    "K3,200": lambda: complete_bipartite(3, 200),
    "K20,30": lambda: complete_bipartite(20, 30),
    "double_star150": lambda: double_star(150),
}


@pytest.fixture
def fringe_calls(monkeypatch):
    """Source lists of every multi-source BFS that ``diameter`` runs."""
    calls = []
    real = graphs._eccentricity_max

    def recording(adjacency, sources):
        calls.append(list(sources))
        return real(adjacency, sources)

    monkeypatch.setattr(graphs, "_eccentricity_max", recording)
    return calls


class TestDiameterConnectivity:
    def test_complete_graph(self):
        assert diameter(complete_graph(4)) == 1

    def test_c5_chord(self, c5_chord):
        assert diameter(c5_chord) == 2

    def test_disconnected_is_infinite(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert math.isinf(diameter(g))
        assert not is_connected(g)

    def test_path(self):
        assert diameter(path_graph(6)) == 5
        assert is_connected(path_graph(3))

    def test_figure1_connected(self, figure1):
        assert is_connected(figure1)

    def test_edge_cases(self):
        assert diameter(Graph.from_edges(1, [])) == 0
        assert diameter(complete_graph(2)) == 1
        assert math.isinf(diameter(Graph.from_edges(2, [])))

    def test_matches_oracle_on_every_labeled_graph_up_to_6(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                want = oracle_diameter(g)
                assert diameter(g) == want
                assert is_connected(g) == (want != math.inf)

    @settings(max_examples=200, deadline=None)
    @given(_graphs(40, 120))
    def test_matches_oracle_on_random_graphs(self, g):
        assert diameter(g) == oracle_diameter(g)

    @pytest.mark.parametrize("name", SCALE_CASES)
    def test_matches_oracle_at_scale(self, name):
        g = SCALE_CASES[name]()
        assert diameter(g) == oracle_diameter(g)

    def test_fringe_levels_run_until_the_stop_rule(self, fringe_calls):
        # Trees with extra edges need eccentricities from more than one
        # level; each level fits one block at this size.
        levels_run = []
        for n in (200, 206, 450, 600):
            fringe_calls.clear()
            g = tree_plus_edges(n, n, n)
            assert diameter(g) == oracle_diameter(g)
            levels_run.append(len(fringe_calls))
        assert max(levels_run) >= 2
        # On a path the far end's eccentricity already meets the stop rule
        # at the top level, so no fringe search runs.
        fringe_calls.clear()
        for n in (2, 3, 4, 5, 200, 401, 600):
            assert diameter(path_graph(n)) == n - 1
        assert fringe_calls == []

    def test_fringe_level_in_blocks(self, fringe_calls, monkeypatch):
        # A budget of n bytes gives blocks of 8 sources, so the 150-leaf top
        # fringe of the double star runs in 19 blocks.
        g = double_star(150)
        monkeypatch.setattr(graphs, "_REACH_BYTES", g.n)
        assert diameter(g) == 3
        assert len(fringe_calls) == 19
        assert max(map(len, fringe_calls)) == 8
        for n in (200, 206, 450):
            g = tree_plus_edges(n, n, n)
            monkeypatch.setattr(graphs, "_REACH_BYTES", g.n // 2)
            assert diameter(g) == oracle_diameter(g)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: star_graph(19_999),
            lambda: Graph.from_edges(20_000, random_tree(20_000, random.Random(20_000))),
            lambda: double_star(10_000),
        ],
        ids=["star19999", "tree20000", "double_star20002"],
    )
    def test_connected_in_bounded_memory(self, build):
        g = build()
        tracemalloc.start()
        try:
            d = diameter(g)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Two BFS passes give a tree's diameter: the far end of one is an
        # end of a longest path.
        dist = oracle_bfs_distances(g, 0)
        tree_diameter = max(oracle_bfs_distances(g, dist.index(max(dist))))
        assert d == (tree_diameter if g.m == g.n - 1 else 3)
        assert peak < 8_000_000

    def test_long_path_in_linear_time(self):
        g = path_graph(20_000)
        t0 = time.perf_counter()
        assert diameter(g) == 19_999
        assert time.perf_counter() - t0 < 2.0

    def test_sparse_disconnected_in_bounded_memory(self):
        # The first BFS finds vertex 1 and stops: no search runs from the
        # 199,998 isolated vertices.
        g = Graph.from_edges(200_000, [(0, 1)])
        tracemalloc.start()
        try:
            d = diameter(g)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isinf(d)
        assert peak < 8_000_000


class TestHelpers:
    def test_is_path(self):
        assert is_path(path_graph(4))
        assert is_path(path_graph(2))
        assert not is_path(cycle_graph(4))
        assert not is_path(star_graph(3))
        assert not is_path(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])
        with pytest.raises(ValueError):
            Graph(0, 0, ())
        for n, m, adjacency in [
            (2, 1, ((1,), ())),  # an entry above the diagonal without its mirror
            (2, 1, ((), (0,))),  # an entry below the diagonal without its mirror
            (2, 1, ((5,), (0,))),
            (2, 1, ((-1,), (0,))),
            (2, 1, ((0, 1), (0,))),  # self-loop
            (3, 2, ((2, 1), (0,), (0,))),  # unsorted row
            (2, 1, ((1, 1), (0, 0))),
            (2, 2, ((1,), (0,))),
        ]:
            with pytest.raises(ValueError):
                Graph(n, m, adjacency)

    def test_graph_is_frozen(self):
        g = path_graph(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 5

    def test_edges_iteration(self):
        assert list(path_graph(3).edges()) == [(0, 1), (1, 2)]

    def test_star(self):
        g = star_graph(4)
        assert (g.n, g.m) == (5, 4)
        assert g.degree(0) == 4
