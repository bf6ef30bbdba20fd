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
    NbZagrebError,
    NonContiguousIds,
    ParseError,
    ProfileTooLarge,
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

    @pytest.mark.parametrize("text", ["0", "0 1 2", "a b", "0 -1", "0 1_0", "+0 1", "n 1_0",
                                      "n 3\n0 -1", "n 3\n0 1_0", "n 3\n+0 1", "n 3\n0 \u0663"])
    def test_malformed_lines(self, text):
        with pytest.raises(MalformedLine):
            parse_edge_list(text)

    @pytest.mark.parametrize("text,error,words", [
        ("n " + "9" * 5000, VertexCountTooLarge, "vertex count"),
        ("0 " + "9" * 5000, MalformedLine, "too long"),
        ("0 " + "x" * 5000, MalformedLine, "non-decimal"),
        ("0 1 " + "2" * 5000, MalformedLine, "expected 'u v'"),
    ])
    def test_overlong_tokens(self, text, error, words):
        # int() refuses more than 4,300 digits; the parser names the
        # problem and echoes a short prefix of the input.
        with pytest.raises(error) as info:
            parse_edge_list(text)
        assert words in str(info.value)
        assert len(str(info.value)) < 120

    def test_leading_zeros_do_not_count_as_length(self):
        assert parse_edge_list("n " + "0" * 5000 + "3").n == 3
        assert list(parse_edge_list("n 10\n007 1").edges()) == [(1, 7)]
        assert list(parse_edge_list("0 " + "0" * 25 + "1").edges()) == [(0, 1)]
        assert list(parse_edge_list("n 2\n0 " + "0" * 25 + "1").edges()) == [(0, 1)]

    @pytest.mark.parametrize("text,error,message", [
        ("0 \u0663", MalformedLine, "line 1: non-decimal vertex id in '0 \u0663'"),
        ("0 \u00b2", MalformedLine, "line 1: non-decimal vertex id in '0 \u00b2'"),
        ("0 " + "1" * (graphs._MAX_DIGITS + 1), MalformedLine,
         f"line 1: vertex id too long (over {graphs._MAX_DIGITS} digits) "
         f"in '0 {'1' * (graphs._MAX_DIGITS + 1)}'"),
        ("0 1\n2 2", SelfLoop, "line 2: self-loop at vertex 2"),
        ("0 1\n1 2 # c\n2 0\n0 2", DuplicateEdge, "line 4: duplicate edge (0, 2)"),
        ("n 5 6\n0 1\n", MalformedLine, "line 1: header must be 'n <count>'"),
        # The same lines under a header.
        ("n 3\n0 1\n2 2", SelfLoop, "line 3: self-loop at vertex 2"),
        ("n 3\n0 1\n1 0", DuplicateEdge, "line 3: duplicate edge (0, 1)"),
        ("n 3\n0 \u00b2", MalformedLine, "line 2: non-decimal vertex id in '0 \u00b2'"),
        ("n 3\n0 " + "1" * (graphs._MAX_DIGITS + 1), MalformedLine,
         f"line 2: vertex id too long (over {graphs._MAX_DIGITS} digits) "
         f"in '0 {'1' * (graphs._MAX_DIGITS + 1)}'"),
    ])
    def test_edge_line_errors(self, text, error, message):
        # Digits that are not ASCII pass str.isdigit(), and int() would read
        # some of them: such tokens must reach _decimal, which refuses them.
        with pytest.raises(error) as info:
            parse_edge_list(text)
        assert str(info.value) == message

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


# Each feature sends a document to the line loop.
_TOKEN_FEATURES = {
    "zeros": lambda token: "00" + token,
    "long_zeros": lambda token: "0" * graphs._MAX_DIGITS + token,
    "too_long": lambda token: "1" * (graphs._MAX_DIGITS + 1),
}
_SEPARATORS = {"tab": "\t", "spaces": "  "}


@st.composite
def _documents(draw):
    """Plain 'u v' lines over ids 0..5, so that duplicate and reversed edges,
    self-loops and id gaps are common, split by LF or CRLF; then up to three
    of: a tab or two spaces between ids, leading zeros, a token longer than
    _MAX_DIGITS with or without leading zeros, a blank line, an 'n' header."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8))
    lines = [[str(u), " ", str(v)] for u, v in pairs]
    features = st.sampled_from([*_TOKEN_FEATURES, *_SEPARATORS, "blank", "header"])
    for feature, at in draw(st.lists(st.tuples(features, st.integers(0, 15)), max_size=3)):
        if feature == "blank":
            lines.insert(at % (len(lines) + 1), [""])
        elif feature == "header":
            lines.insert(0, [draw(st.sampled_from(["n 10", "n 4"]))])
        elif lines and len(line := lines[at % len(lines)]) == 3:
            if feature in _SEPARATORS:
                line[1] = _SEPARATORS[feature]
            else:
                line[at % 2 * 2] = _TOKEN_FEATURES[feature](line[at % 2 * 2])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from(["", newline])) if lines else ""
    return newline.join(map("".join, lines)) + end


def _outcome(doc: str):
    """The graph a document parses to, or its error's class and message."""
    try:
        g = parse_edge_list(doc)
    except NbZagrebError as exc:
        return type(exc), str(exc)
    return g.n, g.adjacency


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

    @settings(max_examples=400, deadline=None)
    @given(_documents())
    def test_plain_pass_matches_the_line_loop(self, doc):
        # A trailing comment line makes any document take the line loop.
        assert _outcome(doc) == _outcome(doc + "\n# end")

    @pytest.mark.parametrize("doc", [
        "0 1\n1 2\n", "1 0\r\n2 1", "007 1\n1 0002\n", "3 0\n0 1\r\n2 1\n",
        "0 " + "0" * (graphs._MAX_DIGITS - 1) + "1\n", "0 5\n",
    ])
    def test_plain_documents_take_one_pass(self, doc):
        assert graphs._plain_edges(doc) is not None
        assert _outcome(doc) == _outcome(doc + "\n# end")

    @pytest.mark.parametrize("doc", [
        "0 1\n1 1\n", "0 1\n1 0\n", "0 1\n\n1 2", "0  1", "0\t1", " 0 1", "0 1\r1 2",
        "n 2\n0 1", "0 1 # c", "0 " + "0" * graphs._MAX_DIGITS + "1", "0 \u0663", "",
    ])
    def test_other_documents_go_line_by_line(self, doc):
        assert graphs._plain_edges(doc) is None


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

    def test_profile_diameter_matches_ifub_on_every_graph_up_to_6(self):
        # Connected or not: the walks settle diameter <= 2, iFUB the rest.
        for n in range(1, 7):
            for g in all_graphs(n):
                assert degree_profile(g).diameter == diameter(g)

    @pytest.mark.parametrize("g,want", [
        (Graph.from_edges(1, []), 0),
        (complete_graph(2), 1),
        (Graph.from_edges(2, []), math.inf),
        (complete_graph(40), 1),
    ], ids=["K1", "K2", "two_isolated", "K40"])
    def test_profile_diameter_edge_cases(self, g, want):
        assert degree_profile(g).diameter == diameter(g) == want

    def test_profile_runs_ifub_only_above_diameter_2(self, monkeypatch):
        calls = []
        ifub = graphs.diameter
        monkeypatch.setattr(graphs, "diameter", lambda g: calls.append(g) or ifub(g))
        assert degree_profile(cycle_graph(5)).diameter == 2
        assert degree_profile(complete_graph(5)).diameter == 1
        assert calls == []
        p4 = path_graph(4)
        assert degree_profile(p4).diameter == 3
        assert calls == [p4]

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
            assert p.dist2_deg[u] == sum(len(g.adjacency[v]) for v in range(g.n) if dist[v] == 2)
        assert p.dist2_hist == {0: 1, 4999: 5000}
        assert p.diameter == 2

    @pytest.mark.parametrize("build,method", [
        (lambda: _gnp(60, 0.05, 1), "_stamp_sums"),
        (lambda: _gnp(60, 0.5, 2), "_bitset_sums"),
        (lambda: _gnp(300, 0.01, 3), "_stamp_sums"),
        (lambda: _gnp(300, 0.05, 4), "_bitset_sums"),
        (lambda: star_graph(400), "_bitset_sums"),
        (lambda: Graph.from_edges(401, [(v, 400) for v in range(400)]), "_bitset_sums"),
        (lambda: complete_graph(40), "_bitset_sums"),
        (lambda: complete_graph(7), "_stamp_sums"),
    ], ids=["G(60,0.05)", "G(60,0.5)", "G(300,0.01)", "G(300,0.05)", "star_hub_first",
            "star_hub_last", "K40", "K7"])
    def test_profile_matches_oracles_across_the_crossover(self, build, method, monkeypatch):
        # The method follows M1 / (n + 2m): bitsets above the crossover,
        # where all of these masks fit their cap, stamps below it.
        g = build()
        deg = tuple(map(len, g.adjacency))
        ratio = sum(d * d for d in deg) / (g.n + 2 * g.m)
        assert (ratio > graphs._BITSET_RATIO) == (method == "_bitset_sums")
        taken = []

        def spy(name):
            sums = getattr(graphs, name)

            def wrapper(*args):
                taken.append(name)
                return sums(*args)

            return wrapper

        for name in ("_stamp_sums", "_bitset_sums"):
            monkeypatch.setattr(graphs, name, spy(name))
        p = degree_profile(g)
        assert taken == [method]
        want = (oracle_nbr_degrees(g), oracle_dist2_degrees(g))
        assert (list(p.nbr_deg), list(p.dist2_deg)) == want
        # Both methods give the same sums on either side of the crossover.
        monkeypatch.undo()
        assert graphs._stamp_sums(g.adjacency, deg)[:2] == want
        assert graphs._bitset_sums(g.adjacency, deg)[:2] == want

    def test_relabeled_long_path_keeps_no_bitsets(self):
        # Shuffled labels give most vertices high-numbered neighbors, so
        # neighbor bitsets would take O(n**2) bits: 36 MB at 20,000 vertices
        # (the peak was 39.1 MB while they were built).  A path's M1 is
        # below 2 * (n + 2m), so stamps run in O(n) memory; the peak is
        # 2.3 MB under tracemalloc, mostly the diameter's BFS lists.
        assert _relabeled_path_peak(20_000) < 4 << 20

    def test_relabeled_200000_vertex_path_in_bounded_memory(self):
        # Bitsets would need several GB here; the stamp path peaks at 22.9 MB.
        assert _relabeled_path_peak(200_000) < 32 << 20

    def test_profile_too_large_is_refused_before_any_mask(self, tmp_path, capsys):
        # A star of 8,192 leaves whose hub is the last of 32,756 vertices:
        # each leaf's mask would reach the hub's bit, 268,443,612 bits in
        # all, just past the 2**28-bit cap, and stamps would take M1 =
        # 67,117,056 steps, just past their 2**26 budget.  Refused, the call
        # is O(n); a guard that let either method run would take about 36 MB
        # (bitsets) or a few seconds (stamps), not more.
        n, leaves = 32_756, 8_192
        edges = [(v, n - 1) for v in range(leaves)]
        g = Graph.from_edges(n, edges)
        start = time.perf_counter()
        with pytest.raises(ProfileTooLarge) as info:
            degree_profile(g)
        assert time.perf_counter() - start < 1
        # Traced only once refused: tracing slows the stamp walk 20-fold.
        tracemalloc.start()
        try:
            with pytest.raises(ProfileTooLarge):
                degree_profile(g)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert str(info.value) == (
            "distance-2 sums need 67,117,056 stamp steps (budget 67,108,864) "
            "or 268,443,612 mask bits (cap 268,435,456)"
        )
        path = tmp_path / "star.edges"
        path.write_text(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        start = time.perf_counter()
        assert main(["compute", "--input", str(path), "--alpha", "2"]) == 2
        assert time.perf_counter() - start < 1
        assert "error: ProfileTooLarge: distance-2 sums need" in capsys.readouterr().err

    def test_profile_is_frozen(self, figure1):
        p = degree_profile(figure1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.m1 = 0


def _relabeled_path_peak(n: int) -> int:
    """tracemalloc peak of ``degree_profile`` on a path with shuffled labels,
    after checking its histograms and that it holds nothing afterwards."""
    rng = random.Random(0)
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph.from_edges(n, [(perm[v - 1], perm[v]) for v in range(1, n)])
    tracemalloc.start()
    try:
        p = degree_profile(g)
        assert p.nbr_hist == {2: 2, 3: 2, 4: n - 4}
        assert p.dist2_hist == {2: 4, 3: 2, 4: n - 6}
        assert p.diameter == n - 1
        del p
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20
    assert not hasattr(g, "neighbor_bits")
    return peak


def _gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < p])


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

    def test_fringe_levels_run_until_the_stop_rule(self, fringe_calls, monkeypatch):
        # Trees with extra edges need eccentricities from more than one
        # level.  At this size the whole fringe, every level of it, fits one
        # block, so one multi-source BFS settles each graph.
        fringes = {}
        for n in (200, 206, 450, 600):
            fringe_calls.clear()
            g = tree_plus_edges(n, n, n)
            assert diameter(g) == oracle_diameter(g)
            (fringes[n],) = fringe_calls
        # Blocks of 8 cut the 96-vertex fringe of tree206+206, two levels,
        # into 12.  The first two raise the bound to 8, twice the level of
        # the third block's first vertex, so the stop rule ends the search
        # there, before the other ten.
        g = tree_plus_edges(206, 206, 206)
        monkeypatch.setattr(graphs, "_REACH_BYTES", g.n)
        fringe_calls.clear()
        assert diameter(g) == oracle_diameter(g) == 8
        assert len(fringes[206]) == 96
        assert fringe_calls == [fringes[206][:8], fringes[206][8:16]]
        # On a path the far end's eccentricity already meets the stop rule
        # at the top level, so no fringe search runs.
        fringe_calls.clear()
        for n in (2, 3, 4, 5, 200, 401, 600):
            assert diameter(path_graph(n)) == n - 1
        assert fringe_calls == []

    def test_fringe_level_in_blocks(self, fringe_calls, monkeypatch):
        # A budget of n bytes gives blocks of 8 sources, so the top fringe of
        # the double star, 150 leaves less the far end a, runs in 19 blocks.
        # An edge between two leaves of one hub keeps the diameter at 3 and
        # makes the graph no tree, which two BFS passes would settle.
        g = double_star(150)
        g = Graph.from_edges(g.n, [*g.edges(), (2, 3)])
        monkeypatch.setattr(graphs, "_REACH_BYTES", g.n)
        assert diameter(g) == 3
        assert len(fringe_calls) == 19
        assert max(map(len, fringe_calls)) == 8
        for n in (200, 206, 450):
            g = tree_plus_edges(n, n, n)
            monkeypatch.setattr(graphs, "_REACH_BYTES", g.n // 2)
            assert diameter(g) == oracle_diameter(g)

    def test_trees_take_two_sweeps(self, monkeypatch):
        # m = n - 1 on a connected graph makes it a tree, settled by the
        # second BFS; one more edge brings back the middle vertex's BFS.
        calls = []
        real = graphs._bfs

        def counting(adjacency, root):
            calls.append(root)
            return real(adjacency, root)

        monkeypatch.setattr(graphs, "_bfs", counting)
        rng = random.Random(7)
        trees = [Graph.from_edges(n, random_tree(n, rng)) for n in (2, 3, 10, 300)]
        for g in [*trees, star_graph(40), double_star(30), path_graph(50)]:
            calls.clear()
            assert diameter(g) == oracle_diameter(g)
            assert len(calls) == 2
        calls.clear()
        g = tree_plus_edges(300, 1, 3)
        assert diameter(g) == oracle_diameter(g)
        assert len(calls) >= 3

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


def _property_graphs():
    """Seeded graphs whose diameter the oracle settles: trees plus k extra
    edges, G(n, p) near the connectivity threshold ln(n) / n (some of them
    disconnected), complete graphs, and the graphs on 1 and 2 vertices."""
    cases = {f"tree{n}+{k}": tree_plus_edges(n, k, 100 * n + k)
             for n in (40, 120) for k in (1, 2, 5, 20, n)}
    for n in (50, 120):
        for c in (0.7, 1.0, 1.4):
            for seed in range(3):
                cases[f"gnp{n}x{c}#{seed}"] = _gnp(n, c * math.log(n) / n, seed)
    cases.update({f"K{n}": complete_graph(n) for n in (1, 2, 3, 10, 40)})
    cases.update({"empty1": Graph.from_edges(1, []), "empty2": Graph.from_edges(2, [])})
    return cases


PROPERTY_GRAPHS = _property_graphs()


class TestDiameterProperties:
    def test_cases_cover_each_outcome(self, fringe_calls):
        outcomes = [oracle_diameter(g) for g in PROPERTY_GRAPHS.values()]
        assert outcomes.count(math.inf) >= 5 and 0 in outcomes
        assert sum(d not in (0, 1, math.inf) for d in outcomes) >= 15
        # Fringes of more than 3 sources, which blocks of 3 cut.
        for g in PROPERTY_GRAPHS.values():
            diameter(g)
        assert sum(len(sources) > 3 for sources in fringe_calls) >= 8

    @pytest.mark.parametrize("budget", ["default", "blocks_of_3"])
    @pytest.mark.parametrize("name", PROPERTY_GRAPHS)
    def test_matches_every_vertex_bfs(self, name, budget, fringe_calls, monkeypatch):
        g = PROPERTY_GRAPHS[name]
        if budget == "blocks_of_3":
            # ceil(3n / 8) bytes hold 3 sources for every n > 8, so a level
            # of more than three fringe vertices spans blocks.
            monkeypatch.setattr(graphs, "_REACH_BYTES", -(-3 * g.n // 8))
        assert diameter(g) == oracle_diameter(g)
        if budget == "blocks_of_3" and g.n > 8:
            assert all(len(sources) <= 3 for sources in fringe_calls)

    def test_every_labeled_graph_up_to_5_in_blocks_of_2(self, monkeypatch):
        # Blocks of two sources.  Small graphs reach every case of the stop
        # rule, a bound one short of twice the next level among them.
        for n in range(1, 6):
            monkeypatch.setattr(graphs, "_REACH_BYTES", 2 * n)
            for g in all_graphs(n):
                assert diameter(g) == oracle_diameter(g)

    def test_eccentricity_max_is_the_largest_single_bfs_eccentricity(self):
        rng = random.Random(29)
        for name, g in PROPERTY_GRAPHS.items():
            if not is_connected(g):
                continue
            ecc = [max(oracle_bfs_distances(g, v)) for v in range(g.n)]
            subsets = [[v] for v in range(min(g.n, 5))] + [list(range(g.n))]
            subsets += [rng.sample(range(g.n), rng.randint(1, g.n)) for _ in range(5)]
            for sources in subsets:
                got = graphs._eccentricity_max(g.adjacency, sources)
                assert got == max(ecc[v] for v in sources), (name, sources)


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

    @pytest.mark.parametrize("make, error, message", [
        (lambda: Graph(2, 0, ((),)), ValueError, "adjacency length does not match n"),
        (lambda: encode_graph6(path_graph(63)), InvalidGraph6,
         "short-form graph6 supports at most 62 vertices"),
        (lambda: cycle_graph(2), ValueError, "cycles need at least 3 vertices"),
    ])
    def test_construction_errors(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (4, [(0, 1), (2, 2)], "self-loop at vertex 2"),
            (3, [(0, 1), (1, 2), (0, 1)], "duplicate neighbor entries at vertex 0"),
            (3, [(0, 1), (1, 2), (1, 0)], "duplicate neighbor entries at vertex 0"),
            (3, [(1, 1), (0, 2), (2, 0)], "duplicate neighbor entries at vertex 0"),
            (3, [(0, 1), (1, 3)], "vertex 3 out of range for n=3"),
            (3, [(5, 1)], "vertex 5 out of range for n=3"),
            (3, [(-1, 0)], "vertex -1 out of range for n=3"),
            (3, [(0, 1), (0, -2)], "vertex -2 out of range for n=3"),
            (3, [(0, 0), (0, 7)], "vertex 7 out of range for n=3"),
            (0, [], "graph needs at least one vertex"),
            (0, [(0, 1)], "vertex 0 out of range for n=0"),
        ],
        ids=["self_loop", "duplicate", "duplicate_reversed", "duplicate_after_loop",
             "v_too_large", "u_too_large", "negative_u", "negative_v", "range_after_loop",
             "n0", "n0_with_edge"],
    )
    def test_from_edges_refuses_like_the_checked_constructor(self, n, edges, message):
        with pytest.raises(ValueError) as info:
            Graph.from_edges(n, edges)
        assert type(info.value) is ValueError and str(info.value) == message

    def test_from_edges_equals_the_checked_constructor(self):
        rng = random.Random(61)
        for _ in range(200):
            n = rng.randint(1, 30)
            pairs = [(i, j) for j in range(n) for i in range(j)]
            edges = rng.sample(pairs, rng.randint(0, len(pairs)))
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            rows = [[] for _ in range(n)]
            for u, v in edges:
                rows[u].append(v)
                rows[v].append(u)
            want = Graph(n, len(edges), tuple(tuple(sorted(row)) for row in rows))
            got = Graph.from_edges(n, edges)
            assert got == want and hash(got) == hash(want)
            assert type(got) is Graph and all(type(row) is tuple for row in got.adjacency)

    def test_graph_is_frozen(self):
        g = path_graph(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 5

    def test_edges_iteration(self):
        assert list(path_graph(3).edges()) == [(0, 1), (1, 2)]

    def test_star(self):
        g = star_graph(4)
        assert (g.n, g.m) == (5, 4)
        assert len(g.adjacency[0]) == 4
