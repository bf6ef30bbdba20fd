"""Immutable simple undirected graphs and their degree-like profiles.

Everything downstream (indices, bounds, spectral estimates, sweeps) consumes
either a :class:`Graph` or the :class:`DegreeProfile` computed from it.  All
quantities in this module are exact integers; floating point only appears
once exponents enter in :mod:`nbzagreb.indices`.

Input formats:

* edge lists: optional first line ``n <count>`` (allows isolated vertices),
  then one edge per line as two whitespace-separated decimal ids, ``#``
  starts a comment;
* graph6: the standard short form (n <= 62, 6-bit packing of the upper
  triangle in column-major order).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .errors import (
    DuplicateEdge,
    InvalidGraph6,
    MalformedLine,
    NonContiguousIds,
    SelfLoop,
    VertexCountTooLarge,
)

__all__ = [
    "Graph",
    "DegreeProfile",
    "parse_edge_list",
    "parse_graph6",
    "encode_graph6",
    "degree_profile",
    "diameter",
    "is_connected",
    "is_path",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
]

# Largest vertex count an edge-list header may declare.
MAX_DECLARED_N = 1_000_000


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adjacency[u]`` is the sorted tuple of neighbors of ``u``.  Instances
    are immutable and safe to share across threads.
    """

    n: int
    m: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        """Check every invariant once, in O((n + m) log n): each row increases
        strictly within 0..n-1, skips its own vertex and, by bisection, is
        mirrored in the rows it names."""
        n, adjacency = self.n, self.adjacency
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(adjacency) != n:
            raise ValueError("adjacency length does not match n")
        for u in itertools.compress(range(n), adjacency):
            prev = -1
            for v in adjacency[u]:
                if not prev < v < n:
                    if not 0 <= v < n:
                        raise ValueError(f"neighbor {v} out of range")
                    problem = "duplicate neighbor entries" if v == prev else "unsorted neighbors"
                    raise ValueError(f"{problem} at vertex {u}")
                if v == u:
                    raise ValueError(f"self-loop at vertex {u}")
                row = adjacency[v]
                i = bisect_left(row, u)
                if i == len(row) or row[i] != u:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                prev = v
        if sum(map(len, adjacency)) != 2 * self.m:
            raise ValueError("edge count m inconsistent with adjacency")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from (u, v) pairs; isolated vertices share the empty tuple."""
        rows: defaultdict[int, list[int]] = defaultdict(list)
        for u, v in edges:
            rows[u].append(v)
            rows[v].append(u)
        adjacency = [()] * n
        for u, row in rows.items():
            if not 0 <= u < n:
                raise ValueError(f"vertex {u} out of range for n={n}")
            row.sort()
            adjacency[u] = tuple(row)
        return cls(n, sum(map(len, adjacency)) // 2, tuple(adjacency))

    @cached_property
    def neighbor_bits(self) -> tuple[int, ...]:
        """Neighbor sets as bitmasks, for fast set algebra."""
        out = []
        for nbrs in self.adjacency:
            b = 0
            for v in nbrs:
                b |= 1 << v
            out.append(b)
        return tuple(out)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self.adjacency[u]

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self):
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def adjacency_matrix(self):
        """Dense 0/1 adjacency matrix as a float numpy array."""
        import numpy as np

        a = np.zeros((self.n, self.n))
        for u, v in self.edges():
            a[u, v] = 1.0
            a[v, u] = 1.0
        return a


@dataclass(frozen=True)
class DegreeProfile:
    """Every degree-like quantity of a graph, computed once.

    ``deg`` is the ordinary degree, ``nbr_deg[u]`` the neighborhood degree
    (sum of degrees over the neighbors of u) and ``dist2_deg[u]`` the sum of
    degrees over vertices at shortest-path distance exactly 2 from u.  The
    histograms map a degree value to the number of vertices attaining it.
    ``m1`` is the first Zagreb index, the sum of squared ordinary degrees.
    ``diameter`` is ``math.inf`` for disconnected graphs.
    """

    n: int
    m: int
    deg: tuple[int, ...]
    nbr_deg: tuple[int, ...]
    dist2_deg: tuple[int, ...]
    deg_hist: dict[int, int] = field(compare=False)
    nbr_hist: dict[int, int] = field(compare=False)
    dist2_hist: dict[int, int] = field(compare=False)
    delta_min: int
    delta_max: int
    d2_min: int
    d2_max: int
    m1: int
    diameter: int | float


def degree_profile(g: Graph) -> DegreeProfile:
    """Compute all degree-like quantities of ``g``.

    The distance-2 set of u is the union of the neighbors' neighborhoods
    minus the closed neighborhood of u, i.e. exactly the vertices at
    shortest-path distance 2.  Its degree sum is sum_d d * |N2(u) & V_d|,
    one popcount per nonzero degree class V_d.
    """
    adjacency = g.adjacency
    deg = tuple(map(len, adjacency))
    bits = g.neighbor_bits
    linked = list(itertools.compress(range(g.n), deg))  # the others keep 0 in both sums
    class_bits: dict[int, int] = {}
    for u in linked:
        class_bits[deg[u]] = class_bits.get(deg[u], 0) | 1 << u
    classes = list(class_bits.items())
    nbr_deg, dist2_deg = [0] * g.n, [0] * g.n
    for u in linked:
        two_hop = total = 0
        for v in adjacency[u]:
            two_hop |= bits[v]
            total += deg[v]
        nbr_deg[u] = total
        two_hop &= ~(bits[u] | 1 << u)
        dist2_deg[u] = sum([d * (two_hop & mask).bit_count() for d, mask in classes])
    nbr_deg, dist2_deg = tuple(nbr_deg), tuple(dist2_deg)
    return DegreeProfile(
        n=g.n,
        m=g.m,
        deg=deg,
        nbr_deg=nbr_deg,
        dist2_deg=dist2_deg,
        deg_hist=dict(sorted(Counter(deg).items())),
        nbr_hist=dict(sorted(Counter(nbr_deg).items())),
        dist2_hist=dict(sorted(Counter(dist2_deg).items())),
        delta_min=min(nbr_deg),
        delta_max=max(nbr_deg),
        d2_min=min(dist2_deg),
        d2_max=max(dist2_deg),
        m1=sum(d * d for d in deg),
        diameter=diameter(g),
    )


# Bytes of source bitsets one multi-source BFS in ``diameter`` may hold: a
# fringe level of k sources runs in blocks of 8 * _REACH_BYTES // n sources.
_REACH_BYTES = 1 << 20


def diameter(g: Graph) -> int | float:
    """Largest shortest-path distance; ``math.inf`` when disconnected.

    Exact iFUB (Crescenzi, Grossi, Habib, Lanzi, Marino, "On computing the
    diameter of real-world undirected graphs", Theoret. Comput. Sci. 514
    (2013) 84-95).  A BFS from vertex 0 settles connectivity and finds a
    far vertex a; a BFS from a gives the lower bound ecc(a) and a far end
    b; the middle u of a shortest a-b path roots the levels of a last BFS.
    Every pair with both ends in levels <= i is at most 2i apart through u,
    so from the top level i down the search stops as soon as the lower
    bound reaches 2i, and otherwise raises it to the largest eccentricity
    on level i, which one bit-parallel multi-source BFS yields.

    The cost is three BFS passes, O(n + m) time and memory, plus for each
    fringe level that does not stop the search O(ecc * m) ORs of bitsets
    one bit per source.  The sources run in blocks whose bitsets take at
    most ``_REACH_BYTES``, so nothing of order n**2 is allocated.
    """
    adjacency = g.adjacency
    order, _ = _bfs(adjacency, 0)
    if len(order) < g.n:
        return math.inf
    a = order[-1]
    order, dist_a = _bfs(adjacency, a)
    lower = dist_a[order[-1]]  # ecc(a), known exactly, so a is no fringe source
    u = order[-1]
    while dist_a[u] > (lower + 1) // 2:  # walk back from the far end b
        u = next(w for w in adjacency[u] if dist_a[w] == dist_a[u] - 1)
    order, dist_u = _bfs(adjacency, u)
    levels: list[list[int]] = [[] for _ in range(dist_u[order[-1]] + 1)]
    for v in order:
        if v != a:
            levels[dist_u[v]].append(v)
    block = max(1, 8 * _REACH_BYTES // g.n)
    for i in range(len(levels) - 1, 0, -1):
        fringe = levels[i]
        for start in range(0, len(fringe), block):
            if lower >= 2 * i:
                return lower
            lower = max(lower, _eccentricity_max(adjacency, fringe[start : start + block]))
    return lower


def _bfs(adjacency, root: int) -> tuple[list[int], list[int]]:
    """Vertices reachable from ``root`` in BFS order, and the distance of
    every vertex (-1 where unreachable)."""
    dist = [-1] * len(adjacency)
    dist[root] = 0
    order = [root]
    for v in order:  # the list grows while it is read
        d = dist[v] + 1
        for w in adjacency[v]:
            if dist[w] < 0:
                dist[w] = d
                order.append(w)
    return order, dist


def _eccentricity_max(adjacency, sources: list[int]) -> int:
    """Largest eccentricity among ``sources`` in a connected graph.

    One BFS from all sources at once: bit j of ``reach[v]`` says that
    source j has reached v, and ``frontier`` maps each vertex reached in
    the last round to the bits that reached it then.  The answer is the
    number of rounds that reach something new.
    """
    reach = [0] * len(adjacency)
    frontier = {}
    for j, s in enumerate(sources):
        reach[s] = frontier[s] = 1 << j
    rounds = -1
    while frontier:
        rounds += 1
        grown: dict[int, int] = {}
        for v, bits in frontier.items():
            for w in adjacency[v]:
                old = reach[w]
                if not old:  # first reached, so not yet grown: share the int
                    reach[w] = grown[w] = bits
                    continue
                both = old | bits
                if both != old:
                    reach[w] = both
                    grown[w] = grown[w] | (both ^ old) if w in grown else both ^ old
        frontier = grown
    return rounds


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0."""
    return len(_bfs(g.adjacency, 0)[0]) == g.n


def is_path(g: Graph) -> bool:
    """True when the graph is a simple path (includes single vertices)."""
    # A connected graph with n - 1 edges is a tree; its maximum degree is 2 on a path.
    return g.m == g.n - 1 and max(map(len, g.adjacency)) <= 2 and is_connected(g)


# ---------------------------------------------------------------------------
# Edge-list format


def _decimal(token: str) -> int:
    """The value of a token of ASCII digits; ``ValueError`` otherwise, where
    ``int`` alone would also take a sign, underscores and other digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal number: {token!r}")
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list document into a :class:`Graph`.

    An optional first line ``n <count>`` declares the vertex count, which
    permits isolated vertices; a count above ``MAX_DECLARED_N`` raises
    ``VertexCountTooLarge``.  Without it, ids must cover 0..max exactly.
    """
    declared_n: int | None = None
    edges: set[tuple[int, int]] = set()
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if first_content and tokens[0] == "n":
            first_content = False
            if len(tokens) != 2:
                raise MalformedLine(f"line {lineno}: header must be 'n <count>'")
            try:
                declared_n = _decimal(tokens[1])
            except ValueError:
                raise MalformedLine(f"line {lineno}: bad vertex count {tokens[1]!r}")
            if declared_n < 1:
                raise MalformedLine(f"line {lineno}: vertex count must be >= 1")
            if declared_n > MAX_DECLARED_N:
                raise VertexCountTooLarge(
                    f"line {lineno}: vertex count {declared_n} exceeds {MAX_DECLARED_N}"
                )
            continue
        first_content = False
        if len(tokens) != 2:
            raise MalformedLine(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = _decimal(tokens[0]), _decimal(tokens[1])
        except ValueError:
            raise MalformedLine(f"line {lineno}: non-decimal vertex id in {line!r}")
        if u == v:
            raise SelfLoop(f"line {lineno}: self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise DuplicateEdge(f"line {lineno}: duplicate edge {key}")
        edges.add(key)

    ids = set(itertools.chain.from_iterable(edges))
    if declared_n is None:
        if not ids:
            raise MalformedLine("empty input: no edges and no 'n <count>' header")
        n = max(ids) + 1
        # Distinct non-negative ids cover 0..n-1 exactly when there are n of
        # them; the first few gaps are named, scanning at most len(ids) + 5 ids.
        if len(ids) != n:
            gaps = (i for i in range(n) if i not in ids)
            raise NonContiguousIds(
                f"ids must cover 0..{n - 1}; {n - len(ids)} missing, "
                f"first {list(itertools.islice(gaps, 5))}"
            )
    else:
        n = declared_n
        if ids and max(ids) >= n:
            raise NonContiguousIds(f"vertex id {max(ids)} exceeds declared n={n}")
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# graph6 short form


@lru_cache(maxsize=None)
def _g6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangle pairs in graph6 bit order: (0,1),(0,2),(1,2),(0,3),..."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 line (n <= 62)."""
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise InvalidGraph6("empty graph6 input")
    first = ord(line[0])
    if first == 126:
        raise InvalidGraph6("extended graph6 sizes (n > 62) are not supported")
    if not 63 <= first <= 125:
        raise InvalidGraph6(f"bad size character {line[0]!r}")
    n = first - 63
    if n < 1:
        raise InvalidGraph6("graph6 with zero vertices")
    pairs = _g6_pairs(n)
    need_chars = (len(pairs) + 5) // 6
    data = line[1:]
    if len(data) != need_chars:
        raise InvalidGraph6(
            f"expected {need_chars} data characters for n={n}, got {len(data)}"
        )
    bits: list[int] = []
    for ch in data:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise InvalidGraph6(f"bad data character {ch!r}")
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    return Graph.from_edges(n, itertools.compress(pairs, bits))


def _g6_pack(n: int, bits: list[int]) -> str:
    """Short-form graph6 text of n vertices and one 0/1 bit per pair in
    ``_g6_pairs`` order."""
    bits = bits + [0] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    return "".join(chars)


def encode_graph6(g: Graph) -> str:
    """Encode a graph in short-form graph6 (requires n <= 62)."""
    if g.n > 62:
        raise InvalidGraph6("short-form graph6 supports at most 62 vertices")
    return _g6_pack(g.n, [1 if g.has_edge(i, j) else 0 for i, j in _g6_pairs(g.n)])


# ---------------------------------------------------------------------------
# Small named families


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)])


def star_graph(leaves: int) -> Graph:
    """Star with one hub (vertex 0) and ``leaves`` pendant vertices."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
