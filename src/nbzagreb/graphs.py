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
import sys
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    DuplicateEdge,
    InvalidGraph6,
    MalformedLine,
    NonContiguousIds,
    ProfileTooLarge,
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
        """Build a graph from (u, v) pairs; isolated vertices share the empty tuple.
        Rows are mirrored as built; a duplicate in a row (a self-loop makes
        one) or n < 1 hands them to the checked constructor."""
        rows: defaultdict[int, list[int]] = defaultdict(list)
        for u, v in edges:
            rows[u].append(v)
            rows[v].append(u)
        adjacency = [()] * n
        clean = n >= 1
        for u, row in rows.items():
            if not 0 <= u < n:
                raise ValueError(f"vertex {u} out of range for n={n}")
            row.sort()
            adjacency[u] = row = tuple(row)
            clean = clean and len(set(row)) == len(row)
        m = sum(map(len, adjacency)) // 2
        if not clean:
            return cls(n, m, tuple(adjacency))
        return cls._unchecked(n, m, tuple(adjacency))

    @classmethod
    def _unchecked(cls, n: int, m: int, adjacency) -> "Graph":
        """A graph from rows its caller built to the invariants, which are
        not checked again."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "m", m)
        object.__setattr__(g, "adjacency", adjacency)
        return g

    def edges(self):
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)


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


# The distance-2 sums take one of two methods, chosen from the input.  On
# seeded G(n, p) graphs at n = 100, 300 and 1000, stamps beat bitsets below
# M1 / (n + 2m) of about 8 to 10 and lose above it.  Stamps are about 4x
# faster on trees and paths (ratio 2) and 2x at ratio 4, but 40x slower on
# K300 (ratio 298) and about 100x on the 5,000-leaf star (ratio 1667).
_BITSET_RATIO = 8
# Largest mask footprint the bitset method may build: 2**28 bits, 32 MiB
# (about 36 MB as Python ints).  A path with shuffled labels reaches it near
# 20,000 vertices, a star whose hub is the last vertex at 16,383 leaves.
_BITSET_BITS = 1 << 28
# Most stamp steps (M1) taken where the bitsets would exceed their cap:
# 2**26 steps, one to three seconds at 20-50 ns a step.
_STAMP_STEPS = 1 << 26


def degree_profile(g: Graph) -> DegreeProfile:
    """Compute all degree-like quantities of ``g``.

    The distance-2 set of u is the union of the neighbors' neighborhoods
    minus the closed neighborhood of u, i.e. exactly the vertices at
    shortest-path distance 2.  Its degree sum takes one of two methods:

    * stamps (:func:`_stamp_sums`): O(n) memory and n + 2m + M1 steps,
      since each row N(v) is walked once from each of its deg(v) neighbors;
    * bitsets (:func:`_bitset_sums`): one mask per vertex and one per
      degree class, freed before the diameter search, whose footprint is
      the sum over u of max N(u) + 1 bits plus n bits per class, O(n**2)
      bits on a relabeled sparse graph, but a word-parallel OR per step.

    Bitsets run past the crossover ``_BITSET_RATIO`` within ``_BITSET_BITS``,
    stamps elsewhere, so an input whose M1 is linear in its size takes
    O(n + m) memory; past both caps ``ProfileTooLarge`` is raised.

    Either walk also tells whether every vertex reaches all the others
    within two steps.  If so (n >= 2), the diameter is 1 on K_n and 2
    otherwise, and iFUB (:func:`diameter`) does not run; it runs on every
    other graph, disconnected ones included.  The diameter is never read
    from the identity sum dist2_deg = 2m(n - 1) - M1, which holds exactly
    at diameter 2: the ``dist2_identity`` check tests that identity
    wherever the diameter is 2, and it would be vacuous if it chose them.
    """
    adjacency = g.adjacency
    deg = tuple(map(len, adjacency))
    m1 = sum(d * d for d in deg)
    sums = _stamp_sums
    if m1 > _BITSET_RATIO * (g.n + 2 * g.m):
        # Rows are sorted, so each mask's length is its row's last entry.
        bits = sum(row[-1] + 1 for row in adjacency if row) + len(set(deg)) * g.n
        if bits <= _BITSET_BITS:
            sums = _bitset_sums
        elif m1 > _STAMP_STEPS:
            raise ProfileTooLarge(
                f"distance-2 sums need {m1:,} stamp steps (budget {_STAMP_STEPS:,}) "
                f"or {bits:,} mask bits (cap {_BITSET_BITS:,})"
            )
    nbr_deg, dist2_deg, near = sums(adjacency, deg)
    if near:
        diam = 1 if 2 * g.m == g.n * (g.n - 1) else 2
    else:
        diam = diameter(g)
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
        m1=m1,
        diameter=diam,
    )


def _stamp_sums(adjacency, deg) -> tuple[list[int], list[int], bool]:
    """Neighborhood and distance-2 degree sums by a stamp array: N[u] is
    stamped u, then every w in N(v), v in N(u), not yet stamped u is at
    distance 2, is stamped and adds deg(w).  Third, whether every vertex
    lies within distance 2 of every other: u reaches all n vertices,
    itself included, when n entries hold its stamp.  That O(n) count runs
    up to the first vertex that falls short; each vertex before it reached
    all n - 1 others, so its walk already took at least n - 1 steps."""
    n = len(adjacency)
    stamp = [-1] * n
    nbr_deg, dist2_deg = [0] * n, [0] * n
    near = any(deg)  # an isolated vertex, or n = 1, rules out diameter <= 2
    for u in itertools.compress(range(n), deg):  # the others keep 0 in both sums
        nbrs = adjacency[u]
        stamp[u] = u
        total = 0
        for v in nbrs:
            stamp[v] = u
            total += deg[v]
        nbr_deg[u] = total
        total = 0
        for v in nbrs:
            for w in adjacency[v]:
                if stamp[w] != u:
                    stamp[w] = u
                    total += deg[w]
        dist2_deg[u] = total
        if near:
            near = stamp.count(u) == n
    return nbr_deg, dist2_deg, near


def _bitset_sums(adjacency, deg) -> tuple[list[int], list[int], bool]:
    """Neighborhood and distance-2 degree sums by neighbor bitsets: the
    distance-2 sum of u is sum_d d * |N2(u) & V_d|, one popcount per nonzero
    degree class V_d.  Third, as in :func:`_stamp_sums`, whether every
    vertex lies within distance 2 of every other: deg(u) + |N2(u)| = n - 1
    for every u."""
    n = len(adjacency)
    bits = []
    for nbrs in adjacency:
        b = 0
        for v in nbrs:
            b |= 1 << v
        bits.append(b)
    linked = list(itertools.compress(range(n), deg))  # the others keep 0 in both sums
    class_bits: dict[int, int] = {}
    for u in linked:
        class_bits[deg[u]] = class_bits.get(deg[u], 0) | 1 << u
    classes = list(class_bits.items())
    nbr_deg, dist2_deg = [0] * n, [0] * n
    near = bool(linked)  # an isolated vertex, or n = 1, rules out diameter <= 2
    for u in linked:
        two_hop = total = 0
        for v in adjacency[u]:
            two_hop |= bits[v]
            total += deg[v]
        nbr_deg[u] = total
        two_hop &= ~(bits[u] | 1 << u)
        dist2_deg[u] = sum([d * (two_hop & mask).bit_count() for d, mask in classes])
        if near:
            near = deg[u] + two_hop.bit_count() == n - 1
    return nbr_deg, dist2_deg, near


# Bytes of source bitsets a ``diameter`` fringe block may hold.
_REACH_BYTES = 1 << 20


def diameter(g: Graph) -> int | float:
    """Largest shortest-path distance; ``math.inf`` when disconnected.

    Exact iFUB (Crescenzi et al., Theoret. Comput. Sci. 514 (2013) 84-95).
    A BFS from vertex 0 settles connectivity and finds a far vertex a; a
    BFS from a gives the lower bound ecc(a) and a far end b; the middle u
    of a shortest a-b path roots the levels of a last BFS.  Vertices in
    levels <= i are at most 2i apart through u, so the fringe, all but a
    above level lower // 2, deepest first, runs in blocks of
    8 * _REACH_BYTES // n sources, each one bit-parallel multi-source BFS
    raising the bound to the block's largest eccentricity, until it reaches
    2i, i the level of the next block's first vertex.

    A connected graph with m = n - 1 is a tree, whose diameter is ecc(a):
    the far end of any BFS ends a longest path, so two passes settle it.
    Otherwise: three BFS passes, O(n + m), and O(ecc * m) ORs of bitsets,
    one bit per source, per block; nothing of order n**2.
    """
    adjacency = g.adjacency
    order, _ = _bfs(adjacency, 0)
    if len(order) < g.n:
        return math.inf
    a = order[-1]
    order, dist_a = _bfs(adjacency, a)
    lower = dist_a[order[-1]]  # ecc(a), known exactly, so a is no fringe source
    if g.m == g.n - 1:
        return lower  # a tree
    u = order[-1]
    while dist_a[u] > (lower + 1) // 2:  # walk back from the far end b
        u = next(w for w in adjacency[u] if dist_a[w] == dist_a[u] - 1)
    order, dist_u = _bfs(adjacency, u)
    fringe = []
    for v in reversed(order):  # deepest first
        if dist_u[v] <= lower // 2:
            break
        if v != a:
            fringe.append(v)
    block = max(1, 8 * _REACH_BYTES // g.n)
    for start in range(0, len(fringe), block):
        if lower >= 2 * dist_u[fringe[start]]:
            break
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
    """Largest eccentricity among ``sources`` in a connected graph, by one
    BFS from all at once: bit j of ``reach[v]`` says source j reached v.
    A round ORs new bits into ``acc``, then diffs each touched vertex with
    ``reach``; the answer is the number of rounds that reach anything new."""
    reach = [0] * len(adjacency)
    acc = [0] * len(adjacency)
    frontier = [(s, 1 << j) for j, s in enumerate(sources)]
    for s, bits in frontier:
        reach[s] = bits
    rounds = -1
    while frontier:
        rounds += 1
        touched = []
        for v, bits in frontier:
            for w in adjacency[v]:
                old = acc[w]
                if old:
                    acc[w] = old | bits
                else:
                    acc[w] = bits
                    touched.append(w)
        frontier = []
        for w in touched:
            old = reach[w]
            both = old | acc[w]
            acc[w] = 0
            if both != old:
                reach[w] = both
                frontier.append((w, both ^ old))
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


# No vertex id or count can exceed sys.maxsize, since ids index lists, so
# a token with more significant digits is refused before int() reads it
# (int() itself refuses more than 4,300 digits).
_MAX_DIGITS = len(str(sys.maxsize))
_ECHO_CHARS = 32


def _echo(text: str) -> str:
    """repr of input text for an error message, cut to _ECHO_CHARS characters."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text):,} characters)"


def _decimal(token: str) -> int:
    """The value of a token of ASCII digits; ``ValueError`` otherwise, where
    ``int`` alone would also take a sign, underscores and other digits, and
    ``OverflowError`` when it has more than _MAX_DIGITS significant digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal number: {_echo(token)}")
    if len(token) > _MAX_DIGITS:
        digits = token.lstrip("0") or "0"
        if len(digits) > _MAX_DIGITS:
            raise OverflowError(f"more than {_MAX_DIGITS} digits: {_echo(token)}")
        token = digits
    return int(token)


@lru_cache(maxsize=None)
def _plain_document():
    """Pattern of a plain document: only 'u v' lines of at most _MAX_DIGITS
    ASCII digits each, split by '\\n' or '\\r\\n'.  Compiled on first use,
    so importing the module costs nothing."""
    import re

    token = f"[0-9]{{1,{_MAX_DIGITS}}}"
    return re.compile(rf"(?:{token} {token}\r?\n)*{token} {token}(?:\r?\n)?")


def _plain_edges(text: str) -> set[tuple[int, int]] | None:
    """The edge set of a plain document in one pass: split once, read every
    token with int() and normalize the pairs.  None for any other document,
    and for a plain one with a self-loop or duplicate edge, which the line
    loop then names."""
    if not _plain_document().fullmatch(text):
        return None
    tokens = text.split()
    ids = map(int, tokens)
    # A self-loop becomes None and a duplicate shrinks the set.
    edges = {(u, v) if u < v else (v, u) if v < u else None for u, v in zip(ids, ids)}
    if None in edges or len(edges) * 2 < len(tokens):
        return None
    return edges


def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list document into a :class:`Graph`.

    An optional first line ``n <count>`` declares the vertex count, which
    permits isolated vertices; a count above ``MAX_DECLARED_N`` raises
    ``VertexCountTooLarge``.  Without it, ids must cover 0..max exactly.
    A plain document, only 'u v' lines, is read in one pass
    (:func:`_plain_edges`); every other goes line by line, and both give
    the same graph or the same error.
    """
    declared_n = None
    edges = _plain_edges(text)
    if edges is None:
        declared_n, edges = _edge_lines(text)
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


def _edge_lines(text: str) -> tuple[int | None, set[tuple[int, int]]]:
    """The declared vertex count, if any, and the edge set of a document,
    read line by line; each malformed line raises, naming its number."""
    declared_n: int | None = None
    edges: set[tuple[int, int]] = set()
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        tokens = line.split()
        if first_content and tokens[0] == "n":
            first_content = False
            if len(tokens) != 2:
                raise MalformedLine(f"line {lineno}: header must be 'n <count>'")
            try:
                declared_n = _decimal(tokens[1])
            except OverflowError:
                raise VertexCountTooLarge(
                    f"line {lineno}: vertex count {_echo(tokens[1])} exceeds {MAX_DECLARED_N}"
                )
            except ValueError:
                raise MalformedLine(f"line {lineno}: bad vertex count {_echo(tokens[1])}")
            if declared_n < 1:
                raise MalformedLine(f"line {lineno}: vertex count must be >= 1")
            if declared_n > MAX_DECLARED_N:
                raise VertexCountTooLarge(
                    f"line {lineno}: vertex count {declared_n} exceeds {MAX_DECLARED_N}"
                )
            continue
        first_content = False
        if len(tokens) != 2:
            raise MalformedLine(f"line {lineno}: expected 'u v', got {_echo(line)}")
        try:
            u, v = _decimal(tokens[0]), _decimal(tokens[1])
        except OverflowError:
            raise MalformedLine(
                f"line {lineno}: vertex id too long (over {_MAX_DIGITS} digits) in {_echo(line)}"
            )
        except ValueError:
            raise MalformedLine(f"line {lineno}: non-decimal vertex id in {_echo(line)}")
        if u == v:
            raise SelfLoop(f"line {lineno}: self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in edges:
            raise DuplicateEdge(f"line {lineno}: duplicate edge {key}")
        edges.add(key)
    return declared_n, edges


# ---------------------------------------------------------------------------
# graph6 short form and edge masks
#
# A mask is the graph6 bitstream of a graph on n vertices read as one
# integer (McKay, "graph6 and sparse6 graph formats"): slot k, the k-th pair
# of ``_g6_pairs(n)``, is bit pair_count(n) - 1 - k.  So numeric order on
# masks is lexicographic order on bitstreams, and the six-bit data
# characters of graph6 are the mask's bits, zero-padded on the right.
# ``mask_of_edges``, ``edges_of_mask``, ``mask_rows``, ``graph_of_mask``
# and ``graph6_of_mask`` are the one codec of a single mask;
# ``parse_graph6`` decodes through ``graph_of_mask``.


def pair_count(n: int) -> int:
    """Number of vertex pairs, the edge slots of a mask, on n vertices."""
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def _g6_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangle pairs in graph6 bit order: (0,1),(0,2),(1,2),(0,3),..."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def mask_of_edges(n: int, edges) -> int:
    """Mask of the graph on n vertices with the given (u, v) edges."""
    top = pair_count(n) - 1
    mask = 0
    for u, v in edges:
        i, j = (u, v) if u < v else (v, u)
        mask |= 1 << (top - j * (j - 1) // 2 - i)
    return mask


def edges_of_mask(n: int, mask: int) -> list[tuple[int, int]]:
    """Edges of a mask below 2**pair_count(n), in slot order, as (i, j) with i < j."""
    pairs = _g6_pairs(n)
    # Binary digits, most significant first, are the slots in order.
    return [pair for pair, bit in zip(pairs, format(mask, f"0{len(pairs)}b")) if bit == "1"]


def mask_rows(n: int, mask: int) -> list[list[int]]:
    """Neighbor lists of a mask below 2**pair_count(n), from one walk over
    its slots in order.  Slots run column by column, so v's lower
    neighbors, in slots (u, v), u ascending, come before its higher ones,
    in slots (v, w), w ascending, and each list comes out sorted."""
    pairs = _g6_pairs(n)
    rows = [[] for _ in range(n)]
    for (i, j), bit in zip(pairs, format(mask, f"0{len(pairs)}b")):
        if bit == "1":
            rows[i].append(j)
            rows[j].append(i)
    return rows


def graph_of_mask(n: int, mask: int) -> Graph:
    """The graph on n vertices whose edges are the mask's set slots."""
    adjacency = tuple(map(tuple, mask_rows(n, mask)))
    return Graph._unchecked(n, sum(map(len, adjacency)) // 2, adjacency)


def graph6_of_mask(n: int, mask: int) -> str:
    """Short-form graph6 text of a mask on n <= 62 vertices."""
    npairs = pair_count(n)
    pad = -npairs % 6
    data = mask << pad
    return chr(63 + n) + "".join(
        chr(63 + (data >> shift & 63)) for shift in range(npairs + pad - 6, -1, -6)
    )


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 line (n <= 62); padding bits are ignored."""
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
    npairs = pair_count(n)
    need_chars = (npairs + 5) // 6
    data = line[1:]
    if len(data) != need_chars:
        raise InvalidGraph6(
            f"expected {need_chars} data characters for n={n}, got {len(data)}"
        )
    value = 0
    for ch in data:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise InvalidGraph6(f"bad data character {ch!r}")
        value = value << 6 | val
    return graph_of_mask(n, value >> (-npairs % 6))


def encode_graph6(g: Graph) -> str:
    """Encode a graph in short-form graph6 (requires n <= 62)."""
    if g.n > 62:
        raise InvalidGraph6("short-form graph6 supports at most 62 vertices")
    return graph6_of_mask(g.n, mask_of_edges(g.n, g.edges()))


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
