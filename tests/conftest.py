"""Shared fixtures and independent oracles.

The oracle helpers deliberately avoid the library's own profile machinery:
neighborhood degrees come straight from the adjacency tuples, distance-2
degrees from a plain BFS, the spectral radius from a dense eigensolve, and
graph enumeration from itertools edge subsets.  Library results are always
compared against these.
"""

import heapq
from collections import deque
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from nbzagreb import Graph, parse_edge_list

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> Graph:
    return parse_edge_list((FIXTURES / name).read_text())


@pytest.fixture
def figure1() -> Graph:
    return load_fixture("figure1.edges")


@pytest.fixture
def figure2() -> Graph:
    return load_fixture("figure2.edges")


@pytest.fixture
def c5_chord() -> Graph:
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])


@pytest.fixture
def paw() -> Graph:
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])


# ---------------------------------------------------------------------------
# Oracles


def oracle_nbr_degrees(g: Graph) -> list[int]:
    return [sum(len(g.adjacency[v]) for v in g.adjacency[u]) for u in range(g.n)]


def oracle_bfs_distances(g: Graph, src: int) -> list[int]:
    dist = [-1] * g.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def oracle_dist2_degrees(g: Graph) -> list[int]:
    out = []
    for u in range(g.n):
        dist = oracle_bfs_distances(g, u)
        out.append(sum(len(g.adjacency[v]) for v in range(g.n) if dist[v] == 2))
    return out


def oracle_nm(g: Graph, alpha: float) -> float:
    return sum(d**alpha for d in oracle_nbr_degrees(g))


def oracle_rho(g: Graph) -> float:
    """Spectral radius from numpy's dense symmetric eigensolver."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def all_graphs(n: int):
    """Every labeled graph on n vertices, connected or not."""
    slots = list(combinations(range(n), 2))
    for r in range(len(slots) + 1):
        for subset in combinations(slots, r):
            yield Graph.from_edges(n, subset)


def sample_connected(n: int, count: int):
    """A deterministic spread of ``count`` connected graphs on n vertices,
    drawn from masks spaced evenly across the edge-subset space."""
    from nbzagreb._bulk import connected_masks
    from nbzagreb.graphs import edges_of_mask, pair_count

    total = 1 << pair_count(n)
    stride = max(total // count, 1)
    picked = 0
    start = 0
    while picked < count and start < total:
        masks = connected_masks(n, start, min(start + 4096, total))
        if masks.size:
            yield Graph.from_edges(n, edges_of_mask(n, int(masks[-1])))
            picked += 1
        start += stride
    assert picked > 0


def prufer_tree(seq: list[int]) -> Graph:
    """Decode a Pruefer sequence into the labeled tree it encodes."""
    n = len(seq) + 2
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [u for u in range(n) if degree[u] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)
