import ctypes
import dataclasses
import functools
import itertools
import math
import multiprocessing
import os
import platform
import random
import resource
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import load_fixture
from nbzagreb import (
    Graph,
    canonical_form,
    complete_graph,
    degree_profile,
    encode_graph6,
    enumerate_connected,
    find_equality_graphs,
    coefficient_sign_grid,
    is_connected,
    is_path,
    parse_graph6,
    path_graph,
    spectral_report,
    verify_all,
)
from nbzagreb import _bulk, bounds, claims, enumeration, indices, spectral
from nbzagreb.graphs import (
    _g6_pairs,
    edges_of_mask,
    graph6_of_mask,
    graph_of_mask,
    mask_of_edges,
)
from nbzagreb.errors import (
    ForbiddenAlpha,
    NeighborhoodRegular,
    NotDiameterTwo,
    NTooLarge,
    PowerOverflow,
    PreconditionError,
    RemainderZero,
    UnknownBoundSource,
    UnoccupiedRemainderDegree,
    ZeroMinDist2Degree,
    reason,
)

LABELED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
CLASSES_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def assert_failing_runs_agree(bulk: list[dict], scalar: list[dict]) -> None:
    """The engines' failure records name the same (graph6, check, alpha)
    instances on every check but the reconstructions, whose correction
    sums the engines add in different orders; a reconstruction instance
    that both fail carries the same direct sum, bit for bit."""
    def split(failures):
        other, direct = [], {}
        for f in failures:
            key = (f["graph6"], f["check"], f["alpha"])
            if "_reconstruct_" in f["check"]:
                direct[key] = f["expected"].hex()
            else:
                other.append(key)
        return sorted(other, key=repr), direct

    bulk_other, bulk_direct = split(bulk)
    scalar_other, scalar_direct = split(scalar)
    assert bulk_other == scalar_other
    shared = bulk_direct.keys() & scalar_direct.keys()
    assert shared
    assert {key: bulk_direct[key] for key in shared} == {
        key: scalar_direct[key] for key in shared
    }


class TestEnumerate:
    @pytest.mark.parametrize("n,count", sorted(LABELED_CONNECTED.items()))
    def test_labeled_counts(self, n, count):
        assert sum(1 for _ in enumerate_connected(n)) == count

    @pytest.mark.parametrize("n,count", sorted(CLASSES_CONNECTED.items()))
    def test_class_counts(self, n, count):
        assert sum(1 for _ in enumerate_connected(n, dedup=True)) == count

    def test_n3_labeled_graphs(self):
        graphs = list(enumerate_connected(3))
        assert len(graphs) == 4  # three labeled paths and one triangle
        assert sum(1 for g in graphs if g.m == 3) == 1

    def test_every_yield_is_connected_and_unique(self):
        seen = set()
        for g in enumerate_connected(4):
            key = g.adjacency
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("n", [0, 8, 9])
    def test_size_limits(self, n):
        with pytest.raises(NTooLarge):
            next(enumerate_connected(n))

    def test_n9_rejected_even_with_override(self):
        with pytest.raises(NTooLarge):
            next(enumerate_connected(9, allow_n8=True))


class TestCanonicalForm:
    def test_idempotent(self):
        for g in enumerate_connected(5, dedup=True):
            c = canonical_form(g)
            assert canonical_form(c).adjacency == c.adjacency

    def test_relabeling_invariant(self):
        # the same path labeled two ways
        a = path_graph(4)
        b = parse_graph6(encode_graph6(a))
        shuffled = Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)])
        assert canonical_form(a).adjacency == canonical_form(shuffled).adjacency
        assert canonical_form(b).adjacency == canonical_form(a).adjacency

    def test_dedup_representatives_are_canonical(self):
        for g in islice(enumerate_connected(6, dedup=True), 30):
            assert canonical_form(g).adjacency == g.adjacency

    def test_mask_graph6_matches_encoder(self):
        g = load_fixture("figure2.edges")
        mask = mask_of_edges(g.n, g.edges())
        assert graph6_of_mask(g.n, mask) == encode_graph6(g)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_mask_codec_round_trip(self, n):
        # The integer codec of one mask and the batch decode of _bulk agree.
        # Slot 0, the pair (0, 1), is the most significant bit of a mask.
        npairs = _bulk.pair_count(n)
        rng = np.random.default_rng(n)
        masks = np.unique(np.r_[0, (1 << npairs) - 1, rng.integers(0, 1 << npairs, 500)])
        bits = _bulk._bits_of(masks, npairs)
        for mask, row in zip(masks.tolist(), bits):
            edges = [pair for pair, bit in zip(_g6_pairs(n), row) if bit]
            assert edges_of_mask(n, mask) == edges
            # The codec of one mask inverts the batch decode.
            assert mask_of_edges(n, edges) == mask
            assert mask_of_edges(n, [(j, i) for i, j in reversed(edges)]) == mask
        if n > 1:
            assert edges_of_mask(n, 1 << (npairs - 1)) == [(0, 1)]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_orbit_keys_are_every_relabeling(self, n):
        self._check_orbits(n, range(1 << _bulk.pair_count(n)))

    @pytest.mark.parametrize("n", [6, 7])
    def test_orbit_keys_on_seeded_masks(self, n):
        rng = np.random.default_rng(n)
        self._check_orbits(n, rng.integers(0, 1 << _bulk.pair_count(n), 200).tolist())

    @staticmethod
    def _check_orbits(n, masks):
        # The keys are the masks of the n! relabelings, as often as each
        # one is reached, however the table orders them.
        perms = list(itertools.permutations(range(n)))
        for mask in masks:
            edges = edges_of_mask(n, mask)
            relabeled = [mask_of_edges(n, [(p[i], p[j]) for i, j in edges]) for p in perms]
            keys = enumeration._orbit_keys(n, mask)
            assert keys.dtype == np.int64
            assert sorted(keys.tolist()) == sorted(relabeled)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_graph_of_mask_matches_both_decoders(self, n):
        # Every mask up to n = 6, 500 seeded ones at n = 7 and 8.
        total = 1 << _bulk.pair_count(n)
        rng = random.Random(n)
        masks = range(total) if n <= 6 else [rng.randrange(total) for _ in range(500)]
        for mask in masks:
            g = graph_of_mask(n, mask)
            assert g == parse_graph6(graph6_of_mask(n, mask))
            assert g == Graph.from_edges(n, edges_of_mask(n, mask))
            assert g == Graph(g.n, g.m, g.adjacency)  # the checked constructor accepts it

    def test_mask_known_answers(self):
        # K4 sets all six slots: bitstream 111111 is data character 63 + 63.
        assert mask_of_edges(4, complete_graph(4).edges()) == 0b111111
        assert graph6_of_mask(4, 0b111111) == encode_graph6(complete_graph(4)) == "C~"
        assert parse_graph6("C~").adjacency == complete_graph(4).adjacency
        # P3 as 0-1-2: slots (0,1) and (1,2), bitstream 101 padded to 101000.
        assert mask_of_edges(3, [(1, 0), (2, 1)]) == 0b101
        assert graph6_of_mask(3, 0b101) == "Bg"
        assert graph6_of_mask(1, 0) == "@"
        assert edges_of_mask(1, 0) == []

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 11])
    def test_parse_graph6_ignores_padding_bits(self, n):
        # The last data character carries -npairs % 6 padding bits.
        npairs = _bulk.pair_count(n)
        pad = -npairs % 6
        assert pad
        mask = (1 << npairs) - 1
        text = graph6_of_mask(n, mask)
        padded = text[:-1] + chr(63 + (ord(text[-1]) - 63 | (1 << pad) - 1))
        assert padded != text
        assert parse_graph6(padded).adjacency == complete_graph(n).adjacency
        assert encode_graph6(parse_graph6(padded)) == text


# n = 1 .. 7: graphs on n vertices, connected or not, connected classes and
# labeled connected graphs.
A000088 = (1, 2, 4, 11, 34, 156, 1044)
A001349 = (1, 1, 2, 6, 21, 112, 853)
A001187 = (1, 1, 4, 38, 728, 26_704, 1_866_256)


@functools.lru_cache(maxsize=None)
def _pair_bits(n: int) -> np.ndarray:
    """[u, v, p]: the mask bit of pair uv under the p-th permutation of range(n)."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64).T
    i = np.minimum(perms[:, None], perms[None, :])
    j = np.maximum(perms[:, None], perms[None, :])
    return np.int64(1) << (_bulk.pair_count(n) - 1 - j * (j - 1) // 2 - i)


def _relabelings(n: int, mask: int) -> np.ndarray:
    """The masks of every relabeling of a mask, one per permutation of
    range(n), from its edges: no orbit key table is read."""
    bits = _pair_bits(n)
    keys = np.zeros(bits.shape[2], dtype=np.int64)
    for u, v in edges_of_mask(n, mask):
        keys |= bits[u, v]
    return keys


class TestOrderlyGeneration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_representatives_are_the_first_unseen_connected_masks(self, n):
        # Brute force: every connected mask in ascending order, each one
        # whose orbit has not come up yet being its representative.
        seen, want = set(), []
        for mask in _bulk.connected_masks(n, 0, 1 << _bulk.pair_count(n)).tolist():
            if mask not in seen:
                seen.update(_relabelings(n, mask).tolist())
                want.append(mask)
        got = [mask_of_edges(n, g.edges()) for g in enumerate_connected(n, dedup=True)]
        assert got == want

    @pytest.mark.parametrize("k", range(1, 8))
    def test_lower_levels_are_every_graph_once_and_orbit_minimal(self, k):
        masks = enumeration._canonical_graphs(k)
        assert masks.dtype == np.int64 and len(masks) == A000088[k - 1]
        assert np.all(np.diff(masks) > 0)
        for mask in masks.tolist():
            assert _relabelings(k, mask).min() == mask

    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_weights_sum_to_the_labeled_count(self, n):
        # n!/|Aut| labeled graphs per class; |Aut| is how often the orbit
        # keys reach the mask itself.
        total = 0
        for g in enumerate_connected(n, dedup=True):
            mask = mask_of_edges(n, g.edges())
            keys = enumeration._orbit_keys(n, mask)
            total += len(keys) // int(np.count_nonzero(keys == mask))
        assert total == A001187[n - 1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_rows_are_their_masks_rows(self, n):
        masks, rows = enumeration._connected_classes(n)
        want = _bulk._adj_of(_bulk._bits_of(masks, _bulk.pair_count(n)), n)
        assert masks.dtype == np.int64 and len(masks) == A001349[n - 1]
        assert rows.dtype == want.dtype and rows.flags.c_contiguous
        assert np.array_equal(rows, want)

    def test_one_and_two_vertices(self):
        assert enumeration._canonical_graphs(0).tolist() == [0]
        assert enumeration._canonical_graphs(1).tolist() == [0]
        assert enumeration._canonical_graphs(2).tolist() == [0, 1]
        (k1,) = enumerate_connected(1, dedup=True)
        (k2,) = enumerate_connected(2, dedup=True)
        assert (k1.n, k1.m, k2.n, k2.m) == (1, 0, 2, 1)
        assert enumeration._orbit_keys(1, 0).tolist() == [0]
        assert enumeration._orbit_keys(2, 1).tolist() == [1, 1]


class TestNeighborRows:
    """The bulk kernels hold a batch of graphs vertex-major, as (n, graphs)
    neighbor bitmasks: bit u of rows[v, g] is the edge uv of graph g."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_and_connectivity_on_every_labeled_graph(self, n):
        npairs = _bulk.pair_count(n)
        masks = np.arange(1 << npairs, dtype=np.int64)
        rows = _bulk._adj_of(_bulk._bits_of(masks, npairs), n)
        connected = _bulk._connected(rows)
        for mask, row, got in zip(masks.tolist(), rows.T.tolist(), connected.tolist()):
            g = Graph.from_edges(n, edges_of_mask(n, mask))
            assert row == [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
            assert got == is_connected(g)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_connected_runs_until_no_graph_of_the_batch_grows(self, n):
        # The path labeled 0, n - 2, n - 3, ..., 1, n - 1 gains one vertex a
        # pass, so it takes all n - 1, the most of any path labeling at
        # n <= 7.  Around it sit K_n and the star at 0, which every pass
        # after the first leaves as it is, and the path without its last
        # edge, which never reaches n - 1.
        order = [0, *range(n - 2, 0, -1), n - 1]
        path = list(zip(order, order[1:]))
        batch = [[(i, j) for j in range(n) for i in range(j)], path,
                 [(0, v) for v in range(1, n)], path[:-1]]
        masks = np.array([mask_of_edges(n, edges) for edges in batch])
        rows = _bulk._adj_of(_bulk._bits_of(masks, _bulk.pair_count(n)), n)
        assert _bulk._connected(rows).tolist() == [True, True, True, False]

    @pytest.mark.parametrize(
        "n,dtype",
        [(8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32), (33, np.uint64),
         (64, np.uint64)],
    )
    def test_row_width_follows_n(self, n, dtype):
        # A path, and the same path cut between n // 2 - 1 and n // 2.
        bits = np.zeros((2, _bulk.pair_count(n)), dtype=np.uint8)
        for v in range(n - 1):
            bits[:, (v + 1) * v // 2 + v] = 1
        bits[1, (n // 2) * (n // 2 - 1) // 2 + n // 2 - 1] = 0
        rows = _bulk._adj_of(bits, n)
        assert rows.dtype == dtype
        assert _bulk._connected(rows).tolist() == [True, False]
        assert _bulk._degrees(rows)[:, 0].tolist() == [1] + [2] * (n - 2) + [1]

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 33, 64])
    def test_neighbor_sums_use_every_row_bit(self, n):
        # On a path every interior vertex has neighborhood degree 4, the
        # ends 2 and their neighbors 3, up to the top bit of a 64-bit row.
        bits = np.zeros((1, _bulk.pair_count(n)), dtype=np.uint8)
        for v in range(n - 1):
            bits[:, (v + 1) * v // 2 + v] = 1
        rows = _bulk._adj_of(bits, n)
        nbr = _bulk._over_bits(np.add, rows, _bulk._degrees(rows))
        assert nbr[:, 0].tolist() == [2, 3] + [4] * (n - 4) + [3, 2]

    def test_rows_wider_than_64_bits_are_refused(self):
        with pytest.raises(NTooLarge):
            _bulk._adj_of(np.zeros((1, _bulk.pair_count(65)), dtype=np.uint8), 65)
        with pytest.raises(NTooLarge):
            _bulk.tree_identity_sweep(65)

    @staticmethod
    def _assert_decodes(n, lo, hi):
        npairs = _bulk.pair_count(n)
        masks = np.arange(lo, hi, dtype=np.int64)
        want = _bulk._adj_of(_bulk._bits_of(masks, npairs), n)
        got_masks, got = _bulk._decode(n, lo, hi)
        np.testing.assert_array_equal(got_masks, masks)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype == _bulk._row_dtype(n)
        assert got.shape == (n, hi - lo) and got.flags.c_contiguous

    @pytest.mark.parametrize("n", range(1, 7))
    def test_decode_of_the_whole_space(self, n):
        self._assert_decodes(n, 0, 1 << _bulk.pair_count(n))

    @pytest.mark.parametrize("n", [7, 8])
    def test_decode_of_chunk_ranges(self, n):
        # The first, a middle and the last range; at n = 8 the last ends at K8.
        total = 1 << _bulk.pair_count(n)
        step = 1 << _bulk.CHUNK_BITS
        for lo in (0, total // 2 + 3 * step, total - step):
            self._assert_decodes(n, lo, lo + step)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_decode_of_unaligned_ranges(self, n):
        # Ranges of up to 4096 masks from seeded starts, as sample_connected
        # takes them, then one mask, an empty range and the last mask.
        total = 1 << _bulk.pair_count(n)
        rng = np.random.default_rng(100 + n)
        for start in rng.integers(0, total, 6).tolist():
            self._assert_decodes(n, start, min(start + 4096, total))
            self._assert_decodes(n, start, start + 1)
            self._assert_decodes(n, start, start)
        self._assert_decodes(n, total - 1, total)

    @pytest.mark.parametrize(
        "lo,hi", [(64, 128), (63, 65), (0, 65), (-1, 3), (5, 4), (1 << 40, 1 << 40)]
    )
    def test_ranges_outside_the_mask_space_are_refused(self, lo, hi):
        # n = 4 has 2**6 masks; a mask past them used to alias its low bits.
        with pytest.raises(ValueError, match="mask range"):
            _bulk.connected_masks(4, lo, hi)
        with pytest.raises(ValueError, match="mask range"):
            _bulk.sweep_chunk(4, lo, hi, (2.0,), 1e-9)

    def test_connected_masks_of_n7_holds_no_slot_bits(self):
        # The decode doubles neighbor rows, 7 bytes a mask; the (masks, 64)
        # unpacked slot bits of every n = 7 mask peaked at 212 MB.
        tracemalloc.start()
        try:
            masks = _bulk.connected_masks(7, 0, 1 << 21)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert masks.size == 1_866_256
        assert peak < 80_000_000

    def test_kernel_allocates_no_dense_adjacency(self):
        # One dense (graphs, n, n) int64 copy of a full n = 7 range is
        # 12.8 MB.  With numpy 2.4 the kernel peaked at 65 MB on dense
        # tensors and at 26 MB on rows.
        lo = (1 << 21) - (1 << 15)
        tracemalloc.start()
        try:
            _bulk.sweep_chunk(7, lo, lo + (1 << 15), (-1.0, 0.5, 2.0, 3.0), 1e-9)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40_000_000

    def test_kernel_working_set_is_graph_length(self):
        # No (n, graphs) float or index array: one n = 7 range of 27,062
        # connected graphs peaked at 607 bytes a graph with them and at 256
        # with the per-row gathers.
        lo = 40 << 15
        tracemalloc.start()
        try:
            tally = _bulk.sweep_chunk(7, lo, lo + (1 << 15), (-1.0, 0.5, 2.0, 3.0), 1e-9)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tally.graphs == 27_062
        assert peak / tally.graphs < 280

    @pytest.mark.parametrize("lo", [0x5A5A000, (1 << 28) - 1024])
    def test_bulk_matches_scalar_at_n8(self, lo):
        # n = 8 fills every bit of a uint8 row; the top range ends at K8.
        alphas = (-1.0, 0.5, 2.0, 3.0)
        bulk = _bulk.sweep_chunk(8, lo, lo + 1024, alphas, 1e-9)
        scalar = enumeration._scalar_chunk(8, lo, lo + 1024, alphas, 1e-9)
        assert bulk.graphs == scalar.graphs > 900
        assert bulk.checks == scalar.checks
        assert bulk.skips == scalar.skips
        assert bulk.failures == scalar.failures == []

    @pytest.mark.parametrize("lo,hi", [
        (0x5A5A000, 0x5A5A400), ((1 << 28) - 1024, 1 << 28), (0x5A5A005, 0x5A5A006),
    ])
    def test_bulk_matches_scalar_at_n8_at_zero_tolerance(self, monkeypatch, lo, hi):
        # Every inexact comparison fails at tolerance 1e-300, so the two
        # engines agree only if they add each direct sum in the same order,
        # at n = 8 too, where numpy would add one graph's terms pairwise.
        monkeypatch.setattr(_bulk, "FAILURE_CAP", 10**6)
        alphas = (-1.0, 0.5, 2.0, 3.0)
        bulk = _bulk.sweep_chunk(8, lo, hi, alphas, 1e-300)
        scalar = enumeration._scalar_chunk(8, lo, hi, alphas, 1e-300)
        assert bulk.checks == scalar.checks
        assert bulk.failure_count == len(bulk.failures)
        assert scalar.failure_count == len(scalar.failures)
        assert_failing_runs_agree(bulk.failures, scalar.failures)

    def test_sum_dtype_holds_x3_on_k8(self):
        # x3 = A(Ad) peaks on K_n at (n - 1)**3 per vertex, and its sum over
        # the vertices at n (n - 1)**3.
        n = 8
        k8 = np.array([[0xFF & ~(1 << v)] for v in range(n)], dtype=np.uint8)
        deg = _bulk._degrees(k8)
        assert deg.dtype == _bulk._sum_dtype(n) == np.int16
        x3 = _bulk._over_bits(np.add, k8, _bulk._over_bits(np.add, k8, deg))
        assert x3.dtype == np.int16
        assert x3[:, 0].tolist() == [343] * n
        assert _bulk._vertex_sum(x3).tolist() == [n * 343]

    @pytest.mark.parametrize("n", [*range(1, 9), 9, 16, 17, 64])
    def test_vertex_fsum_adds_left_to_right(self, n):
        # The scalar engine adds a graph's terms vertex by vertex, so the
        # bulk vertex sum must do the same bit for bit, on one graph too.
        # Each case is (n, graphs) in C order, one graph, two graphs, and
        # (n, graphs) in Fortran order.
        rng = np.random.default_rng(n)
        for graphs, order in ((5000, "C"), (1, "C"), (2, "C"), (5000, "F")):
            values = rng.standard_normal((n, graphs)) * 10.0 ** rng.integers(-6, 7, (n, graphs))
            values = np.asarray(values, order=order)
            want = []
            for g in range(graphs):
                total = 0.0
                for v in range(n):
                    total += float(values[v, g])
                want.append(total)
            got = _bulk._vertex_fsum(values)
            np.testing.assert_array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

    @pytest.mark.parametrize("n", [*range(1, 9), 9, 16, 17, 64])
    def test_gather_fold_adds_left_to_right(self, n):
        # The reconstructions gather each vertex row's terms from a table
        # and fold them into one sum per graph, so the fold must give the
        # scalar engine's left-to-right bits too, with one table row per
        # graph (the correction sums) and with none (the direct sums).
        rng = np.random.default_rng(n)
        table = rng.standard_normal((40, 50)) * 10.0 ** rng.integers(-6, 7, (40, 50))
        for graphs, order in ((5000, "C"), (1, "C"), (2, "C"), (5000, "F")):
            row = rng.integers(0, 40, graphs)
            x = np.asarray(rng.integers(0, 50, (n, graphs)), dtype=np.int16, order=order)
            for got, entry in (
                (_bulk._line_excess_sum(table, row, x), lambda g, v: table[row[g], x[v, g]]),
                (_bulk._gather_fsum(table[0], 0, x), lambda g, v: table[0, x[v, g]]),
            ):
                want = []
                for g in range(graphs):
                    total = 0.0
                    for v in range(n):
                        total += float(entry(g, v))
                    want.append(total)
                np.testing.assert_array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

    @pytest.mark.parametrize("lo,failures", [(0, 18_937), ((1 << 28) - (1 << 15), 67_928)])
    def test_n8_failure_count_at_zero_tolerance(self, lo, failures):
        # At tolerance 1e-300 every inexact float comparison fails, so the
        # count moves with any change in float summation order.
        tally = _bulk.sweep_chunk(8, lo, lo + (1 << 15), (-1.0, 0.5, 2.0, 3.0), 1e-300)
        assert tally.failure_count == failures
        assert len(tally.failures) == _bulk.FAILURE_CAP

    @pytest.mark.parametrize("tolerance", [1e-9, 1e-300])
    def test_sweep_rows_checks_any_batch_of_rows(self, monkeypatch, tolerance):
        # The connected rows of two n = 7 ranges apart, concatenated in
        # range order and with their columns reversed, give the two ranges'
        # sweep_chunk tallies merged.  A merge keeps records range by range
        # and sweep_rows check by check over the batch, so in range order
        # each (check, alpha) keeps the same records in the same order.
        monkeypatch.setattr(_bulk, "FAILURE_CAP", 10**6)
        alphas = (-1.0, 0.5, 2.0, 3.0)
        merged, masks, rows = _bulk.Tally(), [], []
        for lo in (1 << 20, (1 << 21) - 4096):
            merged.merge(_bulk.sweep_chunk(7, lo, lo + 4096, alphas, tolerance))
            range_masks, range_rows = _bulk._decode(7, lo, lo + 4096)
            keep = _bulk._connected(range_rows)
            masks.append(range_masks[keep])
            rows.append(range_rows.compress(keep, axis=1))
        masks, rows = np.concatenate(masks), np.concatenate(rows, axis=1)
        in_order = _bulk.sweep_rows(7, masks, rows, alphas, tolerance)
        backwards = _bulk.sweep_rows(
            7, masks[::-1].copy(), np.ascontiguousarray(rows[:, ::-1]), alphas, tolerance
        )
        assert (merged.failure_count > 0) == (tolerance == 1e-300)
        for tally in (in_order, backwards):
            assert tally.graphs == merged.graphs == masks.size > 5000
            assert tally.checks == merged.checks
            assert tally.skips == merged.skips
            assert tally.failure_count == merged.failure_count == len(tally.failures)
            assert sorted(map(repr, tally.failures)) == sorted(map(repr, merged.failures))

        def by_check(records):
            return sorted(records, key=lambda f: (f["check"], repr(f["alpha"])))

        assert by_check(in_order.failures) == by_check(merged.failures)

    def test_kernel_runs_without_exponents(self):
        # With no exponent the per-exponent checks count nothing, and the
        # others count as in the scalar engine.
        bulk = _bulk.sweep_chunk(5, 0, 1 << 10, (), 1e-9)
        scalar = enumeration._scalar_chunk(5, 0, 1 << 10, (), 1e-9)
        assert bulk.graphs == scalar.graphs == 728
        assert bulk.checks == scalar.checks and bulk.checks["spectral_chain"] == 728
        assert bulk.skips == scalar.skips
        assert bulk.failure_count == scalar.failure_count == 0


class TestFailureRecords:
    """A tally keeps the first FAILURE_CAP records and counts the rest, so
    only kept records are formatted."""

    def test_bulk_formats_kept_records_only(self, monkeypatch):
        calls = []
        encode = _bulk.graph6_of_mask
        monkeypatch.setattr(
            _bulk, "graph6_of_mask", lambda n, mask: calls.append(mask) or encode(n, mask)
        )
        lo = 40 << 15
        tally = _bulk.sweep_chunk(7, lo, lo + (1 << 15), (-1.0, 0.5, 2.0, 3.0), 1e-300)
        assert tally.failure_count == 64_476
        assert len(calls) == len(tally.failures) == _bulk.FAILURE_CAP

    def test_scalar_formats_kept_records_only(self, monkeypatch):
        calls = []
        encode = enumeration.encode_graph6
        monkeypatch.setattr(enumeration, "encode_graph6", lambda g: calls.append(g) or encode(g))
        tally = enumeration._scalar_chunk(5, 0, 1 << 10, (-1.0, 0.5, 2.0, 3.0), 1e-300)
        assert tally.failure_count == 1988
        assert len(calls) == len(tally.failures) == _bulk.FAILURE_CAP


def _refaults_of_a_freed_block() -> int:
    """Minor faults of a 4 MB ``np.ones`` made right after an equal one is freed."""
    block = np.ones(1 << 19)
    del block
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    block = np.ones(1 << 19)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


class TestVerifyAll:
    def test_small_sweep_passes(self):
        report = verify_all(4, [2.0, 0.5])
        assert report.failure_count == 0
        assert report.failures == ()
        assert report.graphs_checked == 44
        assert report.graphs_checked_by_n == {1: 1, 2: 1, 3: 4, 4: 38}
        assert report.checks_run["m1_identity"] == 44
        assert report.checks_run["coefficient_sign_grid"] > 0

    def test_congruence_all_skipped_at_n3(self):
        # no 3-vertex graph satisfies the congruence-bound preconditions
        report = verify_all(3, [0.5])
        assert report.failure_count == 0
        assert report.checks_run["nm_bound_congruence"] == 0
        skipped = sum(report.skips["nm_bound_congruence"].values())
        assert skipped == report.graphs_checked

    def test_single_vertex_sweep(self):
        report = verify_all(1, [2.0])
        assert report.graphs_checked == 1
        assert report.failure_count == 0
        assert report.checks_run["nm_reconstruct_secant"] == 0
        assert report.skips["spectral_chain"] == {"no_edges": 1}

    def test_engines_agree(self):
        alphas = [-1.0, 0.5, 2.0, 3.0]
        bulk = verify_all(5, alphas, engine="bulk")
        scalar = verify_all(5, alphas, engine="scalar")
        assert bulk.graphs_checked_by_n == scalar.graphs_checked_by_n
        assert bulk.checks_run == scalar.checks_run
        assert bulk.skips == scalar.skips
        assert bulk.failures == scalar.failures == ()

    def test_engines_agree_at_zero_tolerance(self, monkeypatch):
        monkeypatch.setattr(_bulk, "FAILURE_CAP", 10**6)
        alphas = [-1.0, 0.5, 2.0, 3.0]
        bulk = verify_all(5, alphas, tolerance=1e-300, engine="bulk")
        scalar = verify_all(5, alphas, tolerance=1e-300, engine="scalar")
        assert bulk.checks_run == scalar.checks_run
        assert bulk.failure_count == len(bulk.failures)
        assert scalar.failure_count == len(scalar.failures)
        assert_failing_runs_agree(bulk.failures, scalar.failures)

    def test_scalar_engine_sums_nm_once_per_bound(self, monkeypatch):
        # The NM identity checks read NM_a from the secant bound's report,
        # so the direct sum runs only inside the three bound ops.
        real, calls = indices.nm_direct, []

        def counted(p, alpha):
            calls.append(alpha)
            return real(p, alpha)

        for name, module in list(sys.modules.items()):
            if name.startswith("nbzagreb") and vars(module).get("nm_direct") is real:
                monkeypatch.setattr(module, "nm_direct", counted)
        report = verify_all(5, (-1, 0.5, 2, 3), engine="scalar")
        bound_checks = sum(report.checks_run[f"nm_bound_{s}"] for s in bounds.BOUND_SOURCES)
        assert len(calls) == bound_checks == 6320

    # At tolerance 1e-300 the n <= 5 sweeps fail, so the pool's failure
    # records are compared too: pool workers keep their freed heap, and a
    # kernel array read before it is written would see an earlier range's
    # bytes.
    @pytest.mark.parametrize("engine,n_max,tolerance", [
        pytest.param("bulk", 4, bounds.DEFAULT_TOLERANCE, id="bulk"),
        pytest.param("scalar", 4, bounds.DEFAULT_TOLERANCE, id="scalar"),
        pytest.param("bulk", 5, 1e-300, id="bulk-n5-failing"),
        pytest.param("scalar", 5, 1e-300, id="scalar-n5-failing"),
    ])
    def test_parallel_matches_sequential(self, engine, n_max, tolerance):
        seq = verify_all(n_max, [2.0, 0.5], jobs=1, engine=engine, tolerance=tolerance)
        par = verify_all(n_max, [2.0, 0.5], jobs=2, engine=engine, tolerance=tolerance)
        assert seq.graphs_checked == par.graphs_checked
        assert seq.checks_run == par.checks_run
        assert seq.skips == par.skips
        assert seq.failures == par.failures
        assert seq.failure_count == par.failure_count
        assert (seq.failure_count > 0) == (tolerance < bounds.DEFAULT_TOLERANCE)

    def test_scalar_engine_dispatches_chunks_to_the_pool(self, monkeypatch):
        chunks = []

        class RecordingPool:
            """Runs tasks in-process and records the (n, lo, hi) of each."""

            def __init__(self, max_workers, initializer=None):
                assert max_workers == 2
                assert initializer is enumeration._keep_freed_heap

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                chunks.append(args[:3])
                future = Future()
                future.set_result(fn(*args))
                return future

            def map(self, fn, *iterables):
                return [self.submit(fn, *args).result() for args in zip(*iterables)]

        sequential = verify_all(4, [2.0, 0.5], engine="scalar").to_dict()
        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        pooled = verify_all(4, [2.0, 0.5], engine="scalar", jobs=2).to_dict()
        bits = enumeration._TASK_BITS["scalar"]
        assert chunks == [
            (n, lo, hi) for n in range(1, 5) for lo, hi in _bulk.iter_mask_ranges(n, bits)
        ]
        assert pooled.pop("jobs") == 2
        for doc in (sequential, pooled):
            doc.pop("elapsed")
        sequential.pop("jobs")
        assert pooled == sequential

    def test_scalar_engine_splits_n6_into_small_tasks(self, monkeypatch):
        # One 2^15-mask task would hold 26,704 of the 27,476 graphs at
        # n <= 6 and leave every other worker idle while it runs.
        tasks = []

        def record(n, lo, hi, alphas, tolerance):
            tasks.append((n, lo, hi))
            return _bulk.Tally()

        monkeypatch.setitem(enumeration._ENGINES, "scalar", record)
        verify_all(6, [2.0], engine="scalar")
        n6 = [(lo, hi) for n, lo, hi in tasks if n == 6]
        assert n6 == [(lo, lo + 1024) for lo in range(0, 1 << 15, 1024)]
        assert max(_bulk.connected_masks(6, lo, hi).size for lo, hi in n6) == 960

    def test_scalar_report_is_the_same_at_any_task_size_and_jobs(self, monkeypatch):
        # Tasks of 16 masks split n = 4 and n = 5 into 4 and 64 ranges; the
        # pooled report merges them back into the one-task-per-n report.
        def doc(report):
            d = report.to_dict()
            d.pop("elapsed")
            return d

        alphas = [-1.0, 0.5, 2.0]
        whole = doc(verify_all(5, alphas, engine="scalar", tolerance=1e-300))
        assert whole.pop("jobs") == 1 and whole["failure_count"] > _bulk.FAILURE_CAP
        monkeypatch.setitem(enumeration._TASK_BITS, "scalar", 4)
        for jobs in (1, 2):
            split = doc(verify_all(5, alphas, engine="scalar", tolerance=1e-300, jobs=jobs))
            assert split.pop("jobs") == jobs
            assert split == whole

    @pytest.mark.parametrize("n_max,cpus,workers", [
        (2, 4, [2]), (2, None, []), (2, 1, []), (1, 4, []), (4, 3, [3]),
    ])
    def test_pool_starts_at_most_one_worker_per_task_and_cpu(
        self, monkeypatch, n_max, cpus, workers
    ):
        # A process pool forks all of its workers at the first task, so
        # jobs is a ceiling: n <= 2 is two ranges and n = 1 one, and a
        # single worker runs in-process without a pool.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = verify_all(n_max, [2.0], jobs=10**6)
        assert sizes == workers
        assert report.jobs == 10**6
        assert report.graphs_checked == sum(LABELED_CONNECTED[n] for n in range(1, n_max + 1))

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's mallopt")
    def test_pool_workers_keep_freed_heap(self):
        # A spawned worker starts with glibc's default thresholds, under
        # which a freed 4 MB block goes back to the OS and its pages fault
        # in again (over 400 faults); a worker that keeps its heap reuses them.
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, context, initializer=enumeration._keep_freed_heap) as pool:
            assert pool.submit(_refaults_of_a_freed_block).result(timeout=120) < 64

    @pytest.mark.parametrize("libc", [
        pytest.param(None, id="no-libc"),
        pytest.param(object(), id="no-mallopt"),
    ])
    def test_worker_setup_leaves_the_defaults_where_it_cannot_set_them(
        self, monkeypatch, libc
    ):
        def load(name):
            if libc is None:
                raise OSError("no libc")
            return libc

        monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(ctypes, "CDLL", load)
        assert enumeration._keep_freed_heap() is None

    def test_skip_reasons_are_named(self):
        report = verify_all(4, [2.0])
        for reasons in report.skips.values():
            for reason, count in reasons.items():
                assert reason
                assert count > 0

    def test_skip_reasons_name_a_precondition(self):
        # The bulk engine names its reasons by keyword; each must be the
        # name of a PreconditionError subclass, or one of the three reasons
        # that no op decides.
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        known = {reason(sub()) for sub in subclasses(PreconditionError)}
        known |= {"n_lt_3", "no_edges", "not_regular"}
        report = verify_all(6, (-1, 0.5, 2, 3))
        used = {name for reasons in report.skips.values() for name in reasons}
        assert used <= known
        assert {"n_lt_3", "no_edges", "not_regular", "neighborhood_regular"} <= used

    def test_validation(self):
        with pytest.raises(NTooLarge):
            verify_all(9, [2.0])
        with pytest.raises(NTooLarge):
            verify_all(8, [2.0])  # needs allow_n8
        with pytest.raises(ForbiddenAlpha):
            verify_all(3, [1.0])
        with pytest.raises(ValueError):
            verify_all(3, [])
        with pytest.raises(ValueError):
            verify_all(3, [2.0], engine="quantum")
        with pytest.raises(ValueError):
            verify_all(3, [2.0], tolerance=0.0)
        # An infinite tolerance passes every comparison, NaN fails them all.
        for kwargs in ({"tolerance": math.inf}, {"tolerance": math.nan}, {"jobs": 0}, {"jobs": -5}):
            with pytest.raises(ValueError):
                verify_all(3, [2.0], **kwargs)

    @pytest.mark.parametrize("engine,count", [("bulk", 1921), ("scalar", 2040)])
    def test_failures_capped_once(self, engine, count):
        # A tolerance below one ulp fails every inexact instance; the report
        # keeps the first FAILURE_CAP records of the whole sweep.
        report = verify_all(5, (-1, 0.5, 2, 3), tolerance=1e-300, engine=engine)
        assert report.failure_count == count
        assert len(report.failures) == _bulk.FAILURE_CAP == 1000

    @pytest.mark.parametrize("engine", ["bulk", "scalar"])
    @pytest.mark.parametrize("where", ["checks", "skips", "failures"])
    def test_counts_under_a_stray_check_are_refused(self, monkeypatch, engine, where):
        # A count or skip under a name outside the table would vanish from
        # the report while that name's failure records stayed in it.
        chunk = enumeration._ENGINES[engine]

        def misspelled(*args):
            tally = chunk(*args)
            if where == "checks":
                tally.checks["nm_bound_secnt"] += 1
            elif where == "skips":
                tally.skip("nm_bound_secnt", "neighborhood_regular")
            else:
                tally.fail("Bw", "nm_bound_secnt", 1.0, 2.0, alpha=2.0)
            return tally

        monkeypatch.setitem(enumeration._ENGINES, engine, misspelled)
        with pytest.raises(RuntimeError, match="nm_bound_secnt"):
            verify_all(3, [2.0], engine=engine)

    def test_report_to_dict_shape(self):
        doc = verify_all(3, [2.0]).to_dict()
        assert doc["graphs_checked"] == 6
        assert set(doc) == {
            "n_range", "alpha_set", "engine", "jobs", "tolerance",
            "graphs_checked", "graphs_checked_by_n", "checks_run", "skips",
            "failure_count", "failures", "elapsed",
        }


class TestSkipReasons:
    @pytest.mark.parametrize(
        "exc,name",
        [
            (NeighborhoodRegular, "neighborhood_regular"),
            (UnoccupiedRemainderDegree, "unoccupied_remainder_degree"),
            (ZeroMinDist2Degree, "zero_min_dist2_degree"),
        ],
    )
    def test_reason_is_snake_case_class_name(self, exc, name):
        assert reason(exc("message")) == name

    def test_scalar_engine_records_the_op_precondition(self, monkeypatch):
        # The engine asks the op, so a precondition the op raises is the
        # skip reason when the check's row lists it; only n <= 2 is decided
        # before the op runs.  A reason outside the row stops the sweep.
        class Synthetic(PreconditionError):
            pass

        def raise_as(exc):
            def op(*args):
                raise exc("raised by the test")
            return op

        monkeypatch.setitem(enumeration._BOUND_OPS, "nm_bound_unit", raise_as(NeighborhoodRegular))
        report = verify_all(4, [2.0, 0.5], engine="scalar")
        assert report.skips["nm_bound_unit"] == {"n_lt_3": 4, "neighborhood_regular": 84}
        assert report.checks_run["nm_bound_unit"] == 0
        monkeypatch.setitem(enumeration._BOUND_OPS, "nm_bound_unit", raise_as(Synthetic))
        with pytest.raises(Synthetic):
            verify_all(4, [2.0, 0.5], engine="scalar")


RECONSTRUCT_CHECKS = (
    "nm_reconstruct_secant",
    "nm_reconstruct_unit",
    "nm2_reconstruct_secant",
    "nm2_reconstruct_unit",
)


NM2_CHECKS = ("nm2_reconstruct_secant", "nm2_reconstruct_unit")


class TestGate:
    def test_rows_count_under_their_first_failed_rung(self):
        # Row 1 fails two rungs and counts under the first only; the nm2
        # rows count once per exponent, dist2_identity once; rows 0 and 4
        # pass and run.
        tally = _bulk.Tally()
        first = np.array([True, False, False, True, True])
        second = np.array([True, False, True, False, True])
        passing = _bulk._gate(
            tally, NM2_CHECKS, 3, not_diameter_two=first, zero_min_dist2_degree=second,
            dist2_regular=np.ones(5, dtype=bool),
        )
        assert passing.tolist() == [True, False, False, False, True]
        for check in NM2_CHECKS:
            assert tally.skips[check] == {"not_diameter_two": 6, "zero_min_dist2_degree": 3}
            assert tally.checks[check] == 6
        assert _bulk._gate(tally, ("dist2_identity",), 3, not_diameter_two=first).sum() == 3
        assert tally.skips["dist2_identity"] == {"not_diameter_two": 2}
        assert tally.checks["dist2_identity"] == 3

    @pytest.mark.parametrize(
        "checks,rungs",
        [
            (("nm2_reconstruct_secnt",), ("not_diameter_two", "zero_min_dist2_degree",
                                         "dist2_regular")),
            (NM2_CHECKS, ("not_diameter_two", "zero_min_dist2_degree")),
            (NM2_CHECKS, ("not_diameter_two", "zero_min_dist2_degree", "dist2_regular",
                          "no_edges")),
            (NM2_CHECKS, ("zero_min_dist2_degree", "not_diameter_two", "dist2_regular")),
            (("spectral_chain", "spectral_regular"), ("no_edges",)),
            (("nm_bound_secant", "nm_bound_congruence"), ("n_lt_3", "neighborhood_regular")),
        ],
        ids=["unknown", "missing", "extra", "reordered", "two-rows-once", "two-rows-per-exponent"],
    )
    def test_rungs_other_than_the_row_are_refused(self, checks, rungs):
        tally = _bulk.Tally()
        with pytest.raises(ValueError):
            _bulk._gate(tally, checks, 1, **dict.fromkeys(rungs, np.ones(2, dtype=bool)))
        assert not tally.checks and tally.skips == {}


class TestScalarGate:
    def test_first_failed_rung_names_the_skip_and_the_op_is_not_called(self):
        tally = _bulk.Tally()
        calls = []
        got = enumeration._gate(
            tally, "spectral_regular", 3, lambda: calls.append(1),
            no_edges=False, not_regular=False,
        )
        assert got is None and calls == []
        assert tally.skips["spectral_regular"] == {"no_edges": 1}
        assert tally.checks["spectral_regular"] == 0

    def test_op_precondition_names_the_skip_once_the_rungs_pass(self):
        def op():
            raise NeighborhoodRegular("raised by the test")

        tally = _bulk.Tally()
        assert enumeration._gate(tally, "nm_bound_unit", 2, op, n_lt_3=True) is None
        assert tally.skips["nm_bound_unit"] == {"neighborhood_regular": 2}
        assert tally.checks["nm_bound_unit"] == 0

    def test_passing_gate_counts_reps_runs_and_returns_the_result(self):
        tally = _bulk.Tally()
        got = enumeration._gate(tally, "nm_bound_unit", 4, lambda: "value", n_lt_3=True)
        assert got == "value"
        assert enumeration._gate(tally, "dist2_identity", 4, not_diameter_two=True) is True
        assert tally.checks == {"nm_bound_unit": 4, "dist2_identity": 1}
        assert tally.skips == {}

    def test_other_exceptions_propagate(self):
        def op():
            raise ValueError("not a precondition")

        tally = _bulk.Tally()
        with pytest.raises(ValueError):
            enumeration._gate(tally, "nm_bound_unit", 1, op, n_lt_3=True)
        assert not tally.checks and tally.skips == {}

    @pytest.mark.parametrize(
        "check,exc,rung",
        # Another check's precondition, and one that the gate's rungs decide.
        [("congruence_classify", RemainderZero, "n_lt_3"),
         ("dist2_identity", NotDiameterTwo, "not_diameter_two")],
    )
    def test_op_reason_outside_the_rest_of_the_row_propagates(self, check, exc, rung):
        def op():
            raise exc("raised by the test")

        tally = _bulk.Tally()
        with pytest.raises(exc):
            enumeration._gate(tally, check, 1, op, **{rung: True})
        assert not tally.checks and tally.skips == {}

    @pytest.mark.parametrize(
        "check,rungs",
        [
            ("spectral_regulr", ("no_edges",)),
            ("nm_bound_unit", ("neighborhood_regular",)),
            ("spectral_regular", ("no_edges", "not_regular", "n_lt_3")),
            ("spectral_regular", ("not_regular", "no_edges")),
        ],
        ids=["unknown", "missing", "extra", "reordered"],
    )
    def test_rungs_other_than_a_leading_part_of_the_row_are_refused(
        self, monkeypatch, check, rungs
    ):
        # The engine checks a check's rungs at its first gate in the process.
        monkeypatch.setattr(enumeration, "_ROWS", {})
        tally = _bulk.Tally()
        with pytest.raises(ValueError):
            enumeration._gate(tally, check, 1, **dict.fromkeys(rungs, True))
        assert not tally.checks and tally.skips == {}

    def test_rungs_run_before_ops_in_the_engine(self, monkeypatch):
        # Of the 44 connected graphs with n <= 4, one has no edge and two
        # have n < 3; the ops behind those rungs must not see them.
        calls = dict.fromkeys(("spectral_radius", "congruence_classify"), 0)

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(enumeration, name, counting(name, getattr(enumeration, name)))
        report = verify_all(4, (2.0,), engine="scalar")
        assert report.graphs_checked == 44 and report.ok
        assert calls == {"spectral_radius": 43, "congruence_classify": 42}


def _grid_excess_sum(x, alpha, lo, rate, first, last):
    """The histogram-grid form of the per-vertex sum: bin the degrees, then
    weight each degree value's term by its count."""
    width = int(x.max()) + 1
    hist = np.bincount(x, minlength=width)
    vals = np.arange(width)
    pw = np.zeros(width)
    pw[1:] = vals[1:].astype(np.float64) ** alpha
    coef = pw - pw[lo] - (vals - lo) * rate
    inner = (vals >= first) & (vals <= last)
    terms = hist * coef * inner
    return float(terms.sum()), float(np.abs(terms).sum())


class TestBulkReconstructionKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda n: st.lists(
                st.integers(min_value=1, max_value=n * (n - 1)), min_size=n, max_size=n
            )
        ),
        st.one_of(
            st.sampled_from([-1.0, 0.5, 2.0, 3.0]),
            st.floats(min_value=-4.0, max_value=4.0).filter(
                lambda a: abs(a) > 1e-3 and abs(a - 1.0) > 1e-3
            ),
        ),
        st.sampled_from(["secant", "unit"]),
    )
    def test_per_vertex_sum_matches_histogram_grid(self, degrees, alpha, form):
        x = np.array(degrees, dtype=np.int64)
        lo, hi = int(x.min()), int(x.max())
        assume(lo < hi)
        pw = np.zeros(hi + 1)
        pw[1:] = np.arange(1, hi + 1, dtype=np.float64) ** alpha
        secant, unit, _slope, _step = _bulk._correction_tables(pw)
        if form == "secant":
            rate, first, last = (pw[hi] - pw[lo]) / (hi - lo), lo + 1, hi - 1
            table, row = secant, _bulk._pair_row(np.array([lo]), np.array([hi]))
        else:
            rate, first, last = pw[lo + 1] - pw[lo], lo + 2, hi
            table, row = unit, np.array([lo], dtype=np.int32)
        got = _bulk._line_excess_sum(table, row, x[:, None])[0]
        expected, scale = _grid_excess_sum(x, alpha, lo, rate, first, last)
        # Same terms summed in another order: relative to their total size.
        assert abs(got - expected) <= 1e-12 * scale

    @pytest.mark.parametrize("n", range(2, 9))
    def test_line_lookups_equal_the_expressions_they_replace(self, n):
        # The kernel reads each row's slope, unit step, unit top term and
        # congruence correction from the correction tables; over every
        # degree pair lo < hi of the sweep's width, and every lo < k < hi,
        # they must give the per-row expressions' bits.
        width = (n - 1) ** 2 + 1
        hi, lo = np.tril_indices(width, -1)
        lo, hi = lo.astype(np.int64), hi.astype(np.int64)
        triples = itertools.combinations(range(width), 3)
        k_lo, k, k_hi = np.array(list(triples), dtype=np.int64).reshape(-1, 3).T
        for alpha in (-1.0, 0.5, 2.0, 3.0):
            pw = _bulk._powers(width, alpha)
            secant, unit, slopes, steps = _bulk._correction_tables(pw)
            lo_pow = pw[lo]
            slope = (pw[hi] - lo_pow) / (hi - lo)
            step = pw[lo + 1] - lo_pow
            top = pw[hi] - lo_pow - (hi - lo) * step
            k_slope = (pw[k_hi] - pw[k_lo]) / (k_hi - k_lo)
            for got, want in (
                (slopes[_bulk._pair_row(lo, hi)], slope),
                (steps[lo], step),
                (unit[lo, hi], top),
                (secant[_bulk._pair_row(k_lo, k_hi), k], pw[k] - pw[k_lo] - (k - k_lo) * k_slope),
            ):
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_congruence_bound_reads_the_secant_table(self, monkeypatch):
        # The congruence bound keeps the secant entry at lo + r, so a fault
        # in the secant table reaches it: at n <= 5 every instance is tight
        # and fails, next to the secant reconstructions.
        real = _bulk._correction_tables

        def shifted(pw):
            secant, *rest = real(pw)
            secant[secant != 0] += 1e-3
            return secant, *rest

        monkeypatch.setattr(_bulk, "_correction_tables", shifted)
        monkeypatch.setattr(_bulk, "FAILURE_CAP", 10**6)
        report = verify_all(5, (-1, 0.5, 2, 3))
        failed = Counter(f["check"] for f in report.failures)
        assert failed.keys() == {
            "nm_reconstruct_secant", "nm2_reconstruct_secant", "nm_bound_congruence"
        }
        assert failed["nm_bound_congruence"] == report.checks_run["nm_bound_congruence"] == 480

    def test_reconstruction_checks_compare(self, monkeypatch):
        # Shifting the per-vertex sum by 1.0 must fail every reconstruction
        # instance and nothing else, so the checks cannot pass vacuously.
        real = _bulk._line_excess_sum
        monkeypatch.setattr(_bulk, "_line_excess_sum", lambda *args: real(*args) + 1.0)
        report = verify_all(5, (-1, 0.5, 2, 3))
        expected = sum(report.checks_run[c] for c in RECONSTRUCT_CHECKS)
        assert expected > 0
        assert report.failure_count == expected
        assert report.failures
        assert {f["check"] for f in report.failures} <= set(RECONSTRUCT_CHECKS)


@pytest.fixture(scope="module")
def graph_by_graph():
    """(n, mask, bulk tally, scalar tally) of every connected graph with
    n <= 5, then of 200 seeded connected graphs of n = 7, each run alone as
    a one-mask range through both chunk functions."""
    alphas = (-1.0, 0.5, 2.0, 3.0)
    cases = [
        (n, mask)
        for n in range(1, 6)
        for mask in _bulk.connected_masks(n, 0, 1 << (n * (n - 1) // 2)).tolist()
    ]
    rng = np.random.default_rng(7)
    cases += [(7, mask) for mask in rng.choice(_bulk.connected_masks(7, 0, 1 << 21), 200,
                                               replace=False).tolist()]
    assert len(cases) == sum(LABELED_CONNECTED.values()) + 200
    return [
        (n, mask, _bulk.sweep_chunk(n, mask, mask + 1, alphas, 1e-9),
         enumeration._scalar_chunk(n, mask, mask + 1, alphas, 1e-9))
        for n, mask in cases
    ]


class TestEngineParity:
    FIELDS = ("graph6", "check", "alpha", "expected", "got")

    def test_engines_agree_graph_by_graph(self, graph_by_graph):
        # Aggregate counts let two graphs that swap skip reasons cancel
        # out, so each graph runs alone.
        for n, mask, bulk, scalar in graph_by_graph:
            assert bulk.graphs == scalar.graphs == 1, (n, mask)
            # Counter equality treats a missing check as a zero count.
            assert bulk.checks == scalar.checks, (n, mask)
            assert bulk.skips == scalar.skips, (n, mask)

    def test_skip_reasons_are_rungs_of_the_checks_row(self, graph_by_graph):
        rungs = {claim.name: claim.rungs for claim in claims.CLAIMS}
        for n, mask, *tallies in graph_by_graph:
            for tally in tallies:
                for check, reasons in tally.skips.items():
                    assert reasons.keys() <= set(rungs[check]), (n, mask, check)

    def test_failing_run_under_fault(self, monkeypatch):
        # The reconstructions hold for any power table; the bounds and the
        # sign grid rest on convexity and fail, and both engines must
        # report the same records.
        _raise_power_of_three(monkeypatch)

        def records(engine):
            report = verify_all(5, (2.0,), engine=engine)
            assert report.failure_count == len(report.failures) == 243
            return sorted((tuple(f[k] for k in self.FIELDS) for f in report.failures), key=repr)

        assert records("bulk") == records("scalar")

    def test_classification_records_carry_the_histogram(self, monkeypatch):
        # Count one vertex too many wherever the bulk engine counts
        # neighborhood degrees in a range: the top-count pattern then fails,
        # and each record must carry its own graph's histogram as the
        # scalar engine words it.
        count = _bulk._count_between
        monkeypatch.setattr(_bulk, "_count_between", lambda *args: count(*args) + 1)
        report = verify_all(5, (2.0,))
        records = [f for f in report.failures if f["check"] == "congruence_classify"]
        assert records
        for f in records:
            assert f["got"] == degree_profile(parse_graph6(f["graph6"])).nbr_hist

    @pytest.mark.parametrize("shift,failures", [(1, 375), (-1, 78)])
    def test_spectral_failures_under_fault(self, monkeypatch, shift, failures):
        # Shift NM_2 wherever either engine reads it.  Under + 1 no
        # equality certificate and no regular-graph equality survives, and
        # strict instances with rho**2 * M1 - NM_2 < 1 fail the ratio link
        # too.  Under - 1 the ratio link holds everywhere but the second
        # link breaks where it was tight, on strict rows among others.
        # Both engines must fail the same instances; got is each engine's
        # own rho**2 (eigvalsh in bulk, Lanczos in scalar), so it agrees to
        # rounding only.
        _shift_nm2(monkeypatch, shift)

        def records(engine):
            report = verify_all(5, (2.0,), engine=engine)
            assert report.failure_count == len(report.failures) == failures
            return sorted(report.failures, key=lambda f: repr([f[k] for k in self.FIELDS[:4]]))

        bulk, scalar = records("bulk"), records("scalar")
        assert {f["check"] for f in bulk} == {"spectral_chain", "spectral_regular"}
        for b, s in zip(bulk, scalar):
            assert [b[k] for k in self.FIELDS[:4]] == [s[k] for k in self.FIELDS[:4]]
            if isinstance(b["got"], float):
                assert b["got"] == pytest.approx(s["got"], rel=1e-9)
            else:
                assert b["got"] == s["got"]

    def test_identity_records_under_fault(self, monkeypatch):
        # Vertex 0's neighborhood and distance-2 degrees, one less in both
        # engines: every graph misses sum nbr_deg == M1 and every
        # diameter-2 graph misses sum dist2_deg == 2m(n - 1) - M1.  The
        # two engines must give the same identity records, and each record
        # replays from its graph6 through the faulted profile.
        _lower_vertex_zero_sums(monkeypatch)
        monkeypatch.setattr(_bulk, "FAILURE_CAP", 10**6)
        identities = ("m1_identity", "dist2_identity")

        def records(engine):
            report = verify_all(5, (2.0,), engine=engine)
            assert report.failure_count == len(report.failures)
            found = [tuple(f[k] for k in self.FIELDS) for f in report.failures
                     if f["check"] in identities]
            return report, sorted(found)

        report, scalar = records("scalar")
        assert records("bulk")[1] == scalar
        counts = {check: sum(r[1] == check for r in scalar) for check in identities}
        assert counts == {"m1_identity": 772, "dist2_identity": 395}
        assert counts["dist2_identity"] == report.checks_run["dist2_identity"]
        for graph6, check, alpha, expected, got in scalar:
            assert alpha is None
            p = degree_profile(parse_graph6(graph6))
            faulted = enumeration.degree_profile(parse_graph6(graph6))
            if check == "m1_identity":
                assert expected == f"sum nbr_deg == {p.m1}"
                assert got == sum(faulted.nbr_deg) == p.m1 - 1
            else:
                total2 = 2 * p.m * (p.n - 1) - p.m1
                assert p.diameter == 2
                assert expected == f"sum dist2_deg == {total2}"
                assert got == sum(faulted.dist2_deg) == total2 - 1
            assert type(got) is int

    def test_scalar_classification_records_under_flipped_flags(self, monkeypatch):
        # Both classification flags flipped in the scalar engine: a graph
        # that is not bi-degree but has more than two neighborhood degrees
        # breaks the first record, and one that kept the top-count pattern
        # breaks the second.  Each record carries its histogram as a dict.
        # The bound ops classify through bounds and stay unfaulted.
        classify = enumeration.congruence_classify

        def flipped(p):
            cd = classify(p)
            return dataclasses.replace(
                cd,
                is_bi_degree_case=not cd.is_bi_degree_case,
                part2_constraints_hold=not cd.part2_constraints_hold,
            )

        monkeypatch.setattr(enumeration, "congruence_classify", flipped)
        report = verify_all(5, (2.0,), engine="scalar")
        bi = "bi-degree case implies support {min, max}"
        top = "top-count q forces empty interior above min+r and at most one vertex at min+r"
        want = []
        for n in range(3, 6):
            for g in enumerate_connected(n):
                p = degree_profile(g)
                try:
                    cd = bounds.congruence_classify(p)
                except PreconditionError:
                    continue
                hist, hi = p.nbr_hist, p.delta_max
                if not cd.is_bi_degree_case and len(hist) > 2:
                    want.append((encode_graph6(g), bi, hist))
                if cd.r >= 1 and hist.get(hi, 0) == cd.q and cd.part2_constraints_hold:
                    want.append((encode_graph6(g), top, hist))
        got = [(f["graph6"], f["expected"], f["got"]) for f in report.failures]
        assert {f["check"] for f in report.failures} == {"congruence_classify"}
        assert {f["alpha"] for f in report.failures} == {None}
        assert all(type(f["got"]) is dict for f in report.failures)
        assert report.failure_count == len(got) == 660
        assert sorted(got, key=repr) == sorted(want, key=repr)
        assert {expected for _, expected, _ in got} == {bi, top}


def _lower_vertex_zero_sums(monkeypatch):
    """Vertex 0's neighborhood and distance-2 degrees lowered by 1 wherever
    either engine builds them (the bulk engine's per-vertex sums over the
    neighbor rows, which also feed its A(Ad))."""
    over_bits, profile = _bulk._over_bits, enumeration.degree_profile

    def bulk_sums(ufunc, rows, values):
        out = over_bits(ufunc, rows, values)
        if ufunc is np.add:
            out[0] -= 1
        return out

    def scalar_profile(g):
        p = profile(g)
        nbr, d2 = p.nbr_deg, p.dist2_deg
        return dataclasses.replace(
            p, nbr_deg=(nbr[0] - 1, *nbr[1:]), dist2_deg=(d2[0] - 1, *d2[1:])
        )

    monkeypatch.setattr(_bulk, "_over_bits", bulk_sums)
    monkeypatch.setattr(enumeration, "degree_profile", scalar_profile)


def _bulk_report(n, alphas) -> dict:
    doc = verify_all(n, alphas).to_dict()
    del doc["elapsed"]
    return doc


class TestChainCertificates:
    """The bulk chain is settled by integer certificates; the eigensolve
    gives rho**2 to the rows they leave open."""

    def test_clean_sweep_takes_no_power_iteration_step(self, monkeypatch):
        # The function keeps its traced name; result[1] counts eigensolves.
        solves = []
        solve = _bulk.batched_power_iteration

        def counted(*args, **kwargs):
            result = solve(*args, **kwargs)
            solves.append(int(result[1].sum()))
            return result

        monkeypatch.setattr(_bulk, "batched_power_iteration", counted)
        assert verify_all(6, (-1, 0.5, 2, 3)).failure_count == 0
        assert solves and sum(solves) == 0

    @pytest.mark.parametrize("shift,failures", [(0, 0), (1, 375), (-1, 78)])
    def test_fallback_alone_gives_the_same_report(self, monkeypatch, shift, failures):
        # With the strict certificate settling no row, the eigensolve
        # decides every inexact row.  NM_2 + 1 breaks the first link on
        # some rows; NM_2 - 1 passes the strict certificate everywhere but
        # breaks the second link where it was tight, and those records
        # still need the eigensolve's rho**2.
        nm2 = _bulk._nm2
        monkeypatch.setattr(_bulk, "_nm2", lambda nbr: nm2(nbr) + shift)
        with_strict = _bulk_report(5, (2.0,))
        assert with_strict["failure_count"] == failures
        certificates = _bulk.ratio_certificates

        def exact_only(*args):
            exact, strict = certificates(*args)
            return exact, np.zeros_like(strict)

        monkeypatch.setattr(_bulk, "ratio_certificates", exact_only)
        assert _bulk_report(5, (2.0,)) == with_strict


def _shift_bounds_off_tightness(monkeypatch):
    # Move every bound away from NM_a on its own side by 1e-6 relative:
    # no direction flips, but flagged equalities are no longer tight.
    report = bounds._report

    def shifted(source, alpha, direction, bound, computed, equality, tolerance):
        shift = 1e-6 * max(1.0, abs(computed))
        bound += shift if direction == bounds.UPPER else -shift
        return report(source, alpha, direction, bound, computed, equality, tolerance)

    monkeypatch.setattr(bounds, "_report", shifted)


def _shift_corrections(monkeypatch):
    # Every histogram entry off the reconstruction line is miscorrected, so
    # reconstructions with interior entries and the bounds that keep an
    # entry fail.
    correction = indices._correction
    monkeypatch.setattr(indices, "_correction", lambda *args: correction(*args) + 1e-3)


def _raise_power_of_three(monkeypatch):
    # 3**alpha raised by 100 in both engines breaks the convexity the bound
    # directions rest on.
    pow_, powersum, powers = indices._pow, indices._powersum, _bulk._powers

    def faulty_powers(width, alpha):
        pw = powers(width, alpha)
        pw[3:4] += 100.0
        return pw

    monkeypatch.setattr(indices, "_pow", lambda b, a: pow_(b, a) + (100.0 if b == 3 else 0.0))
    monkeypatch.setattr(
        indices, "_powersum", lambda v, a, what: powersum(v, a, what) + 100.0 * v.count(3)
    )
    monkeypatch.setattr(_bulk, "_powers", faulty_powers)


def _shift_nm2(monkeypatch, shift):
    """NM_2 + shift wherever either engine or ``spectral_report`` reads it."""
    bulk_nm2, scalar_nm2 = _bulk._nm2, spectral._nm2
    monkeypatch.setattr(_bulk, "_nm2", lambda nbr: bulk_nm2(nbr) + shift)
    monkeypatch.setattr(spectral, "_nm2", lambda p: scalar_nm2(p) + shift)
    monkeypatch.setattr(enumeration, "_nm2", spectral._nm2)


# The first, a middle and the last range of 2,048 masks at n = 7.
N7_RANGES = (0, 1 << 20, (1 << 21) - 2048)
U = np.finfo(np.float64).eps / 2


class TestEnginesAtN7:
    """The engines agree past n = 5, on clean runs and on failing ones."""

    ALPHAS = (-1.0, 0.5, 2.0, 3.0)

    def _tallies(self, tolerance):
        for lo in N7_RANGES:
            yield (
                _bulk.sweep_chunk(7, lo, lo + 2048, self.ALPHAS, tolerance),
                enumeration._scalar_chunk(7, lo, lo + 2048, self.ALPHAS, tolerance),
            )

    def test_clean_ranges_agree(self):
        for bulk, scalar in self._tallies(1e-13):
            assert bulk.graphs == scalar.graphs > 400
            assert bulk.checks == scalar.checks
            assert bulk.skips == scalar.skips
            assert bulk.failure_count == scalar.failure_count == 0
            assert bulk.failures == scalar.failures == []

    @pytest.mark.parametrize(
        "fault, checks",
        [
            (_raise_power_of_three, {"nm_bound_secant", "nm_bound_unit", "nm_bound_congruence"}),
            (lambda mp: _shift_nm2(mp, 1), {"spectral_chain", "spectral_regular"}),
        ],
        ids=["power_of_three", "nm2_plus_1"],
    )
    def test_faulted_ranges_name_the_same_failures(self, monkeypatch, fault, checks):
        # The same records, apart from the last bits of got: each engine
        # sums its own way (the power fault adds 100 per vertex in the
        # kernel, once per count in the scalar sum), and rho**2 comes from
        # eigvalsh in one engine and Lanczos in the other.
        fault(monkeypatch)
        monkeypatch.setattr(_bulk, "FAILURE_CAP", 10**6)
        fields = ("graph6", "check", "alpha", "expected")

        def key(record):
            return repr([record[k] for k in fields])

        seen = set()
        for bulk, scalar in self._tallies(1e-9):
            assert len(bulk.failures) == len(scalar.failures) == bulk.failure_count > 0
            assert scalar.failure_count == bulk.failure_count
            pairs = zip(sorted(bulk.failures, key=key), sorted(scalar.failures, key=key))
            for b, s in pairs:
                assert [b[k] for k in fields] == [s[k] for k in fields]
                if isinstance(b["got"], float):
                    assert abs(b["got"] - s["got"]) <= 4 * 7 * U * max(1.0, abs(b["got"])), b
                else:
                    assert b["got"] == s["got"]
                seen.add(b["check"])
        assert seen == checks


class TestReplay:
    """Every failure record of a scalar sweep replays from its graph6
    through the per-graph code that computed it."""

    @pytest.mark.parametrize(
        "fault, replayed_checks",
        [
            (_shift_bounds_off_tightness, {"nm_bound_secant", "nm_bound_unit",
                                           "nm_bound_congruence"}),
            (_shift_corrections, {"nm_reconstruct_secant", "nm_reconstruct_unit",
                                  "nm2_reconstruct_secant", "nm2_reconstruct_unit",
                                  "nm_bound_unit", "nm_bound_congruence"}),
            (_raise_power_of_three, {"nm_bound_secant", "nm_bound_unit"}),
        ],
    )
    def test_failure_records_replay_to_failing_verdicts(self, monkeypatch, fault,
                                                         replayed_checks):
        fault(monkeypatch)
        monkeypatch.setattr(_bulk, "FAILURE_CAP", 10**6)  # keep every record
        tolerance = 1e-9
        report = verify_all(5, (-1.0, 0.5, 2.0, 3.0), tolerance=tolerance, engine="scalar")
        assert report.failure_count == len(report.failures)
        replayed = set()
        for record in report.failures:
            check = record["check"]
            if not check.startswith("nm_bound_") and "_reconstruct_" not in check:
                continue
            p = degree_profile(parse_graph6(record["graph6"]))
            alpha = record["alpha"]
            if check.startswith("nm_bound_"):
                op = bounds._SOURCE_OPS[check.removeprefix("nm_bound_")]
                assert not op(p, alpha, tolerance).holds, record
            else:
                direct = (indices.nm_direct if check.startswith("nm_") else indices.nm2_direct)(
                    p, alpha
                )
                residual = abs(getattr(indices, check)(p, alpha) - direct)
                assert residual > tolerance * max(1.0, abs(direct)), record
            replayed.add(check)
        assert replayed == replayed_checks

    @pytest.mark.parametrize("shift", [1, -1])
    def test_spectral_records_replay(self, monkeypatch, shift):
        # Under the NM_2 faults of test_spectral_failures_under_fault, every
        # chain record fails again through spectral_report, and every
        # regular-graph record gives a ratio bound other than k**2.
        _shift_nm2(monkeypatch, shift)
        monkeypatch.setattr(_bulk, "FAILURE_CAP", 10**6)
        report = verify_all(5, (2.0,), engine="scalar")
        assert report.failure_count == len(report.failures)
        replayed = set()
        for record in report.failures:
            g = parse_graph6(record["graph6"])
            r = spectral_report(g)
            if record["check"] == "spectral_chain":
                ratio_holds = r.ratio_bound_exact or r.rho_squared >= r.bound_nm2_ratio
                assert not (ratio_holds and r.bounds_ordered), record
            else:
                assert record["check"] == "spectral_regular", record
                k = len(g.adjacency[0])
                assert r.bound_nm2_ratio != k * k, record
            replayed.add(record["check"])
        assert replayed == {"spectral_chain", "spectral_regular"}

    def test_identity_records_replay(self, monkeypatch):
        # The last vertex's neighborhood and distance-2 degrees, one more in
        # the profile the scalar engine builds: every graph misses sum
        # nbr_deg == M1 and every diameter-2 graph misses sum dist2_deg ==
        # 2m(n - 1) - M1.  Each record's got replays from its graph6
        # through the same faulted profile, and its expected holds the
        # exact total of the unfaulted one.
        profile = enumeration.degree_profile

        def faulted(g):
            p = profile(g)
            nbr, d2 = p.nbr_deg, p.dist2_deg
            return dataclasses.replace(
                p, nbr_deg=(*nbr[:-1], nbr[-1] + 1), dist2_deg=(*d2[:-1], d2[-1] + 1)
            )

        monkeypatch.setattr(enumeration, "degree_profile", faulted)
        monkeypatch.setattr(_bulk, "FAILURE_CAP", 10**6)
        report = verify_all(5, (2.0,), engine="scalar")
        assert report.failure_count == len(report.failures)
        degrees = {"m1_identity": "nbr_deg", "dist2_identity": "dist2_deg"}
        replayed = dict.fromkeys(degrees, 0)
        for record in report.failures:
            name = degrees.get(record["check"])
            if name is None:
                continue
            g = parse_graph6(record["graph6"])
            got = sum(getattr(enumeration.degree_profile(g), name))
            exact = sum(getattr(degree_profile(g), name))
            assert record["got"] == got != exact, record
            assert record["expected"] == _bulk.SUM_EXPECTED.format(name, exact), record
            replayed[record["check"]] += 1
        assert replayed == {check: report.checks_run[check] for check in degrees}
        assert replayed == {"m1_identity": 772, "dist2_identity": 395}


class TestCoefficientSignGrid:
    def test_full_grid_has_no_violations(self):
        evaluations, violations = coefficient_sign_grid([-1.0, 0.5, 2.0])
        assert violations == []
        assert evaluations > 0

    @pytest.mark.parametrize(
        "name, at, got",
        [
            ("secant_coefficient", (2, 7, 3), "p=2, q=7, i=3"),
            # A unit coefficient has no q; with p + i = 12 = p_max only the
            # pair (2, 12) evaluates it.
            ("unit_coefficient", (2, 10), "p=2, q=12, i=10"),
        ],
    )
    def test_one_flipped_coefficient_fails_the_claim(self, monkeypatch, name, at, got):
        clean = verify_all(3, (2.0,))
        assert clean.failure_count == 0
        coefficient = getattr(enumeration, name)

        def flipped(*args):
            value = coefficient(*args)
            return -value if args[:-1] == at else value

        monkeypatch.setattr(enumeration, name, flipped)
        report = verify_all(3, (2.0,))
        assert report.checks_run == clean.checks_run
        assert report.failure_count == len(report.failures) == 1
        (record,) = report.failures
        assert record["check"] == "coefficient_sign_grid"
        assert record["alpha"] == 2.0
        assert record["got"].startswith(f"{got}, value=")

    def test_evaluation_count(self):
        # per (p, q): (q - p - 1) secant and (q - p - 1) unit coefficients
        evaluations, _ = coefficient_sign_grid([2.0], p_max=4)
        # pairs: (1,2):0+0, (1,3):1+1, (1,4):2+2, (2,3):0+0, (2,4):1+1, (3,4):0+0
        assert evaluations == 8


class TestExponentRange:
    """An exponent whose powers leave the float range is refused before
    any sweep work; every exponent below that runs alike on both engines."""

    @pytest.mark.parametrize("engine", ["bulk", "scalar"])
    @pytest.mark.parametrize("alpha", [1000, 400.5, 1e300])
    def test_verify_all_refuses_before_any_range(self, monkeypatch, engine, alpha):
        def no_ranges(n):
            raise AssertionError("a range was swept")

        monkeypatch.setattr(_bulk, "iter_mask_ranges", no_ranges)
        start = time.perf_counter()
        with pytest.raises(PowerOverflow):
            verify_all(4, (2.0, alpha), engine=engine)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("alpha", [1000, 400.5, 1e300])
    def test_find_equality_graphs_refuses_before_the_search(self, monkeypatch, alpha):
        # Without the refusal every class would raise, be passed over, and
        # the search would report no records.
        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(enumeration, "_connected_classes", no_search)
        with pytest.raises(PowerOverflow):
            find_equality_graphs(5, alpha, "unit")

    def test_largest_exponents_that_fit_run_alike(self):
        # At n <= 5 the largest base is max(4**2, 12) = 16, and the sweep is
        # refused from where 4 * 5 * 16**alpha overflows, near 254.9.
        docs = []
        for engine in ("bulk", "scalar"):
            report = verify_all(5, (254.0, -1000.0), engine=engine)
            assert report.ok
            doc = report.to_dict()
            del doc["elapsed"], doc["engine"]
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["checks_run"]["nm_bound_secant"] > 0
        with pytest.raises(PowerOverflow):
            verify_all(5, (255.0,))
        # Equality is structural, so no class may drop out near the limit.
        graphs = [[r.graph for r in find_equality_graphs(5, a, "secant")] for a in (254.0, 2.0)]
        assert graphs[0] == graphs[1] != []

    def test_numpy_exponents(self):
        got = verify_all(4, np.array([2, 3])).to_dict()
        want = verify_all(4, (2.0, 3.0)).to_dict()
        del got["elapsed"], want["elapsed"]
        assert got == want


def _per_graph_records(classes, alpha, source):
    """find_equality_graphs' records from every (class, profile) through the
    per-graph operation, keeping those it reports attained."""
    op, records = bounds._SOURCE_OPS[source], []
    for g, p in classes:
        try:
            rep = op(p, alpha)
        except PreconditionError:
            continue
        if rep.equality:
            records.append(enumeration.ExtremalRecord(
                graph=encode_graph6(g), bound_source=source, alpha=float(alpha),
                slack=rep.slack, structural_match=source != "unit" or is_path(g),
            ))
    return sorted(records, key=lambda r: r.graph)


def _flag_everything(rows):
    return dict.fromkeys(bounds.BOUND_SOURCES, np.ones(rows.shape[1], dtype=bool))


class TestFindEqualityGraphs:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_batched_flags_select_what_the_operations_attain(self, n):
        classes = [(g, degree_profile(g)) for g in enumerate_connected(n, dedup=True)]
        for alpha in (-1.0, 0.5, 2.0, 3.0):
            for source in bounds.BOUND_SOURCES:
                assert find_equality_graphs(n, alpha, source) == _per_graph_records(
                    classes, alpha, source)

    def test_flag_counts_at_seven_vertices(self):
        masks, rows = enumeration._connected_classes(7)
        flags = _bulk.equality_flags(rows)
        assert {s: int(f.sum()) for s, f in flags.items()} == {
            "secant": 30, "unit": 69, "congruence": 20}
        assert all(f.shape == masks.shape and f.dtype == bool for f in flags.values())

    def test_every_class_flagged_raises(self, monkeypatch):
        # Passing over the refuted flags would return the attained classes
        # alone, hiding that the engines disagree.
        monkeypatch.setattr(_bulk, "equality_flags", _flag_everything)
        with pytest.raises(RuntimeError, match="disagree on"):
            find_equality_graphs(5, 2.0, "unit")

    @pytest.mark.parametrize("graph, cause", [
        (path_graph(5), type(None)),  # runs, with two vertices inside (2, 4)
        (complete_graph(5), NeighborhoodRegular),
    ])
    def test_a_refuted_flag_names_its_class(self, monkeypatch, graph, cause):
        mask = mask_of_edges(5, canonical_form(graph).edges())
        masks = np.array([mask], dtype=np.int64)
        rows = _bulk._adj_of(_bulk._bits_of(masks, _bulk.pair_count(5)), 5)
        monkeypatch.setattr(enumeration, "_connected_classes", lambda n: (masks, rows))
        monkeypatch.setattr(_bulk, "equality_flags", _flag_everything)
        with pytest.raises(RuntimeError, match=graph6_of_mask(5, mask)) as info:
            find_equality_graphs(5, 2.0, "secant")
        assert type(info.value.__cause__) is cause

    def test_unit_form_returns_p4(self):
        records = find_equality_graphs(4, 2.0, "unit")
        p4 = encode_graph6(canonical_form(path_graph(4)))
        assert p4 in [r.graph for r in records]
        path_record = next(r for r in records if r.graph == p4)
        assert path_record.structural_match
        assert path_record.slack == 0.0

    def test_congruence_form_returns_figure2(self):
        fig2 = encode_graph6(canonical_form(load_fixture("figure2.edges")))
        records = find_equality_graphs(5, 2.0, "congruence")
        assert fig2 in [r.graph for r in records]
        assert all(r.structural_match for r in records)

    def test_secant_form_is_bi_supported(self):
        for n in (4, 5):
            for record in find_equality_graphs(n, 2.0, "secant"):
                p = degree_profile(parse_graph6(record.graph))
                assert len(p.nbr_hist) == 2

    def test_records_sorted_and_tight(self):
        records = find_equality_graphs(5, 2.0, "secant")
        names = [r.graph for r in records]
        assert names == sorted(names)
        # alpha = 2 keeps everything in exact float integers
        assert all(r.slack == 0.0 for r in records)

    def test_unknown_source(self):
        with pytest.raises(UnknownBoundSource):
            find_equality_graphs(4, 2.0, "bogus")

    def test_size_limit(self):
        with pytest.raises(NTooLarge):
            find_equality_graphs(9, 2.0, "secant")
