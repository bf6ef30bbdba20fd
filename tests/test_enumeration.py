import math
import tracemalloc
from concurrent.futures import Future
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import load_fixture
from nbzagreb import (
    Graph,
    canonical_form,
    degree_profile,
    encode_graph6,
    enumerate_connected,
    find_equality_graphs,
    coefficient_sign_grid,
    is_connected,
    parse_graph6,
    path_graph,
    verify_all,
)
from nbzagreb import _bulk, bounds, enumeration, indices, spectral
from nbzagreb._bulk import graph6_of_mask, mask_of_edges
from nbzagreb.errors import (
    ForbiddenAlpha,
    NeighborhoodRegular,
    NTooLarge,
    PreconditionError,
    UnknownBoundSource,
    UnoccupiedRemainderDegree,
    ZeroMinDist2Degree,
    reason,
)

LABELED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
CLASSES_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


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
        # Slot 0, the pair (0, 1), is the most significant bit of a mask.
        npairs = _bulk.pair_count(n)
        rng = np.random.default_rng(n)
        masks = np.unique(np.r_[0, (1 << npairs) - 1, rng.integers(0, 1 << npairs, 500)])
        bits = _bulk._bits_of(masks, npairs)
        np.testing.assert_array_equal(_bulk._masks_of(bits), masks)
        for mask, row in zip(masks.tolist()[:50], bits):
            assert _bulk.edges_of_mask(n, mask) == [
                pair for pair, bit in zip(_bulk._g6_pairs(n), row) if bit
            ]
            assert mask_of_edges(n, _bulk.edges_of_mask(n, mask)) == mask
        if n > 1:
            assert _bulk.edges_of_mask(n, 1 << (npairs - 1)) == [(0, 1)]


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
            g = Graph.from_edges(n, _bulk.edges_of_mask(n, mask))
            assert row == [sum(1 << u for u in nbrs) for nbrs in g.adjacency]
            assert got == is_connected(g)

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
    def test_float_sum_is_numpy_axis1_sum(self, n):
        # The reports carry float sums over vertices, so the vertex-major
        # sum must give numpy's (graphs, n) axis-1 sum bit for bit.
        rng = np.random.default_rng(n)
        values = rng.standard_normal((5000, n)) * 10.0 ** rng.integers(-6, 7, (5000, n))
        got = _bulk._float_sum(np.ascontiguousarray(values.T))
        np.testing.assert_array_equal(got.view(np.uint64), values.sum(axis=1).view(np.uint64))

    @pytest.mark.parametrize("lo,failures", [(0, 13_992), ((1 << 28) - (1 << 15), 54_280)])
    def test_n8_failure_count_at_zero_tolerance(self, lo, failures):
        # At tolerance 1e-300 every inexact float comparison fails, so the
        # count moves with any change in float summation order.
        tally = _bulk.sweep_chunk(8, lo, lo + (1 << 15), (-1.0, 0.5, 2.0, 3.0), 1e-300)
        assert tally.failure_count == failures
        assert len(tally.failures) == _bulk.FAILURE_CAP


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
        assert tally.failure_count == 64_551
        assert len(calls) == len(tally.failures) == _bulk.FAILURE_CAP

    def test_scalar_formats_kept_records_only(self, monkeypatch):
        calls = []
        encode = enumeration.encode_graph6
        monkeypatch.setattr(enumeration, "encode_graph6", lambda g: calls.append(g) or encode(g))
        tally = enumeration._scalar_chunk(5, 0, 1 << 10, (-1.0, 0.5, 2.0, 3.0), 1e-300)
        assert tally.failure_count == 2048
        assert len(calls) == len(tally.failures) == _bulk.FAILURE_CAP


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

    @pytest.mark.parametrize("engine", ["bulk", "scalar"])
    def test_parallel_matches_sequential(self, engine):
        seq = verify_all(4, [2.0, 0.5], jobs=1, engine=engine)
        par = verify_all(4, [2.0, 0.5], jobs=2, engine=engine)
        assert seq.graphs_checked == par.graphs_checked
        assert seq.checks_run == par.checks_run
        assert seq.skips == par.skips
        assert seq.failures == par.failures

    def test_scalar_engine_dispatches_chunks_to_the_pool(self, monkeypatch):
        chunks = []

        class RecordingPool:
            """Runs tasks in-process and records the (n, lo, hi) of each."""

            def __init__(self, max_workers):
                assert max_workers == 2

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
        pooled = verify_all(4, [2.0, 0.5], engine="scalar", jobs=2).to_dict()
        assert chunks == [
            (n, lo, hi) for n in range(1, 5) for lo, hi in _bulk.iter_mask_ranges(n)
        ]
        assert pooled.pop("jobs") == 2
        for doc in (sequential, pooled):
            doc.pop("elapsed")
        sequential.pop("jobs")
        assert pooled == sequential

    def test_skip_reasons_are_named(self):
        report = verify_all(4, [2.0])
        for reasons in report.skips.values():
            for reason, count in reasons.items():
                assert reason
                assert count > 0

    def test_skip_reasons_name_a_precondition(self):
        # The bulk engine writes its reasons as literals; each must be the
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

    @pytest.mark.parametrize("engine,count", [("bulk", 1981), ("scalar", 2100)])
    def test_failures_capped_once(self, engine, count):
        # A tolerance below one ulp fails every inexact instance; the report
        # keeps the first FAILURE_CAP records of the whole sweep.
        report = verify_all(5, (-1, 0.5, 2, 3), tolerance=1e-300, engine=engine)
        assert report.failure_count == count
        assert len(report.failures) == _bulk.FAILURE_CAP == 1000

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
        # The engine asks the op, so whatever precondition the op raises is
        # the skip reason; only n <= 2 is decided before the op runs.
        class Synthetic(PreconditionError):
            pass

        def raise_synthetic(*args):
            raise Synthetic("raised by the test")

        monkeypatch.setitem(enumeration._SOURCE_OPS, "unit", raise_synthetic)
        report = verify_all(4, [2.0, 0.5], engine="scalar")
        assert report.skips["nm_bound_unit"] == {"n_lt_3": 4, "synthetic": 84}
        assert report.checks_run["nm_bound_unit"] == 0


RECONSTRUCT_CHECKS = (
    "nm_reconstruct_secant",
    "nm_reconstruct_unit",
    "nm2_reconstruct_secant",
    "nm2_reconstruct_unit",
)


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
        secant, unit = _bulk._correction_tables(pw)
        if form == "secant":
            rate, first, last = (pw[hi] - pw[lo]) / (hi - lo), lo + 1, hi - 1
            table, row = secant, _bulk._pair_row(np.array([lo]), np.array([hi]))
        else:
            rate, first, last = pw[lo + 1] - pw[lo], lo + 2, hi
            table, row = unit, np.array([lo], dtype=np.int32)
        got = _bulk._line_excess_sum(table, row * table.shape[1] + x[:, None])[0]
        expected, scale = _grid_excess_sum(x, alpha, lo, rate, first, last)
        # Same terms summed in another order: relative to their total size.
        assert abs(got - expected) <= 1e-12 * scale

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


class TestEngineParity:
    FIELDS = ("graph6", "check", "alpha", "expected", "got")

    def test_failing_run_under_fault(self, monkeypatch):
        # Raise 3**alpha by 100 in both engines.  The reconstructions hold
        # for any power table; the bounds and the sign grid rest on
        # convexity and fail, and both engines must report the same records.
        pow_, powersum, powers = indices._pow, indices._powersum, _bulk._powers

        def faulty_pow(base, a):
            return pow_(base, a) + (100.0 if base == 3 else 0.0)

        def faulty_powersum(values, a, what):
            return powersum(values, a, what) + 100.0 * values.count(3)

        def faulty_powers(width, alpha):
            pw = powers(width, alpha)
            pw[3:4] += 100.0
            return pw

        monkeypatch.setattr(indices, "_pow", faulty_pow)
        monkeypatch.setattr(bounds, "_pow", faulty_pow)
        monkeypatch.setattr(indices, "_powersum", faulty_powersum)
        monkeypatch.setattr(_bulk, "_powers", faulty_powers)

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
        bulk_nm2, scalar_nm2 = _bulk._nm2, spectral._nm2
        monkeypatch.setattr(_bulk, "_nm2", lambda nbr: bulk_nm2(nbr) + shift)
        monkeypatch.setattr(spectral, "_nm2", lambda p: scalar_nm2(p) + shift)
        monkeypatch.setattr(enumeration, "_nm2", spectral._nm2)

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
    # reconstructions with interior entries and the unit bound fail.
    correction = indices._correction
    monkeypatch.setattr(indices, "_correction", lambda *args: correction(*args) + 1e-3)


def _raise_power_of_three(monkeypatch):
    # 3**alpha raised by 100 breaks the convexity the bound directions rest on.
    pow_, powersum = indices._pow, indices._powersum
    monkeypatch.setattr(indices, "_pow", lambda b, a: pow_(b, a) + (100.0 if b == 3 else 0.0))
    monkeypatch.setattr(bounds, "_pow", indices._pow)
    monkeypatch.setattr(
        indices, "_powersum", lambda v, a, what: powersum(v, a, what) + 100.0 * v.count(3)
    )


class TestReplay:
    """Every bound and reconstruction failure record of a scalar sweep
    replays from its graph6 through the per-graph op it names."""

    @pytest.mark.parametrize(
        "fault, replayed_checks",
        [
            (_shift_bounds_off_tightness, {"nm_bound_secant", "nm_bound_unit",
                                           "nm_bound_congruence"}),
            (_shift_corrections, {"nm_reconstruct_secant", "nm_reconstruct_unit",
                                  "nm2_reconstruct_secant", "nm2_reconstruct_unit",
                                  "nm_bound_unit"}),
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


class TestCoefficientSignGrid:
    def test_full_grid_has_no_violations(self):
        evaluations, violations = coefficient_sign_grid([-1.0, 0.5, 2.0])
        assert violations == []
        assert evaluations > 0

    def test_evaluation_count(self):
        # per (p, q): (q - p - 1) secant and (q - p - 1) unit coefficients
        evaluations, _ = coefficient_sign_grid([2.0], p_max=4)
        # pairs: (1,2):0+0, (1,3):1+1, (1,4):2+2, (2,3):0+0, (2,4):1+1, (3,4):0+0
        assert evaluations == 8


class TestFindEqualityGraphs:
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
