"""Exhaustive small-graph sweeps, canonical forms and extremal search.

Connected graphs on up to 8 vertices (8 behind an explicit flag) are
enumerated as edge masks, the graph6 bitstream read as one integer.  A
single mask goes through the codec in :mod:`nbzagreb.graphs`; ranges of
masks are decoded in batches by :mod:`nbzagreb._bulk`.  ``verify_all``
replays every identity, bound and spectral check over the whole space and
aggregates failures and precondition skips into a report; nothing is ever
skipped silently.

Two engines run the checks of :mod:`nbzagreb.claims` and word failures
alike: ``bulk`` runs the vectorized kernels from :mod:`nbzagreb._bulk`,
``scalar`` routes every graph through the public per-graph operations.
The scalar engine is the reference; the bulk engine is what makes n = 7
sweeps take seconds instead of hours.  Everything around the checks is
shared: each engine is one function over a range of masks, and
``verify_all`` builds one task list of ranges, runs it sequentially or on
a process pool, and merges the results in range order.  Pool workers,
processes the library starts and owns, tell glibc at start-up to keep the
heap they free, so each range reuses the pages of the one before instead
of faulting them in again; an in-process run leaves the caller's
allocator as it is.

The canonical form of a graph is the lexicographically smallest adjacency
bitstring over all vertex relabelings, which is also the smallest graph6
encoding and the smallest mask of its isomorphism orbit.  Dedup builds these
orbit-minimal masks by orderly generation (R. C. Read, "Every one a
winner", Ann. Discrete Math. 2 (1978) 107-120; I. A. Faradzev, Colloq.
Internat. CNRS 260 (1978) 131-135): the first pair_count(n - 1) slots of
an n-vertex mask are the graph induced on vertices 0 .. n - 2, and the
prefix of an orbit-minimal mask is orbit-minimal too, since a smaller
relabeling of the prefix that leaves the last vertex fixed would give a
smaller mask.  So every representative extends a canonical graph on one
vertex fewer by a last column, and no mask space is scanned.  The walk
(:func:`_connected_classes`) gives the representatives' masks together
with their neighbor rows, decoded once.

The extremal search screens those rows in one integer pass
(:func:`nbzagreb._bulk.equality_flags`) and runs the per-graph bound only
on the classes the screen flags; that operation gives each record's slack
and must confirm the flag, so the two engines cross-check each other on
every record.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import _bulk
from ._bulk import (
    BI_DEGREE_SUPPORT,
    CHAIN_EXPECTED,
    REGULAR_EXPECTED,
    REGULAR_GOT,
    SUM_EXPECTED,
    TOP_COUNT_PATTERN,
    Tally,
    bound_expected,
)
from .bounds import (
    BOUND_SOURCES,
    DEFAULT_TOLERANCE,
    UPPER,
    _SOURCE_OPS,
    _check_tolerance,
    congruence_classify,
    secant_coefficient,
    unit_coefficient,
)
from .claims import CHECK_NAMES, gate_row
from .errors import NTooLarge, PowerOverflow, PreconditionError, UnknownBoundSource, reason
from .graphs import (
    DegreeProfile,
    Graph,
    _g6_pairs,
    degree_profile,
    encode_graph6,
    graph_of_mask,
    is_path,
    mask_of_edges,
    pair_count,
)
from .indices import (
    MID,
    Alpha,
    _pow,
    as_alpha,
    nm2_direct,
    nm2_reconstruct_secant,
    nm2_reconstruct_unit,
    nm_reconstruct_secant,
    nm_reconstruct_unit,
)
from .spectral import _min_nbr_numerator, _nm2, ratio_bound_is_exact, spectral_radius

__all__ = [
    "VerificationReport",
    "ExtremalRecord",
    "enumerate_connected",
    "canonical_form",
    "verify_all",
    "find_equality_graphs",
    "coefficient_sign_grid",
    "CHECK_NAMES",
]

MAX_UNGATED_N = 7


def _check_n(n: int, allow_n8: bool) -> None:
    if n < 1:
        raise NTooLarge(f"need n >= 1, got {n}")
    if n > 8 or (n == 8 and not allow_n8):
        raise NTooLarge(
            f"n = {n} exceeds the limit ({MAX_UNGATED_N} without the n=8 override)"
        )


def _refuse_overflow(n: int, top: int, alphas: list[Alpha]) -> None:
    """Raise PowerOverflow, before any sweep work, for an exponent at which
    a check on graphs of at most n vertices, every degree at most ``top``,
    could leave the float range: each sum, line value and correction that
    a check forms is at most 4 * n * max(1, top**alpha)."""
    for alpha in alphas:
        if not math.isfinite(4 * n * _pow(max(top, 1), alpha)):
            raise PowerOverflow(
                f"exponent {alpha.value!r} takes sums of powers of degrees up to {top} "
                "past the float range"
            )


@lru_cache(maxsize=8)
def _perm_table(n: int) -> np.ndarray:
    """Key weights (npairs, n!): entry [s, p] is the mask bit that edge slot
    s lands on under the p-th vertex relabeling, so the masks of every
    relabeling of a graph are the sums of the rows of its edge slots."""
    pairs = _g6_pairs(n)
    npairs = len(pairs)
    index = np.zeros((n, n), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        index[i, j] = index[j, i] = k
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    columns = np.arange(perms.shape[0])
    table = np.empty((npairs, perms.shape[0]), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        # Slot k of the relabeled graph is the slot index[perm[i], perm[j]].
        table[index[perms[:, i], perms[:, j]], columns] = 1 << (npairs - 1 - k)
    return table


@lru_cache(maxsize=8)
def _key_tables(n: int) -> tuple[np.ndarray, ...]:
    """Partial keys, one (16, n!) table per run of 4 mask bits from the low
    end: row v of table g sums the rows of :func:`_perm_table` for the set
    bits of v at mask bits 4g .. 4g + 3, so the keys of a mask are one row
    of each table, added.  int32 holds every key at n <= 8 (below 2**28)."""
    table = _perm_table(n)
    npairs, nperms = table.shape
    tables = np.zeros((max(1, -(-npairs // 4)), 16, nperms), dtype=np.int32)
    values = np.arange(16)
    for bit in range(npairs):
        group, offset = divmod(bit, 4)
        tables[group, values >> offset & 1 == 1] += table[npairs - 1 - bit].astype(np.int32)
    return tuple(tables)


def _orbit_keys(n: int, mask: int) -> np.ndarray:
    """Masks of every relabeling of the graph encoded by ``mask``, as int64."""
    first, *rest = _key_tables(n)
    keys = first[mask & 15].copy()
    for shift, table in zip(range(4, 64, 4), rest):
        keys += table[mask >> shift & 15]
    return keys.astype(np.int64)


def canonical_form(g: Graph) -> Graph:
    """Representative with the lexicographically smallest adjacency
    bitstring (hence smallest graph6 string) over all relabelings."""
    _check_n(g.n, allow_n8=True)
    keys = _orbit_keys(g.n, mask_of_edges(g.n, g.edges()))
    return graph_of_mask(g.n, int(keys.min()))


def _canonical_graphs(k: int) -> np.ndarray:
    """Ascending orbit-minimal masks of every graph on k vertices, connected
    or not: 1, 2, 4, 11, 34, 156 and 1044 of them at k = 1 .. 7 (A000088).

    Level j extends each mask of level j - 1 by every last column and keeps
    the candidates that no relabeling makes smaller.  A candidate's keys are
    its prefix's keys plus its column's, each a sum of rows of
    :func:`_perm_table`, so the candidates of one prefix take one block of
    2**(j - 1) by j! keys."""
    masks = np.zeros(1, dtype=np.int64)  # the graph on no vertices
    for j in range(1, k + 1):
        table = _perm_table(j)
        split = pair_count(j - 1)
        columns = np.arange(1 << (j - 1), dtype=np.int64)
        column_keys = _bulk._bits_of(columns, j - 1) @ table[split:]
        kept = []
        for prefix, keys in zip(masks.tolist(), _bulk._bits_of(masks, split) @ table[:split]):
            candidates = prefix << (j - 1) | columns
            kept.append(candidates[(keys + column_keys).min(axis=1) == candidates])
        masks = np.concatenate(kept)
    return masks


def _connected_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One canonical representative per isomorphism class of connected
    graphs on n vertices: their orbit-minimal masks, ascending, and their
    (n, classes) neighbor rows.

    The walk scans no mask space, in two levels.  The lower levels are
    :func:`_canonical_graphs` on n - 1 vertices, connected or not (156 at
    n = 7).  Each representative's prefix is among them (see the module
    docstring), so the candidates are those prefixes, each extended by
    every last column (9,984 at n = 7, against 2,097,152 masks), decoded
    once.  The last level walks the connected candidates in ascending
    order: the first unseen one of each orbit is its minimum, so it is kept
    and its orbit marked seen, its n! relabeled masks from
    :func:`_orbit_keys` found among the candidates through a table from
    each prefix to its candidate row, with a sink row for the prefixes that
    are not canonical.  That is one orbit key call per class, and the kept
    candidates' rows are the classes' rows.
    """
    prefixes = _canonical_graphs(n - 1)
    width = 1 << (n - 1)
    candidates = (prefixes[:, None] << (n - 1) | np.arange(width)).ravel()
    rows = _bulk._adj_of(_bulk._bits_of(candidates, pair_count(n)), n)
    # Index of each prefix's first candidate, a multiple of width, so that
    # OR-ing in a column gives the candidate's index; past the last
    # candidate for the prefixes that are not canonical.
    start = np.full(1 << pair_count(n - 1), prefixes.size * width, dtype=np.int32)
    start[prefixes] = np.arange(prefixes.size) * width
    seen = np.zeros((prefixes.size + 1) * width, dtype=bool)
    kept = []
    for index in np.flatnonzero(_bulk._connected(rows)).tolist():
        if seen[index]:
            continue
        keys = _orbit_keys(n, int(candidates[index]))
        seen[start.take(keys >> (n - 1)) | keys & (width - 1)] = True
        kept.append(index)
    return candidates.take(kept), rows.take(kept, axis=1)


def enumerate_connected(
    n: int, dedup: bool = False, *, allow_n8: bool = False
) -> Iterator[Graph]:
    """Yield every connected labeled graph on n vertices in ascending mask
    order; with ``dedup``, one canonical representative per isomorphism
    class, the orbit-minimal mask, in ascending mask order.

    Without dedup the mask space is filtered one range at a time by
    :func:`nbzagreb._bulk.connected_masks`; with it the classes come from
    the orderly walk of :func:`_connected_classes`, all at the first item.
    """
    _check_n(n, allow_n8)
    if not dedup:
        for lo, hi in _bulk.iter_mask_ranges(n):
            for mask in _bulk.connected_masks(n, lo, hi).tolist():
                yield graph_of_mask(n, mask)
        return
    for mask in _connected_classes(n)[0].tolist():
        yield graph_of_mask(n, mask)


# ---------------------------------------------------------------------------
# Coefficient sign grid


SIGN_TOL = 1e-12
# The largest degree of the coefficient sign grid that verify_all runs.
GRID_P_MAX = 12


def coefficient_sign_grid(alphas, p_max: int = GRID_P_MAX) -> tuple[int, list[dict]]:
    """Exhaustively check the coefficient signs for all 1 <= p < q <= p_max.

    Secant coefficients must be <= 0 for a < 0 or a > 1 and >= 0 for
    0 < a < 1; unit coefficients the other way around.  A violation needs
    magnitude above ``SIGN_TOL``.  Returns (evaluations, violations).
    """
    alphas = [as_alpha(a) for a in alphas]
    evaluations = 0
    violations: list[dict] = []

    def record(kind, p, q, i, alpha, value):
        violations.append(
            {
                "graph6": None,
                "check": "coefficient_sign_grid",
                "alpha": alpha.value,
                "expected": f"{kind} coefficient sign for regime {alpha.regime}",
                "got": f"p={p}, q={q}, i={i}, value={value!r}",
            }
        )

    for p in range(1, p_max):
        for q in range(p + 1, p_max + 1):
            for alpha in alphas:
                mid = alpha.regime == MID
                for i in range(1, q - p):
                    value = secant_coefficient(p, q, i, alpha)
                    evaluations += 1
                    if (value > SIGN_TOL) if not mid else (value < -SIGN_TOL):
                        record("secant", p, q, i, alpha, value)
                for i in range(2, q - p + 1):
                    value = unit_coefficient(p, i, alpha)
                    evaluations += 1
                    if (value < -SIGN_TOL) if not mid else (value > SIGN_TOL):
                        record("unit", p, q, i, alpha, value)
    return evaluations, violations


# ---------------------------------------------------------------------------
# Scalar engine

_NM_OPS = {"nm_reconstruct_secant": nm_reconstruct_secant,
           "nm_reconstruct_unit": nm_reconstruct_unit}
_BOUND_OPS = {f"nm_bound_{source}": op for source, op in _SOURCE_OPS.items()}
_NM2_OPS = {"nm2_reconstruct_secant": nm2_reconstruct_secant,
            "nm2_reconstruct_unit": nm2_reconstruct_unit}
# Each check's row, checked against its rungs at the check's first gate in
# the process; the engine gates each check at one place.
_ROWS: dict = {}


def _gate(tally: Tally, check: str, nalpha: int, op=None, **rungs):
    """Count one graph's ``check`` as its row in :mod:`nbzagreb.claims` says;
    return ``op()`` (True without one), or None on a skip named by the first
    failed of ``rungs`` (the row's leading rungs: does each hold?) or by a
    PreconditionError from ``op`` whose reason the rest lists, else raised."""
    row = _ROWS.get(check)
    if row is None:
        row = _ROWS[check] = gate_row((check,), tuple(rungs), True)
    reps = nalpha if row.per_exponent else 1
    for why in rungs:
        if not rungs[why]:
            tally.skip(check, why, reps)
            return None
    try:
        result = op() if op else True
    except PreconditionError as exc:
        if (why := reason(exc)) not in row.rungs[len(rungs):]:
            raise
        tally.skip(check, why, reps)
        return None
    tally.checks[check] += reps
    return result


def _run_ops(tally: Tally, ops: dict, p: DegreeProfile, alphas: list[Alpha], *args,
             **rungs) -> dict:
    """Each op's results at every exponent, keyed by check, counted through
    :func:`_gate` behind ``rungs``.  On a connected graph no precondition
    depends on the exponent, so an op that raises is skipped at every
    exponent under one reason."""
    results = {}
    for check, op in ops.items():
        values = _gate(tally, check, len(alphas),
                       lambda: [op(p, alpha, *args) for alpha in alphas], **rungs)
        if values is not None:
            results[check] = values
    return results


def _compare_identities(fail, recon: dict, i: int, alpha: Alpha, direct: float,
                        tolerance: float) -> None:
    tol = tolerance * max(1.0, abs(direct))
    for check, values in recon.items():
        if abs(values[i] - direct) > tol:
            fail(check, direct, values[i], alpha=alpha.value)


def _scalar_graph_checks(g: Graph, alphas: list[Alpha], tolerance: float, tally: Tally):
    p = degree_profile(g)
    n = p.n

    def fail(check, expected, got, alpha=None):
        # A full tally only counts, so it needs no graph6.
        graph6 = encode_graph6(g) if tally.room() else None
        tally.fail(graph6, check, expected, got, alpha=alpha)

    tally.checks["m1_identity"] += 1
    nbr_total = sum(p.nbr_deg)
    if nbr_total != p.m1:
        fail("m1_identity", SUM_EXPECTED.format("nbr_deg", p.m1), nbr_total)

    nalpha, n3 = len(alphas), n >= 3
    cd = _gate(tally, "congruence_classify", nalpha, lambda: congruence_classify(p), n_lt_3=n3)
    if cd is not None:
        lo, hi = p.delta_min, p.delta_max
        if cd.is_bi_degree_case and set(p.nbr_hist) != {lo, hi}:
            fail("congruence_classify", BI_DEGREE_SUPPORT, dict(p.nbr_hist))
        if cd.r >= 1 and p.nbr_hist.get(hi, 0) == cd.q and not cd.part2_constraints_hold:
            fail("congruence_classify", TOP_COUNT_PATTERN, dict(p.nbr_hist))

    recon = _run_ops(tally, _NM_OPS, p, alphas, n_lt_3=n3)
    bounds = _run_ops(tally, _BOUND_OPS, p, alphas, tolerance, n_lt_3=n3)
    for i, alpha in enumerate(alphas):
        if recon:
            # The secant bound runs wherever the reconstructions do (both
            # need distinct extremes), and its ``computed`` is NM_a.
            direct = bounds["nm_bound_secant"][i].computed
            _compare_identities(fail, recon, i, alpha, direct, tolerance)
        for check, reps in bounds.items():
            rep = reps[i]
            if not rep.holds:
                expected = bound_expected(rep.direction == UPPER, rep.bound, rep.equality)
                fail(check, expected, rep.computed, alpha=alpha.value)

    if _gate(tally, "dist2_identity", nalpha, not_diameter_two=p.diameter == 2):
        total2 = 2 * p.m * (n - 1) - p.m1
        d2_total = sum(p.dist2_deg)
        if d2_total != total2:
            fail("dist2_identity", SUM_EXPECTED.format("dist2_deg", total2), d2_total)
    recon2 = _run_ops(tally, _NM2_OPS, p, alphas)
    if recon2:
        for i, alpha in enumerate(alphas):
            _compare_identities(fail, recon2, i, alpha, nm2_direct(p, alpha), tolerance)

    # A connected k-regular graph has A 1 = k 1, so rho = k.
    regular = _gate(tally, "spectral_regular", nalpha, no_edges=p.m1 > 0,
                    not_regular=min(p.deg) == max(p.deg))
    if not _gate(tally, "spectral_chain", nalpha, no_edges=p.m1 > 0):
        return
    # The chain holds by the integer certificate or by the converged rho,
    # and its second link and the regular-graph equalities are integer
    # comparisons over the common denominator M1.  At n <= 8 Lanczos stops
    # by step n, far below its iteration limit, so it always converges.
    sr = spectral_radius(g)
    nm2, min_nbr_num = _nm2(p), _min_nbr_numerator(p)
    ratio_bound = nm2 / p.m1
    min_nbr_bound = min_nbr_num / p.m1
    rho_squared = ratio_bound if ratio_bound_is_exact(g, p) else sr.rho_squared
    if not (rho_squared >= ratio_bound and nm2 >= min_nbr_num):
        fail("spectral_chain", CHAIN_EXPECTED.format(ratio_bound, min_nbr_bound), rho_squared)
    if regular:
        k2 = p.deg[0] * p.deg[0]
        if not (nm2 == k2 * p.m1 and min_nbr_num == k2 * p.m1):
            fail(
                "spectral_regular", REGULAR_EXPECTED.format(k2),
                REGULAR_GOT.format(ratio_bound, min_nbr_bound),
            )


def _scalar_chunk(
    n: int, mask_lo: int, mask_hi: int, alphas: tuple[float, ...], tolerance: float
) -> Tally:
    """The scalar engine on the connected masks of one range; same
    signature and result as :func:`nbzagreb._bulk.sweep_chunk`."""
    alpha_objs = [as_alpha(a) for a in alphas]
    tally = Tally()
    for mask in _bulk.connected_masks(n, mask_lo, mask_hi).tolist():
        tally.graphs += 1
        _scalar_graph_checks(graph_of_mask(n, mask), alpha_objs, tolerance, tally)
    return tally


# ---------------------------------------------------------------------------
# Whole-space verification

# Per-chunk function of each engine: (n, mask_lo, mask_hi, alphas, tolerance) -> Tally.
_ENGINES = {"bulk": _bulk.sweep_chunk, "scalar": _scalar_chunk}
# log2 of each engine's task size in masks.  The scalar engine takes about
# 0.5 ms a graph, so n = 6 (2^15 masks) is cut into 32 tasks, enough to keep
# up to 16 workers busy; one 2^15 range would hold 26,704 of its 27,476
# graphs.  The bulk kernel keeps whole 2^15-mask ranges.
_TASK_BITS = {"bulk": _bulk.CHUNK_BITS, "scalar": 10}


def _keep_freed_heap() -> None:
    """Pool worker set-up: on glibc, keep the heap the worker frees.

    Each kernel range frees its working set, a few MB, when it returns;
    under glibc's dynamic thresholds the worker hands those pages back to
    the OS and faults them in again on the next range.  Setting either
    threshold turns the dynamic ones off, and a worker with only the trim
    threshold set still maps and unmaps its larger blocks, so both are set.
    Where glibc, libc or ``mallopt`` is missing the defaults stay; this
    never raises, since a raising initializer breaks the pool.
    """
    import ctypes
    import platform

    try:
        if platform.libc_ver()[0] != "glibc":
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at glibc's cap on 64-bit
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _report_doc(fields) -> dict:
    """``asdict`` factory with JSON-shaped values: tuples become lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in fields}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a whole-space sweep.

    ``checks_run`` counts evaluated (graph, alpha) instances per check;
    ``skips`` names the violated precondition for everything not checked.
    ``failures`` keeps the first FAILURE_CAP records in sweep order,
    ``failure_count`` is exact.
    """

    n_range: tuple[int, ...]
    alpha_set: tuple[float, ...]
    engine: str
    jobs: int
    tolerance: float
    graphs_checked: int
    graphs_checked_by_n: dict[int, int]
    checks_run: dict[str, int]
    skips: dict[str, dict[str, int]]
    failure_count: int
    failures: tuple[dict, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def to_dict(self) -> dict:
        doc = asdict(self, dict_factory=_report_doc)
        doc["graphs_checked_by_n"] = {str(k): v for k, v in self.graphs_checked_by_n.items()}
        return doc


def verify_all(
    n_max: int,
    alphas,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    jobs: int = 1,
    allow_n8: bool = False,
    engine: str = "bulk",
) -> VerificationReport:
    """Run every applicable check on every connected graph with n <= n_max.

    The mask space of each n is split into ranges (``_bulk.iter_mask_ranges``,
    smaller for the scalar engine) and the engine's chunk function runs once
    per range, in up to ``jobs`` worker processes: no more of them than
    there are ranges or CPUs, since a pool starts all of its workers at the
    first task, and in-process when that leaves one.  Pool workers keep the
    heap they free (:func:`_keep_freed_heap`), since each range frees a
    working set the next one needs again; an in-process run keeps the
    caller's allocator settings.  Chunk results are
    merged in range order, so the report does not depend on ``jobs`` beyond
    recording it.  The coefficient sign grid (graph-independent) runs once
    per call with the same exponents.  An exponent whose powers could leave
    the float range raises ``PowerOverflow`` before any range runs, for both
    engines alike; a count under a check that :mod:`nbzagreb.claims` lacks
    raises RuntimeError.
    """
    _check_n(n_max, allow_n8)
    alpha_objs = [as_alpha(a) for a in alphas]
    if not alpha_objs:
        raise ValueError("need at least one exponent")
    _check_tolerance(tolerance)
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    chunk = _ENGINES.get(engine)
    if chunk is None:
        raise ValueError(f"unknown engine {engine!r}")
    _refuse_overflow(n_max, max((n_max - 1) ** 2, GRID_P_MAX), alpha_objs)
    start = time.perf_counter()
    alpha_values = tuple(a.value for a in alpha_objs)
    ns, los, his = zip(*(
        (n, lo, hi) for n in range(1, n_max + 1)
        for lo, hi in _bulk.iter_mask_ranges(n, _TASK_BITS[engine])
    ))
    total = Tally()
    by_n: dict[int, int] = {}
    workers = min(jobs, len(ns), os.cpu_count() or 1)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_keep_freed_heap
    ) if workers > 1 else nullcontext() as pool:
        mapper = pool.map if pool else map
        tallies = mapper(
            chunk, ns, los, his, itertools.repeat(alpha_values), itertools.repeat(tolerance)
        )
        for n, tally in zip(ns, tallies):
            by_n[n] = by_n.get(n, 0) + tally.graphs
            total.merge(tally)

    grid_count, grid_violations = coefficient_sign_grid(alpha_objs)
    total.checks["coefficient_sign_grid"] += grid_count
    for violation in grid_violations:
        total.fail(**violation)

    stray = {f["check"] for f in total.failures}.union(total.checks, total.skips)
    if stray := sorted(stray.difference(CHECK_NAMES)):
        raise RuntimeError(f"checks outside nbzagreb.claims: {', '.join(stray)}")
    checks_run = {name: total.checks.get(name, 0) for name in CHECK_NAMES}
    skips = {name: dict(sorted(total.skips[name].items()))
             for name in CHECK_NAMES if name in total.skips}
    return VerificationReport(
        n_range=tuple(range(1, n_max + 1)),
        alpha_set=tuple(a.value for a in alpha_objs),
        engine=engine,
        jobs=jobs,
        tolerance=tolerance,
        graphs_checked=total.graphs,
        graphs_checked_by_n=by_n,
        checks_run=checks_run,
        skips=skips,
        failures=tuple(total.failures),
        failure_count=total.failure_count,
        elapsed=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Extremal (equality-attaining) graph search


@dataclass(frozen=True)
class ExtremalRecord:
    """An isomorphism-class representative attaining a bound exactly.

    ``structural_match`` records membership in the named equality family of
    the bound.  For the secant and congruence forms that family is the
    structural equality flag itself (two-valued histogram support, the
    {hi: q, min+r: 1, min: n-q-1} histogram), so every record matches; for
    the unit form it says whether the graph is a path.
    """

    graph: str
    bound_source: str
    alpha: float
    slack: float
    structural_match: bool

    def to_dict(self) -> dict:
        return asdict(self)


def find_equality_graphs(
    n: int, alpha, source: str, *, allow_n8: bool = False
) -> list[ExtremalRecord]:
    """All isomorphism classes on n vertices attaining the named bound with
    equality, sorted by graph6 encoding.  An exponent whose powers could
    leave the float range raises ``PowerOverflow`` before the search.

    The classes of :func:`_connected_classes` are screened in one batch by
    :func:`nbzagreb._bulk.equality_flags`, and only the flagged ones go
    through the bound's per-graph operation, which gives the slack.  Both
    decide equality structurally, each on its own code; a flagged class
    whose operation raises a precondition or reports no equality raises
    RuntimeError, naming the class."""
    op = _SOURCE_OPS.get(source)
    if op is None:
        raise UnknownBoundSource(
            f"unknown bound source {source!r}; expected one of {', '.join(BOUND_SOURCES)}"
        )
    _check_n(n, allow_n8)
    a = as_alpha(alpha)
    _refuse_overflow(n, (n - 1) ** 2, [a])
    masks, rows = _connected_classes(n)
    records = []
    for mask in masks[_bulk.equality_flags(rows)[source]].tolist():
        g = graph_of_mask(n, mask)
        graph6 = encode_graph6(g)
        disagree = f"the batched equality flag and the {source} bound disagree on {graph6}"
        p = degree_profile(g)
        try:
            rep = op(p, a)
        except PreconditionError as exc:
            raise RuntimeError(f"{disagree}: {exc}") from exc
        if not rep.equality:
            raise RuntimeError(disagree)
        records.append(
            ExtremalRecord(
                graph=graph6,
                bound_source=source,
                alpha=a.value,
                slack=rep.slack,
                structural_match=source != "unit" or is_path(g),
            )
        )
    records.sort(key=lambda r: r.graph)
    return records
