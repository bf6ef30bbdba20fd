"""Exhaustive small-graph sweeps, canonical forms and extremal search.

Connected graphs on up to 8 vertices (8 behind an explicit flag) are
enumerated as edge-subset bitmasks.  ``verify_all`` replays every identity,
bound and spectral check over the whole space and aggregates failures and
precondition skips into a report; nothing is ever skipped silently.

Two engines run the same checks and word failures alike: ``bulk`` runs
the vectorized kernels from :mod:`nbzagreb._bulk`, ``scalar`` routes every
graph through the public per-graph operations and reports the precondition
an operation raises as the skip reason (see :func:`nbzagreb.errors.reason`).
The scalar engine is the reference; the bulk engine is what makes n = 7
sweeps take seconds instead of hours.  Everything around the checks is
shared: each engine is one function over a range of masks, and
``verify_all`` builds one task list of ranges, runs it sequentially or on
a process pool, and merges the results in range order.

Isomorphism dedup is by full permutation minimization: the canonical form
of a graph is the lexicographically smallest adjacency bitstring over all
vertex relabelings, which is also the smallest graph6 encoding.
"""

from __future__ import annotations

import itertools
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
    CHECK_NAMES,
    NO_CONVERGENCE,
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
from .errors import (
    NoConvergence,
    NTooLarge,
    PreconditionError,
    UnknownBoundSource,
    reason,
)
from .graphs import DegreeProfile, Graph, _g6_pairs, degree_profile, encode_graph6, is_path
from .indices import (
    MID,
    Alpha,
    as_alpha,
    nm2_direct,
    nm2_reconstruct_secant,
    nm2_reconstruct_unit,
    nm_direct,
    nm_reconstruct_secant,
    nm_reconstruct_unit,
)
from .spectral import (
    _min_nbr_bound,
    _min_nbr_numerator,
    _nm2,
    _ratio_bound,
    ratio_bound_is_exact,
    spectral_radius,
)

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


def _graph_of_mask(n: int, mask: int) -> Graph:
    return Graph.from_edges(n, _bulk.edges_of_mask(n, mask))


@lru_cache(maxsize=8)
def _perm_table(n: int) -> np.ndarray:
    """Edge-slot permutation table (n!, npairs)."""
    pairs = _g6_pairs(n)
    index = np.zeros((n, n), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        index[i, j] = index[j, i] = k
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    table = np.empty((perms.shape[0], len(pairs)), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        table[:, k] = index[perms[:, i], perms[:, j]]
    return table


def _orbit_keys(n: int, mask: int) -> np.ndarray:
    """Masks of every relabeling of the graph encoded by ``mask``."""
    table = _perm_table(n)
    bits = _bulk._bits_of(np.array([mask]), table.shape[1])[0]
    return _bulk._masks_of(bits[table])


def canonical_form(g: Graph) -> Graph:
    """Representative with the lexicographically smallest adjacency
    bitstring (hence smallest graph6 string) over all relabelings."""
    _check_n(g.n, allow_n8=True)
    keys = _orbit_keys(g.n, _bulk.mask_of_edges(g.n, g.edges()))
    return _graph_of_mask(g.n, int(keys.min()))


def enumerate_connected(
    n: int, dedup: bool = False, *, allow_n8: bool = False
) -> Iterator[Graph]:
    """Yield every connected labeled graph on n vertices in ascending mask
    order; with ``dedup``, one canonical representative per isomorphism
    class.

    The mask space is filtered one range at a time by
    :func:`nbzagreb._bulk.connected_masks`, which decides connectivity on
    per-vertex neighbor bitmasks.  Dedup keeps a seen-bitmap over the whole
    mask space and expands the isomorphism orbit of each new
    representative, so representatives are exactly the orbit-minimal masks
    (256 MB bitmap at n = 8).  Each range is first reduced in numpy to the
    masks not yet seen (37,085 of the 1,866,256 connected masks at n = 7),
    and only those reach the per-mask loop.
    """
    _check_n(n, allow_n8)
    if not dedup:
        for lo, hi in _bulk.iter_mask_ranges(n):
            for mask in _bulk.connected_masks(n, lo, hi).tolist():
                yield _graph_of_mask(n, mask)
        return
    seen = np.zeros(1 << _bulk.pair_count(n), dtype=bool)
    for lo, hi in _bulk.iter_mask_ranges(n):
        masks = _bulk.connected_masks(n, lo, hi)
        # A representative marks masks later in the same range as seen.
        for mask in masks[~seen[masks]].tolist():
            if seen[mask]:
                continue
            seen[_orbit_keys(n, mask)] = True
            yield _graph_of_mask(n, mask)


# ---------------------------------------------------------------------------
# Coefficient sign grid


SIGN_TOL = 1e-12


def coefficient_sign_grid(alphas, p_max: int = 12) -> tuple[int, list[dict]]:
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
#
# Every check that has a per-graph op runs that op, and a PreconditionError
# it raises becomes the skip reason (the exception's snake_case name).  The
# engine names only not_diameter_two for the distance-2 identity, no_edges
# and not_regular, which no op decides, and n_lt_3: for n <= 2 the ops would
# raise neighborhood_regular or gap_too_small, but the bulk engine reports
# n_lt_3 there, and both engines must give the same report.

_NM_OPS = {
    "nm_reconstruct_secant": nm_reconstruct_secant,
    "nm_reconstruct_unit": nm_reconstruct_unit,
}

_NM2_OPS = {
    "nm2_reconstruct_secant": nm2_reconstruct_secant,
    "nm2_reconstruct_unit": nm2_reconstruct_unit,
}


def _run_ops(tally: Tally, ops: dict, p: DegreeProfile, alphas: list[Alpha], *args) -> dict:
    """Each op's results at every exponent, keyed by check.

    On a connected graph no precondition depends on the exponent, so an op
    that raises is skipped at every exponent under one reason.
    """
    results = {}
    for check, op in ops.items():
        try:
            results[check] = [op(p, alpha, *args) for alpha in alphas]
        except PreconditionError as exc:
            tally.skip(check, reason(exc), len(alphas))
        else:
            tally.checks[check] += len(alphas)
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
    nalpha = len(alphas)

    def fail(check, expected, got, alpha=None):
        # A full tally only counts, so it needs no graph6.
        graph6 = encode_graph6(g) if tally.room() else None
        tally.fail(graph6, check, expected, got, alpha=alpha)

    tally.checks["m1_identity"] += 1
    nbr_total = sum(p.nbr_deg)
    if nbr_total != p.m1:
        fail("m1_identity", SUM_EXPECTED.format("nbr_deg", p.m1), nbr_total)

    if n < 3:
        for check in (*_NM_OPS, *(f"nm_bound_{source}" for source in _SOURCE_OPS)):
            tally.skip(check, "n_lt_3", nalpha)
        tally.skip("congruence_classify", "n_lt_3", 1)
    else:
        try:
            cd = congruence_classify(p)
        except PreconditionError as exc:
            tally.skip("congruence_classify", reason(exc), 1)
        else:
            tally.checks["congruence_classify"] += 1
            lo, hi = p.delta_min, p.delta_max
            if cd.is_bi_degree_case and set(p.nbr_hist) != {lo, hi}:
                fail("congruence_classify", BI_DEGREE_SUPPORT, dict(p.nbr_hist))
            if cd.r >= 1 and p.nbr_hist.get(hi, 0) == cd.q and not cd.part2_constraints_hold:
                fail("congruence_classify", TOP_COUNT_PATTERN, dict(p.nbr_hist))

        recon = _run_ops(tally, _NM_OPS, p, alphas)
        bound_ops = {f"nm_bound_{source}": op for source, op in _SOURCE_OPS.items()}
        bounds = _run_ops(tally, bound_ops, p, alphas, tolerance)
        for i, alpha in enumerate(alphas):
            if recon:
                _compare_identities(fail, recon, i, alpha, nm_direct(p, alpha), tolerance)
            for check, reps in bounds.items():
                rep = reps[i]
                if not rep.holds:
                    expected = bound_expected(rep.direction == UPPER, rep.bound, rep.equality)
                    fail(check, expected, rep.computed, alpha=alpha.value)

    if p.diameter != 2:
        tally.skip("dist2_identity", "not_diameter_two", 1)
    else:
        tally.checks["dist2_identity"] += 1
        total2 = 2 * p.m * (n - 1) - p.m1
        d2_total = sum(p.dist2_deg)
        if d2_total != total2:
            fail("dist2_identity", SUM_EXPECTED.format("dist2_deg", total2), d2_total)
    recon2 = _run_ops(tally, _NM2_OPS, p, alphas)
    if recon2:
        for i, alpha in enumerate(alphas):
            _compare_identities(fail, recon2, i, alpha, nm2_direct(p, alpha), tolerance)

    if p.m1 == 0:
        tally.skip("spectral_chain", "no_edges", 1)
        tally.skip("spectral_regular", "no_edges", 1)
        return
    # The chain holds by the integer certificate or by the converged rho,
    # and its second link and the regular-graph equalities are integer
    # comparisons over the common denominator M1.
    tally.checks["spectral_chain"] += 1
    try:
        sr = spectral_radius(g)
    except NoConvergence:
        sr = None
    nm2, min_nbr_num = _nm2(p), _min_nbr_numerator(p)
    ratio_bound = _ratio_bound(p)
    min_nbr_bound = _min_nbr_bound(p)
    if ratio_bound_is_exact(g, p):
        rho_squared = ratio_bound
    elif sr is None:
        fail("spectral_chain", *NO_CONVERGENCE)
        rho_squared = None
    else:
        rho_squared = sr.rho_squared
    if rho_squared is not None and not (rho_squared >= ratio_bound and nm2 >= min_nbr_num):
        fail("spectral_chain", CHAIN_EXPECTED.format(ratio_bound, min_nbr_bound), rho_squared)
    if min(p.deg) == max(p.deg):
        # A connected k-regular graph has A 1 = k 1, so rho = k.
        tally.checks["spectral_regular"] += 1
        k2 = p.deg[0] * p.deg[0]
        if not (nm2 == k2 * p.m1 and min_nbr_num == k2 * p.m1):
            fail(
                "spectral_regular", REGULAR_EXPECTED.format(k2),
                REGULAR_GOT.format(ratio_bound, min_nbr_bound),
            )
    else:
        tally.skip("spectral_regular", "not_regular", 1)


def _scalar_chunk(
    n: int, mask_lo: int, mask_hi: int, alphas: tuple[float, ...], tolerance: float
) -> Tally:
    """The scalar engine on the connected masks of one range; same
    signature and result as :func:`nbzagreb._bulk.sweep_chunk`."""
    alpha_objs = [as_alpha(a) for a in alphas]
    tally = Tally()
    for mask in _bulk.connected_masks(n, mask_lo, mask_hi).tolist():
        tally.graphs += 1
        _scalar_graph_checks(_graph_of_mask(n, mask), alpha_objs, tolerance, tally)
    return tally


# ---------------------------------------------------------------------------
# Whole-space verification

# Per-chunk function of each engine: (n, mask_lo, mask_hi, alphas, tolerance) -> Tally.
_ENGINES = {"bulk": _bulk.sweep_chunk, "scalar": _scalar_chunk}


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

    The mask space of each n is split into ranges (``_bulk.iter_mask_ranges``)
    and the engine's chunk function runs once per range, in worker processes
    when ``jobs`` > 1.  Chunk results are merged in range order, so the
    report does not depend on ``jobs``.  The coefficient sign grid
    (graph-independent) runs once per call with the same exponents.
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
    start = time.perf_counter()
    alpha_values = tuple(a.value for a in alpha_objs)
    ns, los, his = zip(
        *((n, lo, hi) for n in range(1, n_max + 1) for lo, hi in _bulk.iter_mask_ranges(n))
    )
    total = Tally()
    by_n: dict[int, int] = {}
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
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

    checks_run = {name: total.checks.get(name, 0) for name in CHECK_NAMES}
    skips = {
        name: dict(sorted(total.skips[name].items()))
        for name in CHECK_NAMES
        if name in total.skips
    }
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
    equality, sorted by graph6 encoding."""
    op = _SOURCE_OPS.get(source)
    if op is None:
        raise UnknownBoundSource(
            f"unknown bound source {source!r}; expected one of {', '.join(BOUND_SOURCES)}"
        )
    _check_n(n, allow_n8)
    a = as_alpha(alpha)
    records = []
    for g in enumerate_connected(n, dedup=True, allow_n8=allow_n8):
        p = degree_profile(g)
        try:
            rep = op(p, a)
        except PreconditionError:
            continue
        if not rep.equality:
            continue
        records.append(
            ExtremalRecord(
                graph=encode_graph6(g),
                bound_source=source,
                alpha=a.value,
                slack=rep.slack,
                structural_match=source != "unit" or is_path(g),
            )
        )
    records.sort(key=lambda r: r.graph)
    return records
