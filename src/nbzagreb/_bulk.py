"""Vectorized kernels for exhaustive edge-mask sweeps.

Graphs on n vertices are encoded as integers whose bits select edge slots.
Slot k is the k-th pair in graph6 column-major order ((0,1),(0,2),(1,2),
(0,3),...) and is stored at bit position npairs-1-k, so numeric order on
masks equals lexicographic order on graph6 bitstreams.  All kernels work on
contiguous mask ranges in numpy batches.

A batch of decoded graphs is an (n, graphs) array of neighbor bitmasks,
one set-word per vertex as in nauty: bit u of rows[v, g] is set when uv is
an edge of graph g.  The row dtype is the narrowest unsigned integer that
holds n bits, so the sweeps (n <= 8) use one byte per vertex; rows wider
than 64 bits raise ``NTooLarge``.  Every per-vertex array has the same
vertex-major layout, so each step of a kernel runs over contiguous rows of
graph length, and every reduction over the vertices is n - 1 such steps.
Degrees are popcounts, and the neighborhood degrees, distance-2 degrees
and A(Ad) are sums of per-vertex values over each row's bits, held in the
narrow signed dtype of :func:`_sum_dtype` (int16 at every sweep n); the
per-graph totals, products and certificates are int64.  Connectivity, the
two-step rows and the diameter-2 test are ORs and comparisons against the
full mask.  Only :func:`batched_power_iteration` expands rows to dense
(graphs, n, n) matrices, and only the rows the integer certificates leave
open, which a clean sweep never has.

The reconstructions are evaluated per vertex, on the neighborhood and
distance-2 degrees, rather than over a per-graph histogram of every
possible degree value.  Each vertex's correction term is one lookup in a
table of coefficients indexed by the row's (min, max) degrees and the
vertex's degree, built per exponent in every :func:`sweep_chunk` call.
Summing per vertex instead of per histogram bin changes the floating-point
summation order, so instances within a few ulps of the tolerance can
change verdict; the vertex sums themselves follow numpy's order for a
(graphs, n) array summed over axis 1 (see :func:`_float_sum`).

The sweep kernel mirrors the scalar operations in :mod:`nbzagreb.indices`,
:mod:`nbzagreb.bounds` and :mod:`nbzagreb.spectral` check for check,
including the skip-reason accounting, so that reports from both engines are
directly comparable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import NTooLarge
from .graphs import _g6_pack, _g6_pairs

CHUNK_BITS = 15

CHECK_NAMES = (
    "m1_identity",
    "nm_reconstruct_secant",
    "nm_reconstruct_unit",
    "nm_bound_secant",
    "nm_bound_unit",
    "nm_bound_congruence",
    "congruence_classify",
    "dist2_identity",
    "nm2_reconstruct_secant",
    "nm2_reconstruct_unit",
    "spectral_chain",
    "spectral_regular",
    "coefficient_sign_grid",
)

FAILURE_CAP = 1000


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _slot_shifts(npairs: int) -> np.ndarray:
    """Bit position of each edge slot in a mask: slot k sits at bit npairs-1-k."""
    return np.arange(npairs - 1, -1, -1, dtype=np.int64)


def _bits_of(masks: np.ndarray, npairs: int) -> np.ndarray:
    """(len(masks), npairs) 0/1 slot bits of a 1-D array of masks, npairs
    <= 63.  Big-endian bytes unpack most significant bit first, so the
    last npairs bits of each 64-bit word are slots 0 .. npairs - 1."""
    words = np.unpackbits(masks.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
    return words[:, 64 - npairs :]


def _masks_of(bits: np.ndarray) -> np.ndarray:
    """Masks of 0/1 slot bits along the last axis; inverse of _bits_of."""
    return bits @ (1 << _slot_shifts(bits.shape[-1]))


def mask_of_edges(n: int, edges) -> int:
    bits = np.zeros(pair_count(n), dtype=np.uint8)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        bits[j * (j - 1) // 2 + i] = 1
    return int(_masks_of(bits))


def edges_of_mask(n: int, mask: int) -> list[tuple[int, int]]:
    pairs = _g6_pairs(n)
    bits = _bits_of(np.array([mask]), len(pairs))[0].tolist()
    return [pair for pair, bit in zip(pairs, bits) if bit]


def graph6_of_mask(n: int, mask: int) -> str:
    """graph6 string of a mask; matches graphs.encode_graph6."""
    return _g6_pack(n, _bits_of(np.array([mask]), pair_count(n))[0].tolist())


@dataclass
class Tally:
    """Mergeable per-chunk result: counts, skip reasons, the exact failure
    count and the first FAILURE_CAP failure records in sweep order."""

    graphs: int = 0
    checks: Counter = field(default_factory=Counter)
    skips: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    failure_count: int = 0

    def skip(self, check: str, reason: str, count: int = 1) -> None:
        if count:
            reasons = self.skips.get(check)
            if reasons is None:
                reasons = self.skips[check] = Counter()
            reasons[reason] += count

    def room(self) -> int:
        """How many more failure records this tally keeps."""
        return FAILURE_CAP - len(self.failures)

    def fail(self, graph6, check, expected, got, alpha=None) -> None:
        self.failure_count += 1
        if len(self.failures) < FAILURE_CAP:
            self.failures.append(
                {
                    "graph6": graph6,
                    "check": check,
                    "alpha": alpha,
                    "expected": expected,
                    "got": got,
                }
            )

    def merge(self, other: "Tally") -> None:
        self.graphs += other.graphs
        self.checks.update(other.checks)
        for check, reasons in other.skips.items():
            self.skips.setdefault(check, Counter()).update(reasons)
        self.failures.extend(other.failures[: FAILURE_CAP - len(self.failures)])
        self.failure_count += other.failure_count


# ---------------------------------------------------------------------------
# Failure wording, shared by both engines

BI_DEGREE_SUPPORT = "bi-degree case implies support {min, max}"
TOP_COUNT_PATTERN = (
    "top-count q forces empty interior above min+r and at most one vertex at min+r"
)
NO_CONVERGENCE = ("convergence", "no_convergence")  # (expected, got)
# Templates filled with str.format:
SUM_EXPECTED = "sum {} == {}"  # degree name, exact total
CHAIN_EXPECTED = "rho^2 >= {!r} >= {!r}"  # ratio bound, min-nbr bound
REGULAR_EXPECTED = "both bounds == {!r}"  # k*k
REGULAR_GOT = "ratio={!r}, min_nbr={!r}"  # ratio bound, min-nbr bound


def bound_expected(upper: bool, bound: float, equality: bool) -> str:
    """The ``expected`` field of a failed bound check."""
    return f"{'<=' if upper else '>='} {bound!r}" + (" with equality" if equality else "")


# ---------------------------------------------------------------------------
# Batch construction


def _row_dtype(n: int) -> np.dtype:
    """Narrowest unsigned integer dtype that holds an n-bit neighbor row."""
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if n <= np.iinfo(dtype).bits:
            return np.dtype(dtype)
    raise NTooLarge(f"n = {n} exceeds the 64-bit neighbor rows of the bulk kernels")


def _sum_dtype(n: int) -> np.dtype:
    """Narrowest signed dtype, from int16 up, that holds n (n - 1)**3 and
    has at least n bits.

    Every per-vertex value the kernels sum over a row's bits is at most
    (n - 1)**3, the x3 = A(Ad) of K_n, and every per-vertex square they form
    at most (n - 1)**4; a sum of either over the n vertices stays within
    n (n - 1)**3 apart from NM_2, which is summed in int64.  The n bits let
    :func:`_over_bits` shift a row in this dtype.  int16 serves every sweep
    n (2,744 at n = 8); int8 would serve only n <= 4, a few hundred graphs."""
    top = n * (n - 1) ** 3
    for dtype in (np.int16, np.int32, np.int64):
        if top <= np.iinfo(dtype).max and n <= np.iinfo(dtype).bits:
            return np.dtype(dtype)
    raise NTooLarge(f"n = {n} exceeds the int64 sums of the bulk kernels")


def _adj_of(bits: np.ndarray, n: int) -> np.ndarray:
    """(n, graphs) neighbor rows of (graphs, npairs) slot bits: bit u of
    rows[v, g] is set when uv is an edge of graph g."""
    dtype = _row_dtype(n)
    # The loops below run over one contiguous array per slot and per vertex.
    slots = np.ascontiguousarray(bits.T, dtype=dtype)
    rows = np.zeros((n, bits.shape[0]), dtype=dtype)
    for slot, (i, j) in zip(slots, _g6_pairs(n)):
        rows[i] |= slot << j
        rows[j] |= slot << i
    return rows


def _over_bits(ufunc, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per (v, graph), ``ufunc`` (np.add or np.bitwise_or) reduced over
    values[u] for the bits u of rows[v]; 0 on an empty row.  Sums stay in
    the values' dtype, which must have at least n bits (as the rows' own
    dtype and that of :func:`_sum_dtype` do)."""
    out = np.zeros(rows.shape, dtype=values.dtype)
    bit = np.empty(rows.shape[1], dtype=values.dtype)
    # One vertex at a time, so every step stays on arrays of graph length;
    # row shifts down by one bit per step and bit holds its lowest bit.
    for row, total in zip(rows, out):
        row = row.astype(values.dtype)
        for column in values:
            np.bitwise_and(row, 1, out=bit)
            row >>= 1
            ufunc(total, np.multiply(bit, column, out=bit), out=total)
    return out


_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.int8)


def _degrees(rows: np.ndarray) -> np.ndarray:
    """Popcount of each neighbor row, in the dtype of :func:`_sum_dtype`."""
    # numpy gathers far faster with intp indices than with uint8 ones.
    counts = _POPCOUNT[rows.view(np.uint8).astype(np.intp)].reshape(*rows.shape, rows.itemsize)
    return counts.sum(axis=-1, dtype=_sum_dtype(rows.shape[0]))


def _connected(rows: np.ndarray) -> np.ndarray:
    """Per graph of an (n, graphs) row batch: is it connected?  The set
    reached from vertex 0 grows by the rows of the vertices in it; n - 1
    passes over the vertices reach every vertex within distance n - 1."""
    n, b = rows.shape
    reach = np.ones(b, dtype=rows.dtype)
    for _ in range(n - 1):
        for v, row in enumerate(rows):
            reach |= ((reach >> v) & 1) * row
    return reach == rows.dtype.type((1 << n) - 1)


def _dense(rows: np.ndarray) -> np.ndarray:
    """(graphs, n, n) float64 adjacency matrices of an (n, graphs) row batch."""
    n = rows.shape[0]
    return ((rows.T[:, :, None] >> np.arange(n, dtype=rows.dtype)) & 1).astype(np.float64)


def _vertex_sum(values: np.ndarray) -> np.ndarray:
    """int64 per-graph sum of an (n, graphs) integer array, accumulated in
    its own dtype (see :func:`_sum_dtype`)."""
    return values.sum(axis=0, dtype=values.dtype).astype(np.int64)


def _float_sum(terms: np.ndarray) -> np.ndarray:
    """Per graph, the sum over the vertex rows of (n, graphs) float terms,
    bit for bit the sum numpy's ``sum(axis=1)`` gives on the (graphs, n)
    transpose.  Below 8 terms that adds in order; from 8 (up to numpy's
    128-term pairwise block) it keeps 8 running partial sums, adds them as
    ((0+1)+(2+3))+((4+5)+(6+7)) and then the leftover terms in order."""
    n = terms.shape[0]
    if n < 8:
        total = terms[0].copy()
        for row in terms[1:]:
            total += row
        return total
    tail = n - n % 8
    part = terms[:8].copy()
    for block in range(8, tail, 8):
        part += terms[block : block + 8]
    total = (part[0] + part[1]) + (part[2] + part[3])
    total += (part[4] + part[5]) + (part[6] + part[7])
    for row in terms[tail:]:
        total += row
    return total


def iter_mask_ranges(n: int):
    """Split the full mask space of n-vertex graphs into chunk ranges."""
    total = 1 << pair_count(n)
    step = 1 << CHUNK_BITS
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


def _decode(n: int, mask_lo: int, mask_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks in [mask_lo, mask_hi) and their (masks, n) neighbor rows."""
    masks = np.arange(mask_lo, mask_hi, dtype=np.int64)
    return masks, _adj_of(_bits_of(masks, pair_count(n)), n)


def connected_masks(n: int, mask_lo: int, mask_hi: int) -> np.ndarray:
    """Ascending array of connected masks within [mask_lo, mask_hi)."""
    masks, rows = _decode(n, mask_lo, mask_hi)
    return masks[_connected(rows)]


# ---------------------------------------------------------------------------
# Spectral chain certificates


def _nm2(nbr: np.ndarray) -> np.ndarray:
    """NM_2, the sum of squared neighborhood degrees, per graph, in int64."""
    nbr = nbr.astype(np.int64)
    return (nbr * nbr).sum(axis=0)


def ratio_certificates(rows, deg, nbr, m1, nm2) -> tuple[np.ndarray, np.ndarray]:
    """Graphs on which the first chain link rho**2 >= NM_2 / M1 is settled
    in integers, as (exact, strict).

    With A the adjacency held by the (n, graphs) neighbor ``rows``, d the
    degree vector, nbr = A d and x3 = A nbr = A**2 d:

    - exact: x3 * M1 == NM_2 * d on every vertex, i.e. A**2 d =
      (NM_2 / M1) d, so rho**2 == NM_2 / M1; see
      :func:`nbzagreb.spectral.ratio_bound_is_exact` for why that pins rho.
    - strict: |x3|**2 * M1 > NM_2**2.  |x3|**2 / NM_2 is the Rayleigh
      quotient of A**2 at A d, since NM_2 = |A d|**2, so it never exceeds
      rho**2, and the test says it exceeds NM_2 / M1.

    By Cauchy-Schwarz, (d . A**2 d)**2 = NM_2**2 <= |A**2 d|**2 * M1, with
    equality exactly when A**2 d is parallel to d (in walk counts, W_6 W_2
    >= W_4**2), so on a correct program every graph is exact or strict and
    never both.  Every x3_v is at most (n - 1)**3 and M1 at most
    n (n - 1)**2, so |x3|**2 * M1 <= n**2 (n - 1)**8, 3.7e8 at n = 8; the
    products are int64.
    """
    x3 = _over_bits(np.add, rows, nbr).astype(np.int64)
    exact = (x3 * m1 == nm2 * deg).all(axis=0)
    strict = (x3 * x3).sum(axis=0) * m1 > nm2 * nm2
    return exact, strict


def batched_power_iteration(rows: np.ndarray, ratio: np.ndarray, settled: np.ndarray):
    """rho**2 per graph for the graphs that :func:`ratio_certificates`
    leaves open; ``ratio`` (NM_2 / M1) on the ``settled`` ones.

    The sweep settles every graph of a correct program, so the eigensolve
    runs only under faults, where the chain records carry its rho**2.  On
    the open graphs, expanded to dense matrices, it is ``eigvalsh``, a
    method independent of the scalar engine's Lanczos, so a float
    comparison against NM_2 / M1 decides them as the scalar engine does;
    over every connected graph with n <= 7 the inexact graphs clear that
    bound by a relative 9.87e-5 or more, so no comparison sits near a tie.

    Returns (rho_sq, solves): solves is an int64 count per graph, 0 on
    settled graphs and 1 on solved ones.  The name and ``result[1]`` stay
    for perfbench's ``bulk.power_iteration*`` metrics; the re-pin of
    ROADMAP item 1 inlines this function into :func:`sweep_chunk`.
    """
    open_rows = ~settled
    rho_sq = ratio.copy()
    rho_sq[open_rows] = np.linalg.eigvalsh(_dense(rows.compress(open_rows, axis=1)))[:, -1] ** 2
    return rho_sq, open_rows.astype(np.int64)


# ---------------------------------------------------------------------------
# Sweep kernel


def _row_hist(values: np.ndarray, width: int) -> np.ndarray:
    """(graphs, width) histogram of each graph's column of (n, graphs) values."""
    b = values.shape[1]
    flat = values + width * np.arange(b, dtype=np.int64)
    return np.bincount(flat.ravel(), minlength=b * width).reshape(b, width)


def _powers(width: int, alpha: float) -> np.ndarray:
    # Slot 0 stays 0; no row that reaches a reconstruction has a zero degree.
    pw = np.zeros(width)
    if width > 1:
        pw[1:] = np.arange(1, width, dtype=np.float64) ** alpha
    return pw


def _pair_row(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row of the secant table for the degree range lo < hi."""
    return hi * (hi - 1) // 2 + lo


def _correction_tables(pw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex correction coefficients of the two reconstruction forms,
    given pw[k] = k**alpha over every degree k < width:

    - secant[_pair_row(lo, hi), k] = pw[k] - pw[lo] - (k - lo) * slope for
      lo < k < hi, slope = (pw[hi] - pw[lo]) / (hi - lo);
    - unit[lo, k] = pw[k] - pw[lo] - (k - lo) * step for k >= lo + 2, step
      = pw[lo + 1] - pw[lo];

    and 0 outside each form's interior.  Every entry is the expression the
    per-vertex sum evaluates, in the same float operations, so a lookup
    gives the same bits.  A row's degrees never exceed its maximum, so the
    unit form needs no upper cut."""
    width = pw.size
    # Offsets k - lo are small integers, exact as floats.
    k = np.arange(width, dtype=np.float64)
    # Unit table: one row per lo; its last row has no interior.
    offset = k - k[:, None]
    step = np.append(pw[1:] - pw[:-1], 0.0)
    unit = (pw - pw[:, None]) - offset * step[:, None]
    unit[offset < 2] = 0.0
    # Secant table: one row per pair lo < hi, in _pair_row order.
    hi, lo = np.tril_indices(width, -1)
    slope = (pw[hi] - pw[lo]) / (hi - lo)
    offset = k - lo[:, None]
    secant = (pw - pw[lo][:, None]) - offset * slope[:, None]
    secant[(offset < 1) | (k >= hi[:, None])] = 0.0
    return secant, unit


def _count_between(x: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Per graph of (n, graphs) x, how many vertices have first <= x_v <=
    last, with per-graph bounds."""
    # The bounds lie within one of the graph's degree range, so they fit
    # x's dtype, and the comparisons stay narrow.
    inside = (x >= first.astype(x.dtype)) & (x <= last.astype(x.dtype))
    return inside.view(np.int8).sum(axis=0, dtype=np.int8).astype(np.int64)


def _tolerances(tolerance: float, reference: np.ndarray) -> np.ndarray:
    return tolerance * np.maximum(1.0, np.abs(reference))


def _line_excess_sum(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Per graph, the sum over its vertices of the correction-table entries
    at an (n, graphs) array of flat positions, row * width + x_v with row
    the graph's row of the table (see :func:`_correction_tables`): the sum
    over the vertices inside the form of x_v**alpha - lo**alpha - (x_v -
    lo) * rate."""
    return _float_sum(table.ravel()[index])


def _report_rows(tally, check, masks, n, rows, expected, got, alpha=None):
    """Record the failing ``rows``: a full record while the tally keeps
    records, and only the count beyond that."""
    failing = np.flatnonzero(rows)
    kept = failing[: tally.room()]
    for row in kept.tolist():
        tally.fail(
            graph6_of_mask(n, int(masks[row])),
            check,
            expected(row) if callable(expected) else expected,
            got(row) if callable(got) else got,
            alpha=alpha,
        )
    tally.failure_count += failing.size - kept.size


def _check_bound(tally, check, masks, n, direct, bound, tol, upper, equality, alpha):
    """Per row, direct must lie below bound (upper) or above it, and within
    tol of it on rows whose structural equality flag is set."""
    tally.checks[check] += direct.size
    ok = direct <= bound + tol if upper else direct >= bound - tol
    ok &= ~equality | (np.abs(direct - bound) <= tol)
    _report_rows(
        tally, check, masks, n, ~ok,
        lambda r: bound_expected(upper, float(bound[r]), bool(equality[r])),
        lambda r: float(direct[r]), alpha,
    )


def _check_reconstructions(tally, prefix, masks, n, x, lo, hi, excess, width, tables, tolerance):
    """Secant and unit reconstructions of sum_v x_v**alpha on the graphs
    of (n, graphs) degrees x that span lo < hi, with excess = sum_v x_v -
    n * lo, one exponent of ``tables`` (alpha, pw, secant table, unit
    table, all ``width`` degrees wide) at a time.  After checking an exponent, yields what the bounds
    reuse: (alpha, pw with pw[k] = k**alpha, the direct sums, their
    tolerances, lo**alpha, the secant slope, the unit step, the two
    reconstruction bases)."""
    # Flat gather positions, in intp: numpy gathers far faster with intp
    # indices than with narrow ones.
    x = x.astype(np.intp)
    secant_index = _pair_row(lo, hi) * width + x
    unit_index = lo * width + x
    for alpha, pw, secant, unit in tables:
        direct = _float_sum(pw[x])
        tol = _tolerances(tolerance, direct)
        lo_pow = pw[lo]
        slope = (pw[hi] - lo_pow) / (hi - lo)
        step = pw[lo + 1] - lo_pow
        base_secant = n * lo_pow + excess * slope
        base_unit = n * lo_pow + excess * step
        for form, base, table, index in (
            ("secant", base_secant, secant, secant_index),
            ("unit", base_unit, unit, unit_index),
        ):
            check = f"{prefix}_reconstruct_{form}"
            recon = base + _line_excess_sum(table, index)
            tally.checks[check] += x.shape[1]
            bad = np.abs(recon - direct) > tol
            _report_rows(
                tally, check, masks, n, bad,
                lambda r: float(direct[r]), lambda r: float(recon[r]), alpha,
            )
        yield alpha, pw, direct, tol, lo_pow, slope, step, base_secant, base_unit


def sweep_chunk(
    n: int,
    mask_lo: int,
    mask_hi: int,
    alphas: tuple[float, ...],
    tolerance: float,
) -> Tally:
    """Run every applicable check on all connected masks in a range."""
    tally = Tally()
    masks, rows = _decode(n, mask_lo, mask_hi)
    keep = _connected(rows)
    # compress keeps (n, graphs) arrays C-contiguous; rows[:, keep] would
    # hand back a column-major copy and slow every later step.
    masks, rows = masks[keep], rows.compress(keep, axis=1)
    b = masks.size
    tally.graphs = b
    if b == 0:
        return tally
    nalpha = len(alphas)

    deg = _degrees(rows)
    m = _vertex_sum(deg) // 2
    m1 = _vertex_sum(deg * deg)
    nbr = _over_bits(np.add, rows, deg)
    delta = nbr.min(axis=0).astype(np.int64)
    big_delta = nbr.max(axis=0).astype(np.int64)

    # closed: N[v] = N(v) + v; two_step: the vertices two steps from v.
    full = (1 << n) - 1
    closed = rows | (rows.dtype.type(1) << np.arange(n, dtype=rows.dtype))[:, None]
    two_step = _over_bits(np.bitwise_or, rows, rows)
    d2 = _over_bits(np.add, two_step & ~closed, deg)
    d2_min = d2.min(axis=0).astype(np.int64)
    d2_max = d2.max(axis=0).astype(np.int64)
    complete = (closed == full).all(axis=0)
    diam2 = ((closed | two_step) == full).all(axis=0) & ~complete

    # Every neighborhood and distance-2 degree is at most (n - 1)**2.
    width = (n - 1) ** 2 + 1
    tables = []
    for alpha in alphas:
        pw = _powers(width, alpha)
        tables.append((alpha, pw, *_correction_tables(pw)))

    # --- M1 identity: sum of neighborhood degrees equals sum of deg^2.
    tally.checks["m1_identity"] += b
    nbr_total = _vertex_sum(nbr)
    _report_rows(
        tally, "m1_identity", masks, n, nbr_total != m1,
        lambda r: SUM_EXPECTED.format("nbr_deg", int(m1[r])),
        lambda r: int(nbr_total[r]),
    )

    # --- Neighborhood-degree checks (hypothesis n >= 3).
    nm_checks = (
        "nm_reconstruct_secant",
        "nm_reconstruct_unit",
        "nm_bound_secant",
        "nm_bound_unit",
    )
    if n < 3:
        for check in nm_checks + ("nm_bound_congruence",):
            tally.skip(check, "n_lt_3", b * nalpha)
        tally.skip("congruence_classify", "n_lt_3", b)
    else:
        sel = delta != big_delta
        n_regular = int(b - sel.sum())
        gap = big_delta - delta
        excess = m1 - n * delta
        # No quotient is non-positive: excess = sum_v (nbr_v - lo) >= hi - lo,
        # the vertex at hi alone contributing that much.
        gap_ok = gap >= 2
        safe_gap = np.maximum(gap, 1)
        quot = np.where(gap_ok, excess // safe_gap, 0)
        rem = np.where(gap_ok, excess - quot * safe_gap, 0)
        rem_pos = gap_ok & (rem >= 1)
        at_rem = _count_between(nbr, delta + rem, delta + rem)
        occupied = rem_pos & (at_rem >= 1)

        n_gap_small = int((~gap_ok).sum())
        n_rem_zero = int((gap_ok & (rem == 0)).sum())
        n_unocc = int((rem_pos & ~occupied).sum())

        # Classification consistency (alpha-independent).
        tally.checks["congruence_classify"] += int(gap_ok.sum())
        tally.skip("congruence_classify", "gap_too_small", n_gap_small)
        hist_hi = _count_between(nbr, big_delta, big_delta)
        hist_lo = _count_between(nbr, delta, delta)

        def nbr_hist(r):
            hist = _row_hist(nbr[:, r : r + 1], width)[0]
            return {d: c for d, c in enumerate(hist.tolist()) if c}

        bi_rows = gap_ok & (rem == 0) & (hist_hi == quot)
        bad = bi_rows & (hist_lo + hist_hi != n)
        _report_rows(
            tally, "congruence_classify", masks, n, bad,
            BI_DEGREE_SUPPORT, nbr_hist,
        )
        p2_rows = rem_pos & (hist_hi == quot)
        interior = _count_between(nbr, delta + rem + 1, big_delta - 1)
        bad = p2_rows & ((interior != 0) | (at_rem > 1))
        _report_rows(
            tally, "congruence_classify", masks, n, bad, TOP_COUNT_PATTERN, nbr_hist,
        )

        idx_sel = np.nonzero(sel)[0]
        masks_s = masks[idx_sel]
        nbr_s = nbr.compress(sel, axis=1)
        lo = delta[idx_sel]
        hi = big_delta[idx_sel]
        excess_s = excess[idx_sel]
        h_hi = hist_hi[idx_sel]
        bi_support = hist_lo[idx_sel] + h_hi == n
        interior2 = _count_between(nbr_s, lo + 2, hi - 1)
        # Occupied rows are a subset of idx_sel (gap >= 2); occ indexes into it.
        occ = np.nonzero(occupied[idx_sel])[0]
        masks_c = masks_s[occ]
        r_c = rem[idx_sel][occ]
        lo_r_c = lo[occ] + r_c
        pattern = (
            (hist_hi == quot) & (at_rem == 1) & (hist_lo == n - quot - 1)
        )[idx_sel][occ]
        for check in nm_checks:
            tally.skip(check, "neighborhood_regular", n_regular * nalpha)
        tally.skip("nm_bound_congruence", "gap_too_small", n_gap_small * nalpha)
        tally.skip("nm_bound_congruence", "remainder_zero", n_rem_zero * nalpha)
        tally.skip("nm_bound_congruence", "unoccupied_remainder_degree", n_unocc * nalpha)
        for alpha, pw, direct, tol, lo_pow, slope, step, base_secant, base_unit in (
            _check_reconstructions(
                tally, "nm", masks_s, n, nbr_s, lo, hi, excess_s, width, tables, tolerance
            )
        ):
            upper = alpha < 0.0 or alpha > 1.0
            # Secant form: equality exactly on bi-supported rows.
            _check_bound(
                tally, "nm_bound_secant", masks_s, n, direct, base_secant, tol,
                upper, bi_support, alpha,
            )
            # Unit form with the top histogram term; the direction flips.
            bound_u = base_unit + h_hi * (pw[hi] - lo_pow - (hi - lo) * step)
            _check_bound(
                tally, "nm_bound_unit", masks_s, n, direct, bound_u, tol,
                not upper, interior2 == 0, alpha,
            )
            bound_c = base_secant[occ] + pw[lo_r_c] - lo_pow[occ] - r_c * slope[occ]
            _check_bound(
                tally, "nm_bound_congruence", masks_c, n, direct[occ], bound_c, tol[occ],
                upper, pattern, alpha,
            )

    # --- Distance-2 identities (diameter exactly 2).
    n_diam2 = int(diam2.sum())
    tally.checks["dist2_identity"] += n_diam2
    tally.skip("dist2_identity", "not_diameter_two", b - n_diam2)
    total2 = 2 * m * (n - 1) - m1
    d2_total = _vertex_sum(d2)
    _report_rows(
        tally, "dist2_identity", masks, n, diam2 & (d2_total != total2),
        lambda r: SUM_EXPECTED.format("dist2_deg", int(total2[r])),
        lambda r: int(d2_total[r]),
    )

    elig2 = diam2 & (d2_min >= 1) & (d2_min != d2_max)
    n_zero_min = int((diam2 & (d2_min == 0)).sum())
    n_d2_regular = int((diam2 & (d2_min >= 1) & (d2_min == d2_max)).sum())
    idx2 = np.nonzero(elig2)[0]
    masks2 = masks[idx2]
    d2_s = d2.compress(elig2, axis=1)
    lo2 = d2_min[idx2]
    hi2 = d2_max[idx2]
    excess2 = total2[idx2] - n * lo2
    for check in ("nm2_reconstruct_secant", "nm2_reconstruct_unit"):
        tally.skip(check, "not_diameter_two", (b - n_diam2) * nalpha)
        tally.skip(check, "zero_min_dist2_degree", n_zero_min * nalpha)
        tally.skip(check, "dist2_regular", n_d2_regular * nalpha)
    for _ in _check_reconstructions(
        tally, "nm2", masks2, n, d2_s, lo2, hi2, excess2, width, tables, tolerance
    ):
        pass

    # --- Spectral chain and regular-graph equalities.  The links between
    # the two bounds are integer comparisons over the common denominator M1.
    if n == 1:
        tally.skip("spectral_chain", "no_edges", b)
        tally.skip("spectral_regular", "no_edges", b)
        return tally
    nm2 = _nm2(nbr)
    ratio_bound = nm2 / m1
    min_nbr_num = m1 * (2 * delta + 1) - n * delta * delta - n * delta
    min_nbr_bound = min_nbr_num / m1
    exact, strict = ratio_certificates(rows, deg, nbr, m1, nm2)
    # Exact rows report rho**2 == NM_2 / M1 if the second link fails; a
    # strict row that fails it needs the eigensolve's rho**2.  The verdict
    # is the scalar engine's rule.
    settled = exact | (strict & (nm2 >= min_nbr_num))
    rho_sq, _solves = batched_power_iteration(rows, ratio_bound, settled)

    tally.checks["spectral_chain"] += b
    bad = (rho_sq < ratio_bound) | (nm2 < min_nbr_num)
    _report_rows(
        tally, "spectral_chain", masks, n, bad,
        lambda r: CHAIN_EXPECTED.format(float(ratio_bound[r]), float(min_nbr_bound[r])),
        lambda r: float(rho_sq[r]),
    )

    # A connected k-regular graph has A 1 = k 1, so rho = k: only the two
    # bounds need checking.
    regular = deg.min(axis=0) == deg.max(axis=0)
    n_regular_deg = int(regular.sum())
    tally.checks["spectral_regular"] += n_regular_deg
    tally.skip("spectral_regular", "not_regular", b - n_regular_deg)
    k2 = deg[0].astype(np.int64) ** 2
    bad = regular & ((nm2 != k2 * m1) | (min_nbr_num != k2 * m1))
    _report_rows(
        tally, "spectral_regular", masks, n, bad,
        lambda r: REGULAR_EXPECTED.format(int(k2[r])),
        lambda r: REGULAR_GOT.format(float(ratio_bound[r]), float(min_nbr_bound[r])),
    )
    return tally


# ---------------------------------------------------------------------------
# Standalone sweeps used by the acceptance suite


def m1_identity_all_graphs(n: int) -> tuple[int, int]:
    """Check sum(nbr_deg) == M1 over ALL graphs on n vertices, connected or
    not.  Returns (graphs checked, mismatches)."""
    mismatches = 0
    total = 0
    for lo, hi in iter_mask_ranges(n):
        masks, rows = _decode(n, lo, hi)
        deg = _degrees(rows)
        m1 = _vertex_sum(deg * deg)
        nbr_total = _vertex_sum(_over_bits(np.add, rows, deg))
        mismatches += int((nbr_total != m1).sum())
        total += masks.size
    return total, mismatches


def tree_identity_sweep(n: int) -> tuple[int, int, int]:
    """Check M1 == 6n - 10 - 2*n2 - 2*n3 on every chemical tree (max degree
    <= 4) with n >= 2 vertices.

    Trees are enumerated as connected graphs with exactly n-1 edges, built
    from (n-1)-subsets of the edge slots.  Returns (labeled trees, chemical
    trees among them, identity mismatches).  Raises ``NTooLarge`` above
    n = 64, where a neighbor row no longer fits 64 bits.
    """
    if n < 2:
        raise ValueError("tree sweep needs n >= 2")
    _row_dtype(n)  # refuse n before enumerating anything
    npairs = pair_count(n)
    trees = 0
    chemical = 0
    mismatches = 0
    combo_iter = combinations(range(npairs), n - 1)
    batch_size = 1 << CHUNK_BITS
    while True:
        batch = []
        for combo in combo_iter:
            batch.append(combo)
            if len(batch) == batch_size:
                break
        if not batch:
            break
        slots = np.array(batch, dtype=np.int64)
        bits = np.zeros((len(batch), npairs), dtype=np.uint8)
        bits[np.arange(len(batch))[:, None], slots] = 1
        rows = _adj_of(bits, n)
        keep = _connected(rows)
        trees += int(keep.sum())
        if not keep.any():
            continue
        deg = _degrees(rows.compress(keep, axis=1))
        chem = deg.max(axis=0) <= 4
        chemical += int(chem.sum())
        deg = deg.compress(chem, axis=1)
        m1 = _vertex_sum(deg * deg)
        n2 = (deg == 2).sum(axis=0)
        n3 = (deg == 3).sum(axis=0)
        predicted = 6 * n - 10 - 2 * n2 - 2 * n3
        mismatches += int((m1 != predicted).sum())
    return trees, chemical, mismatches
