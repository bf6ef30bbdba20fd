"""Vectorized kernels for exhaustive edge-mask sweeps.

Graphs on n vertices are named by their edge masks, the graph6 bitstream
read as one integer (slot k, the k-th pair in graph6 column-major order,
at bit npairs-1-k).  :mod:`nbzagreb.graphs` owns the codec of a single
mask; this module decodes masks in batches: :func:`_bits_of` and
:func:`_adj_of` any array of masks, and :func:`_decode` a whole range,
each aligned block's first column from the one-mask codec.  The sweep
kernel's entry point is :func:`sweep_rows`, which checks any batch of
connected graphs given as masks and rows; :func:`sweep_chunk`, what the
sweeps map over their workers, decodes a contiguous mask range, keeps its
connected graphs and hands them to it.

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
per-graph totals, products and certificates are int64.  Float and index
work runs one vertex row at a time, so no (n, graphs) array of 8-byte
values is built.  Connectivity, the two-step rows and the diameter-2 test
are ORs and comparisons against the full mask.  Only
:func:`batched_power_iteration` expands rows to dense (graphs, n, n)
matrices, and only the rows the integer certificates leave open, which a
clean sweep never has.

The reconstructions are evaluated one vertex row at a time, on the
neighborhood and distance-2 degrees, not over a per-graph histogram of
every possible degree value.  Each vertex's correction term is one gather
from a table indexed by the row's (min, max) degrees and the vertex's
degree, built per exponent in every :func:`sweep_rows` call, as are each
line's secant slope, per (min, max) pair, and unit step, per min; the
terms of each vertex row are folded into one sum per graph
(:func:`_gather_fsum`).  A bound is its reconstruction's base plus the
table entries it keeps.
Both engines add a graph's direct sum NM_a vertex by vertex, left to right
(see :func:`_vertex_fsum`), so they fail the same bound instances even at
tolerance 1e-300, where every inexact comparison fails.  Only the
correction sums of the reconstructions add in another order, per vertex
here and per histogram bin in the scalar engine, so a reconstruction
instance within a few ulps of the tolerance can change verdict between
the engines.

The sweep kernel mirrors the scalar operations in :mod:`nbzagreb.indices`,
:mod:`nbzagreb.bounds` and :mod:`nbzagreb.spectral` check for check, so
that reports from both engines are directly comparable.  After the
profiles and the M1 identity, :func:`sweep_rows` runs one stage per check
family, :func:`_nm_checks`, :func:`_nm2_checks` and
:func:`_spectral_checks`, each owning its gates and temporaries.  A check's
preconditions are one :func:`_gate`, rungs in the order of its row in
:mod:`nbzagreb.claims`: a graph is skipped under the first rung it fails
and run if it passes all, as in the scalar engine's per-graph
:func:`nbzagreb.enumeration._gate`.

The extremal search reads the bounds' equality flags alone, from
:func:`equality_flags`, which restates the three flags of
:func:`_nm_checks` over a batch of rows in integers, at no exponent.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, islice

import numpy as np

from .claims import gate_row
from .errors import NTooLarge
from .graphs import _g6_pairs, graph6_of_mask, mask_rows, pair_count

CHUNK_BITS = 15

FAILURE_CAP = 1000


def _bits_of(masks: np.ndarray, npairs: int) -> np.ndarray:
    """(len(masks), npairs) 0/1 slot bits of a 1-D array of masks, npairs
    <= 63.  Big-endian bytes unpack most significant bit first, so the
    last npairs bits of each 64-bit word are slots 0 .. npairs - 1."""
    words = np.unpackbits(masks.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
    return words[:, 64 - npairs :]


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


def _degrees(rows: np.ndarray) -> np.ndarray:
    """Popcount of each neighbor row, in the dtype of :func:`_sum_dtype`."""
    # Bit-parallel popcount of each byte, in uint8 throughout: pairs, then
    # nibbles, then the byte's two nibbles.
    count = rows.view(np.uint8)
    count = count - ((count >> 1) & 0x55)
    count = (count & 0x33) + ((count >> 2) & 0x33)
    count = (count + (count >> 4)) & 0x0F
    return count.reshape(*rows.shape, rows.itemsize).sum(axis=-1, dtype=_sum_dtype(rows.shape[0]))


def _connected(rows: np.ndarray) -> np.ndarray:
    """Per graph of an (n, graphs) row batch: is it connected?  The set
    reached from vertex 0 grows by the rows of the vertices in it; n - 1
    passes over the vertices reach every vertex within distance n - 1.  It
    takes at most n - 1 passes, stopping at the first that reaches nothing
    new in any graph of the batch, since every later pass would repeat it."""
    n, b = rows.shape
    reach = np.ones(b, dtype=rows.dtype)
    before = np.empty_like(reach)
    for _ in range(n - 1):
        np.copyto(before, reach)
        for v, row in enumerate(rows):
            reach |= ((reach >> v) & 1) * row
        if np.array_equal(reach, before):
            break
    return reach == rows.dtype.type((1 << n) - 1)


def _vertex_sum(values: np.ndarray) -> np.ndarray:
    """int64 per-graph sum of an (n, graphs) integer array, accumulated in
    its own dtype (see :func:`_sum_dtype`)."""
    return values.sum(axis=0, dtype=values.dtype).astype(np.int64)


def _vertex_fsum(terms) -> np.ndarray:
    """Per graph, the sum of float terms added vertex by vertex, left to
    right, as the scalar engine adds them.  ``terms`` yields one
    graph-length row per vertex, as an (n, graphs) array does."""
    terms = iter(terms)
    total = next(terms).copy()
    for row in terms:
        total += row
    return total


def _gather_fsum(values: np.ndarray, start, x: np.ndarray) -> np.ndarray:
    """Per graph, the :func:`_vertex_fsum` of values[start + x_v] over the
    rows x_v of (n, graphs) integers x, with ``start`` a scalar or one
    offset per graph.  Each row's flat index and terms go to one
    graph-length intp and float buffer, reused row after row, so no (n,
    graphs) array is built and the loop allocates nothing.  numpy gathers
    far faster with intp indices than with narrow ones; the indices lie in
    range by construction, and mode="clip" spares the bounds check that
    would copy the output."""
    index = np.empty(x.shape[1], dtype=np.intp)
    term = np.empty(x.shape[1])
    return _vertex_fsum(
        values.take(np.add(start, row, out=index), out=term, mode="clip") for row in x
    )


def iter_mask_ranges(n: int, bits: int = CHUNK_BITS):
    """Split the full mask space of n-vertex graphs into ranges of
    ``1 << bits`` masks."""
    total = 1 << pair_count(n)
    step = 1 << bits
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


@lru_cache(maxsize=8)
def _edge_rows(n: int) -> np.ndarray:
    """(npairs, n, 1) neighbor rows: entry b holds the one edge at low mask
    bit b, the slot npairs - 1 - b."""
    edge = np.zeros((pair_count(n), n, 1), dtype=_row_dtype(n))
    for b, (i, j) in enumerate(reversed(_g6_pairs(n))):
        edge[b, i] = 1 << j
        edge[b, j] = 1 << i
    return edge


def _decode(n: int, mask_lo: int, mask_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks in [mask_lo, mask_hi) and their (n, masks) neighbor rows.

    The range is cut into aligned power-of-two blocks, each the largest
    that starts at the current mask and ends by mask_hi.  A block's first
    column comes from the one-mask codec, :func:`nbzagreb.graphs.mask_rows`,
    in Python integers; low bit b of a mask is slot npairs - 1 - b, so the
    block doubles once per low bit, its new half the old rows with that
    slot's two bits set (:func:`_edge_rows`)."""
    npairs = pair_count(n)
    mask_lo, mask_hi = int(mask_lo), int(mask_hi)
    if not 0 <= mask_lo <= mask_hi <= 1 << npairs:
        raise ValueError(
            f"mask range [{mask_lo}, {mask_hi}) is not within [0, {1 << npairs}) for n = {n}"
        )
    edge = _edge_rows(n)
    rows = np.empty((n, mask_hi - mask_lo), dtype=edge.dtype)
    lo = mask_lo
    while lo < mask_hi:
        size = (mask_hi - lo).bit_length() - 1
        if lo:
            size = min(size, (lo & -lo).bit_length() - 1)
        start = lo - mask_lo
        rows[:, start] = [sum(1 << u for u in row) for row in mask_rows(n, lo)]
        for b in range(size):
            width = 1 << b
            old = rows[:, start : start + width]
            np.bitwise_or(old, edge[b], out=rows[:, start + width : start + 2 * width])
        lo += 1 << size
    return np.arange(mask_lo, mask_hi, dtype=np.int64), rows


def connected_masks(n: int, mask_lo: int, mask_hi: int) -> np.ndarray:
    """Ascending array of connected masks within [mask_lo, mask_hi)."""
    masks, rows = _decode(n, mask_lo, mask_hi)
    return masks[_connected(rows)]


# ---------------------------------------------------------------------------
# Spectral chain certificates


def _nm2(nbr: np.ndarray) -> np.ndarray:
    """NM_2, the sum of squared neighborhood degrees, per graph, in int64.
    Each square fits the dtype of :func:`_sum_dtype`; only their sum needs
    int64."""
    return (nbr * nbr).sum(axis=0, dtype=np.int64)


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
    products are int64, formed one vertex row at a time.
    """
    exact = np.ones(m1.shape, dtype=bool)
    norm = np.zeros(m1.shape, dtype=np.int64)
    for x3, d in zip(_over_bits(np.add, rows, nbr), deg):
        x3 = x3.astype(np.int64)
        exact &= x3 * m1 == nm2 * d
        norm += x3 * x3
    return exact, norm * m1 > nm2 * nm2


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
    ROADMAP item 9 inlines this function into the spectral stage,
    :func:`_spectral_checks`.
    """
    open_rows = ~settled
    sub = rows.compress(open_rows, axis=1)
    # The open graphs' (graphs, n, n) float64 adjacency matrices.
    dense = ((sub.T[:, :, None] >> np.arange(len(sub), dtype=sub.dtype)) & 1).astype(np.float64)
    rho_sq = ratio.copy()
    rho_sq[open_rows] = np.linalg.eigvalsh(dense)[:, -1] ** 2
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
    pw[1:] = np.arange(1, width, dtype=np.float64) ** alpha
    return pw


def _pair_row(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row of the secant table for the degree range lo < hi."""
    return hi * (hi - 1) // 2 + lo


def _correction_tables(pw: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-vertex correction coefficients of the two reconstruction forms,
    and their lines' rates, given pw[k] = k**alpha over every degree k < width:

    - secant[_pair_row(lo, hi), k] = pw[k] - pw[lo] - (k - lo) * slope for
      lo < k < hi, slope[_pair_row(lo, hi)] = (pw[hi] - pw[lo]) / (hi - lo);
    - unit[lo, k] = pw[k] - pw[lo] - (k - lo) * step for k >= lo + 2,
      step[lo] = pw[lo + 1] - pw[lo];

    and 0 outside each form's interior.  Every entry is the expression the
    per-vertex sum evaluates, in the same float operations, so a lookup
    gives the same bits.  A row's degrees never exceed its maximum, so the
    unit form needs no upper cut.  Returns (secant, unit, slope, step)."""
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
    return secant, unit, slope, step


def _count_between(x: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Per graph of (n, graphs) x, how many vertices have first <= x_v <=
    last, with per-graph bounds, in int8 (n <= 64 fits)."""
    # The bounds lie within one of the graph's degree range, so they fit
    # x's dtype, and the comparisons stay narrow, one vertex row at a time.
    first, last = first.astype(x.dtype), last.astype(x.dtype)
    count = np.zeros(x.shape[1], dtype=np.int8)
    for row in x:
        count += (row >= first) & (row <= last)
    return count


def _line_excess_sum(table: np.ndarray, row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per graph, the sum over its vertices of the correction-table entries
    table[row, x_v], with ``row`` the graph's row of the table (see
    :func:`_correction_tables`) and x its (n, graphs) degrees: the sum over
    the vertices inside the form of x_v**alpha - lo**alpha - (x_v - lo) *
    rate."""
    return _gather_fsum(table.ravel(), row * table.shape[1], x)


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


def _gate(tally, checks, nalpha, **rungs):
    """Count the rows of ``checks`` as their per-graph op decides them and
    return the passing rows.  ``rungs`` are the preconditions of the row
    the checks share in :mod:`nbzagreb.claims`, each a per-row bool array
    under its skip reason, in the row's order: a row is skipped under the
    first rung it fails and run if it passes all, ``nalpha`` times if the
    checks count once per exponent."""
    reps = nalpha if gate_row(checks, tuple(rungs)).per_exponent else 1
    passing = np.ones(next(iter(rungs.values())).shape, dtype=bool)
    left = passing.size
    for reason, holds in rungs.items():
        passing &= holds
        now = int(np.count_nonzero(passing))
        for check in checks:
            tally.skip(check, reason, (left - now) * reps)
        left = now
    for check in checks:
        tally.checks[check] += left * reps
    return passing


def _check_bound(tally, check, masks, n, direct, bound, tol, upper, equality, alpha):
    """Per row, direct must lie below bound (upper) or above it, and within
    tol of it on rows whose structural equality flag is set, of the rows
    the check's :func:`_gate` passed and counted."""
    ok = direct <= bound + tol if upper else direct >= bound - tol
    ok &= ~equality | (np.abs(direct - bound) <= tol)
    _report_rows(
        tally, check, masks, n, ~ok,
        lambda r: bound_expected(upper, float(bound[r]), bool(equality[r])),
        lambda r: float(direct[r]), alpha,
    )


def _check_reconstructions(tally, prefix, masks, n, x, lo, pair, excess, table, tolerance):
    """Secant and unit reconstructions of sum_v x_v**alpha on the graphs
    of (n, graphs) degrees x that span lo < hi, with pair = _pair_row(lo,
    hi) and excess = sum_v x_v - n lo, at one exponent of the tables
    (alpha, pw and the four tables of :func:`_correction_tables`), on the
    rows their :func:`_gate` passed and counted.  Every sum is gathered one
    vertex row at a time (:func:`_gather_fsum`).  Returns what the bounds
    reuse: the direct sums, their tolerances and the two reconstruction
    bases."""
    alpha, pw, secant, unit, slopes, steps = table
    direct = _gather_fsum(pw, 0, x)
    # In place where the bits allow (a sum's operands commute): each
    # graph-length temporary freed here is heap that glibc may trim and the
    # next exponent fault back in.
    tol = np.abs(direct)
    np.maximum(tol, 1.0, out=tol)
    tol *= tolerance
    lo_pow = pw[lo]
    base_secant = n * lo_pow + excess * slopes[pair]
    base_unit = n * lo_pow + excess * steps[lo]
    for form, base, entries, row in (
        ("secant", base_secant, secant, pair),
        ("unit", base_unit, unit, lo),
    ):
        recon = _line_excess_sum(entries, row, x)
        recon += base
        _report_rows(
            tally, f"{prefix}_reconstruct_{form}", masks, n, np.abs(recon - direct) > tol,
            lambda r: float(direct[r]), lambda r: float(recon[r]), alpha,
        )
    return direct, tol, base_secant, base_unit


def sweep_chunk(
    n: int,
    mask_lo: int,
    mask_hi: int,
    alphas: tuple[float, ...],
    tolerance: float,
) -> Tally:
    """Run every applicable check on all connected masks in a range."""
    masks, rows = _decode(n, mask_lo, mask_hi)
    keep = _connected(rows)
    # compress keeps (n, graphs) arrays C-contiguous; rows[:, keep] would
    # hand back a column-major copy and slow every later step.  The full
    # range's arrays are released before the checks run.
    masks, rows = masks[keep], rows.compress(keep, axis=1)
    return sweep_rows(n, masks, rows, alphas, tolerance)


def sweep_rows(n: int, masks: np.ndarray, rows: np.ndarray, alphas: tuple[float, ...],
               tolerance: float) -> Tally:
    """Run every applicable check on a batch of connected graphs on n
    vertices, in any order: ``masks`` their edge masks and ``rows`` their
    C-contiguous (n, graphs) neighbor rows.  Each check reports its failing
    graphs in batch order."""
    tally = Tally(graphs=masks.size)
    deg = _degrees(rows)
    m1 = _vertex_sum(deg * deg)
    nbr = _over_bits(np.add, rows, deg)
    delta = nbr.min(axis=0).astype(np.int64)

    # closed: N[v] = N(v) + v; two_step: the vertices two steps from v.
    full = (1 << n) - 1
    closed = rows | (rows.dtype.type(1) << np.arange(n, dtype=rows.dtype))[:, None]
    two_step = _over_bits(np.bitwise_or, rows, rows)
    d2 = _over_bits(np.add, two_step & ~closed, deg)
    diam2 = ((closed | two_step) == full).all(axis=0) & (closed != full).any(axis=0)
    del closed, two_step

    # Every neighborhood and distance-2 degree is at most (n - 1)**2.
    width = (n - 1) ** 2 + 1
    tables = []
    for alpha in alphas:
        pw = _powers(width, alpha)
        tables.append((alpha, pw, *_correction_tables(pw)))

    # --- M1 identity: sum of neighborhood degrees equals sum of deg^2.
    tally.checks["m1_identity"] += masks.size
    nbr_total = _vertex_sum(nbr)
    _report_rows(
        tally, "m1_identity", masks, n, nbr_total != m1,
        lambda r: SUM_EXPECTED.format("nbr_deg", int(m1[r])),
        lambda r: int(nbr_total[r]),
    )
    del nbr_total
    _nm_checks(tally, masks, n, nbr, m1, delta, width, tables, tolerance)
    _nm2_checks(tally, masks, n, deg, m1, d2, diam2, tables, tolerance)
    _spectral_checks(tally, masks, n, rows, deg, nbr, m1, delta, len(alphas))
    return tally


def _nm_checks(tally, masks, n, nbr, m1, delta, width, tables, tolerance):
    """The neighborhood-degree checks: the congruence classification, then
    per exponent the NM reconstructions and the three bounds.

    Below n = 3 every graph is neighborhood-regular, so they run on no
    rows.  Regular rows divide by 1 and fail an earlier rung of every gate
    that reads the quotient; the quotient rung fails on no graph, as excess
    >= hi - lo (the vertex at hi).  As in :func:`nbzagreb.bounds._bound`, a
    bound is attained exactly when every vertex it drops lies at its line's
    ends, so the count of vertices strictly between lo and hi (``inside``)
    decides the secant form's equality (none) and the congruence form's
    (only the kept vertex at lo + r)."""
    nalpha = len(tables)
    big_delta = nbr.max(axis=0).astype(np.int64)
    gap = big_delta - delta
    excess = m1 - n * delta
    quot, rem = np.divmod(excess, np.maximum(gap, 1))
    at_rem = _count_between(nbr, delta + rem, delta + rem)
    n3 = np.full(masks.size, n >= 3)
    sel = _gate(
        tally,
        ("nm_reconstruct_secant", "nm_reconstruct_unit", "nm_bound_secant", "nm_bound_unit"),
        nalpha, n_lt_3=n3, neighborhood_regular=gap > 0,
    )
    division = dict(n_lt_3=n3, gap_too_small=gap >= 2, non_positive_quotient=excess >= gap)
    classified = _gate(tally, ("congruence_classify",), nalpha, **division)
    occupied = _gate(
        tally, ("nm_bound_congruence",), nalpha, **division,
        remainder_zero=rem >= 1, unoccupied_remainder_degree=at_rem >= 1,
    )

    # Classification consistency (alpha-independent).
    h_hi = _count_between(nbr, big_delta, big_delta)
    inside = _count_between(nbr, delta + 1, big_delta - 1)

    def nbr_hist(r):
        hist = _row_hist(nbr[:, r : r + 1], width)[0]
        return {d: c for d, c in enumerate(hist.tolist()) if c}

    bad = classified & (rem == 0) & (h_hi == quot) & (inside != 0)
    _report_rows(tally, "congruence_classify", masks, n, bad, BI_DEGREE_SUPPORT, nbr_hist)
    interior = _count_between(nbr, delta + rem + 1, big_delta - 1)
    bad = classified & (rem >= 1) & (h_hi == quot) & ((interior != 0) | (at_rem > 1))
    _report_rows(tally, "congruence_classify", masks, n, bad, TOP_COUNT_PATTERN, nbr_hist)

    # The bounds run on the lo < hi rows, the congruence bound on its gate's
    # rows (at positions occ among them).  Row indices gather far faster than
    # sparse bool masks.  The full-row arrays are freed before the loop, so
    # the kernel's peak holds the selected rows alone.
    rows_s = np.flatnonzero(sel)
    masks_s = masks[rows_s]
    nbr_s = nbr.compress(sel, axis=1)
    lo = delta[rows_s]
    hi = big_delta[rows_s]
    pair = _pair_row(lo, hi)
    excess_s = excess[rows_s]
    h_hi_s = h_hi[rows_s]
    inside_s = inside[rows_s]
    interior2 = _count_between(nbr_s, lo + 2, hi - 1)
    occ = np.flatnonzero(occupied[rows_s])
    # The one secant-table entry each congruence row keeps, at lo + r; its
    # gate puts a vertex there, inside.
    at_c = (pair[occ], lo[occ] + rem[rows_s[occ]])
    del big_delta, gap, excess, quot, rem, at_rem, n3, sel, division, classified, occupied
    del h_hi, inside, interior, bad, rows_s
    for table in tables:
        alpha, _pw, secant, unit, _slopes, _steps = table
        direct, tol, base_secant, base_unit = _check_reconstructions(
            tally, "nm", masks_s, n, nbr_s, lo, pair, excess_s, table, tolerance
        )
        upper = alpha < 0.0 or alpha > 1.0
        # Secant form, keeping no entry: equality when no vertex is inside.
        _check_bound(
            tally, "nm_bound_secant", masks_s, n, direct, base_secant, tol,
            upper, inside_s == 0, alpha,
        )
        # Unit form, keeping the top entry: its line ends at lo + 1, and the
        # direction flips.
        bound_u = base_unit + h_hi_s * unit[lo, hi]
        _check_bound(
            tally, "nm_bound_unit", masks_s, n, direct, bound_u, tol,
            not upper, interior2 == 0, alpha,
        )
        # Congruence form, keeping the vertex at lo + r: equality when it is
        # the only one inside.
        bound_c = base_secant[occ] + secant[at_c]
        _check_bound(
            tally, "nm_bound_congruence", masks_s[occ], n, direct[occ], bound_c, tol[occ],
            upper, inside_s[occ] == 1, alpha,
        )
        # Freed before the next exponent allocates its own, so the peak
        # holds one exponent's arrays.
        del direct, tol, base_secant, base_unit, bound_u, bound_c


def _nm2_checks(tally, masks, n, deg, m1, d2, diam2, tables, tolerance):
    """The distance-2 identity and NM2 reconstructions, on the graphs of
    diameter exactly 2."""
    nalpha = len(tables)
    _gate(tally, ("dist2_identity",), nalpha, not_diameter_two=diam2)
    # 2m (n - 1) - M1, with 2m the degree sum.
    total2 = _vertex_sum(deg) * (n - 1) - m1
    d2_total = _vertex_sum(d2)
    _report_rows(
        tally, "dist2_identity", masks, n, diam2 & (d2_total != total2),
        lambda r: SUM_EXPECTED.format("dist2_deg", int(total2[r])),
        lambda r: int(d2_total[r]),
    )

    d2_min = d2.min(axis=0)
    d2_max = d2.max(axis=0)
    elig2 = _gate(
        tally, ("nm2_reconstruct_secant", "nm2_reconstruct_unit"), nalpha,
        not_diameter_two=diam2, zero_min_dist2_degree=d2_min >= 1,
        dist2_regular=d2_min != d2_max,
    )
    rows2 = np.flatnonzero(elig2)
    masks2, d2 = masks[rows2], d2.compress(elig2, axis=1)
    lo, hi = d2_min[rows2].astype(np.int64), d2_max[rows2].astype(np.int64)
    pair, excess2 = _pair_row(lo, hi), total2[rows2] - n * lo
    del total2, d2_total, d2_min, d2_max, elig2, rows2, hi
    for table in tables:
        _check_reconstructions(tally, "nm2", masks2, n, d2, lo, pair, excess2, table, tolerance)


def _spectral_checks(tally, masks, n, rows, deg, nbr, m1, delta, nalpha):
    """The spectral chain and the regular-graph equalities.  The links
    between the two bounds are integer comparisons over the common
    denominator M1."""
    has_edges = m1 > 0
    _gate(tally, ("spectral_chain",), nalpha, no_edges=has_edges)
    # A connected k-regular graph has A 1 = k 1, so rho = k: only the two
    # bounds need checking.
    regular = _gate(
        tally, ("spectral_regular",), nalpha,
        no_edges=has_edges, not_regular=deg.min(axis=0) == deg.max(axis=0),
    )
    if n == 1:
        return
    nm2 = _nm2(nbr)
    ratio_bound = nm2 / m1
    min_nbr_num = m1 * (2 * delta + 1) - n * delta * delta - n * delta
    exact, strict = ratio_certificates(rows, deg, nbr, m1, nm2)
    # Exact rows report rho**2 == NM_2 / M1 if the second link fails; a
    # strict row that fails it needs the eigensolve's rho**2.  The verdict
    # is the scalar engine's rule.
    settled = exact | (strict & (nm2 >= min_nbr_num))
    rho_sq, _solves = batched_power_iteration(rows, ratio_bound, settled)

    bad = (rho_sq < ratio_bound) | (nm2 < min_nbr_num)
    _report_rows(
        tally, "spectral_chain", masks, n, bad,
        lambda r: CHAIN_EXPECTED.format(float(ratio_bound[r]), float(min_nbr_num[r] / m1[r])),
        lambda r: float(rho_sq[r]),
    )

    k2 = deg[0].astype(np.int64) ** 2
    bad = regular & ((nm2 != k2 * m1) | (min_nbr_num != k2 * m1))
    _report_rows(
        tally, "spectral_regular", masks, n, bad,
        lambda r: REGULAR_EXPECTED.format(int(k2[r])),
        lambda r: REGULAR_GOT.format(float(ratio_bound[r]), float(min_nbr_num[r] / m1[r])),
    )


# ---------------------------------------------------------------------------
# Equality flags of the extremal search


def equality_flags(rows: np.ndarray) -> dict[str, np.ndarray]:
    """Per bound source and per graph of an (n, graphs) batch of connected
    neighbor rows: does the source's bound in :mod:`nbzagreb.bounds` run,
    and report equality?  Integer work only, and the same at every
    exponent, since each flag is structural (see :func:`_nm_checks`).

    With lo and hi the least and greatest neighborhood degree, the secant
    and unit bounds run when lo < hi, which no connected graph on fewer
    than 3 vertices has.  The secant form is attained when no vertex lies
    strictly between lo and hi, and the unit form when none lies in
    [lo + 2, hi - 1].  The congruence form is attained when exactly one
    vertex lies strictly between, and that alone implies its
    preconditions: with the vertex at lo + t and k >= 1 vertices at hi,
    M1 - n lo = k (hi - lo) + t with 0 < t < hi - lo, so the gap is at
    least 2, the quotient k at least 1, and the remainder t is at least 1
    and occupied."""
    nbr = _over_bits(np.add, rows, _degrees(rows))
    lo, hi = nbr.min(axis=0), nbr.max(axis=0)
    inside = _count_between(nbr, lo + 1, hi - 1)
    return {
        "secant": (lo < hi) & (inside == 0),
        "unit": (lo < hi) & (_count_between(nbr, lo + 2, hi - 1) == 0),
        "congruence": inside == 1,
    }


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
    combos = combinations(range(npairs), n - 1)
    while batch := list(islice(combos, 1 << CHUNK_BITS)):
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
