"""Vectorized kernels for exhaustive edge-mask sweeps.

Graphs on n vertices are encoded as integers whose bits select edge slots.
Slot k is the k-th pair in graph6 column-major order ((0,1),(0,2),(1,2),
(0,3),...) and is stored at bit position npairs-1-k, so numeric order on
masks equals lexicographic order on graph6 bitstreams.  All kernels work on
contiguous mask ranges in numpy batches; n <= 8 keeps every intermediate
array small.

The reconstructions are evaluated per vertex, on the (graphs, n) arrays of
neighborhood and distance-2 degrees, rather than over a per-graph histogram
of every possible degree value.  Summing per vertex instead of per
histogram bin changes the floating-point summation order, so instances
within a few ulps of the tolerance can change verdict.

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

from .graphs import _g6_pack, _g6_pairs
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL

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
    """(len(masks), npairs) 0/1 slot bits of a 1-D array of masks."""
    return ((masks[:, None] >> _slot_shifts(npairs)) & 1).astype(np.uint8)


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


def _adj_of(bits: np.ndarray, n: int) -> np.ndarray:
    pairs = _g6_pairs(n)
    rows = np.array([p[0] for p in pairs], dtype=np.int64)
    cols = np.array([p[1] for p in pairs], dtype=np.int64)
    adj = np.zeros((bits.shape[0], n, n), dtype=np.uint8)
    adj[:, rows, cols] = bits
    adj[:, cols, rows] = bits
    return adj


def _connected(adj: np.ndarray) -> np.ndarray:
    b, n, _ = adj.shape
    reach = np.zeros((b, n), dtype=np.uint8)
    reach[:, 0] = 1
    for _ in range(n - 1):
        hop = np.matmul(adj, reach[:, :, None])[:, :, 0]
        reach = ((reach + hop) > 0).astype(np.uint8)
    return reach.all(axis=1)


def iter_mask_ranges(n: int):
    """Split the full mask space of n-vertex graphs into chunk ranges."""
    total = 1 << pair_count(n)
    step = 1 << CHUNK_BITS
    for lo in range(0, total, step):
        yield lo, min(lo + step, total)


def _decode(n: int, mask_lo: int, mask_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks in [mask_lo, mask_hi) and their (masks, n, n) adjacency."""
    masks = np.arange(mask_lo, mask_hi, dtype=np.int64)
    return masks, _adj_of(_bits_of(masks, pair_count(n)), n)


def connected_masks(n: int, mask_lo: int, mask_hi: int) -> np.ndarray:
    """Ascending array of connected masks within [mask_lo, mask_hi)."""
    masks, adj = _decode(n, mask_lo, mask_hi)
    return masks[_connected(adj)]


# ---------------------------------------------------------------------------
# Spectral chain certificates


def _nm2(nbr: np.ndarray) -> np.ndarray:
    """NM_2, the sum of squared neighborhood degrees, per row."""
    return (nbr * nbr).sum(axis=1)


def ratio_certificates(adj64, deg, nbr, m1, nm2) -> tuple[np.ndarray, np.ndarray]:
    """Rows on which the first chain link rho**2 >= NM_2 / M1 is settled
    in integers, as (exact, strict).

    With d the degree vector, nbr = A d and x3 = A nbr = A**2 d:

    - exact: x3 * M1 == NM_2 * d on every vertex, i.e. A**2 d =
      (NM_2 / M1) d, so rho**2 == NM_2 / M1; see
      :func:`nbzagreb.spectral.ratio_bound_is_exact` for why that pins rho.
    - strict: |x3|**2 * M1 > NM_2**2.  |x3|**2 / NM_2 is the Rayleigh
      quotient of A**2 at A d, since NM_2 = |A d|**2, so it never exceeds
      rho**2, and the test says it exceeds NM_2 / M1.

    By Cauchy-Schwarz, (d . A**2 d)**2 = NM_2**2 <= |A**2 d|**2 * M1, with
    equality exactly when A**2 d is parallel to d (in walk counts, W_6 W_2
    >= W_4**2), so on a correct program every row is exact or strict and
    never both.  Every x3_v is at most (n - 1)**3 and M1 at most
    n (n - 1)**2, so |x3|**2 * M1 <= n**2 (n - 1)**8, 3.7e8 at n = 8.
    """
    x3 = np.matmul(adj64, nbr[:, :, None])[:, :, 0]
    exact = (x3 * m1[:, None] == nm2[:, None] * deg).all(axis=1)
    strict = np.einsum("bi,bi->b", x3, x3) * m1 > nm2 * nm2
    return exact, strict


def batched_power_iteration(
    adj: np.ndarray,
    ratio: np.ndarray,
    settled: np.ndarray,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Certify rho**2 >= ratio per graph by power iteration on A + I.

    This is the fallback behind :func:`ratio_certificates`.  The sweep
    runs it only on rows that the integers leave open, and on rows it
    reports as chain failures; on a correct program that is no row.  It
    stays for two reasons: a failing run's chain records carry its rho**2
    estimate, and a row that neither certificate settles fails only if
    the iteration cannot certify it either.

    Rows flagged ``settled`` are certified already and take no step.  Every
    other row starts from the all-ones vector and stops at the first step
    whose Rayleigh quotient theta of A + I satisfies theta - 1 > 0 and
    (theta - 1)**2 >= ratio * (1 + guard), or else changed by less than
    ``DEFAULT_TOL`` since the previous step.  That change is not an error
    bound (the per-graph :func:`nbzagreb.spectral.spectral_radius` stops on
    a Lanczos Ritz residual bound instead); here it only ends the rows that
    no certificate settles, and the sweep reports those as chain failures.

    A Rayleigh quotient of A + I never exceeds its top eigenvalue rho + 1,
    so theta - 1 <= rho and the first condition proves rho**2 >= ratio.
    The guard covers rounding, with u the float64 unit roundoff: the
    matvec and the dot product are sums of at most n non-negative terms
    and the normalized iterate has squared norm within (n + 4) u of 1, so
    the computed theta exceeds the exact quotient by a relative
    (3n + 4) u at most; with rho >= 1 that becomes 2(3n + 4) u on
    theta - 1 and twice that on its square, and the subtraction, the
    squaring, NM_2 / M1 and the product add a few u more.
    guard = 16 (n + 2) u exceeds the (12n + 21) u total.

    Returns (rho, steps, certified, converged) per row: rho is theta - 1
    at the stop, a lower bound on rho for certified rows (sqrt(ratio) on
    settled rows); steps counts matvecs, 0 on settled rows; converged
    marks rows stopped by the tolerance without a certificate.  Rows with
    neither flag ran out of ``max_iter`` steps.
    """
    b, n, _ = adj.shape
    guard = 16 * (n + 2) * (np.finfo(np.float64).eps / 2)
    rho = np.where(settled, np.sqrt(ratio), 0.0)
    steps = np.zeros(b, dtype=np.int64)
    certified = settled.copy()
    converged = np.zeros(b, dtype=bool)
    # shifted, target, v and prev hold the unfinished rows only; active maps
    # them back to the batch.  They are compacted when some row finishes.
    active = np.nonzero(~settled)[0]
    shifted = adj[active].astype(np.float64)
    diag = np.arange(n)
    shifted[:, diag, diag] += 1.0
    target = ratio[active] * (1.0 + guard)
    v = np.full((active.size, n), 1.0 / np.sqrt(n))
    prev = np.full(active.size, np.inf)
    it = 0
    while active.size and it < max_iter:
        it += 1
        w = np.matmul(shifted, v[:, :, None])[:, :, 0]
        ray = np.einsum("bi,bi->b", v, w)
        lower = ray - 1.0
        cert = (lower > 0.0) & (lower * lower >= target)
        done = cert | (np.abs(ray - prev) < DEFAULT_TOL)
        if done.any():
            hit = active[done]
            rho[hit] = lower[done]
            steps[hit] = it
            certified[hit] = cert[done]
            converged[hit] = ~cert[done]
            cont = ~done
            active = active[cont]
            shifted = shifted[cont]
            target = target[cont]
            ray = ray[cont]
            w = w[cont]
        prev = ray
        v = w / np.linalg.norm(w, axis=1, keepdims=True)
    steps[active] = it
    return rho, steps, certified, converged


# ---------------------------------------------------------------------------
# Sweep kernel


def _row_hist(values: np.ndarray, width: int) -> np.ndarray:
    b = values.shape[0]
    flat = values + width * np.arange(b, dtype=np.int64)[:, None]
    return np.bincount(flat.ravel(), minlength=b * width).reshape(b, width)


def _powers(width: int, alpha: float) -> np.ndarray:
    # Slot 0 stays 0; no row that reaches a reconstruction has a zero degree.
    pw = np.zeros(width)
    if width > 1:
        pw[1:] = np.arange(1, width, dtype=np.float64) ** alpha
    return pw


def _gather(mat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return np.take_along_axis(mat, idx[:, None], axis=1)[:, 0]


def _interval_sum(cum: np.ndarray, lo_idx: np.ndarray, hi_idx: np.ndarray) -> np.ndarray:
    """Sum of histogram entries in [lo_idx, hi_idx] per row (0 when empty)."""
    width = cum.shape[1]
    hi_c = np.clip(hi_idx, 0, width - 1)
    lo_c = np.clip(lo_idx - 1, 0, width - 1)
    total = _gather(cum, hi_c) - np.where(lo_idx > 0, _gather(cum, lo_c), 0)
    return np.where(hi_idx >= lo_idx, total, 0)


def _tolerances(tolerance: float, reference: np.ndarray) -> np.ndarray:
    return tolerance * np.maximum(1.0, np.abs(reference))


def _line_excess_sum(x, pw, lo, rate, first, last) -> np.ndarray:
    """Per row of the (graphs, n) degree array x, the sum over vertices with
    first <= x_v <= last of x_v**alpha - lo**alpha - (x_v - lo) * rate,
    where pw[k] = k**alpha."""
    terms = pw[x] - pw[lo][:, None] - (x - lo[:, None]) * rate[:, None]
    inside = (x >= first[:, None]) & (x <= last[:, None])
    return np.where(inside, terms, 0.0).sum(axis=1)


def _report_rows(tally, check, masks, n, rows, expected, got, alpha=None):
    for row in np.nonzero(rows)[0]:
        tally.fail(
            graph6_of_mask(n, int(masks[row])),
            check,
            expected(row) if callable(expected) else expected,
            got(row) if callable(got) else got,
            alpha=alpha,
        )


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


def _check_reconstructions(tally, prefix, masks, n, x, lo, hi, excess, pw, tolerance, alpha):
    """Secant and unit reconstructions of sum_v x_v**alpha on rows whose
    degrees span lo < hi, with excess = sum_v x_v - n * lo.  Returns the
    direct sums, their tolerances, lo**alpha, the secant slope, the unit
    step and the two reconstruction bases, which the bounds reuse."""
    direct = pw[x].sum(axis=1)
    tol = _tolerances(tolerance, direct)
    lo_pow = pw[lo]
    slope = (pw[hi] - lo_pow) / (hi - lo)
    step = pw[lo + 1] - lo_pow
    base_secant = n * lo_pow + excess * slope
    base_unit = n * lo_pow + excess * step
    for form, base, rate, first, last in (
        ("secant", base_secant, slope, lo + 1, hi - 1),
        ("unit", base_unit, step, lo + 2, hi),
    ):
        check = f"{prefix}_reconstruct_{form}"
        recon = base + _line_excess_sum(x, pw, lo, rate, first, last)
        tally.checks[check] += x.shape[0]
        bad = np.abs(recon - direct) > tol
        _report_rows(
            tally, check, masks, n, bad,
            lambda r: float(direct[r]), lambda r: float(recon[r]), alpha,
        )
    return direct, tol, lo_pow, slope, step, base_secant, base_unit


def sweep_chunk(
    n: int,
    mask_lo: int,
    mask_hi: int,
    alphas: tuple[float, ...],
    tolerance: float,
) -> Tally:
    """Run every applicable check on all connected masks in a range."""
    tally = Tally()
    masks, adj = _decode(n, mask_lo, mask_hi)
    keep = _connected(adj)
    masks, adj = masks[keep], adj[keep]
    b = masks.size
    tally.graphs = b
    if b == 0:
        return tally
    nalpha = len(alphas)

    deg = adj.sum(axis=2, dtype=np.int64)
    m = deg.sum(axis=1) // 2
    m1 = (deg * deg).sum(axis=1)
    adj64 = adj.astype(np.int64)
    nbr = np.matmul(adj64, deg[:, :, None])[:, :, 0]
    delta = nbr.min(axis=1)
    big_delta = nbr.max(axis=1)

    adj_b = adj.astype(bool)
    eye = np.eye(n, dtype=bool)
    two_step = np.matmul(adj, adj) > 0
    d2_mask = two_step & ~adj_b & ~eye
    d2 = np.matmul(d2_mask.astype(np.int64), deg[:, :, None])[:, :, 0]
    d2_min = d2.min(axis=1)
    d2_max = d2.max(axis=1)
    covered = adj_b | two_step | eye
    complete = (adj_b | eye).all(axis=(1, 2))
    diam2 = covered.all(axis=(1, 2)) & ~complete

    width = n * (n - 1) + 1
    hist = _row_hist(nbr, width)
    hist_cum = hist.cumsum(axis=1)

    # --- M1 identity: sum of neighborhood degrees equals sum of deg^2.
    tally.checks["m1_identity"] += b
    bad = nbr.sum(axis=1) != m1
    _report_rows(
        tally, "m1_identity", masks, n, bad,
        lambda r: SUM_EXPECTED.format("nbr_deg", int(m1[r])),
        lambda r: int(nbr.sum(axis=1)[r]),
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
        occupied = rem_pos & (_gather(hist, delta + rem) >= 1)

        n_gap_small = int((~gap_ok).sum())
        n_rem_zero = int((gap_ok & (rem == 0)).sum())
        n_unocc = int((rem_pos & ~occupied).sum())

        # Classification consistency (alpha-independent).
        tally.checks["congruence_classify"] += int(gap_ok.sum())
        tally.skip("congruence_classify", "gap_too_small", n_gap_small)
        hist_hi = _gather(hist, big_delta)
        hist_lo = _gather(hist, delta)

        def nbr_hist(r):
            return {d: c for d, c in enumerate(hist[r].tolist()) if c}

        bi_rows = gap_ok & (rem == 0) & (hist_hi == quot)
        bad = bi_rows & (hist_lo + hist_hi != n)
        _report_rows(
            tally, "congruence_classify", masks, n, bad,
            BI_DEGREE_SUPPORT, nbr_hist,
        )
        p2_rows = rem_pos & (hist_hi == quot)
        interior = _interval_sum(hist_cum, delta + rem + 1, big_delta - 1)
        at_rem = _gather(hist, delta + np.clip(rem, 0, width - 1 - delta))
        bad = p2_rows & ((interior != 0) | (at_rem > 1))
        _report_rows(
            tally, "congruence_classify", masks, n, bad, TOP_COUNT_PATTERN, nbr_hist,
        )

        idx_sel = np.nonzero(sel)[0]
        masks_s = masks[idx_sel]
        nbr_s = nbr[idx_sel]
        lo = delta[idx_sel]
        hi = big_delta[idx_sel]
        excess_s = excess[idx_sel]
        h_hi = hist_hi[idx_sel]
        bi_support = hist_lo[idx_sel] + h_hi == n
        interior2 = _interval_sum(hist_cum, delta + 2, big_delta - 1)[idx_sel]
        # Occupied rows are a subset of idx_sel (gap >= 2); occ indexes into it.
        occ = np.nonzero(occupied[idx_sel])[0]
        masks_c = masks_s[occ]
        r_c = rem[idx_sel][occ]
        lo_r_c = lo[occ] + r_c
        pattern = (
            (hist_hi == quot) & (_gather(hist, delta + rem) == 1) & (hist_lo == n - quot - 1)
        )[idx_sel][occ]
        for check in nm_checks:
            tally.skip(check, "neighborhood_regular", n_regular * nalpha)
        tally.skip("nm_bound_congruence", "gap_too_small", n_gap_small * nalpha)
        tally.skip("nm_bound_congruence", "remainder_zero", n_rem_zero * nalpha)
        tally.skip("nm_bound_congruence", "unoccupied_remainder_degree", n_unocc * nalpha)
        for alpha in alphas:
            upper = alpha < 0.0 or alpha > 1.0
            pw = _powers(width, alpha)
            direct, tol, lo_pow, slope, step, base_secant, base_unit = _check_reconstructions(
                tally, "nm", masks_s, n, nbr_s, lo, hi, excess_s, pw, tolerance, alpha
            )
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
    bad = diam2 & (d2.sum(axis=1) != total2)
    _report_rows(
        tally, "dist2_identity", masks, n, bad,
        lambda r: SUM_EXPECTED.format("dist2_deg", int(total2[r])),
        lambda r: int(d2.sum(axis=1)[r]),
    )

    elig2 = diam2 & (d2_min >= 1) & (d2_min != d2_max)
    n_zero_min = int((diam2 & (d2_min == 0)).sum())
    n_d2_regular = int((diam2 & (d2_min >= 1) & (d2_min == d2_max)).sum())
    idx2 = np.nonzero(elig2)[0]
    masks2 = masks[idx2]
    d2_s = d2[idx2]
    lo2 = d2_min[idx2]
    hi2 = d2_max[idx2]
    excess2 = total2[idx2] - n * lo2
    for check in ("nm2_reconstruct_secant", "nm2_reconstruct_unit"):
        tally.skip(check, "not_diameter_two", (b - n_diam2) * nalpha)
        tally.skip(check, "zero_min_dist2_degree", n_zero_min * nalpha)
        tally.skip(check, "dist2_regular", n_d2_regular * nalpha)
    for alpha in alphas:
        _check_reconstructions(
            tally, "nm2", masks2, n, d2_s, lo2, hi2, excess2,
            _powers(width, alpha), tolerance, alpha,
        )

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
    exact, strict = ratio_certificates(adj64, deg, nbr, m1, nm2)
    # Exact rows report rho**2 == NM_2 / M1 if the second link fails; a
    # strict row that fails it needs the power iteration's rho**2 estimate.
    settled = exact | (strict & (nm2 >= min_nbr_num))
    rho, _steps, certified, converged = batched_power_iteration(adj, ratio_bound, settled)
    rho_sq = np.where(exact, ratio_bound, rho * rho)

    tally.checks["spectral_chain"] += b
    _report_rows(tally, "spectral_chain", masks, n, ~certified & ~converged, *NO_CONVERGENCE)
    bad = converged | (certified & (nm2 < min_nbr_num))
    _report_rows(
        tally, "spectral_chain", masks, n, bad,
        lambda r: CHAIN_EXPECTED.format(float(ratio_bound[r]), float(min_nbr_bound[r])),
        lambda r: float(rho_sq[r]),
    )

    # A connected k-regular graph has A 1 = k 1, so rho = k: only the two
    # bounds need checking.
    regular = deg.min(axis=1) == deg.max(axis=1)
    n_regular_deg = int(regular.sum())
    tally.checks["spectral_regular"] += n_regular_deg
    tally.skip("spectral_regular", "not_regular", b - n_regular_deg)
    k2 = deg[:, 0] * deg[:, 0]
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
        masks, adj = _decode(n, lo, hi)
        deg = adj.sum(axis=2, dtype=np.int64)
        m1 = (deg * deg).sum(axis=1)
        nbr_total = np.matmul(adj.astype(np.int64), deg[:, :, None])[:, :, 0].sum(axis=1)
        mismatches += int((nbr_total != m1).sum())
        total += masks.size
    return total, mismatches


def tree_identity_sweep(n: int) -> tuple[int, int, int]:
    """Check M1 == 6n - 10 - 2*n2 - 2*n3 on every chemical tree (max degree
    <= 4) with n >= 2 vertices.

    Trees are enumerated as connected graphs with exactly n-1 edges, built
    from (n-1)-subsets of the edge slots.  Returns (labeled trees, chemical
    trees among them, identity mismatches).
    """
    if n < 2:
        raise ValueError("tree sweep needs n >= 2")
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
        adj = _adj_of(bits, n)
        keep = _connected(adj)
        adj = adj[keep]
        trees += int(keep.sum())
        if not adj.size:
            continue
        deg = adj.sum(axis=2, dtype=np.int64)
        chem = deg.max(axis=1) <= 4
        chemical += int(chem.sum())
        deg = deg[chem]
        m1 = (deg * deg).sum(axis=1)
        n2 = (deg == 2).sum(axis=1)
        n3 = (deg == 3).sum(axis=1)
        predicted = 6 * n - 10 - 2 * n2 - 2 * n3
        mismatches += int((m1 != predicted).sum())
    return trees, chemical, mismatches
