"""Adjacency spectral radius estimation and two lower bounds on its square.

The spectral radius rho of a connected graph is computed by a
deterministic Lanczos iteration (Parlett, *The Symmetric Eigenvalue
Problem*).  The graph is never densified: the matvec is one
``np.bincount`` over the 2m directed edges.  The Krylov basis starts at
the all-ones vector, which overlaps the positive Perron vector, and is
reorthogonalized fully at every step.  After k steps the tridiagonal
Lanczos matrix T has a largest eigenvalue theta with unit eigenvector s,
and beta_k * |s_k| is the residual norm of the Ritz pair, so some
eigenvalue of A lies within it of theta.  The iteration stops once that
bound is at most ``tol * max(1, theta)``, on breakdown (beta_k negligible
against ||A||, so the Krylov space is invariant and theta is exact) or at
k = n.  ``rho`` is the Rayleigh quotient of the final Ritz vector x,
which never exceeds rho up to rounding, and ``rho_upper`` is the
Collatz-Wielandt end max_i (A x)_i / x_i, which bounds rho from above
whenever x is positive (Horn and Johnson, Matrix Analysis, section 8.1).

The basis grows as needed up to a fixed byte budget; past it the
iteration restarts from its current Ritz vector, so memory stays
O(n * cap + m).  The top Ritz pair is found at geometrically spaced steps
only, and without a dense eigensolve: Laguerre's iteration on the LDL^T
pivots of x I - T gives theta and two inverse-iteration solves with the
tridiagonal recurrence give s, each pass O(k) (:func:`_top_ritz`), so no
``numpy.linalg`` routine runs in the loop.

The two lower bounds on rho**2, both expressed through the first Zagreb
index M1 and the minimum neighborhood degree lo:

* the ratio bound NM_2 / M1, the Rayleigh quotient of A**2 at the degree
  vector d;
* the closed-form bound (M1*(2*lo + 1) - n*lo**2 - n*lo) / M1, which is
  the ratio bound weakened through the unit-form lower bound on NM_2 and
  therefore never exceeds it.

The ratio bound is tight exactly when A**2 d is parallel to d, which
:func:`ratio_bound_is_exact` decides in integers.  Regular graphs are one
such family, but not the only one: the path P3 and the star K1,3 are
tight too.  Both links between the bounds compare integers over the
common denominator M1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from operator import add

import numpy as np

from .bounds import _check_tolerance
from .errors import Disconnected, EmptyGraph, NoConvergence
from .graphs import DegreeProfile, Graph, degree_profile, is_connected

__all__ = [
    "SpectralResult",
    "spectral_radius",
    "nm2_ratio_lower_bound",
    "min_nbr_lower_bound",
    "ratio_bound_is_exact",
    "spectral_report",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
# Bytes the Krylov basis may hold (float64 rows of length n).  A graph
# that needs more basis vectors than fit restarts from its Ritz vector.
_BASIS_BYTES = 64 << 20
_FINFO = np.finfo(np.float64)
_EPS = float(_FINFO.eps)


@dataclass(frozen=True)
class SpectralResult:
    """Lanczos estimate of rho plus the two lower bounds on rho**2.

    ``rho`` is the Rayleigh quotient of the final Ritz vector, so it does
    not exceed the true radius beyond rounding.  ``residual`` is the Ritz
    residual bound beta_k * |s_k| at the stop: some eigenvalue of A lies
    within it of the Lanczos value theta, and the iteration stops once it
    is at most ``tol * max(1, theta)``.  ``iterations`` counts Lanczos
    steps, one matvec each (the first reads A 1 off the degrees).
    ``rho_upper`` is the Collatz-Wielandt upper end max_i (A x)_i / x_i
    at the final Ritz vector x, or None when x is not strictly positive
    (or the quotient overflows); it is reported, not used to stop.  The
    bound fields are None when only the radius was requested.
    ``ratio_bound_exact`` says rho**2 == bound_nm2_ratio exactly (see
    :func:`ratio_bound_is_exact`); ``ratio_bound_strict`` says
    rho**2 > bound_nm2_ratio, by the integer test |A**2 d|**2 * M1 > NM_2**2
    (see :func:`spectral_report`); ``bounds_ordered`` says
    bound_nm2_ratio >= bound_min_nbr, compared in integers.
    """

    rho: float
    rho_squared: float
    iterations: int
    residual: float
    rho_upper: float | None = None
    bound_nm2_ratio: float | None = None
    bound_min_nbr: float | None = None
    ratio_bound_exact: bool | None = None
    bounds_ordered: bool | None = None
    ratio_bound_strict: bool | None = None


def _top_ritz(alpha: list[float], beta: list[float]) -> tuple[float, list[float]]:
    """Largest eigenvalue theta of the Lanczos matrix T and its unit
    eigenvector s, in a few passes of O(k) each.

    ``alpha`` is the diagonal of T and ``beta`` its off-diagonal, which
    Lanczos makes positive.  ``floor`` is eps times a bound on ||T||, the
    rounding level of the pivots below.  k <= 2 has a closed form.

    theta: Laguerre's iteration on det(x I - T) (Parlett, "Laguerre's
    method applied to the matrix eigenvalue problem", Math. Comp. 18
    (1964) 464-485).  The LDL^T pivots d_i = x - alpha_i -
    beta_{i-1}**2 / d_{i-1} of x I - T multiply to that determinant, so one
    pass over them and their first two derivatives in x gives
    S1 = sum_j 1 / (x - theta_j) and S2 = sum_j 1 / (x - theta_j)**2.  The
    roots are real, so from Gershgorin's upper bound the steps
    x -= k / (S1 + sqrt((k - 1) (k S2 - S1**2))) fall monotonically and
    cubically onto theta, which is at least x - S1 / S2 before each step.
    The pivots are all positive exactly when x is above every eigenvalue,
    so the iteration stops once that bracket is ``floor`` wide, a step no
    longer lowers x, or a pivot falls below ``floor``.

    s: two solves of inverse iteration with the Thomas recurrence, from the
    all-ones vector, which overlaps the positive top eigenvector.  The shift
    sigma is theta + floor, raised while a pivot of sigma I - T is below
    -floor; pivots below ``floor`` are then raised to it, which moves T by
    at most 2 * floor, so the factorization is a Cholesky one of a nearby
    positive definite matrix and the solve is stable.  After one solve the
    other eigenvectors still make up about (sigma - theta) / gap of the
    result: little against the whole vector, but not against the tiny last
    entries of a converged Ritz vector, which beta_k * |s_k| reads.  The
    second solve squares that share.
    """
    k = len(alpha)
    if k <= 2:
        if k == 1:
            return alpha[0], [1.0]
        (a, c), b = alpha, beta[0]
        theta = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
        u, v = (theta - c, b) if a >= c else (b, theta - a)
        size = math.hypot(u, v)
        return theta, [u / size, v / size]
    prev = [0.0, *beta]  # beta_{i-1}, zero on the first row
    x = max(map(add, map(add, alpha, prev), [*beta, 0.0]))  # Gershgorin
    floor = _EPS * (max(map(abs, alpha)) + 2.0 * max(beta))
    while True:
        # g and h are d_i' / d_i and d_i'' / d_i; S1 sums g, S2 sums g**2 - h.
        d, g, h, s1, s2 = 1.0, 0.0, 0.0, 0.0, 0.0
        for a, b in zip(alpha, prev):
            t = b * b / d
            d = x - a - t
            if d < floor:
                break
            r = 1.0 / d
            h = t * (h - 2.0 * g * g) * r
            g = (1.0 + t * g) * r
            s1 += g
            s2 += g * g - h
        else:
            step = k / (s1 + math.sqrt(max(0.0, (k - 1) * (k * s2 - s1 * s1))))
            if x - step < x:
                x -= step
                if s1 / s2 - step > floor:
                    continue
        break
    theta, nudge = x, floor
    while True:
        x += nudge
        nudge *= 2.0
        # mult[i] = beta_{i-1} / d_{i-1} links rows i - 1 and i; ws is the
        # forward substitution of the all-ones vector.
        piv, mult, ws, d, w = [], [], [], 1.0, 0.0
        for a, b in zip(alpha, prev):
            m = b / d
            d = x - a - b * m
            if d < -floor:
                break
            if d < floor:
                d = floor
            piv.append(d)
            mult.append(m)
            w = 1.0 + m * w
            ws.append(w)
        else:
            break
    for second in (False, True):
        y, z, link = [], 0.0, 0.0
        for w, p, m in zip(reversed(ws), reversed(piv), reversed(mult)):
            z = w / p + link * z
            link = m
            y.append(z)
        if second:
            break
        ws, w = [], 0.0
        for v, m in zip(reversed(y), mult):
            w = v + m * w
            ws.append(w)
    size = math.hypot(*y)
    s = [v / size for v in reversed(y)]
    return theta, s


def spectral_radius(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SpectralResult:
    """Largest adjacency eigenvalue of a connected graph.

    Deterministic Lanczos from the all-ones vector (see the module
    docstring): stops when the Ritz residual bound is at most
    ``tol * max(1, theta)``, on breakdown or after n steps.  At most
    ``max_iter`` steps, else :class:`NoConvergence`.  ``tol`` must be
    finite and positive, as every tolerance is, and ``max_iter`` at least
    1 (``ValueError``).
    """
    _check_tolerance(tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not is_connected(g):
        raise Disconnected("spectral radius estimation requires a connected graph")
    n = g.n
    deg = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=n)
    src = np.repeat(np.arange(n), deg)
    dst = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=src.size)

    def matvec(x: np.ndarray) -> np.ndarray:
        return np.bincount(src, weights=x[dst], minlength=n)

    # ||A|| <= the maximum degree, and a Krylov space that A maps into
    # itself leaves a residual of rounding size, below this floor.
    floor = math.sqrt(n) * _EPS * int(deg.max())
    cap = max(2, min(n, _BASIS_BYTES // (8 * n)))
    steps, restart = 0, None
    while True:
        basis = np.empty((min(cap, 16), n))
        if restart is None:
            # A 1 is the degree vector, so the first step needs no matvec and
            # is exact: alpha_1 = 2m/n, and the residual (d - alpha_1) / sqrt(n)
            # vanishes on regular graphs.
            basis[0] = 1.0 / math.sqrt(n)
            alpha = [2 * g.m / n]
            w = (deg - alpha[0]) / math.sqrt(n)
        else:
            basis[0] = restart / math.sqrt(restart @ restart)
            w = matvec(basis[0])
            alpha = [float(basis[0] @ w)]
            w -= alpha[0] * basis[0]
        beta: list[float] = []
        steps += 1
        # The top Ritz pair is found at step 8, then whenever k has grown by
        # a quarter, and before any stop; small graphs break down first.
        k, check = 1, 8
        while True:
            b = math.sqrt(w @ w)
            done = b <= floor or k == n
            if done or k >= check or k == cap or steps == max_iter:
                theta, s = _top_ritz(alpha, beta)
                residual = b * abs(s[-1])
                if done or residual <= tol * max(1.0, theta):
                    return _ritz_result(matvec, np.dot(s, basis[:k]), steps, residual)
                if steps == max_iter:
                    raise NoConvergence(
                        f"no convergence within {max_iter} iterations (tol={tol})"
                    )
                if k == cap:
                    restart = np.dot(s, basis[:k])
                    break
                check = k + k // 4
            if k == len(basis):
                grown = np.empty((min(cap, 2 * k), n))
                grown[:k] = basis
                basis = grown
            beta.append(b)
            q = basis[k]
            np.divide(w, b, out=q)
            w = matvec(q)
            w -= b * basis[k - 1]
            a = float(q @ w)
            w -= a * q
            krylov = basis[: k + 1]
            w -= (krylov @ w) @ krylov
            alpha.append(a)
            k += 1
            steps += 1


def _ritz_result(matvec, x: np.ndarray, steps: int, residual: float) -> SpectralResult:
    """Rayleigh quotient and Collatz-Wielandt end at the Ritz vector x.

    x is scaled so that its largest entry in magnitude is 1, which fixes
    its sign and keeps regular graphs exact (x is then the all-ones vector).
    """
    x /= x[abs(x).argmax()]
    ax = matvec(x)
    rho = float(x @ ax) / float(x @ x)
    # Every quotient is at most max(A x) / min(x), so none overflows when
    # that bound does not.
    low = float(x.min())
    rho_upper = None
    if low > 0.0 and float(ax.max()) < low * _FINFO.max:
        rho_upper = float((ax / x).max())
    return SpectralResult(
        rho=rho, rho_squared=rho * rho, iterations=steps, residual=residual, rho_upper=rho_upper
    )


def _nm2(p: DegreeProfile) -> int:
    """NM_2, the sum of squared neighborhood degrees."""
    return sum(d * d for d in p.nbr_deg)


def _min_nbr_numerator(p: DegreeProfile) -> int:
    """M1*(2*lo + 1) - n*lo**2 - n*lo, the closed-form bound times M1."""
    lo = p.delta_min
    return p.m1 * (2 * lo + 1) - p.n * lo * lo - p.n * lo


def _need_edge(p: DegreeProfile, bound: str) -> None:
    """EmptyGraph unless the graph has an edge, which both bounds divide by."""
    if p.m1 == 0:
        raise EmptyGraph(f"the {bound} bound needs at least one edge")


def ratio_bound_is_exact(g: Graph, p: DegreeProfile) -> bool:
    """True when rho**2 == NM_2 / M1 exactly; ``p`` is the profile of ``g``.

    With d the degree vector, A d is the neighborhood-degree vector, so
    the test A(A d) * M1 == NM_2 * d on every vertex is exact integer
    arithmetic.  It says A**2 d = (NM_2 / M1) d.  NM_2 / M1 is the Rayleigh
    quotient of A**2 at d, so it never exceeds rho**2, and on every
    component with an edge d is positive, where Collatz-Wielandt
    (rho(B) <= max_i (B x)_i / x_i for non-negative B and positive x)
    bounds that component's rho**2 by NM_2 / M1 from above (Horn and
    Johnson, Matrix Analysis, section 8.1).  Needs at least one edge.
    """
    _need_edge(p, "ratio")
    return _parallel(_x3(g, p), p, _nm2(p))


def _x3(g: Graph, p: DegreeProfile):
    """A(A d) vertex by vertex: each neighborhood's sum of neighborhood degrees."""
    nbr = p.nbr_deg
    return (sum(nbr[v] for v in neighbors) for neighbors in g.adjacency)


def _parallel(x3, p: DegreeProfile, nm2: int) -> bool:
    """x3 * M1 == NM_2 * d on every vertex, stopping at the first miss."""
    return all(x * p.m1 == nm2 * d for x, d in zip(x3, p.deg))


def nm2_ratio_lower_bound(g: Graph) -> float:
    """Lower bound NM_2 / M1 on rho**2; needs at least one edge."""
    p = degree_profile(g)
    _need_edge(p, "ratio")
    return _nm2(p) / p.m1


def min_nbr_lower_bound(g: Graph) -> float:
    """Lower bound (M1*(2*lo + 1) - n*lo**2 - n*lo) / M1 on rho**2, where
    lo is the minimum neighborhood degree; needs at least one edge."""
    p = degree_profile(g)
    _need_edge(p, "minimum-degree")
    return _min_nbr_numerator(p) / p.m1


def spectral_report(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SpectralResult:
    """Radius estimate together with both lower bounds and their
    integer certificates."""
    base = spectral_radius(g, tol=tol, max_iter=max_iter)
    # Two profile builds per call: the per_graph benchmark pins that count,
    # and building the profile once is a change of its own.
    bound_nm2_ratio = nm2_ratio_lower_bound(g)
    p = degree_profile(g)
    nm2, min_nbr_num = _nm2(p), _min_nbr_numerator(p)
    # By Cauchy-Schwarz NM_2**2 = (d . A**2 d)**2 <= |A**2 d|**2 * M1, with
    # equality exactly when A**2 d is parallel to d; |A**2 d|**2 / NM_2 is
    # the Rayleigh quotient of A**2 at A d, so strict puts rho**2 above
    # NM_2 / M1.  Every graph is exact or strict, never both.
    x3 = list(_x3(g, p))
    return replace(
        base,
        bound_nm2_ratio=bound_nm2_ratio,
        bound_min_nbr=min_nbr_num / p.m1,
        ratio_bound_exact=_parallel(x3, p, nm2),
        bounds_ordered=nm2 >= min_nbr_num,
        ratio_bound_strict=sum(x * x for x in x3) * p.m1 > nm2 * nm2,
    )
