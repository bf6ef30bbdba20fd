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
O(n * cap + m).  T is eigendecomposed at geometrically spaced steps only.

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
    :func:`ratio_bound_is_exact`); ``bounds_ordered`` says
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


def _top_ritz(alpha: list[float], beta: list[float]) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of the Lanczos matrix and its unit eigenvector.

    ``alpha`` is the diagonal and ``beta`` the off-diagonal; eigh reads
    the lower triangle only.
    """
    k = len(alpha)
    t = np.diag(alpha)
    t.flat[k :: k + 1] = beta
    values, vectors = np.linalg.eigh(t)
    return float(values[-1]), vectors[:, -1]


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
    floor = math.sqrt(n) * float(_FINFO.eps) * int(deg.max())
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
        # T is eigendecomposed at step 8, then whenever k has grown by a
        # quarter, and before any stop; small graphs break down first.
        k, check = 1, 8
        while True:
            b = math.sqrt(w @ w)
            done = b <= floor or k == n
            if done or k >= check or k == cap or steps == max_iter:
                theta, s = _top_ritz(alpha, beta)
                residual = b * abs(float(s[-1]))
                if done or residual <= tol * max(1.0, theta):
                    return _ritz_result(matvec, s @ basis[:k], steps, residual)
                if steps == max_iter:
                    raise NoConvergence(
                        f"no convergence within {max_iter} iterations (tol={tol})"
                    )
                if k == cap:
                    restart = s @ basis[:k]
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
    nm2, nbr = _nm2(p), p.nbr_deg
    return all(
        sum(nbr[v] for v in g.adjacency[u]) * p.m1 == nm2 * p.deg[u] for u in range(p.n)
    )


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
    min_nbr_num = _min_nbr_numerator(p)
    return replace(
        base,
        bound_nm2_ratio=bound_nm2_ratio,
        bound_min_nbr=min_nbr_num / p.m1,
        ratio_bound_exact=ratio_bound_is_exact(g, p),
        bounds_ordered=_nm2(p) >= min_nbr_num,
    )
