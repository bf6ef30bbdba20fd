"""Adjacency spectral radius estimation and two lower bounds on its square.

The spectral radius rho of a connected graph is approximated by power
iteration on A + I.  The shift makes the dominant eigenvalue rho + 1
strictly larger in magnitude than every other one (bipartite graphs have
-rho in the spectrum of A, which would stall plain power iteration), so
the all-ones start vector converges unconditionally and deterministically.

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

from dataclasses import dataclass, replace

import numpy as np

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


@dataclass(frozen=True)
class SpectralResult:
    """Power-iteration estimate of rho plus the two lower bounds on rho**2.

    ``residual`` is the last absolute change of the Rayleigh quotient.  The
    bound fields are None when only the radius was requested.
    ``ratio_bound_exact`` says rho**2 == bound_nm2_ratio exactly (see
    :func:`ratio_bound_is_exact`); ``bounds_ordered`` says
    bound_nm2_ratio >= bound_min_nbr, compared in integers.
    """

    rho: float
    rho_squared: float
    iterations: int
    residual: float
    bound_nm2_ratio: float | None = None
    bound_min_nbr: float | None = None
    ratio_bound_exact: bool | None = None
    bounds_ordered: bool | None = None


def spectral_radius(
    g: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> SpectralResult:
    """Largest adjacency eigenvalue of a connected graph.

    Deterministic: all-ones start vector, convergence when the Rayleigh
    quotient of A + I changes by less than ``tol`` between iterations.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not is_connected(g):
        raise Disconnected("spectral radius estimation requires a connected graph")
    shifted = g.adjacency_matrix() + np.eye(g.n)
    v = np.full(g.n, 1.0 / np.sqrt(g.n))
    prev = np.inf
    for iteration in range(1, max_iter + 1):
        w = shifted @ v
        rayleigh = float(v @ w)
        change = abs(rayleigh - prev)
        if change < tol:
            rho = rayleigh - 1.0
            return SpectralResult(
                rho=rho,
                rho_squared=rho * rho,
                iterations=iteration,
                residual=change,
            )
        prev = rayleigh
        v = w / np.linalg.norm(w)
    raise NoConvergence(f"no convergence within {max_iter} iterations (tol={tol})")


def _nm2(p: DegreeProfile) -> int:
    """NM_2, the sum of squared neighborhood degrees."""
    return sum(d * d for d in p.nbr_deg)


def _min_nbr_numerator(p: DegreeProfile) -> int:
    """M1*(2*lo + 1) - n*lo**2 - n*lo, the closed-form bound times M1."""
    lo = p.delta_min
    return p.m1 * (2 * lo + 1) - p.n * lo * lo - p.n * lo


def _ratio_bound(p: DegreeProfile) -> float:
    """NM_2 / M1 of a profile with M1 > 0."""
    return _nm2(p) / p.m1


def _min_nbr_bound(p: DegreeProfile) -> float:
    """(M1*(2*lo + 1) - n*lo**2 - n*lo) / M1 of a profile with M1 > 0."""
    return _min_nbr_numerator(p) / p.m1


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
    if p.m1 == 0:
        raise EmptyGraph("the ratio bound needs at least one edge")
    nm2, nbr = _nm2(p), p.nbr_deg
    return all(
        sum(nbr[v] for v in g.adjacency[u]) * p.m1 == nm2 * p.deg[u] for u in range(p.n)
    )


def nm2_ratio_lower_bound(g: Graph) -> float:
    """Lower bound NM_2 / M1 on rho**2; needs at least one edge."""
    p = degree_profile(g)
    if p.m1 == 0:
        raise EmptyGraph("the ratio bound needs at least one edge")
    return _ratio_bound(p)


def min_nbr_lower_bound(g: Graph) -> float:
    """Lower bound (M1*(2*lo + 1) - n*lo**2 - n*lo) / M1 on rho**2, where
    lo is the minimum neighborhood degree; needs at least one edge."""
    p = degree_profile(g)
    if p.m1 == 0:
        raise EmptyGraph("the minimum-degree bound needs at least one edge")
    return _min_nbr_bound(p)


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
    return replace(
        base,
        bound_nm2_ratio=bound_nm2_ratio,
        bound_min_nbr=_min_nbr_bound(p),
        ratio_bound_exact=ratio_bound_is_exact(g, p),
        bounds_ordered=_nm2(p) >= _min_nbr_numerator(p),
    )
