"""Adjacency spectral radius estimation and two lower bounds on its square.

The spectral radius rho of a connected graph is approximated by power
iteration on A + I.  The shift makes the dominant eigenvalue rho + 1
strictly larger in magnitude than every other one (bipartite graphs have
-rho in the spectrum of A, which would stall plain power iteration), so
the all-ones start vector converges unconditionally and deterministically.

The two lower bounds on rho**2, both expressed through the first Zagreb
index M1 and the minimum neighborhood degree lo:

* the ratio bound NM_2 / M1;
* the closed-form bound (M1*(2*lo + 1) - n*lo**2 - n*lo) / M1, which is
  the ratio bound weakened through the unit-form lower bound on NM_2 and
  therefore never exceeds it.

Both are tight on regular graphs.
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
    """

    rho: float
    rho_squared: float
    iterations: int
    residual: float
    bound_nm2_ratio: float | None = None
    bound_min_nbr: float | None = None


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


def _ratio_bound(p: DegreeProfile) -> float:
    """NM_2 / M1 of a profile with M1 > 0."""
    return sum(d * d for d in p.nbr_deg) / p.m1


def _min_nbr_bound(p: DegreeProfile) -> float:
    """(M1*(2*lo + 1) - n*lo**2 - n*lo) / M1 of a profile with M1 > 0."""
    lo = p.delta_min
    return (p.m1 * (2 * lo + 1) - p.n * lo * lo - p.n * lo) / p.m1


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
    """Radius estimate together with both lower bounds."""
    base = spectral_radius(g, tol=tol, max_iter=max_iter)
    return replace(
        base,
        bound_nm2_ratio=nm2_ratio_lower_bound(g),
        bound_min_nbr=min_nbr_lower_bound(g),
    )
