"""
Lower-bounding the adjacency spectral radius
============================================

The squared spectral radius of any graph with an edge is at least
NM_2 / M1, and that ratio is in turn at least the closed form
(M1*(2*lo + 1) - n*lo**2 - n*lo) / M1 built from the minimum neighborhood
degree lo alone.  The first bound is tight exactly when A**2 d is parallel
to the degree vector d, which ``ratio_bound_exact`` decides in integers:
regular graphs, but also stars and the path P3.

rho itself is computed by deterministic Lanczos on an edge-array matvec,
started from the all-ones vector.  It stops once the Ritz residual bound
(``residual``) is below the tolerance, on breakdown or after n steps;
``iterations`` counts its steps.  ``rho`` is a Rayleigh quotient, so it
never exceeds the true radius beyond rounding, and ``rho_upper`` is the
Collatz-Wielandt upper end max_i (A x)_i / x_i at the final Ritz vector x.
On regular graphs the all-ones vector is the Perron vector and the
iteration stops after one step with rho = k exactly.  On the other tight
graphs rho**2 lands within rounding of NM_2 / M1, which is why the
equality is certified in integers rather than read off the estimate.
"""

import math

from nbzagreb import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    spectral_radius,
    spectral_report,
    star_graph,
)


def show(tag, g):
    r = spectral_report(g)
    print(
        f"{tag:<14} rho={r.rho:<12.8f} <= {r.rho_upper:<12.8f} rho^2={r.rho_squared:<12.8f} "
        f"NM2/M1={r.bound_nm2_ratio:<12.8f} closed-form={r.bound_min_nbr:<12.8f} "
        f"exact={r.ratio_bound_exact} ({r.iterations} iterations)"
    )


# Regular graphs: both bounds equal rho^2 exactly.
show("K4", complete_graph(4))
show("C6", cycle_graph(6))

petersen = Graph.from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, 5 + i) for i in range(5)],
)
show("Petersen", petersen)

# Stars and P3 are irregular, yet A**2 d = (NM_2 / M1) d: the ratio bound
# is tight.
show("P3", path_graph(3))
show("star K_{1,5}", star_graph(5))

# Most irregular graphs keep the chain strict.
show("P4", path_graph(4))

# Paths have the closed-form radius 2*cos(pi / (n+1)).  Lanczos reaches it
# to rounding even on a long path, where the top of the spectrum is crowded.
for n in (3, 4, 7, 2000):
    r = spectral_radius(path_graph(n))
    exact = 2 * math.cos(math.pi / (n + 1))
    print(
        f"P{n}: Lanczos {r.rho:.15f} vs closed form {exact:.15f} "
        f"(residual bound {r.residual:.1e}, {r.iterations} iterations)"
    )
