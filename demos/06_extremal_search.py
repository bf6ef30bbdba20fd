"""
Searching for the graphs that attain each bound
===============================================

The equality conditions of the three bounds are structural facts about the
neighborhood-degree histogram, so the attaining graphs can be found by
scanning isomorphism classes.  Each hit's structural_match says whether it
belongs to the bound's named equality family.  For the secant form
(two-valued histograms) and the congruence form (the q / 1 / n-q-1
histogram) that family is the equality flag the search selects on, so
every hit matches by construction.  For the unit form it says whether the graph is a
path, and most unit hits are not: 1 of the 69 classes at n = 7, a = 2.
"""

from nbzagreb import degree_profile, find_equality_graphs, parse_graph6

for source in ("secant", "unit", "congruence"):
    print(f"--- {source} form, a = 2")
    for n in (4, 5):
        records = find_equality_graphs(n, 2, source)
        print(f"  n={n}: {len(records)} equality classes")
        for r in records:
            g = parse_graph6(r.graph)
            hist = degree_profile(g).nbr_hist
            family = "expected family" if r.structural_match else "extra equality graph"
            print(f"    {r.graph:<8} histogram {hist}  ({family})")

# The canonical graph6 string doubles as a replayable fixture: decode it
# and recompute anything.
records = find_equality_graphs(5, 2, "congruence")
g = parse_graph6(records[0].graph)
print("\nfirst congruence hit decoded:", g.n, "vertices,", g.m, "edges,",
      "histogram", degree_profile(g).nbr_hist)
