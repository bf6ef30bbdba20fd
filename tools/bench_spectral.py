"""Time ``spectral.spectral_radius`` on three input sets.

Times ``spectral_radius`` from the nbzagreb package found under ``--src``
on the input sets of ``tools/bench_diameter.py``:

* ``per_graph``: the 40 graphs of the benchmark's ``per_graph`` workload
  at seed 1 (random trees, paths and trees with about n extra edges, 200
  to about 1000 vertices), generated by ``perfbench/workloads.make_graph``;
* ``connected_n6``: every connected labeled graph with 1 <= n <= 6
  (27,476 graphs), the calls the scalar sweep makes;
* ``path2000``: the path on 2000 vertices.

so the same script measures any version of the function:

    python tools/bench_spectral.py --src src --label after
    python tools/bench_spectral.py --src /path/to/old/checkout/src --label before

Graphs are built before the clock starts.  Prints one JSON object: per
input set the seconds, the sum of the radii, its relative error against
the sum of ``numpy.linalg.eigvalsh`` radii (computed after the clock
stops) and the mean number of iterations.  ``--record FILE`` also appends
it to the ``runs`` list of that JSON file, after checking that every radius
sum agrees to 1e-9 relative with the runs of the same label already there;
on a disagreement it records nothing and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

from bench_diameter import inputs

RHO_RTOL = 1e-9


def eigvalsh_radius(g) -> float:
    import numpy as np

    return float(np.linalg.eigvalsh(g.adjacency_matrix())[-1]) if g.m else 0.0


def measure() -> dict:
    from nbzagreb.spectral import spectral_radius

    out = {}
    for name, graphs in inputs().items():
        t0 = time.perf_counter()
        results = [spectral_radius(g) for g in graphs]
        elapsed = time.perf_counter() - t0
        rho_sum = math.fsum(r.rho for r in results)
        want = math.fsum(map(eigvalsh_radius, graphs))
        out[name] = {
            "graphs": len(graphs),
            "s": round(elapsed, 4),
            "rho_sum": rho_sum,
            "rho_sum_rel_err": (rho_sum - want) / want,
            "iterations_mean": round(sum(r.iterations for r in results) / len(results), 2),
        }
    return out


def disagreements(result: dict, runs: list) -> list[str]:
    """Input sets whose radius sum differs from a recorded run of the same label."""
    return [
        f"{name}: {result[name]['rho_sum']!r} vs {run[name]['rho_sum']!r}"
        for run in runs
        if run["label"] == result["label"]
        for name in ("per_graph", "connected_n6", "path2000")
        if not math.isclose(result[name]["rho_sum"], run[name]["rho_sum"], rel_tol=RHO_RTOL)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the nbzagreb package")
    parser.add_argument("--label", required=True, help="name of this run, e.g. before or after")
    parser.add_argument("--record", help="JSON file whose 'runs' list receives the result")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    if not (src / "nbzagreb" / "__init__.py").is_file():
        parser.error(f"no nbzagreb package under {src}")
    sys.path.insert(0, str(src))

    result = {
        "label": args.label,
        **measure(),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
    }
    print(json.dumps(result))
    if args.record:
        path = Path(args.record)
        doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
        problems = disagreements(result, doc["runs"])
        if problems:
            print("radius sums disagree:\n" + "\n".join(problems), file=sys.stderr)
            return 1
        doc["runs"].append(result)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
