"""Time one per-graph function on three input sets.

Times ``graphs.diameter`` (``--target diameter``) or
``spectral.spectral_radius`` (``--target spectral_radius``) from the
nbzagreb package found under ``--src`` on

* ``per_graph``: the 40 graphs of the benchmark's ``per_graph`` workload
  at seed 1 (random trees, paths and trees with about n extra edges, 200
  to about 1000 vertices), generated by ``perfbench/workloads.make_graph``;
* ``connected_n6``: every connected labeled graph with 1 <= n <= 6
  (27,476 graphs), the calls the scalar sweep makes;
* ``path2000``: the path on 2000 vertices.

so the same script measures any version of the function:

    python tools/bench_per_graph.py --target diameter --src src --label after
    python tools/bench_per_graph.py --target diameter --src /path/to/old/checkout/src --label before

Graphs are built before the clock starts and each is timed once, fresh, so
a version that caches anything on the graph pays for building it.
Prints one JSON object with, per input set, the seconds and a checksum:

* ``diameter``: ``diameter_sum``, the sum of the diameters;
* ``spectral_radius``: ``rho_sum``, the sum of the radii, its relative
  error ``rho_sum_rel_err`` against the sum of ``numpy.linalg.eigvalsh``
  radii (computed after the clock stops) and ``iterations_mean``.

``--record FILE`` also appends the object to the ``runs`` list of that JSON
file, after checking its checksums against the runs already there: a
diameter sum must equal that of every recorded run, a radius sum must
agree to 1e-9 relative with the runs of the same label.  On a disagreement
it records nothing and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1
RHO_RTOL = 1e-9


def inputs() -> dict:
    from nbzagreb.enumeration import enumerate_connected
    from nbzagreb.graphs import Graph, path_graph

    sys.path.insert(0, str(PERFBENCH))
    from workloads import PER_GRAPH_BATCH, make_graph

    rng = random.Random(SEED)
    return {
        "per_graph": [Graph.from_edges(*make_graph(i, rng)) for i in range(PER_GRAPH_BATCH)],
        "connected_n6": [g for n in range(1, 7) for g in enumerate_connected(n)],
        "path2000": [path_graph(2000)],
    }


def eigvalsh_radius(g) -> float:
    import numpy as np

    if not g.m:
        return 0.0
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def _diameter_fields(graphs, values) -> dict:
    return {"diameter_sum": sum(values)}


def _spectral_fields(graphs, results) -> dict:
    rho_sum = math.fsum(r.rho for r in results)
    want = math.fsum(map(eigvalsh_radius, graphs))
    return {
        "rho_sum": rho_sum,
        "rho_sum_rel_err": (rho_sum - want) / want,
        "iterations_mean": round(sum(r.iterations for r in results) / len(results), 2),
    }


# target: (module, function, fields after the clock stops, checksum key,
# relative tolerance of the checksum against runs of the same label; None
# means exact against every run)
TARGETS = {
    "diameter": ("nbzagreb.graphs", "diameter", _diameter_fields, "diameter_sum", None),
    "spectral_radius": (
        "nbzagreb.spectral", "spectral_radius", _spectral_fields, "rho_sum", RHO_RTOL,
    ),
}


def measure(target: str, sets: dict | None = None) -> dict:
    """Seconds and checksum fields of ``target`` on each input set."""
    import importlib

    module, name, fields, _key, _rtol = TARGETS[target]
    fn = getattr(importlib.import_module(module), name)
    out = {}
    for set_name, graphs in (inputs() if sets is None else sets).items():
        t0 = time.perf_counter()
        values = [fn(g) for g in graphs]
        elapsed = time.perf_counter() - t0
        out[set_name] = {"graphs": len(graphs), "s": round(elapsed, 4), **fields(graphs, values)}
    return out


def disagreements(target: str, result: dict, runs: list) -> list[str]:
    """Input sets whose checksum differs from a recorded run it must match."""
    _module, _name, _fields, key, rtol = TARGETS[target]
    problems = []
    for run in runs:
        if rtol is not None and run["label"] != result["label"]:
            continue
        for set_name, entry in result.items():
            if not isinstance(entry, dict) or key not in entry or set_name not in run:
                continue
            got, want = entry[key], run[set_name][key]
            if not math.isclose(got, want, rel_tol=rtol or 0.0):
                problems.append(f"{set_name}: {got!r} vs {want!r} ({run['label']})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--target", required=True, choices=tuple(TARGETS))
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
        **measure(args.target),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
    }
    print(json.dumps(result))
    if args.record:
        path = Path(args.record)
        doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
        problems = disagreements(args.target, result, doc["runs"])
        if problems:
            print("checksums disagree:\n" + "\n".join(problems), file=sys.stderr)
            return 1
        doc["runs"].append(result)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
