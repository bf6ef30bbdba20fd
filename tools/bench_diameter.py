"""Time ``graphs.diameter`` on three input sets.

Times ``diameter`` from the nbzagreb package found under ``--src`` on

* ``per_graph``: the 40 graphs of the benchmark's ``per_graph`` workload
  at seed 1 (random trees, paths and trees with about n extra edges, 200
  to about 1000 vertices), generated by ``perfbench/workloads.make_graph``;
* ``connected_n6``: every connected labeled graph with 1 <= n <= 6
  (27,476 graphs);
* ``path2000``: the path on 2000 vertices.

so the same script measures any version of the function:

    python tools/bench_diameter.py --src src --label after
    python tools/bench_diameter.py --src /path/to/old/checkout/src --label before

Graphs are built before the clock starts and each is timed once, fresh, so
a version that reads the lazily built ``Graph.neighbor_bits`` pays for it
(``degree_profile`` builds it anyway).  Prints one JSON object: seconds per
input set and the sum of its diameters, which must agree between
versions.  ``--record FILE`` also appends it to the ``runs`` list of that
JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


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


def measure() -> dict:
    from nbzagreb.graphs import diameter

    out = {}
    for name, graphs in inputs().items():
        t0 = time.perf_counter()
        values = [diameter(g) for g in graphs]
        elapsed = time.perf_counter() - t0
        out[name] = {
            "graphs": len(graphs),
            "s": round(elapsed, 4),
            "diameter_sum": sum(values),
        }
    return out


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
        doc["runs"].append(result)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
