"""Time the scalar engine of two nbzagreb source trees in one process.

    python tools/bench_scalar.py --src OLD/src --src NEW/src [--pairs 10]

Each tree's ``nbzagreb`` package is copied to a temporary directory under
a name of its own (the package imports itself only relatively), so both
trees load into one interpreter.  Each pair then runs
``enumeration._scalar_chunk`` over every mask range of n = 1..6 with
exponents (-1, 0.5, 2, 3) at tolerance 1e-9, once per tree, the tree that
runs first alternating from pair to pair.  Both trees share one
interpreter, its imports and its memory, so what differs between the two
runs of a pair is the code and the load that other processes put on the
machine meanwhile; read the pairs, not single runs.

Prints one JSON object: each pair's seconds per tree (in ``--src``
order), each tree's median and quartiles, and how many pairs the second
tree ran faster.  Exits 1 if the two trees' merged tallies differ in
graphs, nonzero check counts, skips or failure count, 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

N_MAX = 6
ALPHAS = (-1.0, 0.5, 2.0, 3.0)
TOLERANCE = 1e-9


def _sweep(enumeration, n_max: int):
    """Seconds and merged tally of ``_scalar_chunk`` over every range of n <= n_max."""
    bulk = enumeration._bulk
    total = bulk.Tally()
    start = time.perf_counter()
    for n in range(1, n_max + 1):
        for lo, hi in bulk.iter_mask_ranges(n):
            total.merge(enumeration._scalar_chunk(n, lo, hi, ALPHAS, TOLERANCE))
    return time.perf_counter() - start, total


def _summary(tally) -> dict:
    return {
        "graphs": tally.graphs,
        "checks": {check: count for check, count in tally.checks.items() if count},
        "skips": tally.skips,
        "failure_count": tally.failure_count,
    }


def measure(srcs, pairs: int, n_max: int = N_MAX) -> dict:
    """Time ``pairs`` alternating sweeps of the two trees under ``srcs``."""
    with tempfile.TemporaryDirectory() as tmp:
        names = [f"nbzagreb_{Path(tmp).name}_{i}" for i in range(len(srcs))]
        for src, name in zip(srcs, names):
            shutil.copytree(Path(src) / "nbzagreb", Path(tmp) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        try:
            trees = [importlib.import_module(f"{name}.enumeration") for name in names]
            for tree in trees:  # first-call costs, outside the pairs
                _sweep(tree, min(n_max, 4))
            seconds = [[0.0, 0.0] for _ in range(pairs)]
            tallies = [None, None]
            for pair in range(pairs):
                for i in (0, 1) if pair % 2 == 0 else (1, 0):
                    seconds[pair][i], tally = _sweep(trees[i], n_max)
                    tallies[i] = _summary(tally)
        finally:
            sys.path.remove(tmp)
            for module in [m for m in sys.modules if m.split(".")[0] in names]:
                del sys.modules[module]
    per_tree = np.array(seconds).T
    return {
        "trees": [str(src) for src in srcs],
        "n_max": n_max,
        "pairs_s": [[round(s, 4) for s in pair] for pair in seconds],
        "median_s": [round(float(np.median(s)), 4) for s in per_tree],
        "quartiles_s": [[round(float(q), 4) for q in np.percentile(s, [25, 75])]
                        for s in per_tree],
        "second_faster": sum(second < first for first, second in seconds),
        "tallies_agree": tallies[0] == tallies[1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[],
                        help="directory holding the nbzagreb package; give exactly two")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs to time")
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    if args.pairs < 1:
        parser.error("need --pairs >= 1")
    for src in args.src:
        if not (Path(src) / "nbzagreb" / "__init__.py").is_file():
            parser.error(f"no nbzagreb package under {src}")
    result = measure([Path(src).resolve() for src in args.src], args.pairs)
    print(json.dumps(result))
    if not result["tallies_agree"]:
        print("tallies disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
