"""Time the connectivity filter and the bulk sweep kernel over n = 7.

Runs, with the nbzagreb package found under ``--src``, first
``_bulk.connected_masks`` and then ``_bulk.sweep_chunk`` over every mask
range of n = 7 (64 ranges, 2,097,152 masks, 1,866,256 of them connected),
in one process, so the same script measures any version of the kernels:

    python tools/bench_enumeration.py --src src --label after
    python tools/bench_enumeration.py --src /path/to/old/checkout/src --label before

Run the two commands in turn, alternating which goes first, to get pairs.
Prints one JSON object:

* ``connected_masks_s``: the whole ``connected_masks`` pass;
* ``kernel_s``: the whole ``sweep_chunk`` pass;
* ``kernel_decode_s``, ``kernel_connected_s`` and ``kernel_reconstruct_s``:
  the part of the kernel pass spent in mask decode (``_bits_of`` plus
  ``_adj_of``), in the connectivity filter (``_connected``) and in the
  reconstruction checks (``_check_reconstructions``, a generator, timed
  while it runs and not while its caller checks the bounds), timed by
  wrapping those functions from outside;
* ``connected``, ``graphs``, ``checks`` and ``failures``: counts that must
  not depend on the version.

``--record FILE`` also appends the object to the ``runs`` list of that JSON
file, after checking its counts against the runs already there; on a
disagreement it records nothing and exits 1.  The wrapped ``_bulk``
functions are restored on return.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import sys
import time
from pathlib import Path

ALPHAS = (-1.0, 0.5, 2.0, 3.0)
TOLERANCE = 1e-9
N = 7
STAGES = {"_bits_of": "kernel_decode_s", "_adj_of": "kernel_decode_s",
          "_connected": "kernel_connected_s",
          "_check_reconstructions": "kernel_reconstruct_s"}
COUNTS = ("connected", "graphs", "checks", "failures")


def measure(n: int) -> dict:
    from nbzagreb import _bulk

    stats = dict.fromkeys(STAGES.values(), 0.0)

    def timed(func, key):
        if inspect.isgeneratorfunction(func):
            return timed_generator(func, key)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = func(*args, **kwargs)
            stats[key] += time.perf_counter() - t0
            return result

        return wrapper

    def timed_generator(func, key):
        def wrapper(*args, **kwargs):
            items = func(*args, **kwargs)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    stats[key] += time.perf_counter() - t0
                yield item

        return wrapper

    ranges = list(_bulk.iter_mask_ranges(n))
    t0 = time.perf_counter()
    connected = sum(_bulk.connected_masks(n, lo, hi).size for lo, hi in ranges)
    connected_s = time.perf_counter() - t0

    originals = {name: getattr(_bulk, name) for name in STAGES}
    try:
        for name, func in originals.items():
            setattr(_bulk, name, timed(func, STAGES[name]))
        t0 = time.perf_counter()
        tallies = [_bulk.sweep_chunk(n, lo, hi, ALPHAS, TOLERANCE) for lo, hi in ranges]
        kernel_s = time.perf_counter() - t0
    finally:
        for name, func in originals.items():
            setattr(_bulk, name, func)
    return {
        "n": n,
        "connected_masks_s": round(connected_s, 3),
        "kernel_s": round(kernel_s, 3),
        **{key: round(value, 3) for key, value in stats.items()},
        "connected": connected,
        "graphs": sum(t.graphs for t in tallies),
        "checks": sum(sum(t.checks.values()) for t in tallies),
        "failures": sum(t.failure_count for t in tallies),
    }


def disagreements(result: dict, runs: list) -> list[str]:
    """Counts that differ from a recorded run."""
    return [
        f"{key}: {result[key]} vs {run[key]} ({run['label']})"
        for run in runs
        for key in COUNTS
        if run[key] != result[key]
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
    import numpy as np

    result = {
        "label": args.label,
        **measure(N),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    print(json.dumps(result))
    if args.record:
        path = Path(args.record)
        doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
        problems = disagreements(result, doc["runs"])
        if problems:
            print("counts disagree:\n" + "\n".join(problems), file=sys.stderr)
            return 1
        doc["runs"].append(result)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
