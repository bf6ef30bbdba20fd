"""Time the spectral-chain stage of the bulk sweep kernel.

Runs ``_bulk.sweep_chunk`` over every mask chunk of n = 7 with the
nbzagreb package found under ``--src``, and times the calls to the
integer certificates (``_bulk.ratio_certificates``, or
``_bulk.ratio_is_exact`` in older kernels) plus their fallback
``_bulk.batched_power_iteration`` from outside, so the same script
measures any version of the kernel:

    python tools/bench_chain.py --src src --label after
    python tools/bench_chain.py --src /path/to/old/checkout/src --label before

Prints one JSON object: stage seconds, whole-kernel seconds, rows, the
mean and maximum power-iteration steps per row, the rows that took no
step (settled by a certificate) and how many rows each certificate
settled.  ``--record FILE`` also appends it to the ``runs`` list of that
JSON file.  The wrapped ``_bulk`` functions are restored on return.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ALPHAS = (-1.0, 0.5, 2.0, 3.0)
TOLERANCE = 1e-9
N = 7
STAGE = ("ratio_certificates", "ratio_is_exact", "batched_power_iteration")


def measure(n: int) -> dict:
    import numpy as np
    from nbzagreb import _bulk

    stats = {
        "stage_s": 0.0,
        "steps_sum": 0,
        "steps_max": 0,
        "rows": 0,
        "settled_rows": 0,
        "exact_rows": 0,
        "strict_rows": 0,
    }

    def count(name, result):
        if name == "batched_power_iteration":
            steps = np.asarray(result[1])
            stats["steps_sum"] += int(steps.sum())
            stats["steps_max"] = max(stats["steps_max"], int(steps.max(initial=0)))
            stats["rows"] += int(steps.size)
            stats["settled_rows"] += int((steps == 0).sum())
        elif name == "ratio_certificates":
            exact, strict = result
            stats["exact_rows"] += int(exact.sum())
            stats["strict_rows"] += int(strict.sum())
        else:
            stats["exact_rows"] += int(result.sum())

    def timed(name, func):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = func(*args, **kwargs)
            stats["stage_s"] += time.perf_counter() - t0
            count(name, result)
            return result

        return wrapper

    originals = {name: getattr(_bulk, name) for name in STAGE if hasattr(_bulk, name)}
    try:
        for name, func in originals.items():
            setattr(_bulk, name, timed(name, func))
        t0 = time.perf_counter()
        for lo, hi in _bulk.iter_mask_ranges(n):
            _bulk.sweep_chunk(n, lo, hi, ALPHAS, TOLERANCE)
        kernel_s = time.perf_counter() - t0
    finally:
        for name, func in originals.items():
            setattr(_bulk, name, func)
    return {
        "n": n,
        "stage_s": round(stats["stage_s"], 3),
        "kernel_s": round(kernel_s, 3),
        "rows": stats["rows"],
        "steps_mean": round(stats["steps_sum"] / max(stats["rows"], 1), 3),
        "steps_max": stats["steps_max"],
        "settled_rows": stats["settled_rows"],
        "exact_rows": stats["exact_rows"],
        "strict_rows": stats["strict_rows"],
    }


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
        doc["runs"].append(result)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
