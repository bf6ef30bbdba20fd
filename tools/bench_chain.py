"""Time the spectral-chain stage of the bulk sweep kernel.

Runs ``_bulk.sweep_chunk`` over every mask chunk of n = 7 with the
nbzagreb package found under ``--src``, and times the calls to
``_bulk.batched_power_iteration`` (plus ``_bulk.ratio_is_exact``, the
integer certificate, where the package has one) from outside, so the same
script measures any version of the kernel:

    python tools/bench_chain.py --src src --label after
    python tools/bench_chain.py --src /path/to/old/checkout/src --label before

Prints one JSON object: stage seconds, whole-kernel seconds, rows, the
mean and maximum power-iteration steps per row and the rows that took no
step (the exact certificates).  ``--record FILE`` also appends it to the
``runs`` list of that JSON file.
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
STAGE = ("batched_power_iteration", "ratio_is_exact")


def measure(n: int) -> dict:
    import numpy as np
    from nbzagreb import _bulk

    stats = {"stage_s": 0.0, "steps_sum": 0, "steps_max": 0, "rows": 0, "exact_rows": 0}

    def timed(func):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = func(*args, **kwargs)
            stats["stage_s"] += time.perf_counter() - t0
            if func.__name__ == "batched_power_iteration":
                steps = np.asarray(result[1])
                stats["steps_sum"] += int(steps.sum())
                stats["steps_max"] = max(stats["steps_max"], int(steps.max(initial=0)))
                stats["rows"] += int(steps.size)
                stats["exact_rows"] += int((steps == 0).sum())
            return result

        return wrapper

    for name in STAGE:
        if hasattr(_bulk, name):
            setattr(_bulk, name, timed(getattr(_bulk, name)))
    t0 = time.perf_counter()
    for lo, hi in _bulk.iter_mask_ranges(n):
        _bulk.sweep_chunk(n, lo, hi, ALPHAS, TOLERANCE)
    kernel_s = time.perf_counter() - t0
    return {
        "n": n,
        "stage_s": round(stats["stage_s"], 3),
        "kernel_s": round(kernel_s, 3),
        "rows": stats["rows"],
        "steps_mean": round(stats["steps_sum"] / max(stats["rows"], 1), 3),
        "steps_max": stats["steps_max"],
        "exact_rows": stats["exact_rows"],
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
