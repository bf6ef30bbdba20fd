"""Write the committed oracle files under perfbench/reference/.

Run from the root of a checkout whose results are known good:

    python3 perfbench/make_reference.py

The sweep references pin the deterministic part of each report.  Both are
written by the bulk engine, so the scalar workload, which must match the
n <= 6 file, also cross-checks the two engines.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(1, str(HERE))

from nbzagreb import enumeration  # noqa: E402
from workloads import ALPHAS, JOBS, REFERENCE, Extremal, report_summary  # noqa: E402


def write(name: str, doc) -> None:
    (REFERENCE / name).write_text(json.dumps(doc, indent=1) + "\n")


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    bulk7 = enumeration.verify_all(7, ALPHAS, engine="bulk", jobs=JOBS)
    write("sweep_bulk.json", report_summary(bulk7))
    bulk6 = enumeration.verify_all(6, ALPHAS, engine="bulk")
    write("sweep_scalar.json", report_summary(bulk6))
    write(
        "extremal_n7.json",
        {s: [r.graph for r in enumeration.find_equality_graphs(7, 2.0, s)] for s in Extremal.SOURCES},
    )


if __name__ == "__main__":
    main()
