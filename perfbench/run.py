"""nbzagreb benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_bulk --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it wraps the nbzagreb layers with spans
(see tracer.py) and reports the per-layer metrics instead, so end-to-end
numbers never carry tracing overhead.  Every output is checked against
its oracle; the last line of standard output is the result object.  The
run exits 0 when every output was correct, 1 when one was not, and 2 when
the checkout holds no nbzagreb sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from layers import PKG, TARGETS, layer_metrics
from tracer import Tracer, snapshot

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 7
OVERHEAD_PAIRS = 3


def fail_setup(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def import_program(root: Path):
    src = root / "src"
    if not (src / "nbzagreb" / "__init__.py").is_file():
        fail_setup(f"no nbzagreb sources under {src}")
    sys.path.insert(0, str(src))
    import nbzagreb

    if Path(nbzagreb.__file__).resolve().parent != (src / "nbzagreb").resolve():
        fail_setup(f"imported nbzagreb from {nbzagreb.__file__}, not from {src}")
    return src


# ---------------------------------------------------------------------------
# Environment


def environment(root: Path, src: Path) -> dict:
    import numpy as np

    git_sha = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((src / "nbzagreb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


# ---------------------------------------------------------------------------
# End-to-end measurement


def setup_seconds(src: Path) -> float:
    """Median wall time of a fresh interpreter importing nbzagreb.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import nbzagreb.cli"], env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def closed_loop(workload, seconds: float) -> list:
    """Whole operations back to back until the next one would end after
    ``seconds``; always at least one."""
    outcomes = []
    start = time.perf_counter()
    while True:
        outcomes.append(workload.op())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(outcomes) > seconds:
            return outcomes


def end_to_end(outcomes, src: Path) -> dict:
    import numpy as np

    latencies = [x for o in outcomes for x in o.latencies]
    return {
        "setup_s": setup_seconds(src),
        "graphs_per_s": sum(o.graphs for o in outcomes) / sum(latencies),
        "query_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "query_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# Traced runs

def probe_worker(n: int, alphas) -> int:
    """Thread count of a pool worker after one sweep chunk."""
    from nbzagreb import _bulk

    _bulk.sweep_chunk(n, 0, 1 << _bulk.CHUNK_BITS, alphas, 1e-9)
    return thread_count()


class TracedPass:
    """One traced pass: installs the tracer, checks the restore."""

    def __init__(self, name: str):
        self.name = name
        self.tracer = Tracer(PKG, TARGETS)
        self._before = snapshot(PKG)
        self.restored = None

    def run(self, op, count: int):
        outcomes = []
        with self.tracer.installed():
            for _ in range(count):
                with self.tracer.span(f"op.{self.name}"):
                    outcomes.append(op())
        after = snapshot(PKG)
        self.restored = all(after.get(key) is value for key, value in self._before.items())
        return outcomes


def traced_run(name: str, workload) -> tuple[list, dict, list[str]]:
    from workloads import ALPHAS, JOBS, PER_GRAPH_BATCH, Sweep

    # Call counts the trace must reproduce exactly.
    exact = {
        "sweep_bulk": {"bulk.sweep_chunk.calls": 70},
        "sweep_scalar": {
            "graphs.degree_profile.calls": 27476,
            "spectral.spectral_radius.calls": 27475,
        },
        "extremal_n7": {"enumeration.orbit_keys.calls": 3 * 853},
        "per_graph": {
            "graphs.degree_profile.calls": 4 * PER_GRAPH_BATCH,
            "graphs.diameter.calls": 4 * PER_GRAPH_BATCH,
            "spectral.spectral_radius.calls": PER_GRAPH_BATCH,
        },
    }[name]
    notes = []
    if name == "sweep_bulk":
        # The pool workers' spans stay in the workers, so the layer numbers
        # come from a traced jobs=1 sweep.  A third full sweep for the
        # overhead would take the run past three minutes; the overhead is
        # measured instead on the n <= 6 sweep through the same kernel,
        # alternating untraced and traced.
        pooled = workload.op()
        serial = TracedPass(name)
        outcomes = [pooled] + serial.run(lambda: workload.op(jobs=1), 1)
        small = Sweep(6, "bulk", 1, "sweep_scalar.json")
        probe = TracedPass(name)
        base, traced = [], []
        for _ in range(OVERHEAD_PAIRS):
            base.append(small.op())
            traced += probe.run(small.op, 1)
        outcomes += base + traced
        passes = (serial, probe)
        with ProcessPoolExecutor(max_workers=JOBS) as pool:
            futures = [pool.submit(probe_worker, 7, ALPHAS) for _ in range(JOBS)]
            threads = statistics.mean(f.result() for f in futures)
    else:
        base = [workload.op()]
        serial = TracedPass(name)
        traced = serial.run(workload.op, 1)
        outcomes = base + traced
        passes = (serial,)
        threads = thread_count()

    table = serial.tracer.table()
    metrics = layer_metrics(table, serial.tracer.counters)
    metrics["enumeration.threads_per_worker"] = threads
    metrics["enumeration.pool_efficiency"] = (
        table["bulk.sweep_chunk"]["s"] / (JOBS * pooled.latencies[0]) if name == "sweep_bulk" else 0.0
    )
    metrics["trace.overhead_ratio"] = sum(sum(o.latencies) for o in traced) / sum(
        sum(o.latencies) for o in base
    )
    for key, want in exact.items():
        if metrics[key] != want:
            notes.append(f"tracer self-test: {key} = {metrics[key]}, expected {want}")
    if not all(s.restored for s in passes):
        notes.append("tracer self-test: a module attribute was not restored")
    OUT.mkdir(exist_ok=True)
    serial.tracer.write(OUT / f"spans-{name}.npz")
    return outcomes, metrics, notes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = import_program(root)
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        if args.trace:
            outcomes, metrics, notes = traced_run(args.workload, workload)
            listed = spec["per_layer"]
        else:
            outcomes = closed_loop(workload, args.seconds)
            metrics = end_to_end(outcomes, src)
            notes = []
            listed = spec["end_to_end"]

    if set(metrics) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    notes += [note for o in outcomes for note in o.notes]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = failed == 0 and not notes
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "operations": len(outcomes),
        "latency_samples": sum(len(o.latencies) for o in outcomes),
        "failed_ratio": failed / attempted,
        "notes": notes[:20],
        "env": environment(root, src),
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({**info, **result}) + "\n")
    for note in notes[:20]:
        sys.stderr.write(f"perfbench: {note}\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
