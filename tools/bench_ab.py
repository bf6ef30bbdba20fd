"""Time one target of two nbzagreb source trees against each other in one process.

    python tools/bench_ab.py --target T --src OLD/src --src NEW/src [--pairs 10] [--record FILE]

Both packages are copied under names of their own and imported side by
side; the ``startup`` and ``pool`` targets run each tree in fresh
interpreters instead.
A pair runs each work unit on both trees, the first tree alternating
between pairs, and sums per tree each unit's fastest of ``REPEATS``
back-to-back runs (``total_s``); inputs are built off the clock.  Targets,
their units, seconds keys and results:

* ``enumeration``: per mask range of n = 7, ``_bulk.connected_masks``
  (``connected_masks_s``) and ``_bulk.sweep_chunk`` at ``ALPHAS`` and
  ``TOLERANCE`` (``kernel_s``), with its time inside each of
  ``KERNEL_STAGES``, which do not nest: ``_decode``, ``_connected``,
  ``_correction_tables`` and the check families ``_nm_checks``,
  ``_nm2_checks`` and ``_spectral_checks`` (``kernel_decode_s``,
  ``kernel_connected_s``, ``kernel_tables_s``, ``kernel_nm_s``,
  ``kernel_nm2_s``, ``kernel_spectral_s``; 0 in a tree that lacks the
  function); two counts ride along with the seconds, each the least of
  the ``REPEATS`` runs as they are: ``kernel_minflt``, the minor page
  faults of the process (``getrusage``) across the timed ``sweep_chunk``
  call, and ``kernel_peak_mb``, the tracemalloc peak in MB of one untimed
  ``sweep_chunk`` call on the range that starts at ``PEAK_LO`` (0 on the
  other ranges).  Both trees share one process, and glibc's heap trim
  threshold grows with the largest block the process has freed, so one
  tree's faults depend on what the other allocates;
  per bound source, ``find_equality_graphs(7, 2.0, source)``
  (``extremal_s``), with its time inside each of ``EXTREMAL_STAGES``,
  which do not nest: ``_orbit_keys``, ``_canonical_graphs`` (the class
  population's lower levels), ``_bulk._connected``,
  ``_bulk.equality_flags`` (the batched screen of the classes),
  ``graphs.graph_of_mask`` and ``graphs.degree_profile``
  (``orbit_keys_s``, ``canonical_graphs_s``, ``extremal_connected_s``,
  ``equality_flags_s``, ``graph_of_mask_s``, ``degree_profile_s``).
  ``connected``, ``graphs``, ``checks``, ``failures``, ``extremal_records``.
* ``scalar``: per mask range of n <= 6, cut to ``UNIT`` masks,
  ``enumeration._scalar_chunk`` (``scalar_s``).  ``graphs``,
  ``failure_count``, nonzero ``checks.<check>``, ``skips.<check>.<reason>``.
* ``diameter``, ``spectral_radius``, ``degree_profile``: that function per
  ``UNIT`` graphs of perfbench's 40 ``per_graph`` inputs at seed 1, every
  connected graph with n <= 6 and a third set (``per_graph_s``,
  ``connected_n6_s``, then ``path2000_s`` or ``dense_s``), built afresh by
  the tree's ``Graph`` for every run, so caching on the graph is paid for.
  The third set is the 2000-vertex path, but for ``degree_profile`` the
  dense set: K_DENSE_N, a seeded G(DENSE_N, DENSE_P) and the
  STAR_LEAVES-leaf star, which perfbench's workloads lack.  Per set
  ``graphs`` and ``diameter_sum``; or ``rho_sum``, ``rho_sum_rel_err``
  against ``numpy.linalg.eigvalsh`` and ``iterations_mean``; or the sums of
  ``nbr_deg``, ``dist2_deg`` and ``diameter``.
* ``parse_edge_list``: ``graphs.parse_edge_list`` per ``UNIT`` documents:
  perfbench's 40 ``per_graph`` edge-list files at seed 1, as the workload
  writes them, and every connected graph with n <= 6 as 'u v' lines
  (``per_graph_s``, ``connected_n6_s``).  Per set ``graphs``, ``edges`` and
  ``adjacency_sha256``, a digest of every parsed adjacency row in order.
* ``startup``: per command of ``STARTUP``, a fresh interpreter with the
  tree's directory first on ``PYTHONPATH``: ``import nbzagreb.cli``
  (``import_s``), then ``compute``, ``bounds`` and ``spectral`` on
  ``fixtures/figure1.edges`` (``compute_s``, ``bounds_s``, ``spectral_s``),
  wall time including the interpreter's own start.  Per command ``exit``
  and ``stdout``.
* ``pool``: ``verify_all(N, ALPHAS, jobs=2)``, the bulk sweep on a process
  pool, once in each of ``REPEATS`` fresh interpreters set up as for
  ``startup``, so every sweep starts its workers from a new process as
  perfbench's ``sweep_bulk`` does: the sweep's wall time (``pool_s``), and
  two counts of its workers from ``getrusage(RUSAGE_CHILDREN)``, each the
  least of the runs: ``pool_minflt``, their minor page faults, and
  ``pool_maxrss_mb``, their largest resident set in MB.  ``graphs``,
  ``failure_count`` and ``checks.<check>`` of the report.

Prints as JSON ``target``, ``trees``, ``sizes``, ``machine``, each pair's
seconds and counts (``pairs_s``), each tree's ``median_s`` and
``quartiles_s``, all to 4 significant digits, each pair's relative gap of the second tree's
``total_s`` (``gaps``, from the unrounded totals), ``median_gap``,
``second_faster``, each tree's ``results`` and their
``disagreements`` (counts, diameter sums, exit codes and stdout exactly,
radius sums to 1e-9 relative).  Any disagreement exits 1; else
``--record FILE`` appends the object to the ``runs`` list of FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import inspect
import json
import math
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
REPEATS = 3
UNIT = 1024
N = 7
N_MAX = 6
PATH_N = 2000
DENSE_N = 300
DENSE_P = 0.3
STAR_LEAVES = 5000
ALPHAS = (-1.0, 0.5, 2.0, 3.0)
TOLERANCE = 1e-9
PEAK_LO = 40 << 15  # the n = 7 mask range whose kernel peak is traced
SOURCES = ("secant", "unit", "congruence")
# Reported, not compared: they may differ between correct versions.
UNCOMPARED = {"rho_sum_rel_err", "iterations_mean"}
# The nbzagreb attributes the harness calls, by module.
CALLED = {
    "_bulk": ("iter_mask_ranges", "connected_masks", "sweep_chunk"),
    "enumeration": ("enumerate_connected", "find_equality_graphs", "_scalar_chunk"),
    "graphs": ("Graph", "degree_profile", "diameter", "parse_edge_list"),
    "spectral": ("spectral_radius",),
}
# Functions timed inside a pass by wrapping them, where the tree defines
# them: (module, name, seconds key).
KERNEL_STAGES = (("_bulk", "_decode", "kernel_decode_s"),
                 ("_bulk", "_connected", "kernel_connected_s"),
                 ("_bulk", "_correction_tables", "kernel_tables_s"),
                 ("_bulk", "_nm_checks", "kernel_nm_s"),
                 ("_bulk", "_nm2_checks", "kernel_nm2_s"),
                 ("_bulk", "_spectral_checks", "kernel_spectral_s"))
EXTREMAL_STAGES = (("enumeration", "_orbit_keys", "orbit_keys_s"),
                   ("enumeration", "_canonical_graphs", "canonical_graphs_s"),
                   ("_bulk", "_connected", "extremal_connected_s"),
                   ("_bulk", "equality_flags", "equality_flags_s"),
                   ("graphs", "graph_of_mask", "graph_of_mask_s"),
                   ("graphs", "degree_profile", "degree_profile_s"))
# The startup target's commands: interpreter arguments by name.
FIGURE1 = ("--input", str(ROOT / "fixtures" / "figure1.edges"))
STARTUP = {
    "import": ("-c", "import nbzagreb.cli"),
    "compute": ("-m", "nbzagreb.cli", "compute", *FIGURE1, "--alpha", "2", "--alpha", "0.5"),
    "bounds": ("-m", "nbzagreb.cli", "bounds", *FIGURE1, "--alpha", "2", "--alpha", "0.5"),
    "spectral": ("-m", "nbzagreb.cli", "spectral", *FIGURE1),
}


def _timed(func, key, seconds):
    """``func`` adding its running time to seconds[key]; a generator's time
    counts only while it runs, not while its caller holds an item."""
    if inspect.isgeneratorfunction(func):
        step, done = _timed(next, key, seconds), object()
        return lambda *args, **kwargs: iter(partial(step, func(*args, **kwargs), done), done)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            seconds[key] += time.perf_counter() - t0

    return wrapper


def _pass(tree, key, stages, call):
    """Seconds of ``call()`` as ``key`` and ``total_s``, of each wrapped stage, and its result.
    A stage is wrapped in every module of the tree that binds it, since a
    from-import copies the name; one the tree does not define stays at 0."""
    seconds = Counter({stage: 0.0 for _mod, _name, stage in stages})
    originals = [(module, name, func, stage)
                 for mod, name, stage in stages if hasattr(tree.modules[mod], name)
                 for func in (getattr(tree.modules[mod], name),)
                 for module in tree.modules.values() if getattr(module, name, None) is func]
    try:
        for module, name, func, stage in originals:
            setattr(module, name, _timed(func, stage, seconds))
        t0 = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - t0
        seconds.update({key: elapsed, "total_s": elapsed})
        return seconds, result
    finally:
        for module, name, func, _stage in originals:
            setattr(module, name, func)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_mb(call) -> float:
    """The tracemalloc peak of ``call()``, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _mask_range(lo, hi, tree):
    seconds, masks = _pass(tree, "connected_masks_s", (), lambda: tree.connected_masks(N, lo, hi))
    sweep = partial(tree.sweep_chunk, N, lo, hi, ALPHAS, TOLERANCE)
    faults = _minflt()
    kernel, tally = _pass(tree, "kernel_s", KERNEL_STAGES, sweep)
    kernel["kernel_minflt"] = _minflt() - faults
    kernel["kernel_peak_mb"] = _peak_mb(sweep) if lo == PEAK_LO else 0.0
    seconds.update(kernel)
    return seconds, {"connected": masks.size, "graphs": tally.graphs,
                     "checks": sum(tally.checks.values()), "failures": tally.failure_count}


def _extremal(source, tree):
    seconds, records = _pass(tree, "extremal_s", EXTREMAL_STAGES,
                             lambda: tree.find_equality_graphs(N, 2.0, source))
    return seconds, {"extremal_records": len(records)}


def _scalar(n, lo, hi, tree):
    seconds, tally = _pass(tree, "scalar_s", (),
                           lambda: tree._scalar_chunk(n, lo, hi, ALPHAS, TOLERANCE))
    counts = {"graphs": tally.graphs, "failure_count": tally.failure_count}
    counts.update((f"checks.{check}", count) for check, count in tally.checks.items() if count)
    counts.update((f"skips.{check}.{reason}", count)
                  for check, reasons in tally.skips.items() for reason, count in reasons.items())
    return seconds, counts


def _per_graph(func, set_name, specs, tree):
    graphs = [tree.Graph.from_edges(n, edges) for n, edges in specs]
    call = getattr(tree, func)
    seconds, values = _pass(tree, f"{set_name}_s", (), lambda: [call(g) for g in graphs])
    return seconds, (set_name, values)


def _counts(values):
    total = Counter()
    for counts in values:
        total.update(counts)
    return dict(total)


def _enumeration_target(tree):
    units = [partial(_mask_range, lo, hi) for lo, hi in tree.iter_mask_ranges(N)]
    return units + [partial(_extremal, source) for source in SOURCES], _counts


def _scalar_target(tree):
    units = [partial(_scalar, n, start, min(start + UNIT, hi)) for n in range(1, N_MAX + 1)
             for lo, hi in tree.iter_mask_ranges(n) for start in range(lo, hi, UNIT)]
    return units, _counts


def _eigvalsh_radius(n, edges) -> float:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return float(np.linalg.eigvalsh(a)[-1])


def _dense_specs():
    """K_DENSE_N, a seeded G(DENSE_N, DENSE_P) and the star with hub 0."""
    rng = random.Random(1)
    pairs = [(i, j) for j in range(DENSE_N) for i in range(j)]
    return [(DENSE_N, pairs),
            (DENSE_N, [pair for pair in pairs if rng.random() < DENSE_P]),
            (STAR_LEAVES + 1, [(0, v) for v in range(1, STAR_LEAVES + 1)])]


def _workloads(tree):
    """perfbench/workloads.py, which imports nbzagreb: the tree stands in for
    it while it loads, and no bytecode is written under perfbench/."""
    with mock.patch.dict(sys.modules, nbzagreb=sys.modules[tree.package]), \
            mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]), \
            mock.patch.object(sys, "dont_write_bytecode", True):
        return importlib.import_module("workloads")


def _per_graph_target(func, tree):
    workloads = _workloads(tree)
    rng = random.Random(1)  # the per_graph workload's seed
    sets = {
        "per_graph": [workloads.make_graph(i, rng) for i in range(workloads.PER_GRAPH_BATCH)],
        "connected_n6": [(g.n, list(g.edges()))
                         for n in range(1, N_MAX + 1) for g in tree.enumerate_connected(n)],
    }
    if func == "degree_profile":
        sets["dense"] = _dense_specs()
    else:
        sets["path2000"] = [(PATH_N, [(v - 1, v) for v in range(1, PATH_N)])]
    units = [partial(_per_graph, func, name, specs[start:start + UNIT])
             for name, specs in sets.items() for start in range(0, len(specs), UNIT)]

    def summary(values):
        out = {}
        for name, specs in sets.items():
            got = [value for set_name, chunk in values if set_name == name for value in chunk]
            out[name] = {"graphs": len(got)}
            if func == "diameter":
                out[name]["diameter_sum"] = sum(got)
                continue
            if func == "degree_profile":
                out[name].update(nbr_deg_sum=sum(sum(p.nbr_deg) for p in got),
                                 dist2_deg_sum=sum(sum(p.dist2_deg) for p in got),
                                 diameter_sum=sum(p.diameter for p in got))
                continue
            rho_sum = math.fsum(r.rho for r in got)
            want = math.fsum(_eigvalsh_radius(n, edges) for n, edges in specs)
            out[name].update(rho_sum=rho_sum, rho_sum_rel_err=(rho_sum - want) / want,
                             iterations_mean=round(sum(r.iterations for r in got) / len(got), 2))
        return out

    return units, summary


def _parse(set_name, texts, tree):
    seconds, graphs = _pass(tree, f"{set_name}_s", (),
                            lambda: [tree.parse_edge_list(text) for text in texts])
    return seconds, (set_name, [g.adjacency for g in graphs])


def _edge_text(g) -> str:
    """'u v' lines of g's edges; a header alone for a graph without edges."""
    return "".join(f"{u} {v}\n" for u, v in g.edges()) or f"n {g.n}\n"


def _parse_target(tree):
    with tempfile.TemporaryDirectory() as tmp:
        per_graph = _workloads(tree).PerGraph(1, Path(tmp))  # the workload's seed-1 files
        sets = {"per_graph": [g.path.read_text() for g in per_graph.graphs]}
    sets["connected_n6"] = [_edge_text(g) for n in range(1, N_MAX + 1)
                            for g in tree.enumerate_connected(n)]
    units = [partial(_parse, name, texts[start:start + UNIT])
             for name, texts in sets.items() for start in range(0, len(texts), UNIT)]

    def summary(values):
        out = {}
        for name in sets:
            got = [adjacency for set_name, chunk in values if set_name == name
                   for adjacency in chunk]
            out[name] = {"graphs": len(got),
                         "edges": sum(len(row) for adjacency in got for row in adjacency) // 2,
                         "adjacency_sha256": hashlib.sha256(repr(got).encode()).hexdigest()}
        return out

    return units, summary


def _tree_env(tree) -> dict:
    """The environment with the tree's directory first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree.src), env.get("PYTHONPATH")]))
    return env


def _startup(name, tree):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *STARTUP[name]], env=_tree_env(tree),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    result = {"exit": proc.returncode, "stdout": proc.stdout}
    return {f"{name}_s": elapsed, "total_s": elapsed}, (name, result)


def _startup_target(tree):
    return [partial(_startup, name) for name in STARTUP], dict


# Run by the pool target in a fresh interpreter: argv is N and ALPHAS as JSON.
POOL_SWEEP = """
import json, resource, sys, time
from nbzagreb import verify_all
n, alphas = json.loads(sys.argv[1])
t0 = time.perf_counter()
report = verify_all(n, alphas, jobs=2)
elapsed = time.perf_counter() - t0
workers = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"pool_s": elapsed, "total_s": elapsed, "pool_minflt": workers.ru_minflt,
                  "pool_maxrss_mb": workers.ru_maxrss / 1024}))
print(json.dumps({"graphs": report.graphs_checked, "failure_count": report.failure_count,
                  **{f"checks.{check}": count for check, count in report.checks_run.items()}}))
"""


def _pool(tree):
    proc = subprocess.run([sys.executable, "-c", POOL_SWEEP, json.dumps([N, ALPHAS])],
                          env=_tree_env(tree), capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise RuntimeError(f"the pool sweep of {tree.src} exited {proc.returncode}:\n{proc.stderr}")
    seconds, counts = map(json.loads, proc.stdout.splitlines())
    return seconds, counts


def _pool_target(tree):
    return [_pool], _counts


TARGETS = {
    "enumeration": _enumeration_target,
    "scalar": _scalar_target,
    "diameter": partial(_per_graph_target, "diameter"),
    "spectral_radius": partial(_per_graph_target, "spectral_radius"),
    "degree_profile": partial(_per_graph_target, "degree_profile"),
    "parse_edge_list": _parse_target,
    "startup": _startup_target,
    "pool": _pool_target,
}


def _disagreements(a, b, where: str = "results") -> list[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        return [problem for key in sorted(a.keys() | b.keys()) if key not in UNCOMPARED
                for problem in _disagreements(a.get(key), b.get(key), f"{where}.{key}")]
    same = math.isclose(a, b, rel_tol=1e-9) if isinstance(a, float) else a == b
    return [] if same else [f"{where}: {a!r} vs {b!r}"]


def _sig(seconds: float) -> float:
    """seconds to 4 significant digits, so units below a millisecond keep
    their precision."""
    return float(f"{seconds:.4g}")


def measure(target: str, srcs, pairs: int) -> dict:
    """Time ``pairs`` alternating pairs of ``target`` on the trees under ``srcs``."""
    # Each tree is imported from a copy under a name of its own; on exit
    # sys.modules and sys.path are as they were, so the copies are gone.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(sys.modules), \
            mock.patch.object(sys, "path", [tmp, *sys.path]):
        trees = []
        for i, src in enumerate(srcs):
            name = f"nbzagreb_{Path(tmp).name}_{i}"
            shutil.copytree(Path(src) / "nbzagreb", Path(tmp) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            modules = {mod: importlib.import_module(f"{name}.{mod}") for mod in CALLED}
            attrs = {attr: getattr(modules[mod], attr) for mod in CALLED for attr in CALLED[mod]}
            trees.append(SimpleNamespace(package=name, src=src, modules=modules, **attrs))
        units, summary = TARGETS[target](trees[0])
        seconds = []
        values = [[None] * len(units) for _ in trees]
        for pair in range(pairs):
            sums = [Counter() for _ in trees]
            for u, unit in enumerate(units):
                for i in (0, 1) if pair % 2 == 0 else (1, 0):
                    best = {}
                    for _ in range(REPEATS):
                        seconds_u, values[i][u] = unit(trees[i])
                        best = {k: min(v, best.get(k, v)) for k, v in seconds_u.items()}
                    sums[i].update(best)
            seconds.append(sums)
        results = [summary(tree_values) for tree_values in values]
    per_tree = [{k: [pair[i][k] for pair in seconds] for k in seconds[0][i]} for i in (0, 1)]
    gaps = [second["total_s"] / first["total_s"] - 1 for first, second in seconds]
    return {
        "target": target,
        "trees": [str(src) for src in srcs],
        "sizes": {"n": N, "n_max": N_MAX, "path_n": PATH_N, "dense_n": DENSE_N,
                  "dense_p": DENSE_P, "star_leaves": STAR_LEAVES, "unit": UNIT,
                  "repeats": REPEATS, "peak_lo": PEAK_LO},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "pairs_s": [[{k: _sig(v) for k, v in tree_s.items()} for tree_s in pair]
                    for pair in seconds],
        "median_s": [{k: _sig(np.median(v)) for k, v in tree_s.items()} for tree_s in per_tree],
        "quartiles_s": [{k: [_sig(q) for q in np.percentile(v, [25, 75])]
                         for k, v in tree_s.items()} for tree_s in per_tree],
        "gaps": [round(gap, 4) for gap in gaps],
        "median_gap": round(float(np.median(gaps)), 4),
        "second_faster": sum(gap < 0 for gap in gaps),
        "results": results,
        "disagreements": _disagreements(*results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--target", required=True, choices=tuple(TARGETS))
    parser.add_argument("--src", action="append", default=[],
                        help="directory holding the nbzagreb package; give exactly two")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs to time")
    parser.add_argument("--record", help="JSON file whose 'runs' list receives the result")
    args = parser.parse_args(argv)
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    if args.pairs < 1:
        parser.error("need --pairs >= 1")
    for src in args.src:
        if not (Path(src) / "nbzagreb" / "__init__.py").is_file():
            parser.error(f"no nbzagreb package under {src}")
    result = measure(args.target, [Path(src).resolve() for src in args.src], args.pairs)
    print(json.dumps(result))
    if result["disagreements"]:
        print("the trees disagree:\n" + "\n".join(result["disagreements"]), file=sys.stderr)
        return 1
    if args.record:
        path = Path(args.record)
        doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
        doc["runs"].append(result)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
