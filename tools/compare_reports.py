"""Diff every deterministic report of two nbzagreb source trees.

    python tools/compare_reports.py --src /path/to/old/checkout/src --src src

Each tree runs in a fresh interpreter, which prints one JSON object of
named outputs; the script then compares the two objects name by name:

* ``verify_all(n, (-1, 0.5, 2, 3))`` ``to_dict()`` without ``elapsed``,
  failure records included: both engines at n <= 6 with tolerance 1e-9
  and 1e-13, both engines at n <= 5 with tolerance 1e-300 (every inexact
  instance fails), and bulk at n <= 7 with tolerance 1e-9 and 1e-300;
* ``_bulk.sweep_chunk`` tallies (counts, skips and failure records) on
  the first, a middle and the last mask range of n = 8 at tolerance
  1e-300, where every float sum over eight vertices shows its order;
* ``find_equality_graphs`` at n = 5 and 6 for every bound source and the
  same four exponents;
* CLI ``compute`` (JSON and CSV), ``bounds`` and ``spectral`` stdout, exit
  code and stderr on every fixture and on seeded graphs (random ones,
  disconnected ones among them, plus cycles and stars), fed through stdin
  so that the documents do not embed a path;
* CLI ``compute`` (JSON) on larger seeded graphs: paths, random trees and
  trees with about n extra edges of 200 to 1000 vertices, and one
  disconnected graph of 3000 vertices, where the ``diameter`` and
  ``connected`` fields come from more than a few BFS levels;
* CLI ``compute`` (JSON) and ``bounds`` on a 2000-leaf star, a broom, a
  hub joined to every vertex of a long path and a header-declared graph of
  100,000 vertices with four edges.

Prints the names that differ with a short diff of each, and exits 1 if
any output differs, 0 otherwise.  One tree takes one to two minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

ALPHAS = (-1.0, 0.5, 2.0, 3.0)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SEEDED = 60
DIFF_LINES = 20


def _verify_outputs(verify_all) -> dict[str, str]:
    runs = [
        (engine, n, tol)
        for engine in ("bulk", "scalar")
        for n, tol in ((6, 1e-9), (6, 1e-13), (5, 1e-300))
    ]
    runs += [("bulk", 7, 1e-9), ("bulk", 7, 1e-300)]
    out = {}
    for engine, n, tol in runs:
        doc = verify_all(n, ALPHAS, tolerance=tol, engine=engine).to_dict()
        del doc["elapsed"]
        out[f"verify/{engine}/n{n}/tol{tol:g}"] = json.dumps(doc, indent=1)
    return out


def _chunk_outputs(sweep_chunk) -> dict[str, str]:
    out = {}
    for lo in (0, 4000 << 15, (1 << 28) - (1 << 15)):
        tally = sweep_chunk(8, lo, lo + (1 << 15), ALPHAS, 1e-300)
        doc = {
            "graphs": tally.graphs,
            "checks": dict(tally.checks),
            "skips": {check: dict(reasons) for check, reasons in tally.skips.items()},
            "failure_count": tally.failure_count,
            "failures": tally.failures,
        }
        out[f"sweep_chunk/n8/lo{lo}/tol1e-300"] = json.dumps(doc, indent=1, sort_keys=True)
    return out


def _extremal_outputs(find_equality_graphs) -> dict[str, str]:
    out = {}
    for n in (5, 6):
        for source in ("secant", "unit", "congruence"):
            for alpha in ALPHAS:
                records = [r.to_dict() for r in find_equality_graphs(n, alpha, source)]
                out[f"extremal/{source}/n{n}/a{alpha:g}"] = json.dumps(records, indent=1)
    return out


def _seeded_graphs() -> dict[str, str]:
    """Edge-list documents with an ``n <count>`` header, keyed by name."""
    docs = {}
    for seed in range(SEEDED):
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        density = rng.random()
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < density]
        docs[f"random{seed}"] = "".join([f"n {n}\n", *(f"{u} {v}\n" for u, v in edges)])
    for n in range(3, 9):
        docs[f"cycle{n}"] = "".join(f"{u} {(u + 1) % n}\n" for u in range(n))
        docs[f"star{n}"] = "".join(f"0 {v}\n" for v in range(1, n))
    return docs


def _edge_doc(n: int, edges, rng: random.Random) -> str:
    """Edge-list document with an ``n <count>`` header and shuffled labels."""
    perm = list(range(n))
    rng.shuffle(perm)
    return "".join([f"n {n}\n", *(f"{perm[u]} {perm[v]}\n" for u, v in edges)])


def _large_graphs() -> dict[str, str]:
    rng = random.Random(0)
    docs = {}
    for n in (200, 500, 1000):
        docs[f"path{n}"] = _edge_doc(n, [(v - 1, v) for v in range(1, n)], rng)
    for n in (300, 1000):
        docs[f"tree{n}"] = _edge_doc(n, [(rng.randrange(v), v) for v in range(1, n)], rng)
    for n in (300, 800):
        have = {(rng.randrange(v), v) for v in range(1, n)}
        while len(have) < 2 * n - 1:
            u, v = sorted(rng.sample(range(n), 2))
            have.add((u, v))
        docs[f"tree_plus_n{n}"] = _edge_doc(n, sorted(have), rng)
    docs["forest3000"] = _edge_doc(
        3000, [(rng.randrange(v), v) for v in range(1, 3000) if v % 1000], rng
    )
    return docs


def _family_graphs() -> dict[str, str]:
    """Hubs and header-declared vertices, where the profile's cost used to
    grow with the square of the input."""
    rng = random.Random(1)
    return {
        "star2000": _edge_doc(2001, [(0, v) for v in range(1, 2001)], rng),
        # A path of 1000 vertices with 1000 leaves on its last vertex.
        "broom2000": _edge_doc(
            2000, [(v - 1, v) for v in range(1, 1000)] + [(999, v) for v in range(1000, 2000)],
            rng,
        ),
        # A hub joined to every vertex of a 1000-vertex path (diameter 2).
        "fan1001": _edge_doc(
            1001, [(v - 1, v) for v in range(2, 1001)] + [(0, v) for v in range(1, 1001)], rng
        ),
        "header100000": _edge_doc(100_000, [(0, 1), (1, 2), (3, 4), (2, 5)], rng),
    }


def _run_cli(main, argv, text: str) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}"


def _cli_outputs(main) -> dict[str, str]:
    inputs = {
        str(path.relative_to(FIXTURES)): (
            path.read_text(), "graph6" if path.suffix == ".g6" else "edges"
        )
        for path in sorted(FIXTURES.rglob("*"))
        if path.is_file()
    }
    inputs.update((name, (text, "edges")) for name, text in _seeded_graphs().items())
    alpha_flags = [flag for a in ALPHAS for flag in ("--alpha", repr(a))]
    commands = {
        "compute": ["compute", *alpha_flags],
        "compute-csv": ["compute", *alpha_flags, "--output", "csv"],
        "bounds": ["bounds", *alpha_flags],
        "spectral": ["spectral"],
    }
    out = {}
    for name, (text, fmt) in inputs.items():
        for label, argv in commands.items():
            args = [*argv, "--input", "-", "--format", fmt]
            out[f"cli/{label}/{name}"] = _run_cli(main, args, text)
    for name, text in _large_graphs().items():
        out[f"cli/compute/{name}"] = _run_cli(main, [*commands["compute"], "--input", "-"], text)
    for name, text in _family_graphs().items():
        for label in ("compute", "bounds"):
            out[f"cli/{label}/{name}"] = _run_cli(main, [*commands[label], "--input", "-"], text)
    sys.stdin = sys.__stdin__
    return out


def emit() -> int:
    import nbzagreb
    from nbzagreb._bulk import sweep_chunk
    from nbzagreb.cli import main
    from nbzagreb.enumeration import find_equality_graphs, verify_all

    outputs = {
        **_verify_outputs(verify_all),
        **_chunk_outputs(sweep_chunk),
        **_extremal_outputs(find_equality_graphs),
        **_cli_outputs(main),
    }
    json.dump({"package": nbzagreb.__file__, "outputs": outputs}, sys.stdout)
    return 0


def _diff(a: str | None, b: str | None) -> list[str]:
    if a is None or b is None:
        return [f"  only in {'second' if a is None else 'first'} tree"]
    lines = list(difflib.unified_diff(a.splitlines(), b.splitlines(), lineterm="", n=1))
    return [f"  {line}" for line in lines[2 : 2 + DIFF_LINES]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[],
                        help="directory holding the nbzagreb package; give exactly two")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        return emit()
    if len(args.src) != 2:
        parser.error("give --src exactly twice")
    srcs = [Path(s).resolve() for s in args.src]
    for src in srcs:
        if not (src / "nbzagreb" / "__init__.py").is_file():
            parser.error(f"no nbzagreb package under {src}")

    procs = [
        subprocess.Popen(
            [sys.executable, __file__, "--emit"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
        )
        for src in srcs
    ]
    docs = []
    for src, proc in zip(srcs, procs):
        stdout, _ = proc.communicate()
        if proc.returncode:
            print(f"{src}: probe exited with {proc.returncode}")
            return 2
        docs.append(json.loads(stdout))
    for doc in docs:
        print(f"tree: {doc['package']}")

    first, second = (doc["outputs"] for doc in docs)
    names = sorted(first.keys() | second.keys())
    differ = [name for name in names if first.get(name) != second.get(name)]
    for name in differ:
        print(f"DIFFERS {name}")
        print("\n".join(_diff(first.get(name), second.get(name))))
    print(f"{len(names) - len(differ)} of {len(names)} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
