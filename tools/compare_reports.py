"""Diff every deterministic report of two nbzagreb source trees.

    python tools/compare_reports.py --src /path/to/old/checkout/src --src src

Each tree runs in a fresh interpreter, which prints one JSON object of
named outputs; the script then compares the two objects name by name:

* ``verify_all(n, (-1, 0.5, 2, 3))`` ``to_dict()`` without ``elapsed``,
  failure records included: both engines at n <= 6 with tolerance 1e-9
  and 1e-13, both engines at n <= 5 with tolerance 1e-300 (every inexact
  instance fails), and bulk at n <= 7 with tolerance 1e-9 and 1e-300;
* ``_bulk.sweep_chunk`` and ``enumeration._scalar_chunk`` tallies
  (counts, skips and failure records; checks with a zero count are
  dropped, as ``Counter`` equality ignores them) on the whole mask space
  of n = 1, 2 and 3 at tolerance 1e-9 and 1e-300, where every graph is
  neighborhood-regular and fails the NM checks' preconditions;
* ``_bulk.sweep_chunk`` tallies on the first, a middle and the last mask
  range of n = 8 at tolerance 1e-300, where every float sum over eight
  vertices shows its order, and ``enumeration._scalar_chunk`` tallies at
  the same tolerance on the 1,024-mask ranges that start there, the last
  one ending at 2^28;
* ``find_equality_graphs`` at n = 5 and 6 for every bound source and the
  same four exponents, and at n = 7 with alpha = 2 for every source;
* ``enumerate_connected(n, dedup=True)`` as graph6 lists for n <= 7, and
  ``canonical_form`` of every fixture;
* ``_bulk.connected_masks`` on an unaligned range of n = 7 and one of
  n = 8;
* CLI ``compute`` (JSON and CSV), ``bounds`` and ``spectral`` stdout, exit
  code and stderr on every fixture and on seeded graphs (random ones,
  disconnected ones among them, plus cycles and stars), fed through stdin
  so that the documents do not embed a path;
* CLI ``compute`` (JSON), ``bounds`` and ``spectral`` on larger seeded
  graphs: paths, random trees and trees with about n extra edges of 200
  to 1000 vertices, and one disconnected graph of 3000 vertices, where
  the ``diameter`` and ``connected`` fields come from more than a few BFS
  levels;
* CLI ``compute`` (JSON), ``bounds`` and ``spectral`` on a 2000-leaf
  star, a broom, a hub joined to every vertex of a long path and a
  header-declared graph of 100,000 vertices with four edges;
* CLI ``compute`` (JSON), ``bounds`` and ``spectral`` on a one-vertex
  ``n 1`` document, where the spectral bounds raise ``EmptyGraph``;
* CLI ``compute`` (JSON) and ``bounds`` at exponents whose powers leave
  the float range in part: P5 at 511.9 and figure 1 at 400.5;
* CLI ``verify`` for both engines at n <= 5 with tolerance 1e-9 and
  1e-300, exit code, stderr and the report without ``elapsed``;
* CLI ``extremal`` at n = 5 and 6 for every bound source, alpha = 2.

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


def _tally_doc(tally) -> str:
    """A tally as JSON; checks with a zero count are dropped, as ``Counter``
    equality ignores them."""
    doc = {
        "graphs": tally.graphs,
        "checks": {check: count for check, count in tally.checks.items() if count},
        "skips": {check: dict(reasons) for check, reasons in tally.skips.items()},
        "failure_count": tally.failure_count,
        "failures": tally.failures,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def _chunk_outputs(sweep_chunk, scalar_chunk) -> dict[str, str]:
    chunks = (("sweep_chunk", sweep_chunk), ("scalar_chunk", scalar_chunk))
    out = {}
    for n in (1, 2, 3):
        for name, chunk in chunks:
            for tol in (1e-9, 1e-300):
                tally = chunk(n, 0, 1 << n * (n - 1) // 2, ALPHAS, tol)
                out[f"{name}/n{n}/all/tol{tol:g}"] = _tally_doc(tally)
    starts = (0, 4000 << 15)
    runs = [("sweep_chunk", sweep_chunk, lo, 1 << 15) for lo in (*starts, (1 << 28) - (1 << 15))]
    runs += [("scalar_chunk", scalar_chunk, lo, 1024) for lo in (*starts, (1 << 28) - 1024)]
    for name, chunk, lo, size in runs:
        tally = chunk(8, lo, lo + size, ALPHAS, 1e-300)
        out[f"{name}/n8/lo{lo}/tol1e-300"] = _tally_doc(tally)
    return out


def _extremal_outputs(find_equality_graphs) -> dict[str, str]:
    runs = [(n, alpha) for n in (5, 6) for alpha in ALPHAS] + [(7, 2.0)]
    out = {}
    for n, alpha in runs:
        for source in ("secant", "unit", "congruence"):
            records = [r.to_dict() for r in find_equality_graphs(n, alpha, source)]
            out[f"extremal/{source}/n{n}/a{alpha:g}"] = json.dumps(records, indent=1)
    return out


def _class_outputs(enumerate_connected, canonical_form, encode_graph6) -> dict[str, str]:
    from nbzagreb import parse_edge_list, parse_graph6
    from nbzagreb.errors import NbZagrebError

    out = {}
    for n in range(1, 8):
        reps = [encode_graph6(g) for g in enumerate_connected(n, dedup=True)]
        out[f"classes/n{n}"] = "\n".join(reps)
    for path in sorted(FIXTURES.rglob("*")):
        if path.is_file():
            parse = parse_graph6 if path.suffix == ".g6" else parse_edge_list
            try:
                text = encode_graph6(canonical_form(parse(path.read_text())))
            except NbZagrebError as exc:  # more vertices than canonical_form takes
                text = f"{type(exc).__name__}: {exc}"
            out[f"canonical/{path.relative_to(FIXTURES)}"] = text
    return out


def _mask_outputs(connected_masks) -> dict[str, str]:
    out = {}
    for n, lo, hi in ((7, 123_457, 190_001), (8, 0x5A5A123, 0x5A6B001)):
        masks = connected_masks(n, lo, hi).tolist()
        out[f"connected_masks/n{n}/{lo}-{hi}"] = json.dumps(masks)
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


def _capture(main, argv, text: str) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(text)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _run_cli(main, argv, text: str) -> str:
    code, stdout, stderr = _capture(main, argv, text)
    return f"exit {code}\n{stdout}{stderr}"


def _run_cli_verify(main, argv) -> str:
    """``_run_cli`` with the report's ``elapsed`` removed; every float
    literal of the rest is kept as printed."""
    code, stdout, stderr = _capture(main, argv, "")
    if stdout:
        doc = json.loads(stdout, parse_float=str)
        del doc["elapsed"]
        stdout = json.dumps(doc, indent=1) + "\n"
    return f"exit {code}\n{stdout}{stderr}"


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
    for name, text in {**_large_graphs(), **_family_graphs(), "n1": "n 1\n"}.items():
        for label in ("compute", "bounds", "spectral"):
            out[f"cli/{label}/{name}"] = _run_cli(main, [*commands[label], "--input", "-"], text)
    for name, alpha in (("paths/p5.edges", "511.9"), ("figure1.edges", "400.5")):
        for label in ("compute", "bounds"):
            argv = [label, "--alpha", alpha, "--input", "-"]
            out[f"cli/{label}/{name}/a{alpha}"] = _run_cli(main, argv, inputs[name][0])
    for engine in ("bulk", "scalar"):
        for tol in ("1e-9", "1e-300"):
            argv = ["verify", "--n-max", "5", *alpha_flags, "--tolerance", tol, "--engine", engine]
            out[f"cli/verify/{engine}/n5/tol{tol}"] = _run_cli_verify(main, argv)
    for n in ("5", "6"):
        for source in ("secant", "unit", "congruence"):
            argv = ["extremal", "--n", n, "--alpha", "2", "--source", source]
            out[f"cli/extremal/{source}/n{n}"] = _run_cli(main, argv, "")
    sys.stdin = sys.__stdin__
    return out


def emit() -> int:
    import nbzagreb
    from nbzagreb._bulk import connected_masks, sweep_chunk
    from nbzagreb.cli import main
    from nbzagreb.enumeration import (
        _scalar_chunk,
        canonical_form,
        enumerate_connected,
        find_equality_graphs,
        verify_all,
    )
    from nbzagreb.graphs import encode_graph6

    outputs = {
        **_verify_outputs(verify_all),
        **_chunk_outputs(sweep_chunk, _scalar_chunk),
        **_extremal_outputs(find_equality_graphs),
        **_class_outputs(enumerate_connected, canonical_form, encode_graph6),
        **_mask_outputs(connected_masks),
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
