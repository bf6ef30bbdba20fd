"""The four benchmark workloads and the oracles their outputs must match.

Each workload object offers ``op()``, one operation timed by the workload
itself so that oracle checks stay outside the timed region.  ``op()``
returns an :class:`Outcome`.  Inputs come from the seed alone; the
exhaustive workloads ignore it because their input is the whole space.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nbzagreb import cli, enumeration

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
ALPHAS = (-1.0, 0.5, 2.0, 3.0)
JOBS = 2

# nm_alpha is a plain float sum, so 1e-9 relative is far above rounding.
NM_RTOL = 1e-9
# Power iteration stops once the Rayleigh quotient changes by less than
# 1e-10 per step; on slowly converging path-like trees that leaves an
# error of a few 1e-6 below the true radius (the quotient never exceeds it).
RHO_RTOL = 1e-4
RHO_ABOVE = 1e-9


@dataclass
class Outcome:
    latencies: list[float]  # seconds, one per timed call
    graphs: int  # graphs checked, queried or returned
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)


def load_reference(name: str):
    return json.loads((REFERENCE / name).read_text())


def report_summary(report) -> dict:
    """The deterministic part of a VerificationReport that the oracle pins."""
    doc = report.to_dict()
    return {key: doc[key] for key in ("graphs_checked_by_n", "checks_run", "skips", "failure_count")}


# ---------------------------------------------------------------------------
# Exhaustive sweeps


class Sweep:
    """``verify_all`` over every connected graph up to ``n_max``."""

    def __init__(self, n_max: int, engine: str, jobs: int, reference: str):
        self.n_max = n_max
        self.engine = engine
        self.jobs = jobs
        self.reference = load_reference(reference)

    def op(self, jobs: int | None = None) -> Outcome:
        t0 = time.perf_counter()
        report = enumeration.verify_all(
            self.n_max, ALPHAS, engine=self.engine, jobs=jobs or self.jobs
        )
        elapsed = time.perf_counter() - t0
        attempted = sum(report.checks_run.values())
        summary = report_summary(report)
        notes = [
            f"{key} differs from the reference"
            for key, want in self.reference.items()
            if summary[key] != want
        ]
        failed = attempted if notes else report.failure_count
        return Outcome([elapsed], report.graphs_checked, attempted, failed, notes)


def sweep_bulk(seed: int, workdir: Path):
    return Sweep(7, "bulk", JOBS, "sweep_bulk.json")


def sweep_scalar(seed: int, workdir: Path):
    # The reference was written by the bulk engine (see make_reference.py),
    # so a match also cross-checks the two engines.
    return Sweep(6, "scalar", 1, "sweep_scalar.json")


# ---------------------------------------------------------------------------
# Extremal search


class Extremal:
    """``find_equality_graphs(7, 2.0, s)`` for each bound source."""

    SOURCES = ("secant", "unit", "congruence")

    def __init__(self):
        self.reference = load_reference("extremal_n7.json")

    def op(self) -> Outcome:
        out = Outcome([], 0, 0, 0)
        for source in self.SOURCES:
            t0 = time.perf_counter()
            records = enumeration.find_equality_graphs(7, 2.0, source)
            out.latencies.append(time.perf_counter() - t0)
            out.graphs += len(records)
            out.attempted += 1
            if [r.graph for r in records] != self.reference[source]:
                out.failed += 1
                out.notes.append(f"{source}: {len(records)} records differ from the reference")
        return out


def extremal_n7(seed: int, workdir: Path):
    return Extremal()


# ---------------------------------------------------------------------------
# Per-graph CLI queries

GOLDEN = (math.sqrt(5) - 1) / 2
PER_GRAPH_BATCH = 40


def _relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return out


def _random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(rng.randrange(v), v) for v in range(1, n)]


def make_graph(i: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Graph ``i`` of the batch.  Kind and size depend on ``i`` only, so
    every seed gives the same mix of kinds and sizes; the seed picks the
    trees, the extra edges and the vertex labels.

    Sizes follow a low-discrepancy sequence on a log scale, skewed towards
    the small end: mostly 200 to 400 vertices, about 1000 at most, with no
    large gaps, so the median query latency does not jump between
    clusters.  Paths stop at 400 vertices, where power iteration already
    needs over 10k steps.
    """
    f = ((i + 1) * GOLDEN) % 1.0
    kind = ("tree", "path", "tree_plus_n")[i % 3]
    if kind == "path":
        n = int(200 * 2 ** (f**2))
        edges = [(v - 1, v) for v in range(1, n)]
    else:
        n = int(200 * 5 ** (f**3))
        edges = _random_tree(n, rng)
        if kind == "tree_plus_n":
            have = {(min(u, v), max(u, v)) for u, v in edges}
            while len(have) < 2 * n - 1:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    have.add((min(u, v), max(u, v)))
            edges = sorted(have)
    return n, _relabel(n, edges, rng)


@dataclass
class GraphInput:
    n: int
    edges: np.ndarray
    path: Path
    _truth: tuple | None = None

    def truth(self) -> tuple[int, np.ndarray, float]:
        """M1, neighborhood degrees and rho, computed with numpy alone."""
        if self._truth is None:
            u, v = self.edges[:, 0], self.edges[:, 1]
            deg = np.bincount(u, minlength=self.n) + np.bincount(v, minlength=self.n)
            nbr = np.bincount(u, weights=deg[v], minlength=self.n) + np.bincount(
                v, weights=deg[u], minlength=self.n
            )
            adj = np.zeros((self.n, self.n))
            adj[u, v] = adj[v, u] = 1.0
            rho = float(np.linalg.eigvalsh(adj)[-1])
            self._truth = (int((deg * deg).sum()), nbr, rho)
        return self._truth


class PerGraph:
    """Closed loop, one client: every graph of the batch is queried
    in-process through ``cli.main`` with ``compute``, ``bounds`` and
    ``spectral``.  One operation is one pass over the whole batch, so every
    run times the same multiset of queries."""

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.graphs = []
        for i in range(PER_GRAPH_BATCH):
            n, edges = make_graph(i, rng)
            path = workdir / f"g{i:03d}.edges"
            path.write_text("".join(f"{a} {b}\n" for a, b in edges))
            self.graphs.append(GraphInput(n, np.array(edges, dtype=np.int64), path))

    @staticmethod
    def argvs(g: GraphInput):
        alpha_flags = [arg for a in ALPHAS for arg in ("--alpha", repr(a))]
        return (
            ["compute", "--input", str(g.path), *alpha_flags],
            ["bounds", "--input", str(g.path), *alpha_flags],
            ["spectral", "--input", str(g.path)],
        )

    def op(self) -> Outcome:
        out = Outcome([], len(self.graphs), 0, 0)
        replies = []
        for g in self.graphs:
            for argv in self.argvs(g):
                buf = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                out.latencies.append(time.perf_counter() - t0)
                replies.append((g, argv[0], code, buf.getvalue()))
        for g, command, code, text in replies:
            out.attempted += 1
            problem = self.check(g, command, code, text)
            if problem:
                out.failed += 1
                out.notes.append(f"{g.path.name} {command}: {problem}")
        return out

    @staticmethod
    def check(g: GraphInput, command: str, code: int, text: str) -> str | None:
        """Why the reply disagrees with the numpy oracle, or None."""
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        m1, nbr, rho = g.truth()
        if command == "spectral":
            if not rho - RHO_RTOL * rho <= doc["rho"] <= rho + RHO_ABOVE:
                return f"rho {doc['rho']} vs eigvalsh {rho}"
            return None
        if doc["m1"] != m1:
            return f"m1 {doc['m1']} != {m1}"
        if command == "compute":
            values = [(e["alpha"], e["nm_alpha"]) for e in doc["indices"]]
            if len(values) != len(ALPHAS):
                return f"{len(values)} index entries for {len(ALPHAS)} exponents"
        else:
            values = [(e["alpha"], rep["computed"]) for e in doc["alphas"] for rep in e["bounds"]]
        for a, got in values:
            want = float((nbr**a).sum())
            if got is None or not math.isclose(got, want, rel_tol=NM_RTOL):
                return f"nm_alpha at {a}: {got} != {want}"
        return None


def per_graph(seed: int, workdir: Path):
    return PerGraph(seed, workdir)


WORKLOADS = {
    "sweep_bulk": sweep_bulk,
    "sweep_scalar": sweep_scalar,
    "per_graph": per_graph,
    "extremal_n7": extremal_n7,
}
