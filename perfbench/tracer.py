"""Outside-in span recorder for the nbzagreb modules.

The program has no timers of its own, so the benchmark measures each layer
from outside: it replaces a traced function by a wrapper at every module
namespace (and class) that binds it, records one span per call in memory,
and puts every original object back afterwards.

``from``-imports copy names, so ``degree_profile`` is bound in ``graphs``,
``indices``, ``spectral``, ``enumeration`` and ``cli``; wrapping only
``graphs.degree_profile`` would miss every call made through the other
names.  A recursive function records only its outermost span
(``dumps_stable`` recurses once per JSON value).
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.attr`` or ``module.Class.attr``.

    ``observe(counters, args, result)`` may add counts read from the call's
    arguments or result, so ratios are taken where the work happens.
    """

    layer: str
    module: str
    attr: str
    observe: object = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr.rsplit('.', 1)[-1].lstrip('_')}"


def _namespaces(package: str):
    """Every module and class dict in ``package`` that can bind a function."""
    for modname, mod in sorted(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == modname:
                yield value


def snapshot(package: str) -> dict:
    """Every object bound in the package's namespaces and module-level
    dicts, keyed by where it is bound; equal snapshots before and after a
    traced run show that every original is back in place."""
    out = {}
    for ns in _namespaces(package):
        where = f"{ns.__module__}.{ns.__qualname__}" if isinstance(ns, type) else ns.__name__
        for key, value in vars(ns).items():
            out[(where, key)] = value
            if isinstance(value, dict) and not isinstance(ns, type):
                for k, v in value.items():
                    out[(where, key, k)] = v
    return out


class Tracer:
    """Records spans of the targets while installed.

    A span is (target index, parent span index, outermost in its layer,
    start ns, end ns); index -1 as parent means a root.  ``span`` opens a
    root span per benchmark operation, so every span of one operation
    leads back to the same root.
    """

    def __init__(self, package: str, targets: list[Target]):
        self.package = package
        self.targets = list(targets)
        self.names = [t.name for t in self.targets]
        self.layers = sorted({t.layer for t in self.targets})
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._active = [0] * len(self.targets)
        self._layer_depth = [0] * len(self.layers)
        self._patches: list = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        originals = {}
        for fid, target in enumerate(self.targets):
            owner = sys.modules[target.module]
            *cls_path, attr = target.attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            func = raw.__func__ if isinstance(raw, classmethod) else raw
            originals[id(func)] = (func, self._wrap(func, fid, target))

        def replacement(value):
            func = value.__func__ if isinstance(value, classmethod) else value
            hit = originals.get(id(func))
            if hit is None or hit[0] is not func:
                return None
            return classmethod(hit[1]) if isinstance(value, classmethod) else hit[1]

        for ns in _namespaces(self.package):
            for key, value in list(vars(ns).items()):
                new = replacement(value)
                if new is not None:
                    setattr(ns, key, new)
                    self._patches.append((ns, key, value))
                elif isinstance(value, dict) and not isinstance(ns, type):
                    # Dispatch tables such as enumeration._SOURCE_OPS.
                    for k, v in list(value.items()):
                        new = replacement(v)
                        if new is not None:
                            value[k] = new
                            self._patches.append((value, k, v))

    def restore(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def _wrap(self, func, fid: int, target: Target):
        spans = self.spans
        stack = self._stack
        active = self._active
        depth = self._layer_depth
        lid = self.layers.index(target.layer)
        observe = target.observe
        counters = self.counters
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if active[fid]:
                return func(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            active[fid] = 1
            outer = depth[lid] == 0
            depth[lid] += 1
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                depth[lid] -= 1
                active[fid] = 0
                stack.pop()
                spans[idx] = (fid, parent, outer, t0, t1)
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Root span of one benchmark operation."""
        if name not in self.names:
            self.names.append(name)
        fid = self.names.index(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (fid, parent, True, t0, t1)

    # -- aggregation ---------------------------------------------------

    def _arrays(self):
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        return arr[:, 0], arr[:, 1], arr[:, 2].astype(bool), arr[:, 3], arr[:, 4]

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and the
        calls and seconds of the spans that are outermost in their layer."""
        fid, parent, outer, t0, t1 = self._arrays()
        dur = (t1 - t0).astype(np.float64) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        nfun = len(self.names)
        columns = {
            "calls": np.bincount(fid, minlength=nfun),
            "s": np.bincount(fid, weights=dur, minlength=nfun),
            "self_s": np.bincount(fid, weights=dur - child, minlength=nfun),
            "outer_calls": np.bincount(fid[outer], minlength=nfun),
            "outer_s": np.bincount(fid[outer], weights=dur[outer], minlength=nfun),
        }
        return {
            name: {key: col[k].item() for key, col in columns.items()}
            for k, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        """Save every span (name index, parent span, start ns, end ns)."""
        fid, parent, _outer, t0, t1 = self._arrays()
        np.savez(path, names=np.array(self.names), name=fid, parent=parent, start_ns=t0, end_ns=t1)
