"""The benchmark's traced run wraps nbzagreb functions by name
(``perfbench/layers.py``).  A refactor that renames or removes one of them
should fail here rather than as a KeyError in a traced benchmark run."""

import importlib
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for target in layers.TARGETS:
        owner = importlib.import_module(target.module)
        *cls_path, attr = target.attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        raw = vars(owner).get(attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        assert inspect.isfunction(func), f"{target.module}.{target.attr} is gone"
        assert func.__module__ == target.module
