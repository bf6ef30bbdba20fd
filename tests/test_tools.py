"""Smoke tests of the measurement scripts under ``tools/``."""

import importlib.util
from pathlib import Path

from nbzagreb import _bulk

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_chain_measures_and_restores_the_kernel():
    before = dict(vars(_bulk))
    result = _load("bench_chain").measure(4)
    assert result["rows"] == 38  # connected labeled 4-vertex graphs
    assert result["steps_mean"] == 0
    assert result["settled_rows"] == result["exact_rows"] + result["strict_rows"] == 38
    after = vars(_bulk)
    assert after.keys() == before.keys()
    assert all(after[name] is obj for name, obj in before.items())
