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


def test_bench_enumeration_measures_and_restores_the_kernel():
    before = dict(vars(_bulk))
    bench = _load("bench_enumeration")
    result = bench.measure(4)
    assert result["connected"] == result["graphs"] == 38  # connected labeled 4-vertex graphs
    assert result["checks"] > 0 and result["failures"] == 0
    stages = ("kernel_decode_s", "kernel_connected_s", "kernel_reconstruct_s")
    assert 0 <= sum(result[key] for key in stages) <= result["kernel_s"]
    after = vars(_bulk)
    assert after.keys() == before.keys()
    assert all(after[name] is obj for name, obj in before.items())
    run = {"label": "before", **result}
    assert bench.disagreements(result, [run]) == []
    assert len(bench.disagreements(result, [{**run, "checks": result["checks"] + 1}])) == 1


def test_bench_per_graph_measures_both_targets_and_checks_sums():
    from nbzagreb.graphs import complete_graph, path_graph, star_graph

    bench = _load("bench_per_graph")
    sets = {"small": [path_graph(7), star_graph(5), complete_graph(4)]}
    diam = bench.measure("diameter", sets)["small"]
    assert (diam["graphs"], diam["diameter_sum"]) == (3, 6 + 2 + 1)
    spec = bench.measure("spectral_radius", sets)["small"]
    assert abs(spec["rho_sum_rel_err"]) < 1e-12
    assert spec["iterations_mean"] > 0

    run = {"label": "after", "small": diam}
    assert bench.disagreements("diameter", run, [run]) == []
    other = {"label": "before", "small": {**diam, "diameter_sum": 10}}
    assert len(bench.disagreements("diameter", run, [other])) == 1
    spec_run = {"label": "after", "small": spec}
    shifted = {"label": "after", "small": {**spec, "rho_sum": spec["rho_sum"] * (1 + 1e-6)}}
    assert len(bench.disagreements("spectral_radius", spec_run, [shifted])) == 1
    # radius sums are compared within a label only
    assert bench.disagreements("spectral_radius", spec_run, [{**shifted, "label": "before"}]) == []
