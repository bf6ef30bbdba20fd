"""Smoke tests of the measurement scripts under ``tools/``."""

import importlib.util
import sys
from pathlib import Path

from nbzagreb import _bulk, enumeration, find_equality_graphs

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_enumeration_measures_and_restores_the_kernel():
    before = {module: dict(vars(module)) for module in (_bulk, enumeration)}
    bench = _load("bench_enumeration")
    result = bench.measure(4)
    assert result["connected"] == result["graphs"] == 38  # connected labeled 4-vertex graphs
    assert result["checks"] > 0 and result["failures"] == 0
    stages = ("kernel_decode_s", "kernel_connected_s", "kernel_reconstruct_s")
    assert 0 <= sum(result[key] for key in stages) <= result["kernel_s"]
    assert 0 <= result["orbit_keys_s"] <= result["extremal_s"]
    want = sum(len(find_equality_graphs(4, 2.0, source)) for source in bench.SOURCES)
    assert result["extremal_records"] == want > 0
    for module, names in before.items():
        after = vars(module)
        assert after.keys() == names.keys()
        assert all(after[name] is obj for name, obj in names.items())
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


def test_bench_scalar_times_one_tree_against_itself():
    bench = _load("bench_scalar")
    src = Path(enumeration.__file__).resolve().parents[1]
    result = bench.measure([src, src], pairs=2, n_max=4)
    assert result["tallies_agree"]
    assert len(result["pairs_s"]) == 2
    assert all(s > 0 for pair in result["pairs_s"] for s in pair)
    for median, (q1, q3) in zip(result["median_s"], result["quartiles_s"]):
        assert 0 < q1 <= median <= q3
    assert 0 <= result["second_faster"] <= 2
    # The copies leave no module behind.
    assert not [name for name in sys.modules if name.startswith("nbzagreb_")]
