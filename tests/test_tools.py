"""Tests of the A/B timing harness ``tools/bench_ab.py``, at tiny sizes."""

import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import nbzagreb
from conftest import oracle_dist2_degrees, oracle_nbr_degrees
from nbzagreb import (
    Graph, _bulk, diameter, enumerate_connected, enumeration, find_equality_graphs, graphs,
    verify_all,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(enumeration.__file__).resolve().parents[1]


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "tools" / "bench_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, value in {"N": 4, "N_MAX": 4, "PATH_N": 30, "DENSE_N": 12, "STAR_LEAVES": 40}.items():
        monkeypatch.setattr(module, name, value)
    return module


def _run(bench, capsys, target, srcs, *extra):
    args = ["--target", target, "--pairs", "1", *extra]
    for src in srcs:
        args += ["--src", str(src)]
    code = bench.main(args)
    out, err = capsys.readouterr()
    return code, json.loads(out), err


def test_help_names_every_target():
    result = subprocess.run(
        [sys.executable, "tools/bench_ab.py", "--help"], cwd=ROOT,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    for target in ("enumeration", "scalar", "diameter", "spectral_radius", "degree_profile",
                   "parse_edge_list", "startup", "pool"):
        assert target in result.stdout


@pytest.mark.parametrize(
    "target",
    ["enumeration", "scalar", "diameter", "spectral_radius", "degree_profile", "parse_edge_list",
     "pool"],
)
def test_one_tree_against_itself_agrees(bench, capsys, tmp_path, target):
    modules = dict(sys.modules)
    record = tmp_path / "runs.json"
    record.write_text('{"runs": [{"earlier": 1}]}')
    code, result, err = _run(bench, capsys, target, [SRC, SRC], "--record", str(record))
    assert code == 0, err
    assert result["disagreements"] == [] and result["results"][0] == result["results"][1]
    assert json.loads(record.read_text())["runs"] == [{"earlier": 1}, result]
    (pair,) = result["pairs_s"]
    for seconds, median in zip(pair, result["median_s"]):
        assert seconds == median and seconds["total_s"] > 0
    assert 0 <= result["second_faster"] <= 1 and len(result["gaps"]) == 1
    # The copies, their stand-in for nbzagreb and perfbench's workloads are gone.
    new = sys.modules.keys() - modules.keys()
    assert not [name for name in new if name.startswith("nbzagreb") or name == "workloads"]
    assert all(sys.modules[name] is module for name, module in modules.items())
    assert sys.modules["nbzagreb"] is nbzagreb

    got, s = result["results"][0], pair[0]
    if target == "enumeration":
        assert got["connected"] == got["graphs"] == 38  # connected labeled 4-vertex graphs
        assert got["checks"] > 0 and got["failures"] == 0
        want = sum(len(find_equality_graphs(4, 2.0, source)) for source in bench.SOURCES)
        assert got["extremal_records"] == want > 0
        stages = [key for _module, _name, key in bench.KERNEL_STAGES]
        assert 0 < sum(s[key] for key in stages) <= s["kernel_s"]
        stages = [key for _module, _name, key in bench.EXTREMAL_STAGES]
        assert all(s[key] > 0 for key in stages) and sum(s[key] for key in stages) <= s["extremal_s"]
        # total_s adds each unit's fastest total, not the sum of its fastest parts.
        assert s["total_s"] >= s["connected_masks_s"] + s["kernel_s"] + s["extremal_s"] - 1e-3
    elif target == "scalar":
        report = verify_all(4, bench.ALPHAS, engine="scalar", jobs=1)
        del report.checks_run["coefficient_sign_grid"]  # run by verify_all, not per graph
        assert got == {
            "graphs": 1 + 1 + 4 + 38, "failure_count": 0,
            **{f"checks.{check}": count for check, count in report.checks_run.items() if count},
            **{f"skips.{check}.{reason}": count
               for check, reasons in report.skips.items() for reason, count in reasons.items()},
        }
    elif target == "pool":
        # Each sweep ran in a fresh interpreter, on a pool whose workers it waited for.
        report = verify_all(4, bench.ALPHAS, jobs=1)
        assert got == {
            "graphs": report.graphs_checked, "failure_count": 0,
            **{f"checks.{check}": count for check, count in report.checks_run.items()},
        }
        assert s["total_s"] == s["pool_s"] > 0
        assert s["pool_minflt"] > 0 and s["pool_maxrss_mb"] > 0
    elif target == "parse_edge_list":
        # Each set parses to the graphs it was written from, row for row.
        workloads = bench._workloads(SimpleNamespace(package="nbzagreb"))
        rng = random.Random(1)
        specs = [workloads.make_graph(i, rng) for i in range(workloads.PER_GRAPH_BATCH)]
        want = {
            "per_graph": [Graph.from_edges(n, edges).adjacency for n, edges in specs],
            "connected_n6": [g.adjacency for n in range(1, 5) for g in enumerate_connected(n)],
        }
        assert list(got) == list(want)
        for name, rows in want.items():
            assert got[name] == {
                "graphs": len(rows),
                "edges": sum(len(row) for adjacency in rows for row in adjacency) // 2,
                "adjacency_sha256": hashlib.sha256(repr(rows).encode()).hexdigest(),
            }
        assert got["per_graph"]["edges"] == sum(len(edges) for _n, edges in specs)
        assert got["connected_n6"]["graphs"] == 44
        assert s["total_s"] >= s["per_graph_s"] > 0
    elif target == "degree_profile":
        # Today's per_graph checksums at seed 1; the dense set is K12, a
        # G(12, 0.3) and the 40-leaf star here.
        assert [got[name]["graphs"] for name in got] == [40, 44, 3]
        assert got["per_graph"] == {"graphs": 40, "nbr_deg_sum": 126380,
                                    "dist2_deg_sum": 395330, "diameter_sum": 3739}
        dense = [Graph.from_edges(n, edges) for n, edges in bench._dense_specs()]
        assert got["dense"] == {
            "graphs": 3,
            "nbr_deg_sum": sum(sum(oracle_nbr_degrees(g)) for g in dense),
            "dist2_deg_sum": sum(sum(oracle_dist2_degrees(g)) for g in dense),
            "diameter_sum": 1 + diameter(dense[1]) + 2,
        }
        assert dense[0].m == 66 and dense[2].m == 40
    else:
        # Today's per_graph checksums at seed 1 (BENCH_diameter.json and
        # BENCH_spectral_radius.json); the path has 30 vertices here.
        assert [got[name]["graphs"] for name in got] == [40, 44, 1]
        if target == "diameter":
            assert got["per_graph"]["diameter_sum"] == 3739
            assert got["path2000"]["diameter_sum"] == 29
        else:
            assert got["per_graph"]["rho_sum"] == pytest.approx(143.75598384098117, rel=1e-12)
            assert got["path2000"]["rho_sum"] == pytest.approx(2 * math.cos(math.pi / 31))
            assert all(abs(entry["rho_sum_rel_err"]) < 1e-12 for entry in got.values())
            assert all(entry["iterations_mean"] > 0 for entry in got.values())


def test_units_below_a_millisecond_keep_their_precision(bench, capsys):
    # The 30-vertex path's diameter takes microseconds: seconds keep 4
    # significant digits, and each gap comes from the unrounded totals.
    code, result, err = _run(bench, capsys, "diameter", [SRC, SRC])
    assert code == 0, err
    (pair,) = result["pairs_s"]
    assert all(seconds["path2000_s"] > 0 for seconds in pair)
    first, second = pair
    assert result["gaps"][0] == pytest.approx(second["total_s"] / first["total_s"] - 1, abs=1e-3)


# One injected fault per engine, and the bulk one again in the pool's
# workers: NM_2 + 1 where each engine computes it.
FAULTS = {
    "enumeration": ("_bulk.py", "return (nbr * nbr).sum(axis=0, dtype=np.int64)", "failures"),
    "scalar": ("spectral.py", "return sum(d * d for d in p.nbr_deg)", "failure_count"),
    "pool": ("_bulk.py", "return (nbr * nbr).sum(axis=0, dtype=np.int64)", "failure_count"),
}


@pytest.mark.parametrize("target", sorted(FAULTS))
def test_differing_counts_exit_1_and_record_nothing(bench, capsys, tmp_path, target):
    file, line, field = FAULTS[target]
    faulty = tmp_path / "src"
    shutil.copytree(SRC / "nbzagreb", faulty / "nbzagreb",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = faulty / "nbzagreb" / file
    assert line in path.read_text()
    path.write_text(path.read_text().replace(line, line + " + 1"))
    record = tmp_path / "runs.json"
    code, result, err = _run(bench, capsys, target, [SRC, faulty], "--record", str(record))
    assert code == 1 and f"results.{field}: 0 vs" in "\n".join(result["disagreements"])
    assert result["results"][0][field] == 0 < result["results"][1][field]
    assert f"results.{field}:" in err
    assert not record.exists()


def test_startup_runs_fresh_interpreters_and_compares_their_stdout(
    bench, capsys, tmp_path, monkeypatch
):
    monkeypatch.setattr(bench, "REPEATS", 1)
    code, result, err = _run(bench, capsys, "startup", [SRC, SRC])
    assert code == 0, err
    got = result["results"][0]
    assert list(got) == list(bench.STARTUP) and result["results"][1] == got
    assert all(entry["exit"] == 0 for entry in got.values())
    assert got["import"]["stdout"] == ""
    for command in ("compute", "bounds", "spectral"):
        assert json.loads(got[command]["stdout"])["command"] == command
    for seconds in result["pairs_s"][0]:
        units = sum(seconds[f"{name}_s"] for name in bench.STARTUP)
        assert seconds["total_s"] == pytest.approx(units, abs=1e-3) and units > 0

    # A tree that prints n + 1 disagrees on every per-graph command.
    faulty = tmp_path / "src"
    shutil.copytree(SRC / "nbzagreb", faulty / "nbzagreb",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = faulty / "nbzagreb" / "cli.py"
    assert '"n": g.n,' in path.read_text()
    path.write_text(path.read_text().replace('"n": g.n,', '"n": g.n + 1,'))
    record = tmp_path / "runs.json"
    code, result, err = _run(bench, capsys, "startup", [SRC, faulty], "--record", str(record))
    assert code == 1 and not record.exists()
    assert [line.split(":")[0] for line in result["disagreements"]] == [
        f"results.{command}.stdout" for command in ("bounds", "compute", "spectral")
    ]


def test_wrapped_stages_are_timed_and_restored(bench):
    tree = SimpleNamespace(modules={"_bulk": _bulk, "enumeration": enumeration, "graphs": graphs})
    before = {module: dict(vars(module)) for module in tree.modules.values()}
    sweep = lambda: _bulk.sweep_chunk(4, 0, 64, bench.ALPHAS, 1e-9)  # noqa: E731
    seconds, tally = bench._pass(tree, "kernel_s", bench.KERNEL_STAGES, sweep)
    assert tally.graphs == 38 and seconds["kernel_s"] == seconds["total_s"]
    stages = [seconds[key] for _module, _name, key in bench.KERNEL_STAGES]
    assert all(v > 0 for v in stages) and sum(stages) <= seconds["kernel_s"]

    def broken():
        enumeration.find_equality_graphs(4, 2.0, "secant")
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError):
        bench._pass(tree, "extremal_s", bench.KERNEL_STAGES + bench.EXTREMAL_STAGES, broken)
    for module, names in before.items():
        after = vars(module)
        assert after.keys() == names.keys()
        assert all(after[name] is obj for name, obj in names.items())


def test_a_stage_one_tree_lacks_reads_zero_there(bench, capsys, tmp_path):
    # A parent tree need not define every stage the harness wraps: the
    # pair still runs, and only that tree reads 0 s for the stage.
    lacking = tmp_path / "src"
    shutil.copytree(SRC / "nbzagreb", lacking / "nbzagreb",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = lacking / "nbzagreb" / "_bulk.py"
    assert path.read_text().count("_nm2_checks(") == 2  # its definition and its call
    path.write_text(path.read_text().replace("_nm2_checks(", "_distance_two_checks("))
    code, result, err = _run(bench, capsys, "enumeration", [SRC, lacking])
    assert code == 0, err
    assert result["disagreements"] == []
    (pair,) = result["pairs_s"]
    for _module, _name, key in bench.KERNEL_STAGES:
        assert pair[0][key] > 0
        assert (pair[1][key] == 0) == (key == "kernel_nm2_s"), key
    assert sum(pair[1][key] for *_, key in bench.KERNEL_STAGES) <= pair[1]["kernel_s"]


def test_every_called_and_wrapped_attribute_exists(bench):
    """A rename in src/ fails here rather than in the middle of a measurement."""
    for module, names in bench.CALLED.items():
        owner = importlib.import_module(f"nbzagreb.{module}")
        for name in names:
            assert hasattr(owner, name), f"nbzagreb.{module}.{name} is gone"
    for module, name, _key in bench.KERNEL_STAGES + bench.EXTREMAL_STAGES:
        func = getattr(importlib.import_module(f"nbzagreb.{module}"), name, None)
        assert inspect.isfunction(func), f"nbzagreb.{module}.{name} is gone"


def test_enumeration_reports_kernel_faults_and_peak(bench, capsys, monkeypatch):
    # At n = 4 the one mask range starts at 0, so it is the traced one.
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(bench, "PEAK_LO", 0)
    code, result, err = _run(bench, capsys, "enumeration", [SRC, SRC])
    assert code == 0, err
    assert result["sizes"]["peak_lo"] == 0
    for counts in (*result["pairs_s"][0], *result["median_s"]):
        assert counts["kernel_minflt"] >= 0
        assert counts["kernel_peak_mb"] > 0
