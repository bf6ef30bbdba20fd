import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest

from conftest import FIXTURES
from nbzagreb import cli, indices
from nbzagreb.cli import dumps_stable, main
from nbzagreb.indices import nm_direct

FIG1 = str(FIXTURES / "figure1.edges")
FIG2 = str(FIXTURES / "figure2.edges")
K4 = str(FIXTURES / "complete" / "k4.g6")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_figure1(self, capsys):
        code, out, _ = run(capsys, "compute", "--input", FIG1, "--alpha", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["m1"] == 72
        assert doc["indices"][0]["nm_alpha"] == 528
        assert doc["indices"][0]["reconstruction"]["residual_secant"] == 0

    def test_figure2(self, capsys):
        code, out, _ = run(capsys, "compute", "--input", FIG2, "--alpha", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["m1"] == 22
        assert doc["indices"][0]["nm_alpha"] == 100

    def test_one_direct_sum_per_exponent(self, capsys, monkeypatch):
        calls = []

        def counting_nm_direct(p, alpha):
            calls.append(alpha)
            return nm_direct(p, alpha)

        monkeypatch.setattr(cli, "nm_direct", counting_nm_direct)
        monkeypatch.setattr(indices, "nm_direct", counting_nm_direct)
        code, out, _ = run(capsys, "compute", "--input", FIG1, "--alpha", "2", "--alpha", "0.5")
        assert code == 0
        assert len(calls) == 2
        for entry in json.loads(out)["indices"]:
            recon = entry["reconstruction"]
            assert recon["residual_unit"] == pytest.approx(abs(recon["unit"] - entry["nm_alpha"]))

    def test_forbidden_alpha_exits_3(self, capsys):
        code, _, err = run(capsys, "compute", "--input", FIG2, "--alpha", "1")
        assert code == 3
        assert "ForbiddenAlpha" in err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 0\n")
        code, _, err = run(capsys, "compute", "--input", str(bad), "--alpha", "2")
        assert code == 2
        assert "SelfLoop" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "compute", "--input", "/nonexistent", "--alpha", "2")
        assert code == 2

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n"))
        code, out, _ = run(capsys, "compute", "--input", "-", "--alpha", "2")
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_csv_per_vertex_table(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--input", FIG2, "--alpha", "2", "--output", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "vertex,degree,nbr_degree,dist2_degree"
        assert len(lines) == 6
        # vertex 0: degree 2, nbr degree 5, dist2 set {2, 4} with degrees 2 and 1
        assert lines[1] == "0,2,5,3"

    def test_csv_computes_no_index(self, capsys, monkeypatch):
        argv = ("compute", "--input", FIG2, "--alpha", "2", "--output", "csv")
        _, table, _ = run(capsys, *argv)

        def refuse(*args):
            raise AssertionError("the table needs no index")

        monkeypatch.setattr(cli, "nm_direct", refuse)
        monkeypatch.setattr(cli, "nm2_direct", refuse)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == table

    def test_reconstruction_that_fits_is_kept(self, capsys):
        # At 511.9 on P5 only the secant line's base, 5 * 2**a + 4 * s_a,
        # leaves the float range; the unit form and s_a fit.
        p5 = str(FIXTURES / "paths" / "p5.edges")
        code, out, _ = run(capsys, "compute", "--input", p5, "--alpha", "511.9")
        assert code == 0
        entry = json.loads(out)["indices"][0]
        recon = entry["reconstruction"]
        assert list(recon) == ["s_alpha", "secant", "secant_inapplicable", "unit",
                               "residual_secant", "residual_unit"]
        assert entry["nm_alpha"] == recon["unit"] == 1.56498277119e308
        assert recon["s_alpha"] == 7.82491385594e307
        assert recon["secant"] is None and recon["residual_secant"] is None
        assert recon["secant_inapplicable"] == "power_overflow"
        assert recon["residual_unit"] == 0
        assert entry["reconstruction_dist2"] == {"inapplicable": "not_diameter_two"}

    def test_regular_graph_marks_reconstruction_inapplicable(self, capsys, tmp_path):
        star = tmp_path / "star.edges"
        star.write_text("0 1\n0 2\n0 3\n")
        code, out, _ = run(capsys, "compute", "--input", str(star), "--alpha", "2")
        assert code == 0
        doc = json.loads(out)
        entry = doc["indices"][0]
        assert entry["nm_alpha"] == 36  # four vertices of neighborhood degree 3
        assert entry["reconstruction"] == {"inapplicable": "neighborhood_regular"}

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "compute", "--input", FIG1, "--alpha", "2", "--alpha", "0.5")
        _, second, _ = run(capsys, "compute", "--input", FIG1, "--alpha", "2", "--alpha", "0.5")
        assert first == second


class TestBounds:
    def test_figure2(self, capsys):
        code, out, _ = run(capsys, "bounds", "--input", FIG2, "--alpha", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["congruence"] == {
            "q": 3, "r": 1, "is_bi_degree_case": False, "part2_constraints_hold": True,
        }
        by_source = {b["source"]: b for b in doc["alphas"][0]["bounds"]}
        assert by_source["congruence"]["bound"] == 100
        assert by_source["congruence"]["equality"] is True

    def test_figure1_congruence_inapplicable(self, capsys):
        code, out, _ = run(capsys, "bounds", "--input", FIG1, "--alpha", "2")
        assert code == 0
        doc = json.loads(out)
        by_source = {b["source"]: b for b in doc["alphas"][0]["bounds"]}
        assert by_source["secant"]["bound"] == 528
        assert by_source["secant"]["equality"] is True
        inapplicable = doc["alphas"][0]["inapplicable"]
        assert {"source": "congruence", "reason": "remainder_zero"} in inapplicable

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tolerance_exits_2(self, capsys, tmp_path, value):
        star = tmp_path / "star.edges"
        star.write_text("0 1\n0 2\n0 3\n")
        for path in (FIG2, str(star)):
            code, out, err = run(
                capsys, "bounds", "--input", path, "--alpha", "2", "--tolerance", value
            )
            assert code == 2
            assert out == ""
            assert "ValueError" in err

    def test_star_all_inapplicable(self, capsys, tmp_path):
        star = tmp_path / "star.edges"
        star.write_text("0 1\n0 2\n0 3\n")
        code, out, _ = run(capsys, "bounds", "--input", str(star), "--alpha", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["alphas"][0]["bounds"] == []
        reasons = {e["source"]: e["reason"] for e in doc["alphas"][0]["inapplicable"]}
        assert reasons == {
            "secant": "neighborhood_regular",
            "unit": "neighborhood_regular",
            "congruence": "gap_too_small",
        }


class TestSpectral:
    def test_k4_graph6(self, capsys):
        code, out, _ = run(capsys, "spectral", "--input", K4, "--format", "graph6")
        assert code == 0
        doc = json.loads(out)
        assert doc["rho"] == pytest.approx(3.0, abs=1e-8)
        assert doc["rho_upper"] == 3
        assert doc["bound_nm2_ratio"] == 9
        assert doc["bound_min_nbr"] == 9
        assert doc["ratio_bound_holds"] and doc["min_nbr_bound_holds"]

    def test_figure1_chain(self, capsys):
        code, out, _ = run(capsys, "spectral", "--input", FIG1)
        doc = json.loads(out)
        assert code == 0
        assert doc["rho_squared"] >= doc["bound_nm2_ratio"] >= doc["bound_min_nbr"]

    @pytest.mark.parametrize("graph6", ["CF", "BW"])  # K1,3 and P3
    def test_non_regular_equality_graphs_hold(self, capsys, tmp_path, graph6):
        # rho**2 == NM_2 / M1 exactly, and the Lanczos estimate lands within
        # rounding of it; the integer certificate decides both fields.
        path = tmp_path / "g.g6"
        path.write_text(graph6 + "\n")
        code, out, _ = run(capsys, "spectral", "--input", str(path), "--format", "graph6")
        assert code == 0
        doc = json.loads(out)
        assert doc["bound_nm2_ratio"] == doc["bound_min_nbr"]
        assert doc["ratio_bound_holds"] is True
        assert doc["min_nbr_bound_holds"] is True

    def test_strict_graphs_hold_whatever_rho_reads(self, capsys, monkeypatch):
        # Figure 1 is strict: rho**2 > NM_2 / M1 in integers.  With the
        # radius read far too low, both fields still come from the
        # certificates and bounds_ordered.
        from nbzagreb import spectral

        real = spectral.spectral_radius

        def low(g, **kwargs):
            r = real(g, **kwargs)
            return dataclasses.replace(r, rho=1.0, rho_squared=1.0)

        monkeypatch.setattr(spectral, "spectral_radius", low)
        code, out, _ = run(capsys, "spectral", "--input", FIG1)
        doc = json.loads(out)
        assert code == 0 and doc["rho_squared"] == 1.0 < doc["bound_min_nbr"]
        assert doc["ratio_bound_holds"] is True
        assert doc["min_nbr_bound_holds"] is True

    def test_disconnected_exits_3(self, capsys, tmp_path):
        two_edges = tmp_path / "pair.edges"
        two_edges.write_text("0 1\n2 3\n")
        code, _, err = run(capsys, "spectral", "--input", str(two_edges))
        assert code == 3
        assert "Disconnected" in err

    def test_no_convergence_exits_4(self, capsys):
        code, _, err = run(capsys, "spectral", "--input", FIG1, "--max-iter", "1")
        assert code == 4
        assert "NoConvergence" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_iter_below_one_exits_2(self, capsys, value):
        code, out, err = run(capsys, "spectral", "--input", FIG1, f"--max-iter={value}")
        assert code == 2
        assert out == ""
        assert err == f"error: ValueError: max_iter must be at least 1, got {value}\n"

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_bad_power_tol_exits_2(self, capsys, value):
        code, out, err = run(capsys, "spectral", "--input", FIG1, f"--power-tol={value}")
        assert code == 2
        assert out == ""
        assert "ValueError" in err and "finite and positive" in err


class TestVerify:
    def test_small_sweep_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-max", "5", "--alpha", "2", "--alpha", "0.5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["failure_count"] == 0
        assert doc["graphs_checked"] == 772

    def test_n_too_large_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--n-max", "9", "--alpha", "2")
        assert code == 2
        assert "NTooLarge" in err

    def test_skips_reported(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "3", "--alpha", "-1")
        assert code == 0
        doc = json.loads(out)
        skipped = sum(doc["skips"]["nm_bound_congruence"].values())
        assert skipped == doc["graphs_checked"]

    def test_missing_alpha_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--n-max", "3")
        assert code == 2

    def test_bad_tolerance_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "--n-max", "3", "--alpha", "2", "--tolerance", "-1"
        )
        assert code == 2
        assert "ValueError" in err

    @pytest.mark.parametrize(
        "flag,value", [("--tolerance", "inf"), ("--tolerance", "nan"),
                       ("--jobs", "0"), ("--jobs", "-5")],
    )
    def test_vacuous_configuration_exits_2(self, capsys, flag, value):
        # An infinite tolerance passes every comparison; NaN fails them all.
        code, out, err = run(
            capsys, "verify", "--n-max", "3", "--alpha", "2", "--alpha", "0.5", flag, value
        )
        assert code == 2
        assert out == ""
        assert "ValueError" in err


class TestOverflowingExponent:
    """Powers past the float range: compute and bounds report the exponent
    inapplicable, the sweeps refuse it with the precondition exit code."""

    @pytest.mark.parametrize("alpha", ["1000", "400.5", "1e300"])
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["compute", "--input", FIG1], 0),
            (["compute", "--input", FIG1, "--output", "csv"], 0),
            (["bounds", "--input", FIG1], 0),
            (["verify", "--n-max", "4"], 3),
            (["verify", "--n-max", "4", "--engine", "scalar"], 3),
            (["extremal", "--n", "5", "--source", "unit"], 3),
        ],
    )
    def test_documented_exit_within_two_seconds(self, capsys, alpha, argv, code):
        # A second, fitting exponent where the command takes several.
        more = [] if argv[0] == "extremal" else ["--alpha", "2"]
        start = time.perf_counter()
        got, out, err = run(capsys, *argv, "--alpha", alpha, *more)
        assert time.perf_counter() - start < 2.0
        assert got == code
        if code:
            assert out == ""
            assert err.startswith("error: PowerOverflow: ")
            return
        assert err == ""
        if argv[0] == "bounds":
            huge, fitting = json.loads(out)["alphas"]
            assert huge["bounds"] == []
            reasons = {e["source"]: e["reason"] for e in huge["inapplicable"]}
            assert reasons["secant"] == reasons["unit"] == "power_overflow"
            assert len(fitting["bounds"]) == 2
        elif "csv" not in argv:
            huge, fitting = json.loads(out)["indices"]
            assert huge["nm_alpha"] is None and huge["nm2_alpha"] is None
            assert huge["nm_alpha_inapplicable"] == huge["nm2_alpha_inapplicable"]
            assert huge["nm_alpha_inapplicable"] == "power_overflow"
            assert huge["reconstruction"] == {"inapplicable": "power_overflow"}
            assert fitting["nm_alpha"] == 528

    def test_fresh_process_prints_no_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "nbzagreb.cli", "verify", "--n-max", "4", "--alpha", "400.5"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: PowerOverflow: ")
        assert "Traceback" not in proc.stderr


def test_per_graph_commands_load_no_numpy_in_a_fresh_process():
    # compute and bounds run on pure Python; spectral loads numpy when it
    # is called, in the same process.
    script = """if True:
        import contextlib, io, json, sys
        from nbzagreb.cli import main
        heavy = lambda: [m for m in ("numpy", "concurrent.futures.process") if m in sys.modules]
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("compute", "bounds"):
                codes[command] = main([command, "--input", sys.argv[1], "--alpha", "2"])
            before = heavy()
            codes["spectral"] = main(["spectral", "--input", sys.argv[1]])
        print(json.dumps({"codes": codes, "before": before, "after": heavy()}))
    """
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script, FIG1], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == {"compute": 0, "bounds": 0, "spectral": 0}
    assert got["before"] == []
    assert "numpy" in got["after"]


class TestExtremal:
    def test_unit_form_contains_p4(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--n", "4", "--alpha", "2", "--source", "unit"
        )
        assert code == 0
        doc = json.loads(out)
        assert any(r["graph"] == "CL" and r["structural_match"] for r in doc["records"])

    def test_congruence_contains_figure2(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--n", "5", "--alpha", "2", "--source", "congruence"
        )
        doc = json.loads(out)
        assert any(r["graph"] == "DBw" for r in doc["records"])

    def test_bogus_source_exits_2(self, capsys):
        code, _, err = run(
            capsys, "extremal", "--n", "4", "--alpha", "2", "--source", "bogus"
        )
        assert code == 2
        assert "UnknownBoundSource" in err


class TestFixtureResiduals:
    def test_all_fixture_residuals_within_tolerance(self, capsys):
        fixture_args = [(str(f), "edges") for f in sorted(FIXTURES.glob("**/*.edges"))]
        fixture_args += [(str(f), "graph6") for f in sorted(FIXTURES.glob("**/*.g6"))]
        assert len(fixture_args) == 9
        for path, fmt in fixture_args:
            code, out, _ = run(
                capsys, "compute", "--input", path, "--format", fmt,
                "--alpha", "-1", "--alpha", "0.5", "--alpha", "2", "--alpha", "3",
            )
            assert code == 0
            doc = json.loads(out)
            for entry in doc["indices"]:
                for block in ("reconstruction", "reconstruction_dist2"):
                    rec = entry[block]
                    if "inapplicable" in rec:
                        continue
                    direct = entry["nm_alpha" if block == "reconstruction" else "nm2_alpha"]
                    tol = 1e-9 * max(1.0, abs(direct))
                    assert rec["residual_secant"] <= tol, (path, entry["alpha"], block)
                    assert rec["residual_unit"] <= tol, (path, entry["alpha"], block)

    def test_csv_rejected_outside_compute(self, capsys):
        code, _, _ = run(
            capsys, "bounds", "--input", FIG2, "--alpha", "2", "--output", "csv"
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--input", FIG2, "--alpha", "2", "--tolerance", "1e-9"],
        ["spectral", "--input", FIG2, "--tolerance", "1e-9"],
        ["extremal", "--n", "4", "--alpha", "2", "--source", "unit", "--dedup"],
        ["extremal", "--n", "4", "--alpha", "2", "--source", "unit", "--jobs", "2"],
        ["bounds", "--input", FIG2, "--alpha", "2", "--output", "json"],
        ["spectral", "--input", FIG2, "--output", "json"],
        ["verify", "--n-max", "3", "--alpha", "2", "--output", "json"],
        ["extremal", "--n", "4", "--alpha", "2", "--source", "unit", "--output", "json"],
    ],
    ids=lambda argv: f"{argv[0]}{[a for a in argv if a.startswith('--')][-1]}",
)
def test_removed_flag_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--input", FIG2],
        ["bounds", "--input", FIG2],
        ["verify", "--n-max", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_alpha_is_an_argparse_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage: nbzagreb ")
    assert err.endswith(
        f"nbzagreb {argv[0]}: error: the following arguments are required: --alpha\n"
    )


def test_compute_on_a_large_header_graph_copies_no_profile(capsys, tmp_path):
    # 200,000 declared vertices and one edge: the document shares the
    # profile's tuples and histograms, and main writes the serialized text
    # as it is.  The parser and the imports are warmed up first.
    path = tmp_path / "header.edges"
    path.write_text("n 200000\n0 1\n")
    assert run(capsys, "compute", "--alpha", "2", "--input", FIG1)[0] == 0
    tracemalloc.start()
    try:
        code = main(["compute", "--alpha", "2", "--input", str(path)])
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert peak < 21_000_000
    doc = json.loads(out)
    assert doc["n"] == 200_000 and doc["profile"]["deg_hist"] == {"0": 199_998, "1": 2}


class TestSerialization:
    def test_float_formatting(self):
        assert dumps_stable(528.0) == "528"
        assert dumps_stable(1 / 3) == "0.333333333333"
        assert dumps_stable(-0.0) == "0"
        assert dumps_stable(float("inf")) == '"infinity"'
        assert dumps_stable({"a": [1, True, None]}) == '{"a": [1, true, null]}'

    def test_int_arrays(self):
        # A list of exact ints is joined at once; bools and floats among
        # ints still print as JSON literals.
        assert dumps_stable([3, 0, -12]) == "[3, 0, -12]"
        assert dumps_stable((1, True, 2.5, False, 0)) == "[1, true, 2.5, false, 0]"
        assert dumps_stable([True, False]) == "[true, false]"
        assert dumps_stable([]) == dumps_stable(()) == "[]"

    @pytest.mark.parametrize("value, error, message", [
        (float("nan"), ValueError, "NaN is not serializable"),
        (object(), TypeError, "cannot serialize object"),
    ])
    def test_unserializable_values(self, value, error, message):
        with pytest.raises(error) as info:
            dumps_stable(value)
        assert type(info.value) is error and str(info.value) == message

    def test_twelve_significant_digits(self):
        assert dumps_stable(7.333333333333333) == "7.33333333333"
        assert dumps_stable(1e-10) == "1e-10"

    def test_control_characters_escaped(self, capsys, tmp_path):
        # A tab is legal in a path, and the path is echoed as "input".
        assert dumps_stable({"input": "a\tb"}) == '{"input": "a\\tb"}'
        assert dumps_stable('q"\\é') == '"q\\"\\\\é"'
        path = tmp_path / "a\tb.edges"
        path.write_text("0 1\n")
        code, out, _ = run(capsys, "compute", "--input", str(path), "--alpha", "2")
        assert code == 0
        assert json.loads(out)["input"] == str(path)


def readme_commands():
    """The ``nbzagreb ...`` lines of the first bash block under README's
    "Command line" heading."""
    readme = (FIXTURES.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("nbzagreb ")
    ]


def test_readme_lists_every_command():
    assert {argv[0] for argv in readme_commands()} == {
        "compute", "bounds", "spectral", "verify", "extremal",
    }


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_0(capsys, monkeypatch, argv):
    monkeypatch.chdir(FIXTURES.parent)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out


def test_shared_parser_prints_what_fresh_processes_print(capsys, tmp_path):
    # main builds its parser once per process; calls that interleave
    # subcommands and error exits must each behave as in a new process.
    bad = tmp_path / "bad.edges"
    bad.write_text("0 0\n")
    argvs = [
        ["compute", "--input", FIG1, "--alpha", "2", "--alpha", "0.5"],
        ["bounds", "--input", FIG2],  # no --alpha
        ["spectral", "--input", K4, "--format", "graph6"],
        ["compute", "--alpha", "2"],  # no --input
        ["bounds", "--input", FIG2, "--alpha", "2"],
        ["frobnicate"],
        ["extremal", "--n", "4", "--alpha", "2", "--source", "congruence"],
        ["compute", "--input", str(bad), "--alpha", "2"],
        ["verify", "--n-max", "3"],  # no --alpha; a report would carry timings
        ["compute", "--input", FIG1, "--alpha", "2", "--alpha", "0.5"],
    ]
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    script = "import sys; from nbzagreb.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in argvs:
        fresh = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
