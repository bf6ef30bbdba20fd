import json
import os
import re
import shlex
import subprocess
import sys

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


class TestSerialization:
    def test_float_formatting(self):
        assert dumps_stable(528.0) == "528"
        assert dumps_stable(1 / 3) == "0.333333333333"
        assert dumps_stable(-0.0) == "0"
        assert dumps_stable(float("inf")) == '"infinity"'
        assert dumps_stable({"a": [1, True, None]}) == '{"a": [1, true, null]}'

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
