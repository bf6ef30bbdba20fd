"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line with the key
numbers once its assertions go through.  The heavy artifacts (the full
n <= 7 sweep with four exponents, the all-graphs identity scan and the
tree sweeps) are computed once per module.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time

import pytest

from conftest import load_fixture, prufer_tree
from nbzagreb import (
    Graph,
    canonical_form,
    chemical_tree_m1,
    complete_graph,
    congruence_classify,
    cycle_graph,
    degree_profile,
    encode_graph6,
    find_equality_graphs,
    first_zagreb,
    coefficient_sign_grid,
    nm_bound_congruence,
    nm_bound_secant,
    parse_graph6,
    path_graph,
    spectral_radius,
    verify_all,
)
from nbzagreb._bulk import m1_identity_all_graphs, tree_identity_sweep

SWEEP_ALPHAS = (-1.0, 0.5, 2.0, 3.0)
GRID_ALPHAS = (-2.0, -1.0, -0.5, 0.25, 0.5, 0.75, 2.0, 3.0, 4.5)

LABELED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
CAYLEY = {n: n ** (n - 2) for n in range(2, 9)}


@pytest.fixture(scope="module")
def sweep():
    return verify_all(7, SWEEP_ALPHAS)


def _failures(report, *checks):
    return [f for f in report.failures if f["check"] in checks]


def _announce(num, text):
    print(f"\n[criterion {num:02d}] PASS - {text}")


def test_criterion_01_figure1_reproduction():
    started = time.perf_counter()
    g = load_fixture("figure1.edges")
    p = degree_profile(g)
    assert (g.n, g.m) == (12, 12)
    assert (p.delta_min, p.delta_max) == (4, 10)
    report = nm_bound_secant(p, 2)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    assert report.equality
    assert report.bound == report.computed == 528.0
    _announce(1, f"figure1: min/max nbr degrees 4/10, n=m=12, secant bound "
                 f"= value = 528 with equality ({elapsed_ms:.2f} ms)")


def test_criterion_02_figure2_reproduction():
    started = time.perf_counter()
    g = load_fixture("figure2.edges")
    p = degree_profile(g)
    excess = p.m1 - p.n * p.delta_min
    assert excess == 7 == 3 * (p.delta_max - p.delta_min) + 1
    cd = congruence_classify(p)
    assert (cd.q, cd.r) == (3, 1)
    report = nm_bound_congruence(p, 2)
    elapsed_ms = (time.perf_counter() - started) * 1e3
    assert report.equality
    assert report.bound == report.computed == 100.0
    _announce(2, f"figure2: M1 - n*min = 7 = 3*gap + 1, q=3, r=1, congruence "
                 f"bound = value = 100 with equality ({elapsed_ms:.2f} ms)")


def test_criterion_03_reconstruction_identity_sweep(sweep):
    assert sweep.graphs_checked_by_n == LABELED_CONNECTED
    assert _failures(sweep, "nm_reconstruct_secant", "nm_reconstruct_unit") == []
    assert sweep.failure_count == 0
    ran = sweep.checks_run["nm_reconstruct_secant"]
    assert ran == sweep.checks_run["nm_reconstruct_unit"] > 7_000_000
    _announce(3, f"both reconstructions match the direct index on all "
                 f"{sweep.graphs_checked:,} connected graphs (n <= 7), "
                 f"{ran:,} instances per form, 0 failures "
                 f"({sweep.elapsed:.1f} s)")


def test_criterion_04_bound_sweep(sweep):
    bound_checks = ("nm_bound_secant", "nm_bound_unit", "nm_bound_congruence")
    assert _failures(sweep, *bound_checks) == []
    allowed = {
        "nm_bound_secant": {"n_lt_3", "neighborhood_regular"},
        "nm_bound_unit": {"n_lt_3", "neighborhood_regular"},
        "nm_bound_congruence": {
            "n_lt_3", "gap_too_small", "non_positive_quotient",
            "remainder_zero", "unoccupied_remainder_degree",
        },
    }
    for check, reasons in allowed.items():
        assert sweep.checks_run[check] > 0
        assert set(sweep.skips.get(check, {})) <= reasons
    total = sum(sweep.checks_run[c] for c in bound_checks)
    _announce(4, f"all bound directions hold with sound equality flags: "
                 f"{total:,} bound evaluations, 0 failures, every skip "
                 f"justified by a named precondition")


def test_criterion_05_m1_identity(sweep):
    assert _failures(sweep, "m1_identity") == []
    assert sweep.checks_run["m1_identity"] == sweep.graphs_checked
    total_all = 0
    for n in range(1, 8):
        checked, mismatches = m1_identity_all_graphs(n)
        assert checked == 1 << (n * (n - 1) // 2)
        assert mismatches == 0
        total_all += checked
    _announce(5, f"sum of neighborhood degrees equals M1 exactly on all "
                 f"{total_all:,} labeled graphs with n <= 7 (connected or not)")


def test_criterion_06_diameter2_identities(sweep):
    checks = ("dist2_identity", "nm2_reconstruct_secant", "nm2_reconstruct_unit")
    assert _failures(sweep, *checks) == []
    assert sweep.checks_run["dist2_identity"] > 600_000
    assert sweep.checks_run["nm2_reconstruct_secant"] > 1_800_000
    _announce(6, f"2m(n-1) - M1 identity on {sweep.checks_run['dist2_identity']:,} "
                 f"diameter-2 graphs and both dist-2 reconstructions "
                 f"({sweep.checks_run['nm2_reconstruct_secant']:,} instances each), "
                 f"0 failures")


def test_criterion_07_spectral_chain(sweep):
    assert _failures(sweep, "spectral_chain", "spectral_regular") == []
    assert sweep.checks_run["spectral_chain"] == sweep.graphs_checked - 1
    assert sweep.checks_run["spectral_regular"] > 0
    for n in range(2, 8):
        rho = spectral_radius(complete_graph(n)).rho
        assert abs(rho - (n - 1)) <= 1e-7
        rho = spectral_radius(path_graph(n)).rho
        assert abs(rho - 2 * math.cos(math.pi / (n + 1))) <= 1e-7
        if n >= 3:
            rho = spectral_radius(cycle_graph(n)).rho
            assert abs(rho - 2.0) <= 1e-7
    _announce(7, f"rho^2 >= ratio bound >= closed-form bound on "
                 f"{sweep.checks_run['spectral_chain']:,} connected graphs, "
                 f"closed forms for complete graphs, cycles and paths match "
                 f"to 1e-7, {sweep.checks_run['spectral_regular']:,} regular "
                 f"graphs tight to 1e-9")


def test_criterion_08_coefficient_sign_grid():
    started = time.perf_counter()
    evaluations, violations = coefficient_sign_grid(GRID_ALPHAS, p_max=12)
    elapsed = time.perf_counter() - started
    assert violations == []
    assert evaluations == 9 * 2 * sum(
        (q - p - 1) for p in range(1, 12) for q in range(p + 1, 13)
    )
    _announce(8, f"coefficient signs correct on all {evaluations:,} grid points "
                 f"(p < q <= 12, 9 exponents) in {elapsed * 1e3:.0f} ms")


def test_criterion_09_chemical_tree_identity():
    total_chemical = 0
    for n in range(2, 9):
        trees, chemical, mismatches = tree_identity_sweep(n)
        assert trees == CAYLEY[n]
        assert mismatches == 0
        total_chemical += chemical

    def check_tree(g):
        p = degree_profile(g)
        assert g.m == g.n - 1 and max(p.deg) <= 4
        n2, n3 = p.deg_hist.get(2, 0), p.deg_hist.get(3, 0)
        assert first_zagreb(g) == chemical_tree_m1(g.n, n2, n3)

    with pytest.raises(ValueError, match="^tree sweep needs n >= 2$"):
        tree_identity_sweep(1)

    spider9 = Graph.from_edges(
        9, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (0, 7), (7, 8)]
    )
    caterpillar9 = Graph.from_edges(
        9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6), (2, 7), (3, 8)]
    )
    spider10 = Graph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)],
    )
    caterpillar10 = Graph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 7), (3, 8), (5, 9)],
    )
    fixtures = [path_graph(9), path_graph(10), spider9, caterpillar9,
                spider10, caterpillar10]
    rng = random.Random(99173)
    sampled = 0
    for n in (9, 10):
        while sampled < 20 * (n - 8):
            seq = [rng.randrange(n) for _ in range(n - 2)]
            g = prufer_tree(seq)
            if max(len(nbrs) for nbrs in g.adjacency) <= 4:
                fixtures.append(g)
                sampled += 1
    for g in fixtures:
        check_tree(g)
    _announce(9, f"M1 = 6n - 10 - 2*n2 - 2*n3 on all {total_chemical:,} chemical "
                 f"trees with n <= 8 plus {len(fixtures)} spot trees at n = 9, 10")


def test_criterion_10_extremal_equality_families():
    fig2_canonical = encode_graph6(canonical_form(load_fixture("figure2.edges")))
    congruence_hits = find_equality_graphs(5, 2.0, "congruence")
    assert fig2_canonical in [r.graph for r in congruence_hits]

    p4_canonical = encode_graph6(canonical_form(path_graph(4)))
    unit_hits = find_equality_graphs(4, 2.0, "unit")
    assert p4_canonical in [r.graph for r in unit_hits]

    secant_total = 0
    for n in range(3, 7):
        for record in find_equality_graphs(n, 2.0, "secant"):
            p = degree_profile(parse_graph6(record.graph))
            assert len(p.nbr_hist) == 2
            assert record.structural_match
            secant_total += 1
    _announce(10, f"equality search recovers the expected families: figure2 "
                  f"({fig2_canonical}) for the congruence form, the 4-path "
                  f"({p4_canonical}) for the unit form, and all "
                  f"{secant_total} secant-form hits at n <= 6 have two-valued "
                  f"histograms")
