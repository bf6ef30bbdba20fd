"""What the traced runs wrap, and how span tables become per-layer metrics.

Layers are the nbzagreb modules: ``graphs``, ``indices``, ``bounds``,
``spectral``, ``_bulk`` (metric prefix ``bulk``, since metric names start
with a letter), ``enumeration`` and ``cli``.  ``errors`` does no work.
Only functions that do work are wrapped; tiny helpers called millions of
times (``indices._pow``, ``as_alpha``) are left alone so the trace does
not swamp what it measures.
"""

from __future__ import annotations

from tracer import Target


def _count_masks(counters, args, result):
    counters["masks"] = counters.get("masks", 0) + int(args[0].shape[0])


def _count_connected(counters, args, result):
    counters["connected"] = counters.get("connected", 0) + int(result.sum())


def _bulk_iterations(counters, args, result):
    iters = result[1]
    counters["bulk_iters_sum"] = counters.get("bulk_iters_sum", 0) + int(iters.sum())
    counters["bulk_iters_n"] = counters.get("bulk_iters_n", 0) + int(iters.size)
    counters["bulk_iters_max"] = max(counters.get("bulk_iters_max", 0), int(iters.max(initial=0)))


def _spectral_iterations(counters, args, result):
    counters["spec_iters_sum"] = counters.get("spec_iters_sum", 0) + result.iterations
    counters["spec_iters_n"] = counters.get("spec_iters_n", 0) + 1
    counters["spec_iters_max"] = max(counters.get("spec_iters_max", 0), result.iterations)


PKG = "nbzagreb"

TARGETS = [
    Target("graphs", "nbzagreb.graphs", "degree_profile"),
    Target("graphs", "nbzagreb.graphs", "diameter"),
    Target("graphs", "nbzagreb.graphs", "parse_edge_list"),
    Target("graphs", "nbzagreb.graphs", "Graph.from_edges"),
    Target("graphs", "nbzagreb.graphs", "encode_graph6"),
    *(
        Target("indices", "nbzagreb.indices", attr)
        for attr in (
            "first_zagreb",
            "nm_direct",
            "nm2_direct",
            "general_neighborhood_zagreb",
            "two_distance_index",
            "nm_reconstruct_secant",
            "nm_reconstruct_unit",
            "nm2_reconstruct_secant",
            "nm2_reconstruct_unit",
            "index_report",
        )
    ),
    *(
        Target("bounds", "nbzagreb.bounds", attr)
        for attr in (
            "secant_coefficient",
            "unit_coefficient",
            "nm_bound_secant",
            "nm_bound_unit",
            "nm_bound_congruence",
            "congruence_classify",
        )
    ),
    Target("spectral", "nbzagreb.spectral", "spectral_radius", _spectral_iterations),
    Target("spectral", "nbzagreb.spectral", "nm2_ratio_lower_bound"),
    Target("spectral", "nbzagreb.spectral", "min_nbr_lower_bound"),
    Target("spectral", "nbzagreb.spectral", "spectral_report"),
    Target("bulk", "nbzagreb._bulk", "sweep_chunk"),
    Target("bulk", "nbzagreb._bulk", "_bits_of", _count_masks),
    Target("bulk", "nbzagreb._bulk", "_adj_of"),
    Target("bulk", "nbzagreb._bulk", "_connected", _count_connected),
    Target("bulk", "nbzagreb._bulk", "_row_hist"),
    Target("bulk", "nbzagreb._bulk", "batched_power_iteration", _bulk_iterations),
    Target("bulk", "nbzagreb._bulk", "_report_rows"),
    Target("bulk", "nbzagreb._bulk", "Tally.merge"),
    Target("enumeration", "nbzagreb.enumeration", "verify_all"),
    Target("enumeration", "nbzagreb.enumeration", "_scalar_graph_checks"),
    Target("enumeration", "nbzagreb.enumeration", "_orbit_keys"),
    Target("enumeration", "nbzagreb.enumeration", "find_equality_graphs"),
    Target("cli", "nbzagreb.cli", "main"),
    Target("cli", "nbzagreb.cli", "dumps_stable"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(table: dict, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  Times are inclusive (``_s``)
    or exclusive of traced children (``self_s``)."""
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "outer_calls": 0, "outer_s": 0.0}

    def t(name):
        return table.get(name, zero)

    def layer(prefix, key):
        return sum(row[key] for name, row in table.items() if name.startswith(prefix + "."))

    return {
        "bulk.sweep_chunk.calls": t("bulk.sweep_chunk")["calls"],
        "bulk.sweep_chunk.self_s": t("bulk.sweep_chunk")["self_s"],
        "bulk.decode_s": t("bulk.bits_of")["s"] + t("bulk.adj_of")["s"],
        "bulk.connected_s": t("bulk.connected")["s"],
        "bulk.connected_ratio": _ratio(counters.get("connected", 0), counters.get("masks", 0)),
        "bulk.row_hist_s": t("bulk.row_hist")["s"],
        "bulk.power_iteration_s": t("bulk.batched_power_iteration")["s"],
        "bulk.power_iteration.iters_mean": _ratio(
            counters.get("bulk_iters_sum", 0), counters.get("bulk_iters_n", 0)
        ),
        "bulk.power_iteration.iters_max": counters.get("bulk_iters_max", 0),
        "bulk.report_rows_s": t("bulk.report_rows")["s"],
        "bulk.tally_merge_s": t("bulk.merge")["s"],
        "enumeration.scalar_graph_checks.self_s": t("enumeration.scalar_graph_checks")["self_s"],
        "enumeration.orbit_keys.calls": t("enumeration.orbit_keys")["calls"],
        "enumeration.orbit_keys_s": t("enumeration.orbit_keys")["s"],
        "enumeration.find_equality_graphs.self_s": t("enumeration.find_equality_graphs")["self_s"],
        "graphs.degree_profile.calls": t("graphs.degree_profile")["calls"],
        "graphs.degree_profile.self_s": t("graphs.degree_profile")["self_s"],
        "graphs.diameter.calls": t("graphs.diameter")["calls"],
        "graphs.diameter_s": t("graphs.diameter")["s"],
        "graphs.parse_edge_list_s": t("graphs.parse_edge_list")["s"],
        "graphs.from_edges_s": t("graphs.from_edges")["s"],
        "graphs.encode_graph6_s": t("graphs.encode_graph6")["s"],
        "indices.calls": layer("indices", "outer_calls"),
        "indices.s": layer("indices", "outer_s"),
        "bounds.calls": layer("bounds", "outer_calls"),
        "bounds.s": layer("bounds", "outer_s"),
        "spectral.spectral_radius.calls": t("spectral.spectral_radius")["calls"],
        "spectral.spectral_radius_s": t("spectral.spectral_radius")["s"],
        "spectral.iterations_mean": _ratio(
            counters.get("spec_iters_sum", 0), counters.get("spec_iters_n", 0)
        ),
        "spectral.iterations_max": counters.get("spec_iters_max", 0),
        "spectral.lower_bounds_s": t("spectral.nm2_ratio_lower_bound")["s"]
        + t("spectral.min_nbr_lower_bound")["s"],
        "cli.main.self_s": t("cli.main")["self_s"],
        "cli.dumps_stable_s": t("cli.dumps_stable")["s"],
        "trace.spans": sum(row["calls"] for row in table.values()),
    }
