"""Command-line interface.

Five subcommands: ``compute`` (profiles, indices, reconstructions),
``bounds`` (bound reports plus congruence data), ``spectral`` (radius
estimate and lower bounds), ``verify`` (exhaustive sweep) and ``extremal``
(equality-attaining graph search).

Output is deterministic: JSON with fixed key order and floats rendered at
12 significant digits, so identical inputs produce byte-identical output.
Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 precondition violation, 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

from .bounds import BOUND_SOURCES, DEFAULT_TOLERANCE, _SOURCE_OPS, congruence_classify
from .enumeration import find_equality_graphs, verify_all
from .errors import (
    ConfigError,
    NoConvergence,
    ParseError,
    PreconditionError,
    reason,
)
from .graphs import degree_profile, parse_edge_list, parse_graph6
from .indices import (
    as_alpha,
    nm2_direct,
    nm2_reconstruct_secant,
    nm2_reconstruct_unit,
    nm_direct,
    nm_reconstruct_secant,
    nm_reconstruct_unit,
    secant_slope,
)
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, spectral_report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_NO_CONVERGENCE = 4


# ---------------------------------------------------------------------------
# Deterministic serialization


def _format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    if math.isinf(x):
        return '"infinity"'
    if x == 0.0:
        return "0"
    return format(x, ".12g")


# json.dumps(s, ensure_ascii=False) without building an encoder per call:
# quotes, backslashes and control characters escaped, all else verbatim.
_encode_string = json.JSONEncoder(ensure_ascii=False).encode


def dumps_stable(obj) -> str:
    """JSON text with insertion-order keys and 12-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return _encode_string(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{dumps_stable(str(k))}: {dumps_stable(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_stable(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Input handling


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}")


def _load_graph(args):
    text = _read_text(args.input)
    if args.format == "graph6":
        return parse_graph6(text)
    return parse_edge_list(text)


def _require_alphas(parser: argparse.ArgumentParser, args) -> list:
    if not args.alpha:
        parser.error("at least one --alpha is required")
    return [as_alpha(a) for a in args.alpha]


# ---------------------------------------------------------------------------
# Subcommands


def _hist_doc(hist: dict[int, int]) -> dict:
    return {str(k): v for k, v in hist.items()}


def _index_doc(entry: dict, key: str, recon_key: str, p, alpha, direct, secant, unit,
               slope=None) -> None:
    """The direct sum under ``key`` and its reconstructions under ``recon_key``."""
    try:
        value = entry[key] = direct(p, alpha)
        via_s, via_u = secant(p, alpha), unit(p, alpha)
        recon = entry[recon_key] = {} if slope is None else {"s_alpha": slope(p, alpha)}
        recon.update(secant=via_s, unit=via_u, residual_secant=abs(via_s - value),
                     residual_unit=abs(via_u - value))
    except PreconditionError as exc:
        if key not in entry:  # the direct sum itself raised
            entry[key] = None
            entry[f"{key}_inapplicable"] = reason(exc)
        entry[recon_key] = {"inapplicable": reason(exc)}


def cmd_compute(parser, args):
    alphas = _require_alphas(parser, args)
    g = _load_graph(args)
    p = degree_profile(g)
    entries = []
    for alpha in alphas:
        entry: dict = {"alpha": alpha.value}
        _index_doc(entry, "nm_alpha", "reconstruction", p, alpha, nm_direct,
                   nm_reconstruct_secant, nm_reconstruct_unit, secant_slope)
        _index_doc(entry, "nm2_alpha", "reconstruction_dist2", p, alpha, nm2_direct,
                   nm2_reconstruct_secant, nm2_reconstruct_unit)
        entries.append(entry)
    doc = {
        "command": "compute",
        "input": args.input,
        "format": args.format,
        "n": g.n,
        "m": g.m,
        "connected": p.diameter != math.inf,
        "diameter": p.diameter,
        "m1": p.m1,
        "profile": {
            "degree": list(p.deg),
            "nbr_degree": list(p.nbr_deg),
            "dist2_degree": list(p.dist2_deg),
            "deg_hist": _hist_doc(p.deg_hist),
            "nbr_hist": _hist_doc(p.nbr_hist),
            "dist2_hist": _hist_doc(p.dist2_hist),
            "delta_min": p.delta_min,
            "delta_max": p.delta_max,
            "d2_min": p.d2_min,
            "d2_max": p.d2_max,
        },
        "indices": entries,
    }
    if args.output == "csv":
        lines = ["vertex,degree,nbr_degree,dist2_degree"]
        for u in range(g.n):
            lines.append(f"{u},{p.deg[u]},{p.nbr_deg[u]},{p.dist2_deg[u]}")
        return "\n".join(lines) + "\n", EXIT_OK
    return dumps_stable(doc) + "\n", EXIT_OK


def cmd_bounds(parser, args):
    alphas = _require_alphas(parser, args)
    g = _load_graph(args)
    p = degree_profile(g)
    try:
        cd = congruence_classify(p)
        congruence_doc = asdict(cd)
    except PreconditionError as exc:
        congruence_doc = {"inapplicable": reason(exc)}
    alpha_docs = []
    for alpha in alphas:
        reports = []
        inapplicable = []
        for source, fn in _SOURCE_OPS.items():
            try:
                reports.append(asdict(fn(p, alpha, args.tolerance)))
            except PreconditionError as exc:
                inapplicable.append({"source": source, "reason": reason(exc)})
        alpha_docs.append(
            {"alpha": alpha.value, "bounds": reports, "inapplicable": inapplicable}
        )
    doc = {
        "command": "bounds",
        "input": args.input,
        "format": args.format,
        "n": g.n,
        "m": g.m,
        "m1": p.m1,
        "delta_min": p.delta_min,
        "delta_max": p.delta_max,
        "congruence": congruence_doc,
        "alphas": alpha_docs,
    }
    return dumps_stable(doc) + "\n", EXIT_OK


def cmd_spectral(parser, args):
    g = _load_graph(args)
    result = spectral_report(g, tol=args.power_tol, max_iter=args.max_iter)
    ratio_holds = result.ratio_bound_exact or result.rho_squared >= result.bound_nm2_ratio
    doc = {
        "command": "spectral",
        "input": args.input,
        "format": args.format,
        "n": g.n,
        "m": g.m,
        "rho": result.rho,
        "rho_upper": result.rho_upper,
        "rho_squared": result.rho_squared,
        "iterations": result.iterations,
        "residual": result.residual,
        "bound_nm2_ratio": result.bound_nm2_ratio,
        "bound_min_nbr": result.bound_min_nbr,
        "ratio_bound_holds": ratio_holds,
        "min_nbr_bound_holds": (ratio_holds and result.bounds_ordered)
        or result.rho_squared >= result.bound_min_nbr,
    }
    return dumps_stable(doc) + "\n", EXIT_OK


def cmd_verify(parser, args):
    alphas = _require_alphas(parser, args)
    report = verify_all(
        args.n_max,
        alphas,
        tolerance=args.tolerance,
        jobs=args.jobs,
        allow_n8=args.allow_n8,
        engine=args.engine,
    )
    code = EXIT_OK if report.ok else EXIT_VERIFY_FAILED
    return dumps_stable(report.to_dict()) + "\n", code


def cmd_extremal(parser, args):
    alpha = as_alpha(args.alpha)
    records = find_equality_graphs(args.n, alpha, args.source, allow_n8=args.allow_n8)
    doc = {
        "command": "extremal",
        "n": args.n,
        "alpha": alpha.value,
        "source": args.source,
        "count": len(records),
        "records": [r.to_dict() for r in records],
    }
    return dumps_stable(doc) + "\n", EXIT_OK


# ---------------------------------------------------------------------------
# Parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on the first call and shared after it:
    parsing leaves it unchanged, and building it costs more than a small
    query."""
    parser = argparse.ArgumentParser(
        prog="nbzagreb",
        description="Neighborhood Zagreb indices: computation, bounds, spectral "
        "lower bounds, exhaustive verification and extremal search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tolerance_flag = dict(
        type=float, default=DEFAULT_TOLERANCE,
        help=f"relative comparison tolerance (default {DEFAULT_TOLERANCE:g})",
    )

    def add_input_flags(sp, with_alpha=True):
        sp.add_argument("--input", required=True, help="graph file, or '-' for stdin")
        sp.add_argument("--format", choices=("edges", "graph6"), default="edges")
        if with_alpha:
            sp.add_argument(
                "--alpha", type=float, action="append", default=[],
                help="index exponent, repeatable (not 0 or 1)",
            )

    sp = sub.add_parser("compute", help="profiles, indices and reconstructions")
    add_input_flags(sp)
    sp.add_argument("--output", choices=("json", "csv"), default="json",
                    help="csv emits the per-vertex degree table")
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("bounds", help="bound reports and congruence data")
    add_input_flags(sp)
    sp.add_argument("--tolerance", **tolerance_flag)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("spectral", help="spectral radius and lower bounds")
    add_input_flags(sp, with_alpha=False)
    sp.add_argument("--power-tol", type=float, default=DEFAULT_TOL,
                    help="relative bound on the Lanczos Ritz residual")
    sp.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    sp.set_defaults(func=cmd_spectral)

    sp = sub.add_parser("verify", help="exhaustive sweep over all connected graphs")
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--alpha", type=float, action="append", default=[])
    sp.add_argument("--tolerance", **tolerance_flag)
    sp.add_argument("--jobs", type=int, default=1, help="worker processes (either engine)")
    sp.add_argument("--allow-n8", action="store_true",
                    help="permit the 2^28-mask sweep at n = 8")
    sp.add_argument("--engine", choices=("bulk", "scalar"), default="bulk")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("extremal", help="equality-attaining graph search")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--source", required=True,
                    help=f"bound source: one of {', '.join(BOUND_SOURCES)}")
    sp.add_argument("--allow-n8", action="store_true")
    sp.set_defaults(func=cmd_extremal)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        output, code = args.func(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ParseError, ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE
    except PreconditionError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_PRECONDITION
    except NoConvergence as exc:
        sys.stderr.write(f"error: NoConvergence: {exc}\n")
        return EXIT_NO_CONVERGENCE
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
