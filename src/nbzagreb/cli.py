"""Command-line interface.

Five subcommands: ``compute`` (profiles, indices, reconstructions),
``bounds`` (bound reports plus congruence data), ``spectral`` (radius
estimate and lower bounds), ``verify`` (exhaustive sweep) and ``extremal``
(equality-attaining graph search).

Argparse parses and enforces every flag.  Each ``cmd_*`` takes the parsed
arguments and returns ``(document, exit code)``, where the document is a
JSON-ready value, or the finished text for ``compute --output csv``.
``main`` alone serializes the document, writes it and maps exceptions to
exit codes.

Output is deterministic: JSON with fixed key order and floats rendered at
12 significant digits, so identical inputs produce byte-identical output.
Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 precondition violation, 4 numerical non-convergence.

``spectral``, ``verify`` and ``extremal`` import the numpy engines they
call inside their ``cmd_*``, so ``compute`` and ``bounds`` never load
numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

from .bounds import BOUND_SOURCES, DEFAULT_TOLERANCE, _SOURCE_OPS, congruence_classify
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
        if set(map(type, obj)) <= {int}:  # exact ints: bools still print as true and false
            return "[" + ", ".join(map(str, obj)) + "]"
        return "[" + ", ".join(dumps_stable(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Input handling


def _load_graph(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(args.input).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read {args.input!r}: {exc}")
    if args.format == "graph6":
        return parse_graph6(text)
    return parse_edge_list(text)


def _graph_doc(args, g, **fields) -> dict:
    """A per-graph document: the command, its input and the graph's size,
    then ``fields`` in order."""
    return {"command": args.command, "input": args.input, "format": args.format,
            "n": g.n, "m": g.m, **fields}


# ---------------------------------------------------------------------------
# Subcommands


def _index_doc(entry: dict, key: str, recon_key: str, p, alpha, direct, values: dict) -> None:
    """The direct sum under ``key``; under ``recon_key`` each of ``values``
    (name -> op), then the two reconstructions' residuals.  A value that
    raises is null, followed by ``<name>_inapplicable``, and so is its
    residual; if the direct sum or every value raises, the block is
    ``{"inapplicable": reason}``, the direct sum's or else the secant's."""
    try:
        value = entry[key] = direct(p, alpha)
    except PreconditionError as exc:
        entry[key] = None
        entry[f"{key}_inapplicable"] = reason(exc)
        entry[recon_key] = {"inapplicable": reason(exc)}
        return
    recon = {}
    for name, op in values.items():
        try:
            recon[name] = op(p, alpha)
        except PreconditionError as exc:
            recon[name] = None
            recon[f"{name}_inapplicable"] = reason(exc)
    if all(recon[name] is None for name in values):
        entry[recon_key] = {"inapplicable": recon["secant_inapplicable"]}
        return
    for form in ("secant", "unit"):
        via = recon[form]
        recon[f"residual_{form}"] = None if via is None else abs(via - value)
    entry[recon_key] = recon


def cmd_compute(args):
    alphas = [as_alpha(a) for a in args.alpha]
    g = _load_graph(args)
    p = degree_profile(g)
    if args.output == "csv":
        lines = ["vertex,degree,nbr_degree,dist2_degree"]
        for u in range(g.n):
            lines.append(f"{u},{p.deg[u]},{p.nbr_deg[u]},{p.dist2_deg[u]}")
        return "\n".join(lines), EXIT_OK
    nm_values = {"s_alpha": secant_slope, "secant": nm_reconstruct_secant,
                 "unit": nm_reconstruct_unit}
    nm2_values = {"secant": nm2_reconstruct_secant, "unit": nm2_reconstruct_unit}
    entries = []
    for alpha in alphas:
        entry: dict = {"alpha": alpha.value}
        _index_doc(entry, "nm_alpha", "reconstruction", p, alpha, nm_direct, nm_values)
        _index_doc(entry, "nm2_alpha", "reconstruction_dist2", p, alpha, nm2_direct, nm2_values)
        entries.append(entry)
    return _graph_doc(
        args, g,
        connected=p.diameter != math.inf,
        diameter=p.diameter,
        m1=p.m1,
        profile={
            "degree": p.deg,
            "nbr_degree": p.nbr_deg,
            "dist2_degree": p.dist2_deg,
            "deg_hist": p.deg_hist,
            "nbr_hist": p.nbr_hist,
            "dist2_hist": p.dist2_hist,
            "delta_min": p.delta_min,
            "delta_max": p.delta_max,
            "d2_min": p.d2_min,
            "d2_max": p.d2_max,
        },
        indices=entries,
    ), EXIT_OK


def cmd_bounds(args):
    alphas = [as_alpha(a) for a in args.alpha]
    g = _load_graph(args)
    p = degree_profile(g)
    try:
        cd = congruence_classify(p)
        congruence_doc = dict(vars(cd))
    except PreconditionError as exc:
        congruence_doc = {"inapplicable": reason(exc)}
    alpha_docs = []
    for alpha in alphas:
        reports = []
        inapplicable = []
        for source, fn in _SOURCE_OPS.items():
            try:
                reports.append(dict(vars(fn(p, alpha, args.tolerance))))
            except PreconditionError as exc:
                inapplicable.append({"source": source, "reason": reason(exc)})
        alpha_docs.append(
            {"alpha": alpha.value, "bounds": reports, "inapplicable": inapplicable}
        )
    return _graph_doc(
        args, g, m1=p.m1, delta_min=p.delta_min, delta_max=p.delta_max,
        congruence=congruence_doc, alphas=alpha_docs,
    ), EXIT_OK


def cmd_spectral(args):
    from .spectral import spectral_report

    g = _load_graph(args)
    given = {"tol": args.power_tol, "max_iter": args.max_iter}
    result = spectral_report(g, **{k: v for k, v in given.items() if v is not None})
    # The integer certificates decide both links; rho**2 is compared only
    # where they leave one open, which Cauchy-Schwarz rules out.
    ratio_holds = (result.ratio_bound_exact or result.ratio_bound_strict
                   or result.rho_squared >= result.bound_nm2_ratio)
    return _graph_doc(
        args, g,
        rho=result.rho,
        rho_upper=result.rho_upper,
        rho_squared=result.rho_squared,
        iterations=result.iterations,
        residual=result.residual,
        bound_nm2_ratio=result.bound_nm2_ratio,
        bound_min_nbr=result.bound_min_nbr,
        ratio_bound_holds=ratio_holds,
        min_nbr_bound_holds=(ratio_holds and result.bounds_ordered)
        or result.rho_squared >= result.bound_min_nbr,
    ), EXIT_OK


def cmd_verify(args):
    from .enumeration import verify_all

    report = verify_all(
        args.n_max,
        [as_alpha(a) for a in args.alpha],
        tolerance=args.tolerance,
        jobs=args.jobs,
        allow_n8=args.allow_n8,
        engine=args.engine,
    )
    code = EXIT_OK if report.ok else EXIT_VERIFY_FAILED
    return report.to_dict(), code


def cmd_extremal(args):
    from .enumeration import find_equality_graphs

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
    return doc, EXIT_OK


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
    alpha_flag = dict(
        type=float, action="append", required=True,
        help="index exponent, repeatable (not 0 or 1)",
    )
    allow_n8_flag = dict(action="store_true", help="permit the 2^28-mask sweep at n = 8")

    def add_input_flags(sp):
        sp.add_argument("--input", required=True, help="graph file, or '-' for stdin")
        sp.add_argument("--format", choices=("edges", "graph6"), default="edges")

    sp = sub.add_parser("compute", help="profiles, indices and reconstructions")
    add_input_flags(sp)
    sp.add_argument("--alpha", **alpha_flag)
    sp.add_argument("--output", choices=("json", "csv"), default="json",
                    help="csv emits the per-vertex degree table")
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("bounds", help="bound reports and congruence data")
    add_input_flags(sp)
    sp.add_argument("--alpha", **alpha_flag)
    sp.add_argument("--tolerance", **tolerance_flag)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("spectral", help="spectral radius and lower bounds")
    add_input_flags(sp)
    sp.add_argument("--power-tol", type=float,
                    help="relative bound on the Lanczos Ritz residual")
    sp.add_argument("--max-iter", type=int)
    sp.set_defaults(func=cmd_spectral)

    sp = sub.add_parser("verify", help="exhaustive sweep over all connected graphs")
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--alpha", **alpha_flag)
    sp.add_argument("--tolerance", **tolerance_flag)
    sp.add_argument("--jobs", type=int, default=1, help="at most this many worker processes")
    sp.add_argument("--allow-n8", **allow_n8_flag)
    sp.add_argument("--engine", choices=("bulk", "scalar"), default="bulk")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("extremal", help="equality-attaining graph search")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--source", required=True,
                    help=f"bound source: one of {', '.join(BOUND_SOURCES)}")
    sp.add_argument("--allow-n8", **allow_n8_flag)
    sp.set_defaults(func=cmd_extremal)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc, code = args.func(args)
        text = doc if isinstance(doc, str) else dumps_stable(doc)
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
    sys.stdout.write(text)
    sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
