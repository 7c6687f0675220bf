"""Batch command-line front end with JSON input and output.

Subcommands: padic-log, graph-project, volog-assemble, volog-ddlog,
volog-iterated, height-local (also reachable as `height local`), fpn-split.
Output is deterministic: keys sorted, no timestamps. Exit codes: 0 success,
2 parse error, 3 mathematical precondition failure, 4 precision or
truncation overflow. `--schema` on any subcommand prints its input schema,
the file `schemas/<subcommand>.json` shipped in this package.
The environment variable VOLOG_PRECISION overrides the default working
precision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ParseError, PreconditionError, PrecisionOverflow
from .fpnmod import module_from_json, synderi_check, triple_from_json
from .graphs import Cochain, VertexFn, graph_from_json, harmonic_project
from .heights import divisor_from_json, local_height_report
from .jsonutil import frac_from_str, frac_to_str, int_from_json
from .loglaurent import AnnulusForm
from .padic import (
    DEFAULT_LAMBDA_CAP,
    DEFAULT_PRECISION,
    PadicContext,
    iwasawa_log,
    make_padic,
    require_prime,
    scalar_from_json,
    scalar_to_json,
)
from .volog import (
    EdgeLocalData,
    LocalColemanData,
    assemble,
    derivative_vertex_function,
    iterated_derivative,
)

_SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "schemas")


def _default_precision() -> int:
    env = os.environ.get("VOLOG_PRECISION")
    if env is None:
        return DEFAULT_PRECISION
    try:
        value = int(env)
    except ValueError as exc:
        raise PreconditionError(f"VOLOG_PRECISION is not an integer: {env!r}") from exc
    if value < 1:
        raise PreconditionError("VOLOG_PRECISION must be positive")
    return value


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _emit(payload: dict, output_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _vertex_key_map(g, values: dict, what: str) -> dict:
    """JSON maps are keyed by str(vertex); resolve back to vertex objects."""
    lookup = {str(v): v for v in g.vertices}
    out = {}
    for key, val in values.items():
        if key not in lookup:
            raise PreconditionError(f"{what} references unknown vertex {key!r}")
        out[lookup[key]] = val
    return out


def _resolve_anchor(g, anchor):
    if anchor is None:
        return None
    lookup = {str(v): v for v in g.vertices}
    if anchor not in lookup:
        raise PreconditionError(f"anchor {anchor!r} is not a vertex")
    return lookup[anchor]


def _rational_cochain(g, obj, what: str) -> Cochain:
    values = {k: frac_from_str(v) for k, v in obj["values"].items()}
    ids = {e.id for e in g.edges}
    if set(values) != ids:
        raise PreconditionError(f"{what} must assign a value to every edge")
    return Cochain(g, values)


# -- subcommand implementations ----------------------------------------------


def _cmd_padic_log(args) -> dict:
    prec = args.prec if args.prec is not None else _default_precision()
    z = make_padic(args.p, args.num, args.den, prec)
    if z.is_zero:
        raise PreconditionError("logarithm of zero")
    lg = iwasawa_log(z)
    return {
        "p": args.p,
        "val": z.val,
        "lambda_coeff": z.val,
        "log": scalar_to_json(lg),
    }


def _cmd_graph_project(args) -> dict:
    g = graph_from_json(_load_json(args.graph))
    c = _rational_cochain(g, _load_json(args.cochain), "cochain")
    anchor = _resolve_anchor(g, args.anchor)
    harmonic, gamma = harmonic_project(c, anchor)
    return {
        "harmonic": {str(k): frac_to_str(v) for k, v in harmonic.values.items()},
        "gamma": {str(k): frac_to_str(v) for k, v in gamma.values.items()},
        "anchor": str(anchor if anchor is not None else g.vertices[0]),
    }


def _decode_edge_data(ctx: PadicContext, entry: dict) -> EdgeLocalData:
    eid = entry["id"]
    if "raw_c" in entry:
        return EdgeLocalData(eid, raw_c=scalar_from_json(entry["raw_c"], ctx.lambda_cap))
    form_obj = entry["form"]
    coeffs = {
        int(k): scalar_from_json(v, ctx.lambda_cap)
        for k, v in form_obj.get("coeffs", {}).items()
    }
    form = AnnulusForm(ctx, coeffs, int(form_obj.get("window", 12)))
    return EdgeLocalData(
        eid,
        form=form,
        c_tail=scalar_from_json(entry["C_tail"], ctx.lambda_cap),
        c_head=scalar_from_json(entry["C_head"], ctx.lambda_cap),
    )


def _infer_prime(job: dict) -> int:
    """Every scalar value carries its prime; the top-level field is optional."""
    if "p" in job:
        return require_prime(int_from_json(job["p"], "p"))
    for entry in job.get("edges", []):
        for key in ("raw_c", "C_tail", "C_head"):
            if key in entry:
                return require_prime(int_from_json(entry[key]["coeffs"][0]["p"], "p"))
    raise PreconditionError("cannot infer the prime: no scalar values in the job")


def _cmd_volog_assemble(args) -> dict:
    job = _load_json(args.job)
    prec = int_from_json(job["prec"], "prec") if "prec" in job else _default_precision()
    ctx = PadicContext(_infer_prime(job), prec, args.lambda_cap)
    g = graph_from_json(job["graph"])
    edges = tuple(_decode_edge_data(ctx, entry) for entry in job["edges"])
    anchor = _resolve_anchor(g, job.get("anchor"))
    data = LocalColemanData(g, ctx, edges, anchor)
    out = assemble(data)
    return {
        "anchor": str(out.anchor),
        "gamma": {str(v): scalar_to_json(s) for v, s in out.gamma.values.items()},
        "harmonic": {
            str(k): scalar_to_json(s) for k, s in out.harmonic_cochain.values.items()
        },
    }


def _cmd_volog_ddlog(args) -> dict:
    g = graph_from_json(_load_json(args.graph))
    raw = _load_json(args.residues)
    values = _vertex_key_map(
        g, {k: frac_from_str(v) for k, v in raw["values"].items()}, "residues"
    )
    if set(values) != set(g.vertices):
        raise PreconditionError("residues must assign a value to every vertex")
    anchor = _resolve_anchor(g, args.anchor)
    u = derivative_vertex_function(VertexFn(g, values), anchor)
    return {
        "derivative": {str(k): frac_to_str(v) for k, v in u.values.items()},
        "anchor": str(anchor if anchor is not None else g.vertices[0]),
    }


def _cmd_volog_iterated(args) -> dict:
    job = _load_json(args.job)
    g = graph_from_json(job["graph"])
    cochains = {
        name: _rational_cochain(g, job[name], name)
        for name in ("c_omega", "c_eta", "res_omega", "res_eta", "indices")
    }
    anchor = _resolve_anchor(g, job.get("anchor"))
    u = iterated_derivative(
        cochains["c_omega"],
        cochains["c_eta"],
        cochains["res_omega"],
        cochains["res_eta"],
        cochains["indices"],
        anchor,
    )
    return {
        "derivative": {str(k): frac_to_str(v) for k, v in u.values.items()},
        "anchor": str(anchor if anchor is not None else g.vertices[0]),
    }


def _cmd_height_local(args) -> dict:
    g = graph_from_json(_load_json(args.graph))
    D = divisor_from_json(_load_json(args.D))
    E = divisor_from_json(_load_json(args.E))
    anchor = _resolve_anchor(g, args.anchor)
    report = local_height_report(g, D, E, anchor)
    return {
        "value": frac_to_str(report["value"]),
        "vertical": frac_to_str(report["vertical"]),
        "horizontal": frac_to_str(report["horizontal"]),
        "anchor": str(report["anchor"]),
        "normalization": report["normalization"],
    }


def _cmd_fpn_split(args) -> dict:
    M = module_from_json(_load_json(args.module))
    t = triple_from_json(_load_json(args.class_file))
    if not len(t.x) == len(t.y) == len(t.z) == M.dim:
        raise PreconditionError(
            f"class vectors x, y, z must each have the module dimension {M.dim}"
        )
    witness = synderi_check(M, t)
    return {
        "beta": [frac_to_str(v) for v in witness.normal_form.beta],
        "rho": [frac_to_str(v) for v in witness.normal_form.rho],
        "synderi": witness.ok,
    }


# -- argument parsing ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vologcalc",
        description="branch-parameter calculus on semi-stable curves (JSON in, JSON out)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--schema", action="store_true", help="print the input schema and exit")
        p.add_argument("--output", help="write the JSON result to this file")

    p = sub.add_parser("padic-log", help="universal-branch logarithm of a rational")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--den", type=int, default=1)
    p.add_argument("--prec", type=int, default=None)
    common(p)
    p.set_defaults(run=_cmd_padic_log)

    p = sub.add_parser("graph-project", help="harmonic/coboundary split of a cochain")
    p.add_argument("--graph", required=True)
    p.add_argument("--cochain", required=True)
    p.add_argument("--anchor", default=None)
    common(p)
    p.set_defaults(run=_cmd_graph_project)

    p = sub.add_parser("volog-assemble", help="assemble an integral from local data")
    p.add_argument("--job", required=True)
    p.add_argument("--lambda-cap", type=int, default=DEFAULT_LAMBDA_CAP, dest="lambda_cap")
    common(p)
    p.set_defaults(run=_cmd_volog_assemble)

    p = sub.add_parser("volog-ddlog", help="branch derivative from vertex residues")
    p.add_argument("--graph", required=True)
    p.add_argument("--residues", required=True)
    p.add_argument("--anchor", default=None)
    common(p)
    p.set_defaults(run=_cmd_volog_ddlog)

    p = sub.add_parser("volog-iterated", help="branch derivative of a double integral")
    p.add_argument("--job", required=True)
    common(p)
    p.set_defaults(run=_cmd_volog_iterated)

    p = sub.add_parser("height-local", help="discrete local height pairing")
    p.add_argument("--graph", required=True)
    p.add_argument("--D", required=True, dest="D")
    p.add_argument("--E", required=True, dest="E")
    p.add_argument("--anchor", default=None)
    common(p)
    p.set_defaults(run=_cmd_height_local)

    p = sub.add_parser("fpn-split", help="split an extension class into (beta, rho)")
    p.add_argument("--module", required=True)
    p.add_argument("--class", required=True, dest="class_file")
    common(p)
    p.set_defaults(run=_cmd_fpn_split)

    return parser


_ALIASES = {("height", "local"): "height-local", ("fpn", "split"): "fpn-split"}


def run(argv) -> int:
    argv = list(argv)
    if tuple(argv[:2]) in _ALIASES:
        argv = [_ALIASES[tuple(argv[:2])]] + argv[2:]
    if argv and "--schema" in argv and f"{argv[0]}.json" in os.listdir(_SCHEMA_DIR):
        with open(os.path.join(_SCHEMA_DIR, f"{argv[0]}.json"), encoding="utf-8") as fh:
            sys.stdout.write(fh.read())
        return 0
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload = args.run(args)
    except ParseError as exc:
        _emit({"error": {"type": "parse", "message": str(exc)}}, None)
        return 2
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        if isinstance(exc, PreconditionError):
            _emit({"error": {"type": "precondition", "message": str(exc)}}, None)
            return 3
        _emit({"error": {"type": "parse", "message": f"{type(exc).__name__}: {exc}"}}, None)
        return 2
    except PrecisionOverflow as exc:
        _emit({"error": {"type": "overflow", "message": str(exc)}}, None)
        return 4
    _emit(payload, args.output)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
