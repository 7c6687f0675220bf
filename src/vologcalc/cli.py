"""Batch command-line front end with JSON input and output.

Subcommands: padic-log, graph-project, volog-assemble, volog-ddlog,
volog-iterated, height-local (also reachable as `height local`), fpn-split.
Output is deterministic: keys sorted, no timestamps. Exit codes: 0 success,
2 parse error, 3 mathematical precondition failure, 4 precision or
truncation overflow; only those three error types are turned into error
objects, anything else is a bug and propagates. JSON values are read by the
`jsonutil` readers, so messages name the JSON path of a bad value. `--schema`
on any subcommand prints its input schema, the file
`schemas/<subcommand>.json` shipped in this package.
`padic-log --prec` sets the working precision (default 20), bounded like a
JSON exponent of p; volog-assemble ignores a job's `prec`, as the digits of
its output are those of its inputs. fpn-split checks the identities of its
module (`fpnmod.validate`) before splitting.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import ParseError, PreconditionError, PrecisionOverflow
from .fpnmod import module_from_json, synderi_check, triple_from_json, validate
from .graphs import Cochain, VertexFn, graph_from_json, harmonic_project
from .heights import divisor_from_json, local_height_report
from .jsonutil import (
    entries,
    frac_from_json,
    frac_to_str,
    id_from_json,
    int_from_json,
    items,
    member,
)
from .loglaurent import form_from_json
from .padic import (
    DEFAULT_LAMBDA_CAP,
    DEFAULT_PRECISION,
    PadicContext,
    iwasawa_log,
    make_padic,
    max_exponent,
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


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting too deep
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def _emit(payload: dict, output_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output_path:
        try:
            with open(output_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {output_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _nonnegative_int(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _keyed_by(ids, values: dict, what: str, kind: str) -> dict:
    """JSON maps are keyed by str(id); resolve back to the ids, which must
    all be present."""
    lookup = {str(i): i for i in ids}
    for key in values:
        if key not in lookup:
            raise PreconditionError(f"{what} references unknown {kind} {key!r}")
    if len(values) != len(lookup):
        raise PreconditionError(f"{what} must assign a value to every {kind}")
    return {lookup[key]: val for key, val in values.items()}


def _resolve_anchor(g, anchor):
    """The vertex whose str is str(anchor); the graph decides the rest."""
    if anchor is not None:
        anchor = {str(v): v for v in g.vertices}.get(str(anchor), anchor)
    return g.resolve_anchor(anchor)


def _fracs(fn) -> dict:
    """A vertex function or cochain as a JSON map of rational strings."""
    return {str(k): frac_to_str(v) for k, v in fn.values.items()}


def _rational_values(obj) -> dict:
    return member(obj, "values", entries, None, frac_from_json)


def _rational_cochain(g, obj, what: str) -> Cochain:
    values = _keyed_by([e.id for e in g.edges], _rational_values(obj), what, "edge")
    return Cochain(g, values)


# -- subcommand implementations ----------------------------------------------


def _cmd_padic_log(args) -> dict:
    p = require_prime(args.p)
    # read like an integer JSON field and bounded like an exponent of p
    prec = member({"--prec": args.prec}, "--prec", int_from_json, 1, max_exponent(p))
    z = make_padic(p, args.num, args.den, prec)
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
    return {"harmonic": _fracs(harmonic), "gamma": _fracs(gamma), "anchor": str(anchor)}


def _edge_from_json(entry, ctx: PadicContext) -> EdgeLocalData:
    eid = member(entry, "id", id_from_json)
    if "raw_c" in entry:
        return EdgeLocalData(eid, raw_c=member(entry, "raw_c", scalar_from_json, ctx.lambda_cap))
    return EdgeLocalData(
        eid,
        form=member(entry, "form", form_from_json, ctx),
        c_tail=member(entry, "C_tail", scalar_from_json, ctx.lambda_cap),
        c_head=member(entry, "C_head", scalar_from_json, ctx.lambda_cap),
    )


def _coefficient_primes(scalar) -> list:
    return member(scalar, "coeffs", items, member, "p", int_from_json)


def _edge_prime(entry):
    """The p of the first coefficient of the edge's first scalar value."""
    for key in ("raw_c", "C_tail", "C_head"):
        primes = member(entry, key, _coefficient_primes, default=None)
        if primes:
            return primes[0]
    return None


def _infer_prime(job) -> int:
    """The job's p, else the p of its first scalar value; every decoded
    value must then carry this prime."""
    p = member(job, "p", int_from_json, default=None)
    if p is None:
        p = next((q for q in member(job, "edges", items, _edge_prime) if q is not None), None)
        if p is None:
            raise PreconditionError("cannot infer the prime: no scalar values in the job")
    return require_prime(p)


def _cmd_volog_assemble(args) -> dict:
    job = _load_json(args.job)
    p = _infer_prime(job)
    ctx = PadicContext(p, DEFAULT_PRECISION, args.lambda_cap)
    g = member(job, "graph", graph_from_json)
    edges = tuple(member(job, "edges", items, _edge_from_json, ctx))
    anchor = _resolve_anchor(g, member(job, "anchor", id_from_json, default=None))
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
    residues = _rational_values(_load_json(args.residues))
    values = _keyed_by(g.vertices, residues, "residues", "vertex")
    anchor = _resolve_anchor(g, args.anchor)
    u = derivative_vertex_function(VertexFn(g, values), anchor)
    return {"derivative": _fracs(u), "anchor": str(anchor)}


def _cmd_volog_iterated(args) -> dict:
    job = _load_json(args.job)
    g = member(job, "graph", graph_from_json)
    cochains = [
        _rational_cochain(g, member(job, name), name)
        for name in ("c_omega", "c_eta", "res_omega", "res_eta", "indices")
    ]
    anchor = _resolve_anchor(g, member(job, "anchor", id_from_json, default=None))
    return {"derivative": _fracs(iterated_derivative(*cochains, anchor)), "anchor": str(anchor)}


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
    violation = validate(M)
    if violation is not None:
        raise PreconditionError(violation)
    witness = synderi_check(M, t)
    return {
        "beta": [frac_to_str(v) for v in witness.normal_form.beta],
        "rho": [frac_to_str(v) for v in witness.normal_form.rho],
        "synderi": witness.ok,
    }


# -- argument parsing ----------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use; a subcommand's function is looked up
    by name when it runs (see `run`)."""
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
    p.add_argument("--prec", type=int, default=DEFAULT_PRECISION)
    common(p)

    p = sub.add_parser("graph-project", help="harmonic/coboundary split of a cochain")
    p.add_argument("--graph", required=True)
    p.add_argument("--cochain", required=True)
    p.add_argument("--anchor", default=None)
    common(p)

    p = sub.add_parser("volog-assemble", help="assemble an integral from local data")
    p.add_argument("--job", required=True)
    p.add_argument(
        "--lambda-cap", type=_nonnegative_int, default=DEFAULT_LAMBDA_CAP, dest="lambda_cap"
    )
    common(p)

    p = sub.add_parser("volog-ddlog", help="branch derivative from vertex residues")
    p.add_argument("--graph", required=True)
    p.add_argument("--residues", required=True)
    p.add_argument("--anchor", default=None)
    common(p)

    p = sub.add_parser("volog-iterated", help="branch derivative of a double integral")
    p.add_argument("--job", required=True)
    common(p)

    p = sub.add_parser("height-local", help="discrete local height pairing")
    p.add_argument("--graph", required=True)
    p.add_argument("--D", required=True, dest="D")
    p.add_argument("--E", required=True, dest="E")
    p.add_argument("--anchor", default=None)
    common(p)

    p = sub.add_parser("fpn-split", help="split an extension class into (beta, rho)")
    p.add_argument("--module", required=True)
    p.add_argument("--class", required=True, dest="class_file")
    common(p)

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
        command = globals()["_cmd_" + args.command.replace("-", "_")]
        _emit(command(args), args.output)
    except ParseError as exc:
        _emit({"error": {"type": "parse", "message": str(exc)}}, None)
        return 2
    except PreconditionError as exc:
        _emit({"error": {"type": "precondition", "message": str(exc)}}, None)
        return 3
    except PrecisionOverflow as exc:
        _emit({"error": {"type": "overflow", "message": str(exc)}}, None)
        return 4
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
