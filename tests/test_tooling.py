"""The benchmark's traced entry points and the demo scripts still work, the
library's height_table and fpn-split jobs pass the benchmark's oracle, the
package holds no float and its constructors take none, it imports no
`dataclasses` and every value type keeps the `Record` contract, every helper
in it has a caller, and each schema matches its subcommand's parser and
output."""

import argparse
import ast
import contextlib
import copy
import importlib
import io
import json
import pathlib
import pickle
import random
import subprocess
import sys

import pytest

import vologcalc
import vologcalc.cli  # noqa: F401 -- Tracer.install wraps entry points in every layer
from perfbench import gen
from perfbench.run import GOLDEN, execute, prepare, verify
from perfbench.trace import ENTRY_POINTS, Tracer
from vologcalc import heights
from vologcalc.errors import ParseError
from vologcalc.fpnmod import (
    StTriple,
    change_uniformizer_class,
    ext_to_triple,
    kummer_extension,
    kummer_module,
    module,
    normalize_class,
    synderi_check,
    twist_uniformizer,
    validate,
)
from vologcalc.graphs import (
    Edge,
    VertexFn,
    cycle_graph,
    graph,
    rational_cochain,
    rational_vertex_fn,
    solve_poisson,
)
from vologcalc.linalg import bareiss_factor
from vologcalc.loglaurent import AnnulusForm, LogLaurentFunction
from vologcalc.padic import PadicContext, UniversalScalar, iwasawa_log, make_padic
from vologcalc.record import Record
from vologcalc.volog import CurvatureTerm, EdgeLocalData, LocalColemanData, assemble

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_trace_entry_points_resolve():
    for module, function in ENTRY_POINTS:
        mod = importlib.import_module(f"vologcalc.{module}")
        assert callable(getattr(mod, function, None)), f"vologcalc.{module}.{function}"


def test_tracer_sees_every_poisson_solve():
    g = cycle_graph(6)
    D = heights.divisor([("P", 1, 0), ("Q", -1, 3)])
    E = heights.divisor([("R", 1, 1), ("S", -1, 4)])
    tracer = Tracer(vologcalc)
    tracer.install()
    try:
        for _ in range(3):
            heights.discrete_height(g, D, E, 2)
    finally:
        tracer.uninstall()
    assert tracer.calls["graphs.solve_poisson"] == tracer.calls["linalg.bareiss_solve"] == 3
    assert tracer.repeat_solves == 2


def test_padic_replay_work_follows_the_factor_nonzeros():
    """One Poisson solve of branch-polynomial data on a relabelled 8x8 grid
    costs at most 5 scalar ops per nonzero multiplier, 2 per nonzero
    off-diagonal entry of the eliminated matrix and 4 per vertex. A replay
    that touches every multiplier and every upper entry costs about 3.5 times
    that bound here."""
    rng = random.Random(88)
    perm = list(range(64))
    rng.shuffle(perm)
    edges = [(f"h{i}", perm[i], perm[i + 1]) for i in range(64) if i % 8 < 7]
    edges += [(f"v{i}", perm[i], perm[i + 8]) for i in range(56)]
    g = graph(range(64), edges)
    values = {
        v: UniversalScalar.of(
            [make_padic(5, rng.randint(1, 5**8), rng.choice([1, 5]), 12) for _ in range(2)]
        )
        for v in g.vertices[1:]
    }
    total = 0
    for x in values.values():
        total = total + x
    values[g.vertices[0]] = -total
    anchor = g.vertices[rng.randrange(64)]
    factor = g.reduced_laplacian_factor(anchor)
    multipliers = sum(f != 0 for *_, factors in factor.steps for f in factors)
    upper = sum(x != 0 for i, row in enumerate(factor.upper) for x in row[i + 1 :])
    tracer = Tracer(vologcalc)
    tracer.install()
    try:
        solve_poisson(VertexFn(g, values), anchor)
    finally:
        tracer.uninstall()
    assert tracer.calls["linalg.bareiss_solve"] == 1
    assert tracer.ops["padic.scalar_ops"] <= 5 * multipliers + 2 * upper + 4 * 64


def test_log_split_modules_are_valid(tmp_path):
    """fpn-split validates its module, so every module template of the
    log_split workload must pass validate(); and the fpn-split jobs of one
    round pass the benchmark's exact oracle and coboundary-pair check."""
    rng = random.Random(11)
    for case, dim in gen.FPN_TEMPLATES:
        mod, _, _ = gen.fpn_module(rng, case, dim, rng.choice((3, 5, 7)))
        M = module(mod["p"], mod["phi"], mod["N"], mod["weights"], mod["f0"], mod["iso"])
        assert validate(M) is None, (case, dim)
    jobs = [job for job in gen.log_split_round(11, 0, str(tmp_path)) if job.kind == "fpn-split"]
    assert len(jobs) == 32
    prepare(jobs, vologcalc)
    verdicts = verify(jobs, [execute(job, vologcalc) for job in jobs], None)
    assert [i for i, v in enumerate(verdicts) if not v.ok] == []


@pytest.mark.parametrize("seed", [11, 5])
def test_height_table_round_passes_the_benchmark_oracle(seed, tmp_path):
    """Round 0 of the height_table workload, run and checked the way the
    benchmark does: height tables, ddlog rows and iterated rows, each against
    the benchmark's exact Poisson oracle."""
    jobs = gen.height_round(seed, 0, str(tmp_path))
    assert len(jobs) == 14
    assert {job.kind for job in jobs} == {"height-table", "ddlog-row", "iterated-row"}
    prepare(jobs, vologcalc)
    verdicts = verify(jobs, [execute(job, vologcalc) for job in jobs], None)
    assert [i for i, v in enumerate(verdicts) if not v.ok] == []


# Float-valued math names that must not reach the exact core. math.inf stays
# allowed: it is the sentinel valuation and absolute precision of the exact
# zero, compared with integers and never computed with.
FLOAT_MATH = {"log", "log2", "log10", "log1p", "sqrt", "exp", "expm1", "pow", "e", "pi", "nan"}


def test_no_float_in_the_package():
    found = []
    for path in sorted((ROOT / "src" / "vologcalc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{where} float literal {node.value!r}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append(f"{where} float(...)")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "math" and node.attr in FLOAT_MATH):
                found.append(f"{where} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{where} from math import {a.name}" for a in node.names if a.name in FLOAT_MATH]
    assert not found, found


def test_no_dataclasses_in_the_package():
    """The value types are `Record`s: `dataclasses` (and the `inspect` it
    imports) would cost most of the CLI's start-up."""
    found = []
    for path in sorted((ROOT / "src" / "vologcalc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] == "dataclasses"]
    assert not found, found


def test_cli_import_loads_no_dataclasses_or_inspect():
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import vologcalc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def _value_types():
    """One fresh value of each value type of the package, by class name."""
    ctx = PadicContext(5, 12)
    g = cycle_graph(3)
    ones = rational_cochain(g, {"e0": 1, "e1": 1, "e2": 1})
    data = LocalColemanData(g, ctx, tuple(EdgeLocalData(e.id, raw_c=ctx.scalar(1, 2)) for e in g.edges))
    ext, A, B = kummer_extension(5, 1, 1)
    M, t = ext.base, ext_to_triple(ext, A, B)
    D = heights.divisor([("P", 1, 0), ("Q", -1, 2)], {("P", "R"): 1})
    values = [
        make_padic(5, 7, 3, 10),
        iwasawa_log(make_padic(5, 50, 7, 9)),
        ctx,
        AnnulusForm(ctx, {0: ctx.scalar(1), 2: ctx.scalar(3)}),
        LogLaurentFunction(ctx, {(0, 1): ctx.scalar(1), (1, 0): ctx.scalar(0, 2)}, 6, True),
        Edge("e0", 0, 1),
        g,
        rational_vertex_fn(g, {0: 1, 1: -1, 2: 0}),
        ones,
        bareiss_factor([[2, -1], [-1, 2]]),
        D.points[0],
        D,
        data.edges[0],
        data,
        assemble(data),
        CurvatureTerm(c_omega=ones, c_eta=ones, res_omega=ones, res_eta=ones, indices=ones),
        M,
        t,
        ext,
        normalize_class(M, t),
        synderi_check(M, t),
    ]
    return {type(v).__name__: v for v in values}


VALUE_TYPES = _value_types()
# The value types that hash: equal values must hash equal.
HASHABLE = ("DivisorPoint", "DualGraph", "Edge", "FpnModule", "PadicContext", "StTriple")


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_are_immutable_records(name):
    """Fields can be neither assigned nor deleted; keyword construction from
    the fields gives an equal value, and a wrong field count a TypeError;
    copy, deepcopy and pickle (every protocol) give an equal value; repr
    shows the compared fields only, and equal values of a hashable type hash
    equal."""
    value = VALUE_TYPES[name]
    cls = type(value)
    for field in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    given = [f for f in cls._fields if f != "connected"]  # a graph derives `connected`
    again = cls(**{f: getattr(value, f) for f in given})
    assert again == value
    with pytest.raises(TypeError):
        cls(*(getattr(value, f) for f in given), None)
    with pytest.raises(TypeError):
        cls()
    pickled = [pickle.loads(pickle.dumps(value, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(value), copy.deepcopy(value), *pickled):
        assert type(twin) is cls and twin == value
    if cls.__repr__ is Record.__repr__:
        shown = ", ".join(f"{f}={getattr(value, f)!r}" for f in cls._fields)
        assert repr(value) == f"{name}({shown})"
    if name in HASHABLE:
        assert hash(again) == hash(value)


# Trees whose code may call into the package.
CALLERS = ("src", "tests", "scripts", "perfbench")


def _references():
    """Attribute names, plain and imported names, and string constants used
    anywhere in the CALLERS trees."""
    attrs, names, strings = set(), set(), set()
    for top in CALLERS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    strings.add(node.value)
    return attrs, names, strings


def test_every_helper_has_a_caller():
    """Each method of a package class is used as an attribute or named in a
    string (dunders are called by the language), and each module-level
    function is used by name, by import or as an attribute. `_cmd_*` are
    exempt: `cli.run` dispatches them by name."""
    attrs, names, strings = _references()
    functions_used, methods_used = names | attrs, attrs | strings
    dead = []
    for path in sorted((ROOT / "src" / "vologcalc").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_cmd_") and node.name not in functions_used:
                    dead.append(f"{path.name}: {node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))
                            and item.name not in methods_used):
                        dead.append(f"{path.name}: {node.name}.{item.name}")
    assert not dead, dead


def _kummer_triple():
    ext, A, B = kummer_extension(5, 1, 1)
    return ext_to_triple(ext, A, B)


# Each library constructor that takes a rational or an integer, called with
# the number x in one position.
CONSTRUCTORS = {
    "module weights": lambda x: module(5, [[1]], [[0]], [x]),
    "module phi": lambda x: module(5, [[x]], [[0]], [-2]),
    "module f0": lambda x: module(5, [[1]], [[0]], [-2], f0=[[x]]),
    "rational_cochain": lambda x: rational_cochain(cycle_graph(3), {"e0": x, "e1": 0, "e2": 0}),
    "rational_vertex_fn": lambda x: rational_vertex_fn(cycle_graph(3), {0: x, 1: 0, 2: 0}),
    "divisor horizontal": lambda x: heights.divisor([("a", 1, 0), ("b", -1, 0)], {("a", "x"): x}),
    "divisor multiplicity": lambda x: heights.divisor([("a", x, 0), ("b", -1, 0)]),
    "PadicContext.scalar": lambda x: PadicContext(5).scalar(x),
    "PadicContext prec": lambda x: PadicContext(5, x).scalar(1),
    "PadicContext lambda_cap": lambda x: PadicContext(5, 20, x).scalar(1),
    "make_padic numerator": lambda x: make_padic(5, x, 3, 4),
    "make_padic denominator": lambda x: make_padic(5, 1, x, 4),
    "make_padic precision": lambda x: make_padic(5, 1, 3, x),
    "kummer_extension beta": lambda x: kummer_extension(5, x, 1),
    "ext_to_triple A": lambda x: ext_to_triple(kummer_extension(5, 1, 1)[0], (x, 1), (1, 1)),
    "change_uniformizer_class ell": lambda x: change_uniformizer_class(_kummer_triple(), x, kummer_module(5)),
    "twist_uniformizer ell": lambda x: twist_uniformizer(kummer_module(5), x),
    "StTriple x": lambda x: StTriple((x,), (0,), (0,)),
    "StTriple y": lambda x: StTriple((0,), (x,), (0,)),
    "StTriple z": lambda x: StTriple((0,), (0,), (x,)),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_library_constructors_take_no_float_or_bool(name):
    for value in (0.5, -2.7, True):
        with pytest.raises(ParseError):
            CONSTRUCTORS[name](value)
    CONSTRUCTORS[name](1)  # the same call with an exact number succeeds


SCHEMAS = ROOT / "src" / "vologcalc" / "schemas"


def _subcommands():
    parser = vologcalc.cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_schemas_match_the_parser_and_the_outputs():
    """Each schema lists its subcommand's options (less --schema and
    --output) as `flags`, and the top-level keys of the command's output,
    taken from its goldens or, for padic-log, from the README example."""
    commands = _subcommands()
    assert sorted(p.stem for p in SCHEMAS.glob("*.json")) == sorted(commands)
    outputs = {}
    for argv, name in GOLDEN:
        outputs.setdefault(argv[0], []).append((ROOT / "fixtures" / "golden" / name).read_text())
    example = next(
        line.split()[1:] for line in (ROOT / "README.md").read_text().splitlines()
        if line.startswith("vologcalc padic-log ")
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert vologcalc.cli.run(example) == 0
    outputs["padic-log"] = [out.getvalue()]
    for command, parser in commands.items():
        schema = json.loads((SCHEMAS / f"{command}.json").read_text())
        options = {
            opt for a in parser._actions for opt in a.option_strings if opt.startswith("--")
        }
        assert set(schema["flags"]) == options - {"--help", "--schema", "--output"}, command
        assert outputs[command], command
        for text in outputs[command]:
            assert set(schema["output"]) == set(json.loads(text)), command


def test_demo_scripts_run():
    for args in (["tate_ngon_table.py", "12"], ["branch_derivative_demo.py"]):
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "MISMATCH" not in result.stdout
