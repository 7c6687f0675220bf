import contextlib
import io
import json
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perfbench.run import GOLDEN as BENCHMARK_GOLDEN
from vologcalc import cli
from vologcalc.cli import run
from vologcalc.fpnmod import module_from_json, validate
from vologcalc.padic import max_exponent

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"
SCHEMAS = ROOT / "src" / "vologcalc" / "schemas"


def run_cli(args, capsys):
    code = run(args)
    return code, capsys.readouterr().out


def golden(name):
    return (GOLDEN / name).read_text()


# golden file -> its command, fixture files named relative to fixtures/; the
# benchmark replays the same table before it times anything
GOLDEN_ARGV = {name: argv for argv, name in BENCHMARK_GOLDEN}
for _case in (1, 2):
    GOLDEN_ARGV.setdefault(
        f"fpn_case{_case}.json",
        ["fpn-split", "--module", f"fpn_case{_case}_module.json",
         "--class", f"fpn_case{_case}_class.json"],
    )
GOLDEN_ARGV.setdefault("assemble_grid5.json", ["volog-assemble", "--job", "job_assemble_grid5.json"])

# top-level output keys that a golden fixes, checked on the decoded output too
GOLDEN_FACTS = {
    "project_tree.json": {"harmonic": {"e0": "0", "e1": "0", "e2": "0"}},
    "project_cycle3.json": {"harmonic": {"e0": "1/3", "e1": "1/3", "e2": "1/3"}},
    "ddlog_cycle3.json": {"derivative": {"v0": "1/3", "v1": "-1/3", "v2": "0"}},
    "height_cycle4.json": {"value": "1/2"},
    "fpn_kummer.json": {"beta": ["7/2"], "rho": ["1"], "synderi": True},
    "fpn_case1.json": {"synderi": True},
    "fpn_case2.json": {"synderi": True},
    "assemble_grid5.json": {"anchor": "v14"},
}


def fixture_argv(argv):
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_golden_output(name, capsys):
    """fpn_case1 and fpn_case2 are modules from perfbench.gen at a fixed seed:
    dimension 6 with weights -2, -4 and 2 and a two-row F^0, and dimension 4
    with weights 0 and -2 and N an isomorphism between them. assemble_grid5
    is a perfbench.gen assemble job on a relabelled 5x5 grid at p = 3 with
    20-digit inputs, L-degree 2 and anchor v14; its output passes
    `oracle.check_assemble`, and it pins the p-adic Poisson solve's digits,
    deferred scales and zero precisions on a 24 x 24 reduced Laplacian."""
    code, out = run_cli(fixture_argv(GOLDEN_ARGV[name]), capsys)
    assert code == 0
    assert out == golden(name)
    facts = GOLDEN_FACTS.get(name, {})
    payload = json.loads(out)
    assert {key: payload[key] for key in facts} == facts


def test_every_golden_file_has_a_command():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(GOLDEN_ARGV)


def test_padic_log_example(capsys):
    code, out = run_cli(["padic-log", "--p", "5", "--num", "10", "--den", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["val"] == 1
    assert payload["lambda_coeff"] == 1


def test_padic_log_of_zero_exits_3(capsys):
    code, out = run_cli(["padic-log", "--p", "5", "--num", "0"], capsys)
    assert code == 3
    assert json.loads(out) == {
        "error": {"type": "precondition", "message": "logarithm of zero"}
    }


def test_padic_log_precision_flag(capsys):
    code, out = run_cli(["padic-log", "--p", "5", "--num", "3", "--prec", "7"], capsys)
    assert code == 0
    coeff = json.loads(out)["log"]["coeffs"][0]
    # log of a unit is known modulo p^N for the given N
    assert coeff["val"] + coeff["prec"] == 7


@pytest.mark.parametrize("prec", [5, 40, 0, "x"])
def test_volog_assemble_forms_golden_at_any_job_precision(prec, capsys, tmp_path):
    """A job's `prec` is not read: the digits of the output are those of the
    inputs, so the golden holds whatever the field says."""
    job = json.loads((FIXTURES / "job_assemble_forms.json").read_text())
    job["prec"] = prec
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out = run_cli(["volog-assemble", "--job", str(path)], capsys)
    assert code == 0
    assert out == golden("assemble_forms.json")


def test_height_local_alias(capsys):
    code, out = run_cli(
        ["height", "local", "--graph", str(FIXTURES / "cycle4.json"),
         "--D", str(FIXTURES / "divisor_D.json"), "--E", str(FIXTURES / "divisor_E.json")],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/2"


def test_fpn_split_alias(capsys):
    code, out = run_cli(
        ["fpn", "split", "--module", str(FIXTURES / "kummer_module.json"),
         "--class", str(FIXTURES / "kummer_class.json")],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["synderi"] is True


def test_fpn_split_rejects_class_of_wrong_dimension(capsys, tmp_path):
    for name, triple in (
        ("long_y", {"x": ["0"], "y": ["1", "2"], "z": ["7/2"]}),
        ("empty", {"x": [], "y": [], "z": []}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(triple))
        code, out = run_cli(
            ["fpn-split", "--module", str(FIXTURES / "kummer_module.json"),
             "--class", str(path)],
            capsys,
        )
        assert code == 3, name
        assert json.loads(out)["error"]["type"] == "precondition"


# one module per identity that fpnmod.validate checks, each breaking only it
FPN_VIOLATIONS = (
    ("monodromy-Frobenius relation fails",
     {"p": 5, "weights": [0, -2], "phi": [["1", "0"], ["0", "1"]], "N": [["0", "0"], ["1", "0"]]}),
    ("monodromy does not lower weight by 2",
     {"p": 5, "weights": [0, -2], "phi": [["1/25", "0"], ["0", "1/5"]],
      "N": [["0", "1"], ["0", "0"]]}),
    ("Frobenius does not preserve the weight grading",
     {"p": 5, "weights": [-2, 2], "phi": [["1/5", "1"], ["0", "3"]], "N": [["0", "0"], ["0", "0"]]}),
    ("phi - 1 is singular on the weight 2 summand",
     {"p": 5, "weights": [2], "phi": [["1"]], "N": [["0"]]}),
    ("phi - 1 is singular on the weight -2 summand",
     {"p": 5, "weights": [-2], "phi": [["1"]], "N": [["0"]]}),
    ("Frobenius is singular", {"p": 5, "weights": [0], "phi": [["0"]], "N": [["0"]]}),
    ("comparison map is singular",
     {"p": 5, "weights": [-2], "phi": [["1/5"]], "N": [["0"]], "iso": [["0"]]}),
)


def test_fpn_split_rejects_modules_that_break_an_identity(capsys, tmp_path):
    """fpn-split checks its module before splitting: a module that breaks one
    identity exits 3 with validate()'s message."""
    for i, (message, mod) in enumerate(FPN_VIOLATIONS):
        zero = ["0"] * len(mod["weights"])
        argv = ["fpn-split", "--module", _write(tmp_path, f"m{i}.json", mod),
                "--class", _write(tmp_path, f"c{i}.json", {"x": zero, "y": zero, "z": zero})]
        code, out = run_cli(argv, capsys)
        error = json.loads(out)["error"]
        assert (code, error["type"]) == (3, "precondition"), message
        assert error["message"].startswith(message)
        assert error["message"] == validate(module_from_json(mod))


def test_precision_flag_is_bounded(capsys):
    """--prec is bounded like a JSON exponent of p, so a huge value exits 3 at
    once, naming the flag, instead of running a long logarithm series."""
    for value in ("0", "20000"):
        start = time.perf_counter()
        code, out = run_cli(["padic-log", "--p", "5", "--num", "3", "--prec", value], capsys)
        assert time.perf_counter() - start < 1.0
        message = json.loads(out)["error"]["message"]
        assert code == 3 and "'--prec'" in message, message
        assert f"from 1 to {max_exponent(5)}, got {value}" in message, message


def test_deterministic_output(capsys):
    args = ["volog-iterated", "--job", str(FIXTURES / "job_iterated_3cycle.json")]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = run_cli(
        ["padic-log", "--p", "5", "--num", "10", "--den", "1", "--output", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["val"] == 1


def test_schema_flag(capsys):
    files = sorted(SCHEMAS.glob("*.json"))
    assert [f.stem for f in files] == sorted(
        ["padic-log", "graph-project", "volog-assemble", "volog-ddlog",
         "volog-iterated", "height-local", "fpn-split"]
    )
    for path in files:
        code, out = run_cli([path.stem, "--schema"], capsys)
        assert code == 0
        assert out.encode("utf-8") == path.read_bytes()


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run_cli(
        ["graph-project", "--graph", str(bad), "--cochain", str(bad)], capsys
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "parse"


def test_exit_code_precondition(tmp_path, capsys):
    # degree violation in a divisor
    bad = tmp_path / "divisor.json"
    bad.write_text(json.dumps({"points": [{"label": "P", "multiplicity": 1, "component": "v0"}]}))
    code, out = run_cli(
        ["height-local", "--graph", str(FIXTURES / "cycle4.json"),
         "--D", str(bad), "--E", str(FIXTURES / "divisor_E.json")],
        capsys,
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "precondition"


def test_ddlog_unbalanced_residues_exit_3(tmp_path, capsys):
    residues = tmp_path / "residues.json"
    residues.write_text(json.dumps({"values": {"v0": "1", "v1": "0", "v2": "0"}}))
    code, out = run_cli(
        ["volog-ddlog", "--graph", str(FIXTURES / "cycle3.json"),
         "--residues", str(residues)],
        capsys,
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "precondition"


def test_iterated_inconsistent_data_exit_3(tmp_path, capsys):
    job = json.loads((FIXTURES / "job_iterated_3cycle.json").read_text())
    # the index flux always cancels; an unbalanced residue product does not
    job["res_omega"]["values"]["e0"] = "2"
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out = run_cli(["volog-iterated", "--job", str(path)], capsys)
    assert code == 3
    assert json.loads(out)["error"]["type"] == "precondition"


def test_assemble_infers_prime(tmp_path, capsys):
    job = json.loads((FIXTURES / "job_assemble_cycle3.json").read_text())
    del job["p"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out = run_cli(["volog-assemble", "--job", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == json.loads(golden("assemble_cycle3.json"))


def _cycle3_job():
    return json.loads((FIXTURES / "job_assemble_cycle3.json").read_text())


def _run_assemble(tmp_path, capsys, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out = run_cli(["volog-assemble", "--job", str(path)], capsys)
    return code, json.loads(out)


def test_repeated_keys_in_input_lists_exit_3(tmp_path, capsys):
    """A repeated edge id or horizontal pairing is rejected, not silently
    replaced by its last entry."""
    job = _cycle3_job()
    again = json.loads(json.dumps(job["edges"][0]))
    again["raw_c"]["coeffs"][1]["unit"] = "2"
    job["edges"].append(again)
    code, out = _run_assemble(tmp_path, capsys, job)
    assert code == 3
    assert out["error"]["message"] == "edge data lists edge 'e0' twice"

    D = json.loads((FIXTURES / "divisor_D.json").read_text())
    D["horizontal_pairings"] = [{"own": "O", "other": "Oprime", "value": v} for v in ("1", "7")]
    code, out = run_cli(
        ["height-local", "--graph", str(FIXTURES / "cycle4.json"), "--D",
         _write(tmp_path, "D.json", D), "--E", str(FIXTURES / "divisor_E.json")],
        capsys,
    )
    assert code == 3
    assert json.loads(out)["error"]["message"] == (
        "horizontal_pairings[1]: horizontal pairing 'O'/'Oprime' is listed twice"
    )


def _with_anchor(tmp_path, name, anchor):
    job = json.loads((FIXTURES / name).read_text())
    job["anchor"] = anchor
    return _write(tmp_path, name, job)


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["graph-project", "--graph", str(FIXTURES / "cycle3.json"),
                     "--cochain", str(FIXTURES / "cycle3_cochain.json"), "--anchor", "zz"],
        lambda tmp: ["volog-ddlog", "--graph", str(FIXTURES / "cycle3.json"),
                     "--residues", str(FIXTURES / "cycle3_residues.json"), "--anchor", "zz"],
        lambda tmp: ["height-local", "--graph", str(FIXTURES / "cycle4.json"), "--D",
                     str(FIXTURES / "divisor_D.json"), "--E", str(FIXTURES / "divisor_E.json"),
                     "--anchor", "zz"],
        lambda tmp: ["volog-assemble", "--job", _with_anchor(tmp, "job_assemble_cycle3.json", "zz")],
        lambda tmp: ["volog-iterated", "--job", _with_anchor(tmp, "job_iterated_3cycle.json", "zz")],
    ],
    ids=["graph-project", "volog-ddlog", "height-local", "volog-assemble", "volog-iterated"],
)
def test_a_missing_anchor_exits_3_on_every_route(argv, tmp_path, capsys):
    code, out = run_cli(argv(tmp_path), capsys)
    assert code == 3
    assert json.loads(out) == {
        "error": {"type": "precondition", "message": "anchor 'zz' is not a vertex"}
    }


def test_padic_json_fields_must_be_integers(tmp_path, capsys):
    """A float (or boolean) p-adic field is rejected, never truncated."""
    for field, value in (("unit", 1.5), ("unit", "1.5"), ("val", 0.0), ("prec", 12.9),
                         ("p", 5.0), ("prec", True), ("unit", None)):
        job = _cycle3_job()
        job["edges"][0]["raw_c"]["coeffs"][1][field] = value
        code, payload = _run_assemble(tmp_path, capsys, job)
        assert code == 2, (field, value)
        assert payload["error"]["type"] == "parse"
        assert repr(field) in payload["error"]["message"]
    job = _cycle3_job()
    job["p"] = "5.0"
    code, payload = _run_assemble(tmp_path, capsys, job)
    assert code == 2 and "'p'" in payload["error"]["message"]
    # integer strings and JSON integers both decode to the golden
    job = _cycle3_job()
    for entry in job["edges"]:
        for c in entry["raw_c"]["coeffs"]:
            c.update(p="5", val="0", prec="12", unit=int(c["unit"]))
    code, payload = _run_assemble(tmp_path, capsys, job)
    assert code == 0
    assert payload == json.loads(golden("assemble_cycle3.json"))


def test_padic_json_rejects_non_prime(tmp_path, capsys):
    for top_level in (None, 4):
        job = _cycle3_job()
        for entry in job["edges"]:
            for c in entry["raw_c"]["coeffs"]:
                c["p"] = 4
        del job["p"]
        if top_level is not None:
            job["p"] = top_level
        code, payload = _run_assemble(tmp_path, capsys, job)
        assert code == 3
        assert payload["error"] == {"type": "precondition", "message": "4 is not prime"}


def test_empty_scalar_exits_3(tmp_path, capsys):
    job = _cycle3_job()
    job["edges"][0]["raw_c"] = {"coeffs": []}
    code, payload = _run_assemble(tmp_path, capsys, job)
    assert code == 3
    assert payload["error"]["type"] == "precondition"


def test_rational_json_rejects_floats(tmp_path, capsys):
    residues = tmp_path / "residues.json"
    for value in (1.5, 1.0, True, None):
        residues.write_text(json.dumps({"values": {"v0": value, "v1": "-1", "v2": "0"}}))
        code, out = run_cli(
            ["volog-ddlog", "--graph", str(FIXTURES / "cycle3.json"),
             "--residues", str(residues)],
            capsys,
        )
        assert code == 2, value
        assert json.loads(out)["error"]["type"] == "parse"
    # JSON integers and rational strings stay exact
    residues.write_text(json.dumps({"values": {"v0": 1, "v1": "-2/2", "v2": "0"}}))
    code, out = run_cli(
        ["volog-ddlog", "--graph", str(FIXTURES / "cycle3.json"),
         "--residues", str(residues), "--anchor", "v2"],
        capsys,
    )
    assert code == 0
    assert out == golden("ddlog_cycle3.json")


def test_exit_code_overflow(tmp_path, capsys):
    # a raw value of branch degree 6 cannot enter a cap-4 computation; a
    # residue a_0 of degree 4 can, and the annulus jump's a_0 * L has degree 5
    one = {"p": 5, "val": 0, "unit": "1", "prec": 6}
    zero = {"coeffs": [{"p": 5, "val": 0, "unit": "0", "prec": 6}]}
    deep = {"raw_c": {"coeffs": [one] * 7}}
    jump = {"form": {"coeffs": {"0": {"coeffs": [one] * 5}}}, "C_tail": zero, "C_head": zero}
    for edge, degree in ((deep, 6), (jump, 5)):
        job = {
            "p": 5,
            "graph": json.loads((FIXTURES / "cycle3.json").read_text()),
            "edges": [{"id": "e0", **edge}] + [{"id": f"e{i}", "raw_c": zero} for i in (1, 2)],
        }
        code, out = _run_assemble(tmp_path, capsys, job)
        assert code == 4
        assert out["error"] == {
            "type": "overflow",
            "message": f"branch-parameter degree {degree} exceeds the configured cap 4",
        }


def test_unknown_subcommand_exits_2(capsys):
    code, _ = run_cli(["no-such-command"], capsys)
    assert code == 2


def test_console_script_entry():
    result = subprocess.run(
        [sys.executable, "-m", "vologcalc", "padic-log", "--p", "7", "--num", "49", "--den", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["val"] == 2


def test_decoders_reject_floats_and_name_the_json_path(tmp_path, capsys):
    """Every decoder reads its values through the jsonutil readers: a wrong
    type exits 2 and names the path, an out-of-range value exits 3."""
    module = json.loads((FIXTURES / "kummer_module.json").read_text())
    divisor = json.loads((FIXTURES / "divisor_D.json").read_text())
    divisor["points"][0]["multiplicity"] = 1.5
    divisor["points"][1]["multiplicity"] = -1.5
    raw_list, no_coeffs = _cycle3_job(), _cycle3_job()
    raw_list["edges"][0]["raw_c"] = [1]
    del no_coeffs["edges"][0]["raw_c"]["coeffs"]

    def fpn(tag, mod, cls=json.loads((FIXTURES / "kummer_class.json").read_text())):
        return ["fpn-split", "--module", _write(tmp_path, f"m_{tag}.json", mod),
                "--class", _write(tmp_path, f"c_{tag}.json", cls)]

    cases = (
        (fpn("float", module, {"x": [1.5], "y": [0.1], "z": [3.5]}), 2,
         "x[0]: expected a rational"),
        (fpn("p57", {**module, "p": 5.7}), 2, "field 'p': expected an integer"),
        (fpn("p6", {**module, "p": 6}), 3, "6 is not prime"),
        (["height-local", "--graph", str(FIXTURES / "cycle4.json"),
          "--D", _write(tmp_path, "d.json", divisor), "--E", str(FIXTURES / "divisor_E.json")],
         2, "field 'multiplicity' of points[0]: expected an integer"),
        (["graph-project", "--graph", _write(tmp_path, "g.json", {"vertices": "ab", "edges": []}),
          "--cochain", str(FIXTURES / "tree_cochain.json")],
         2, "field 'vertices': expected a list"),
        (["volog-assemble", "--job", _write(tmp_path, "j1.json", raw_list)],
         2, "field 'raw_c' of edges[0]: expected an object"),
        (["volog-assemble", "--job", _write(tmp_path, "j2.json", no_coeffs)],
         2, "field 'coeffs' of edges[0].raw_c: missing"),
    )
    for argv, code, message in cases:
        got, out = run_cli(argv, capsys)
        error = json.loads(out)["error"]
        assert (got, error["type"]) == (code, {2: "parse", 3: "precondition"}[code]), argv
        assert error["message"].startswith(message), error["message"]


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_unreadable_job_file_exits_2(tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes(b'{"p": "\xe9"}')
    for path in (tmp_path, tmp_path / "latin1.json", tmp_path / "missing.json"):
        code, out = run_cli(["volog-assemble", "--job", str(path)], capsys)
        error = json.loads(out)["error"]
        assert (code, error["type"]) == (2, "parse")
        assert str(path) in error["message"]


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code, out = run_cli(
        ["padic-log", "--p", "5", "--num", "3", "--output", str(target)], capsys
    )
    error = json.loads(out)["error"]
    assert (code, error["type"]) == (2, "parse")
    assert str(target) in error["message"]


def test_volog_assemble_takes_no_branch_cap_flag(capsys):
    """The branch-degree cap is the constant `padic.LAMBDA_CAP`, not a flag."""
    code = run(["volog-assemble", "--job", str(FIXTURES / "job_assemble_cycle3.json"),
                "--lambda-cap", "4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "unrecognized arguments: --lambda-cap 4" in captured.err


def test_errors_outside_the_input_contract_are_not_mapped(monkeypatch):
    """Only ParseError, PreconditionError and PrecisionOverflow become error
    objects; anything else is a bug and propagates."""
    def broken(args):
        raise TypeError("a bug, not an input error")

    monkeypatch.setattr(cli, "_cmd_padic_log", broken)
    with pytest.raises(TypeError):
        run(["padic-log", "--p", "5", "--num", "3"])


# -- fixture mutations ---------------------------------------------------------

INSERTED = (1.5, True, None, -3, 10**12, 2**64 + 1, 3215031751)  # the last a strong pseudoprime


def _json_paths(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _json_paths(child, path + (key,))


@st.composite
def mutated_runs(draw):
    argv = list(draw(st.sampled_from(sorted(GOLDEN_ARGV.values()))))
    slot = draw(st.sampled_from([i for i, a in enumerate(argv) if a.endswith(".json")]))
    doc = json.loads((FIXTURES / argv[slot]).read_text())
    path = draw(st.sampled_from(list(_json_paths(doc))))
    mutations = ["insert"] + (["drop"] if path else [])
    *parent_path, last = path or (None,)
    parent = doc
    for key in parent_path:
        parent = parent[key]
    value = parent[last] if path else doc
    if isinstance(value, list):
        mutations.append("unwrap")
    elif not isinstance(value, dict):
        mutations.append("wrap")
    mutation = draw(st.sampled_from(mutations))
    if mutation == "drop":
        del parent[last]
        return argv, slot, doc, False
    if mutation == "insert":
        new = draw(st.sampled_from(INSERTED))
    else:
        new = [value] if mutation == "wrap" else value[0] if value else 0
    if path:
        parent[last] = new
    else:
        doc = new
    return argv, slot, doc, isinstance(new, float)


@given(mutated_runs())
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_fixtures_never_crash(tmp_path_factory, case):
    """Drop a key or list element, insert a float, bool, null, negative or
    large composite, or change a scalar into a list and back, anywhere in the
    input of a golden command: the CLI exits 0, 2, 3 or 4 with a JSON object,
    and an inserted float is never read as a number."""
    argv, slot, doc, float_inserted = case
    argv = fixture_argv(argv)
    argv[slot] = _write(tmp_path_factory.mktemp("mutated"), "input.json", doc)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    assert code in (0, 2, 3, 4)
    assert isinstance(json.loads(buf.getvalue()), dict)
    if float_inserted:
        assert code != 0
