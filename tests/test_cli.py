import json
import pathlib
import subprocess
import sys

from vologcalc.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"
SCHEMAS = ROOT / "src" / "vologcalc" / "schemas"


def run_cli(args, capsys, env=None):
    import os

    saved = dict(os.environ)
    try:
        if env:
            os.environ.update(env)
        code = run(args)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    out = capsys.readouterr().out
    return code, out


def golden(name):
    return (GOLDEN / name).read_text()


def test_padic_log_example(capsys):
    code, out = run_cli(["padic-log", "--p", "5", "--num", "10", "--den", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["val"] == 1
    assert payload["lambda_coeff"] == 1


def test_padic_log_env_precision(capsys):
    code, out = run_cli(
        ["padic-log", "--p", "5", "--num", "3", "--den", "1"],
        capsys,
        env={"VOLOG_PRECISION": "7"},
    )
    assert code == 0
    payload = json.loads(out)
    coeff = payload["log"]["coeffs"][0]
    # log of a unit is known modulo p^N for the overridden N
    assert coeff["val"] + coeff["prec"] == 7


def test_graph_project_tree_golden(capsys):
    code, out = run_cli(
        ["graph-project", "--graph", str(FIXTURES / "tree.json"),
         "--cochain", str(FIXTURES / "tree_cochain.json")],
        capsys,
    )
    assert code == 0
    assert out == golden("project_tree.json")
    payload = json.loads(out)
    assert all(v == "0" for v in payload["harmonic"].values())


def test_graph_project_cycle_golden(capsys):
    code, out = run_cli(
        ["graph-project", "--graph", str(FIXTURES / "cycle3.json"),
         "--cochain", str(FIXTURES / "cycle3_cochain.json"), "--anchor", "v2"],
        capsys,
    )
    assert code == 0
    assert out == golden("project_cycle3.json")
    payload = json.loads(out)
    assert payload["harmonic"] == {"e0": "1/3", "e1": "1/3", "e2": "1/3"}


def test_volog_assemble_golden(capsys):
    code, out = run_cli(
        ["volog-assemble", "--job", str(FIXTURES / "job_assemble_cycle3.json")], capsys
    )
    assert code == 0
    assert out == golden("assemble_cycle3.json")


def test_volog_assemble_forms_golden(capsys):
    code, out = run_cli(
        ["volog-assemble", "--job", str(FIXTURES / "job_assemble_forms.json")], capsys
    )
    assert code == 0
    assert out == golden("assemble_forms.json")


def test_volog_ddlog_golden(capsys):
    code, out = run_cli(
        ["volog-ddlog", "--graph", str(FIXTURES / "cycle3.json"),
         "--residues", str(FIXTURES / "cycle3_residues.json"), "--anchor", "v2"],
        capsys,
    )
    assert code == 0
    assert out == golden("ddlog_cycle3.json")
    assert json.loads(out)["derivative"] == {"v0": "1/3", "v1": "-1/3", "v2": "0"}


def test_volog_iterated_golden(capsys):
    code, out = run_cli(
        ["volog-iterated", "--job", str(FIXTURES / "job_iterated_3cycle.json")], capsys
    )
    assert code == 0
    assert out == golden("iterated_3cycle.json")


def test_height_local_golden(capsys):
    code, out = run_cli(
        ["height-local", "--graph", str(FIXTURES / "cycle4.json"),
         "--D", str(FIXTURES / "divisor_D.json"), "--E", str(FIXTURES / "divisor_E.json")],
        capsys,
    )
    assert code == 0
    assert out == golden("height_cycle4.json")
    assert json.loads(out)["value"] == "1/2"


def test_height_local_alias(capsys):
    code, out = run_cli(
        ["height", "local", "--graph", str(FIXTURES / "cycle4.json"),
         "--D", str(FIXTURES / "divisor_D.json"), "--E", str(FIXTURES / "divisor_E.json")],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == "1/2"


def test_fpn_split_golden(capsys):
    code, out = run_cli(
        ["fpn-split", "--module", str(FIXTURES / "kummer_module.json"),
         "--class", str(FIXTURES / "kummer_class.json")],
        capsys,
    )
    assert code == 0
    assert out == golden("fpn_kummer.json")
    payload = json.loads(out)
    assert payload == {"beta": ["7/2"], "rho": ["1"], "synderi": True}


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
    for field, value in (("prec", 12.0), ("p", "5.0")):
        job = _cycle3_job()
        job[field] = value
        code, payload = _run_assemble(tmp_path, capsys, job)
        assert code == 2 and repr(field) in payload["error"]["message"], (field, value)
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
    # a raw value of branch degree 6 cannot enter a cap-4 computation
    deep = {"coeffs": [{"p": 5, "val": 0, "unit": "1", "prec": 6}] * 7}
    job = {
        "p": 5,
        "prec": 6,
        "graph": json.loads((FIXTURES / "cycle3.json").read_text()),
        "edges": [{"id": f"e{i}", "raw_c": deep} for i in range(3)],
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code, out = run_cli(["volog-assemble", "--job", str(path)], capsys)
    assert code == 4
    assert json.loads(out)["error"]["type"] == "overflow"


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
