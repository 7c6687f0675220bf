"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import gen, oracle, run  # noqa: E402

LIB = run.load_library()


def _fingerprint(jobs):
    return [(j.kind, j.argv, json.dumps(j.files, sort_keys=True), repr(j.expect), j.group) for j in jobs]


@pytest.mark.parametrize("workload", sorted(gen.ROUNDS))
def test_generators_are_deterministic(workload, tmp_path):
    make = gen.ROUNDS[workload]
    first = _fingerprint(make(7, 1, str(tmp_path)))
    assert first == _fingerprint(make(7, 1, str(tmp_path)))
    assert first != _fingerprint(make(8, 1, str(tmp_path)))
    assert first != _fingerprint(make(7, 2, str(tmp_path)))


def _run_ok(jobs):
    run.prepare(jobs, LIB)
    results = [run.execute(j, LIB) for j in jobs]
    verdicts = run.verify(jobs, results, oracle.DetCache())
    assert all(v.ok for v in verdicts)
    return results


def _bump_last_digit(text: str) -> str:
    """Change the last decimal digit of a numeric string by one."""
    d = int(text[-1])
    return text[:-1] + str(d + 1 if d < 9 else d - 1)


def _failed_after(jobs, results, i, corrupt):
    results = list(results)
    code, out = results[i]
    results[i] = (code, corrupt(out))
    return not run.verify(jobs, results, oracle.DetCache())[i].ok


def test_assemble_one_digit_corruption_fails(tmp_path):
    jobs = [gen.assemble_job(gen.round_rng("t", 1, 0), "grid", 4, 5, str(tmp_path), "a")]
    results = _run_ok(jobs)

    def gamma(out):
        obj = json.loads(out)
        c = obj["gamma"]["v5"]["coeffs"][0]
        c["unit"] = _bump_last_digit(c["unit"])
        return json.dumps(obj)

    def harmonic(out):
        obj = json.loads(out)
        c = obj["harmonic"]["e3"]["coeffs"][-1]
        c["unit"] = _bump_last_digit(c["unit"])
        return json.dumps(obj)

    assert _failed_after(jobs, results, 0, gamma)
    assert _failed_after(jobs, results, 0, harmonic)


def test_log_and_fpn_one_digit_corruption_fails(tmp_path):
    rng = gen.round_rng("t", 2, 0)
    jobs = gen.log_triple(rng, 5, 30, 0) + gen.fpn_pair(rng, 1, 3, str(tmp_path), "f", 1)
    results = _run_ok(jobs)

    def log(out):
        obj = json.loads(out)
        c = obj["log"]["coeffs"][0]
        c["unit"] = _bump_last_digit(c["unit"])
        return json.dumps(obj)

    def beta(out):
        obj = json.loads(out)
        num, slash, den = obj["beta"][0].partition("/")
        obj["beta"][0] = _bump_last_digit(num) + slash + den
        return json.dumps(obj)

    assert _failed_after(jobs, results, 2, log)
    assert _failed_after(jobs, results, 3, beta)


def test_height_one_digit_corruption_fails():
    rng = gen.round_rng("t", 3, 0)
    jobs = [gen.height_job(rng, "cycle", 9, 2, 2), gen.height_job(rng, "random", 15, 2, 3)]
    results = _run_ok(jobs)
    for i in range(2):
        assert _failed_after(jobs, results, i, lambda t: [[t[0][0] + 1] + t[0][1:]] + t[1:])


def _metric_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    e2e, layer = _metric_spec()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "height_table",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == (layer if trace else e2e)
