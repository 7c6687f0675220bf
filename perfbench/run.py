#!/usr/bin/env python3
"""vologcalc benchmark: one closed-loop client, exact output checks.

    python3 perfbench/run.py --workload assemble_grid --seed 1 --seconds 30 --trace 0
    python3 -m pytest perfbench/tests -q      # tests of the benchmark itself

One process sends each job only after the previous one returned. Jobs run in
whole rounds (gen.py) until --seconds of job wall time and at least MIN_JOBS
jobs are done. CLI jobs go through `vologcalc.cli.run` in-process with stdout
captured; height_table jobs call the library. Every output is checked by
oracle.py, outside the timed region. Before any timing the golden CLI
outputs under fixtures/golden are replayed and must match byte for byte, or
the run exits non-zero without a result.

End-to-end metrics (--trace 0):
  jobs_per_s         jobs / sum of job times
  job_ms_p50, _p90   median and 90th-percentile job time
  ok_ratio           jobs that exited 0, did not raise and passed every exact
                     check, over jobs attempted (1 - failed / attempted), in
                     the first rounds that reach MIN_JOBS jobs
  digits_kept_share  p-adic digits the outputs claim, each capped at what the
                     inputs make achievable (least input absolute precision
                     minus v_p(det) of the reduced Laplacian for assemble, the
                     input's relative precision for padic-log), over the
                     achievable total; 1 where a workload has no p-adic output
  setup_s            median first `import vologcalc.cli` in fresh interpreters
  peak_rss_mb        ru_maxrss of this process
Job and import times are wall times scaled to a reference machine speed
(speed.py); the wall-clock job rate and import time are printed as comments.

--trace 1 runs the first TRACE_ROUNDS rounds untraced, then traced
(trace.py), and prints the per-layer metrics: self seconds and calls of
each layer's entry points, p-adic operation counts, Poisson-solve reuse and
digit spending, the traced/untraced time ratio, and audit.ok_ratio: the
share of jobs at the specified input precision that pass every exact check
(for assemble_grid an untimed round with 20-digit inputs, see
gen.PRECISION). Spans are written to .perfbench_work/. The last stdout line
is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(ROOT))

from perfbench import gen, oracle, speed  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

MIN_JOBS = 100  # job_ms_p90 needs at least 10 samples beyond it
MAX_RUN_S = 120  # stop after the current round past this, whatever --seconds says
SETUP_SAMPLES = 11
TRACE_ROUNDS = {"assemble_grid": 2, "height_table": 3, "log_split": 3}

GOLDEN = (
    (["graph-project", "--graph", "tree.json", "--cochain", "tree_cochain.json"], "project_tree.json"),
    (["graph-project", "--graph", "cycle3.json", "--cochain", "cycle3_cochain.json", "--anchor", "v2"], "project_cycle3.json"),
    (["volog-assemble", "--job", "job_assemble_cycle3.json"], "assemble_cycle3.json"),
    (["volog-assemble", "--job", "job_assemble_forms.json"], "assemble_forms.json"),
    (["volog-ddlog", "--graph", "cycle3.json", "--residues", "cycle3_residues.json", "--anchor", "v2"], "ddlog_cycle3.json"),
    (["volog-iterated", "--job", "job_iterated_3cycle.json"], "iterated_3cycle.json"),
    (["height-local", "--graph", "cycle4.json", "--D", "divisor_D.json", "--E", "divisor_E.json"], "height_cycle4.json"),
    (["fpn-split", "--module", "kummer_module.json", "--class", "kummer_class.json"], "fpn_kummer.json"),
)


def load_library():
    sys.path.insert(0, str(SRC))
    import vologcalc
    import vologcalc.cli  # noqa: F401  (imports every layer)

    return vologcalc


def run_cli(lib, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.run(argv)
    return code, buf.getvalue()


def replay_goldens(lib):
    """Names of the golden commands whose output is not byte-identical."""
    fixtures = ROOT / "fixtures"
    bad = []
    for argv, name in GOLDEN:
        argv = [a if not a.endswith(".json") else str(fixtures / a) for a in argv]
        code, out = run_cli(lib, argv)
        if code != 0 or out != (fixtures / "golden" / name).read_text(encoding="utf-8"):
            bad.append(name)
    return bad


def measure_setup():
    """First `import vologcalc.cli` in fresh interpreters, after one discarded
    warm-up that may compile bytecode: (median normalised s, median wall s).
    Each child probes the machine speed right after its import."""
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        "import vologcalc.cli; t = time.perf_counter() - t; "
        f"sys.path.insert(0, {str(ROOT)!r}); from perfbench import speed; "
        "print(t, speed.scale(speed.probe(), speed.probe()))"
    )
    walls, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            wall, factor = map(float, proc.stdout.split())
            walls.append(wall)
            scaled.append(wall * factor)
    return statistics.median(scaled), statistics.median(walls)


# -- jobs ------------------------------------------------------------------------------


def prepare(jobs, lib):
    """Write CLI input files and bind library calls; nothing here is timed."""
    for job in jobs:
        for path, obj in job.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        if job.argv is None and job.call is None:
            job.call = library_call(job, lib)


def library_call(job, lib):
    """A closure that looks the entry point up at call time, so the traced
    run's wrappers are the ones called."""
    e = job.expect
    g = lib.graphs.graph(range(e["n"]), [(f"e{k}", t, h) for k, (t, h) in enumerate(e["pairs"])])
    anchor = e["anchor"]
    if job.kind == "height-table":
        heights = lib.heights
        # horizontal pairings depend on (D, E): one placement of D per E
        ds = [[heights.divisor(d, e["horizontal"][i][j]) for j in range(len(e["E"]))] for i, d in enumerate(e["D"])]
        es = [heights.divisor(pts) for pts in e["E"]]
        return lambda: [[heights.discrete_height(g, ds[i][j], E, anchor) for j, E in enumerate(es)] for i in range(len(ds))]
    volog, graphs = lib.volog, lib.graphs
    if job.kind == "ddlog-row":
        fns = [graphs.VertexFn(g, dict(enumerate(row))) for row in e["rows"]]
        return lambda: [_values(volog.derivative_vertex_function(f, anchor)) for f in fns]
    names = ("c_omega", "c_eta", "res_omega", "res_eta", "indices")
    rows = [[graphs.Cochain(g, {f"e{k}": x for k, x in enumerate(row[nm])}) for nm in names] for row in e["rows"]]
    return lambda: [_values(volog.iterated_derivative(*cs, anchor)) for cs in rows]


def _values(fn):
    return [fn.values[v] for v in fn.graph.vertices]


def execute(job, lib):
    """(exit code, output); a job that raises returns (None, exception)."""
    try:
        if job.argv is not None:
            return run_cli(lib, job.argv)
        return 0, job.call()
    except Exception as exc:  # a raising job is a failed job, not a harness crash
        return None, exc


def verify(jobs, results, dets):
    """One Verdict per job, including the cross-job checks of log triples
    (additivity) and fpn pairs (coboundary invariance)."""
    verdicts, parsed = [], []
    for job, (code, out) in zip(jobs, results):
        value = None
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            value = json.loads(out) if job.argv is not None else out
            verdicts.append(check(job, value, dets))
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
            verdicts.append(oracle.Verdict(False))
        parsed.append(value)
    groups = defaultdict(list)
    for i, job in enumerate(jobs):
        if job.group is not None:
            groups[job.group].append(i)
    for (kind, _), idx in groups.items():
        if not all(verdicts[i].ok for i in idx):
            continue
        outs = [parsed[i] for i in idx]
        if kind == "log":
            same = oracle.check_log_triple(outs)
        else:
            same = all((o["beta"], o["rho"]) == (outs[0]["beta"], outs[0]["rho"]) for o in outs)
        if not same:
            for i in idx:
                verdicts[i].ok = False
    return verdicts


def check(job, value, dets):
    if job.kind == "volog-assemble":
        return oracle.check_assemble(value, job.expect, dets)
    if job.kind == "padic-log":
        return oracle.check_log(value, job.expect)
    if job.kind == "fpn-split":
        return oracle.check_fpn(value, job.expect)
    if job.kind == "height-table":
        return oracle.check_heights(value, job.expect)
    return oracle.check_derivative_row(value, job.expect, job.kind)


# -- runs ------------------------------------------------------------------------------


def run_round(jobs, lib, latencies, tracer=None, first_id=0):
    """Run a prepared round, probing the machine speed between jobs.

    Appends each job's reference-speed latency (speed.py) to `latencies`;
    returns (results, wall seconds of the jobs)."""
    gc.collect()
    clock = time.perf_counter
    results, wall = [], 0.0
    before = speed.probe()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_id + i
        t0 = clock()
        results.append(execute(job, lib))
        dt = clock() - t0
        after = speed.probe()
        latencies.append(dt * speed.scale(before, after))
        wall += dt
        before = after
    return results, wall


def round_dir(workdir, r):
    path = workdir / f"r{r}"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def timed_run(lib, workload, seed, seconds, workdir):
    """Whole rounds until `seconds` of job wall time and MIN_JOBS jobs.

    ok_ratio and digits_kept_share cover the rounds that reach MIN_JOBS,
    which every run completes, so they repeat exactly for a seed; the
    failed count in the result covers every job run."""
    make_round = gen.ROUNDS[workload]
    dets = oracle.DetCache()
    latencies, wall, attempted, failed = [], 0.0, 0, 0
    counted = ok = kept = achievable = 0
    started = time.perf_counter()
    r = 0
    while (wall < seconds or attempted < MIN_JOBS) and time.perf_counter() - started < MAX_RUN_S:
        jobs = make_round(seed, r, round_dir(workdir, r % 2))
        prepare(jobs, lib)
        results, dt = run_round(jobs, lib, latencies)
        wall += dt
        verdicts = verify(jobs, results, dets)
        if attempted < MIN_JOBS:
            counted += len(verdicts)
            ok += sum(v.ok for v in verdicts)
            kept += sum(v.kept for v in verdicts)
            achievable += sum(v.achievable for v in verdicts)
        attempted += len(verdicts)
        failed += sum(not v.ok for v in verdicts)
        r += 1
    ms = [x * 1000 for x in latencies]
    metrics = {
        "jobs_per_s": (attempted / sum(latencies), "jobs/s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "ok_ratio": (ok / counted, "ratio"),
        "digits_kept_share": (kept / achievable if achievable else 1.0, "ratio"),
    }
    print(f"# {workload} seed {seed}: {r} rounds, {attempted} jobs, {failed} failed, "
          f"{attempted / wall:.4g} jobs/s by wall clock")
    return attempted, failed, metrics


def traced_run(lib, workload, seed, workdir):
    make_round = gen.ROUNDS[workload]
    rounds = [make_round(seed, r, round_dir(workdir, r)) for r in range(TRACE_ROUNDS[workload])]
    plain, plain_lat = [], []
    for jobs in rounds:
        prepare(jobs, lib)
        plain.append(run_round(jobs, lib, plain_lat)[0])
    tracer = Tracer(lib)
    traced, traced_lat = [], []
    tracer.install()
    try:
        for jobs in rounds:
            prepare(jobs, lib)
            traced.append(run_round(jobs, lib, traced_lat, tracer, len(traced_lat))[0])
    finally:
        tracer.uninstall()
    dets = oracle.DetCache()
    attempted = failed = 0
    for jobs, a, b in zip(rounds, plain, traced):
        for v, x, y in zip(verify(jobs, b, dets), a, b):
            attempted += 1
            # tracing must not change an output
            failed += not v.ok or x[0] != y[0] or (x[0] is not None and x[1] != y[1])
    tracer.write(WORK / f"spans-{workload}-s{seed}.jsonl")
    metrics = tracer.metrics(dets, sum(traced_lat), sum(plain_lat))
    metrics["audit.ok_ratio"] = (audit(lib, workload, seed, workdir, dets, attempted, failed), "ratio")
    return attempted, failed, metrics


def audit(lib, workload, seed, workdir, dets, attempted, failed):
    """Share of jobs at the workload's specified input precision that pass
    every exact check. For assemble_grid, whose timed jobs get 100-digit
    inputs, that is one untimed round with 20-digit inputs, where the
    library's unsound precision claims show (gen.PRECISION); its failures
    are reported here and do not count as failed jobs of the run. The other
    workloads run at their specified precisions: their traced jobs."""
    if workload != "assemble_grid":
        return (attempted - failed) / attempted
    jobs = gen.assemble_round(seed, 0, round_dir(workdir, "audit"), gen.AUDIT_PRECISION)
    prepare(jobs, lib)
    verdicts = verify(jobs, [execute(job, lib) for job in jobs], dets)
    return sum(v.ok for v in verdicts) / len(verdicts)


def _num(x):
    return x if isinstance(x, int) else float(x)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        lib = load_library()
    except ImportError as exc:
        print(f"perfbench: cannot import vologcalc from {SRC}: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("VOLOG_PRECISION", None)  # the goldens assume the default
    try:
        bad = replay_goldens(lib)
    except OSError as exc:
        print(f"perfbench: cannot replay goldens: {exc}", file=sys.stderr)
        return 2
    if bad:
        print(f"perfbench: golden outputs differ: {', '.join(bad)}", file=sys.stderr)
        return 1
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            attempted, failed, metrics = traced_run(lib, args.workload, args.seed, workdir)
        else:
            setup_s, setup_wall = measure_setup()
            attempted, failed, metrics = timed_run(lib, args.workload, args.seed, args.seconds, workdir)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            print(f"# setup by wall clock {setup_wall:.4g} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"# {name:42s} {value:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _num(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
