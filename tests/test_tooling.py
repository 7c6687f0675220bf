"""The benchmark's traced entry points and the demo scripts still work."""

import importlib
import pathlib
import subprocess
import sys

import vologcalc
from perfbench.trace import ENTRY_POINTS, Tracer
from vologcalc import heights
from vologcalc.graphs import cycle_graph

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
