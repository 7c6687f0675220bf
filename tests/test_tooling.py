"""The benchmark's traced entry points and the demo scripts still work."""

import importlib
import pathlib
import subprocess
import sys

from perfbench.trace import ENTRY_POINTS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_trace_entry_points_resolve():
    for module, function in ENTRY_POINTS:
        mod = importlib.import_module(f"vologcalc.{module}")
        assert callable(getattr(mod, function, None)), f"vologcalc.{module}.{function}"


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
