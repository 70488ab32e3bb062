"""Smoke test of scripts/: each script runs to exit 0 on a short input.

No other test imports the scripts, so a script that still imports a
deleted name would otherwise go unnoticed.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, cwd=REPO)


@pytest.mark.parametrize("argv", [
    ("blowup_study.py", "--masses", "4"),
    ("metric_convergence.py", "--ns", "1,2"),
])
def test_study_script_runs(argv):
    proc = _run(*argv)
    assert proc.returncode == 0, proc.stderr


def test_run_all_scenarios_then_compare_outputs(tmp_path):
    out = str(tmp_path / "out")
    proc = _run("run_all_scenarios.py", "--only", "linear_mass", "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert "linear_mass" in proc.stdout
    proc = _run("compare_outputs.py", out, out)
    assert proc.returncode == 0, proc.stderr
    assert "every column is bitwise equal" in proc.stdout
