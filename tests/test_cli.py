"""Command-line interface: exit codes, output files, printed values."""
import os
import subprocess
import sys

import pytest

from helpers import fail_fixed_point_on_call
from mvt.cli import main, run_simulate
from mvt.geometry import TORUS
from mvt.measures import dirac, measure, save_measure
from mvt.scenarios import CONFIG_DIR

BASIC = """\
[scenario]
name = tiny
dim = 1
horizon = 0.2

[field]
name = constant
params = 0.3

[reaction]
name = linear_rate
params = 1.0

[initial]
kind = diracs
params = 1.0, 0.0, 0.5, 0.4

[output]
snapshots = 3
"""


def _write(tmp_path, text, name="sc.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, BASIC)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "scenario: tiny"
    assert any(line.startswith("final time: 0.2") for line in lines)
    assert "blown up: false" in lines

    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == (
        "t,tv_norm,neg_part_tv,fm_step_distance,picard_iters,"
        "contraction_ratio,lp_norm"
    )
    manifest = (out / "snapshots.csv").read_text().splitlines()
    assert manifest[0] == "snapshot,t,measure_file,density_file"
    assert len(manifest) == 1 + 3  # header + requested snapshots
    for row in manifest[1:]:
        assert (out / row.split(",")[2]).exists()


def test_simulate_default_output_dir(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, BASIC)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    capsys.readouterr()
    assert (tmp_path / "tiny" / "trajectory.csv").exists()


def test_simulate_density_outputs(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "lp_growth.ini")
    out = tmp_path / "growth"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "density blown up: false" in capsys.readouterr().out.splitlines()
    assert (out / "density_000.csv").exists()
    # every manifest row names a density file for this scenario
    for row in (out / "snapshots.csv").read_text().splitlines()[1:]:
        assert row.split(",")[3].startswith("density_")


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg = _write(tmp_path, BASIC + "\n[scenario2]\nx = 1\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert "unknown config section" in capsys.readouterr().err


def test_simulate_missing_config(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "mvt simulate:" in capsys.readouterr().err


def test_simulate_noncontraction_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, BASIC + "\n[solver]\npicard_max_iter = 1\n")
    assert main(["simulate", "--config", cfg]) == 3
    assert "contract" in capsys.readouterr().err


def test_simulate_failure_writes_finished_intervals(tmp_path, capsys, monkeypatch):
    # linear_mass runs five intervals; the second one fails
    fail_fixed_point_on_call(monkeypatch, 2)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(CONFIG_DIR / "linear_mass.ini"),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "contract" in err and "kept the 65 nodes" in err
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 65
    assert rows[-1].startswith("0.1,")
    for row in (out / "snapshots.csv").read_text().splitlines()[1:]:
        assert (out / row.split(",")[2]).exists()


def test_simulate_deterministic_bytes(tmp_path, capsys):
    cfg = _write(tmp_path, BASIC)
    blobs = []
    for k in (1, 2):
        out = tmp_path / f"run{k}"
        assert run_simulate(cfg, str(out)) == 0
        blobs.append((out / "trajectory.csv").read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_weaklimit_passes(capsys):
    assert main(["verify", "--suite", "weaklimit"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert ": PASS" in line and "tol=" in line


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_metric_values(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_measure(dirac(0.0, 1.0), str(a))
    save_measure(dirac(0.5, 1.0), str(b))
    assert main(["metric", str(a), str(a)]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["metric", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_metric_torus_wraps(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_measure(measure([[0.05]], [1.0], domain=TORUS), str(a))
    save_measure(measure([[0.95]], [1.0], domain=TORUS), str(b))
    assert main(["metric", str(a), str(b), "--domain", "torus"]) == 0
    assert capsys.readouterr().out.strip() == "0.1"


def test_metric_error_paths(tmp_path, capsys):
    a = tmp_path / "a.csv"
    c = tmp_path / "c.csv"
    save_measure(dirac(0.0, 1.0), str(a))
    save_measure(dirac([0.0, 0.0], 1.0), str(c))
    assert main(["metric", str(a), str(tmp_path / "missing.csv")]) == 2
    assert main(["metric", str(a), str(c)]) == 2
    assert "dimension mismatch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parser / process-level behavior
# ---------------------------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["metric", "a.csv", "b.csv", "--domain", "hyperbolic"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "mvt", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for word in ("simulate", "verify", "metric"):
        assert word in proc.stdout


@pytest.mark.parametrize(
    "value, expect",
    [("3", "3"), ("abc", "unset"), ("0", "unset"), ("", "unset")],
)
def test_thread_cap_env(value, expect):
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "MVT_THREADS")
    }
    env["MVT_THREADS"] = value
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import mvt.cli, os; print(os.environ.get('OMP_NUM_THREADS', 'unset'))",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == expect
    if value == "abc":
        assert "ignoring non-integer MVT_THREADS" in proc.stderr
