"""Command-line interface: exit codes, output files, printed values."""
import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import assert_same_text, fail_fixed_point_on_call, reference_density_csv
from mvt import cli, flat_metric
from mvt.cli import main, run_simulate
from mvt.geometry import TORUS
from mvt.grids import gaussian_density, load_density, save_density
from mvt.measures import dirac, measure, save_measure
from mvt.scenarios import CONFIG_DIR
from mvt.solver import Trajectory

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


def test_simulate_density_snapshots_match_row_writer(tmp_path, capsys):
    out = tmp_path / "rotation"
    assert main(["simulate", "--config", str(CONFIG_DIR / "lp_rotation.ini"), "--out", str(out)]) == 0
    capsys.readouterr()
    files = sorted(out.glob("density_*.csv"))
    assert len(files) == 9
    for path in files:
        text = path.read_text()
        assert_same_text(text, reference_density_csv(load_density(str(path))))


def test_simulate_rejects_density_file_of_wrong_dim(tmp_path, capsys):
    path = tmp_path / "line.csv"
    save_density(gaussian_density([-2.0], [2.0], 16, 0.5, [0.0], 2.0), str(path))
    text = (BASIC.replace("dim = 1", "dim = 2")
            .replace("name = constant\nparams = 0.3", "name = linear\nparams = -0.5")
            .replace("params = 1.0, 0.0, 0.5, 0.4", "params = 1.0, 0.0, 0.0")
            + f"\n[density]\nkind = csv\npath = {path}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    assert "density file has dim 1, scenario says 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section", ["initial", "density"])
def test_simulate_missing_csv_exits_2_naming_the_path(tmp_path, capsys, section):
    missing = tmp_path / "missing.csv"
    text = BASIC + f"\n[density]\nkind = csv\npath = {missing}\n"
    if section == "initial":
        text = BASIC.replace("kind = diracs\nparams = 1.0, 0.0, 0.5, 0.4",
                             f"kind = csv\npath = {missing}")
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(missing) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("reaction", ["dirac_source\nparams = 0.5, 0.1, 0.2",
                                      "smoothed_source\nparams = 0.5, 0.1, 0.2, 0.3"],
                         ids=["dirac_source", "smoothed_source"])
def test_simulate_source_centre_of_wrong_dim_exits_2(tmp_path, capsys, reaction):
    text = BASIC.replace("linear_rate\nparams = 1.0", reaction)
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "[reaction] params" in err and "dim 1" in err
    assert not out.exists()


def test_parser_built_once(capsys):
    cli._build_parser.cache_clear()
    assert main(["verify", "--suite", "bogus"]) == 2
    parser = cli._build_parser()
    assert main(["verify", "--suite", "bogus"]) == 2
    assert cli._build_parser() is parser
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg = _write(tmp_path, BASIC + "\n[scenario2]\nx = 1\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert "unknown config section" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    (BASIC + "\n[solver]\ndelta = inf\n", "delta"),
    (BASIC + "\n[solver]\npicard_tol = inf\n", "picard_tol"),
    (BASIC + "\n[solver]\ndilation_mode = fixed\ndilation_c = nan\n", "dilation_c"),
    (BASIC + "\n[solver]\ndilation_mode = fixed\ndilation_c = inf\n", "dilation_c"),
    (BASIC + "\n[solver]\ntv_blowup_threshold = inf\n", "tv_blowup_threshold"),
    (BASIC.replace("horizon = 0.2", "horizon = inf"), "horizon"),
], ids=["delta", "picard_tol", "dilation_c_nan", "dilation_c_inf", "tv_blowup_threshold",
        "horizon"])
def test_simulate_rejects_nonfinite_values(tmp_path, capsys, text, key):
    cfg = _write(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


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


def _reference_trajectory_csv(traj) -> str:
    """trajectory.csv written row by row through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "tv_norm", "neg_part_tv", "fm_step_distance", "picard_iters",
                     "contraction_ratio", "lp_norm"])
    for k in range(len(traj.times)):
        writer.writerow([repr(float(traj.times[k])), repr(float(traj.tv_norm[k])),
                         repr(float(traj.neg_part_tv[k])), repr(float(traj.fm_step_distance[k])),
                         str(int(traj.picard_iters[k])), repr(float(traj.contraction_ratio[k])),
                         repr(float(traj.lp_norm[k]))])
    return buf.getvalue()


def test_trajectory_csv_bytes_match_row_writer(tmp_path):
    from mvt.measures import _CSV_CHUNK_ROWS

    n = _CSV_CHUNK_ROWS + 37  # more than one chunk of rows
    rng = np.random.default_rng(7)
    special = [-0.0, 5e-324, 1e300, -1e300, 1.0 / 3.0]
    cols = {name: rng.normal(size=n) for name in
            ("tv_norm", "neg_part_tv", "fm_step_distance", "contraction_ratio", "lp_norm")}
    for col in cols.values():
        col[:5] = special
        col[_CSV_CHUNK_ROWS - 1 : _CSV_CHUNK_ROWS + 1] = [-0.0, 5e-324]
    cols["lp_norm"][[7, _CSV_CHUNK_ROWS]] = np.nan
    times = np.cumsum(rng.uniform(1e-3, 1.0, n))
    times[0] = -0.0
    traj = Trajectory(times=times, measures=[dirac(0.0)] * n, densities=None,
                      picard_iters=rng.integers(0, 40, n), **cols)
    path = tmp_path / "trajectory.csv"
    cli.write_trajectory_csv(path, traj)
    text = path.read_text()
    assert_same_text(text, _reference_trajectory_csv(traj))
    lines = text.splitlines()
    assert lines[1].split(",")[4] == str(traj.picard_iters[0])
    assert "nan" in lines[8]


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


def test_metric_empty_side_of_other_dim_exits_2(tmp_path, capsys):
    cancelled = tmp_path / "cancelled.csv"  # its atoms cancel: an empty 1D measure
    cancelled.write_text("x1,weight\n0.1,1.0\n0.1,-1.0\n")
    plane = tmp_path / "plane.csv"
    save_measure(dirac([0.0, 0.0], 1.0), str(plane))
    assert main(["metric", str(cancelled), str(plane)]) == 2
    err = capsys.readouterr().err
    assert err == "mvt metric: dimension mismatch: 1 vs 2\n"


def _non_optimal_fm_norm(mu):
    return flat_metric.FlatNormResult(
        float("nan"), np.zeros(mu.num_atoms), flat_metric.STATUS_NUMERICS
    )


def test_metric_flat_norm_failure_exits_3(tmp_path, capsys, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_measure(dirac([0.0, 0.0], 1.0), str(a))
    save_measure(dirac([0.5, 0.0], 1.0), str(b))
    monkeypatch.setattr(flat_metric, "fm_norm", _non_optimal_fm_norm)
    assert main(["metric", str(a), str(b)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mvt metric: flat norm solve failed")
    assert len(captured.err.splitlines()) == 1


def test_verify_flat_norm_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(flat_metric, "fm_norm", _non_optimal_fm_norm)
    assert main(["verify", "--suite", "weaklimit"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mvt verify: flat norm solve failed")
    assert len(captured.err.splitlines()) == 1


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
