"""Command-line front end: ``mvt simulate``, ``mvt verify``, ``mvt metric``.

Exit codes: 0 success (a detected blow-up is a valid scientific outcome
and still exits 0, with the flag printed), 1 failed verification
checks, 2 configuration/usage errors, 3 solver failure (the Picard
iteration did not contract); ``simulate`` still writes the intervals
finished before the failure.
"""
from __future__ import annotations

import os
import sys


def _cap_threads() -> None:
    """Apply ``MVT_THREADS`` before any numerical library starts.

    Must run ahead of numpy's first import in this process, which is
    why this module sets the env vars at import time and why the
    package ``__init__`` is lazy.  Unset, empty, or 0 leaves the
    libraries at their own defaults (all cores).
    """
    raw = os.environ.get("MVT_THREADS", "").strip()
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        print(f"mvt: ignoring non-integer MVT_THREADS={raw!r}", file=sys.stderr)
        return
    if n <= 0:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ.setdefault(var, str(n))


_cap_threads()

import argparse
import csv
from pathlib import Path

import numpy as np

from .grids import save_density
from .harness import SUITE_NAMES, run_suite
from .measures import MeasureError, load_measure, save_measure
from .scenarios import ScenarioError, parse_scenario
from .solver import NonContractionError, SolverError, solve_maximal


def _fmt_repr(x: float) -> str:
    return repr(float(x))


def write_trajectory_csv(path: Path, traj) -> None:
    """Write the per-node diagnostics of ``traj`` as ``trajectory.csv``.

    Floats are written with ``repr`` so the file round-trips exactly and
    two runs can be compared byte for byte.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "t",
                "tv_norm",
                "neg_part_tv",
                "fm_step_distance",
                "picard_iters",
                "contraction_ratio",
                "lp_norm",
            ]
        )
        for k in range(len(traj.times)):
            writer.writerow(
                [
                    _fmt_repr(traj.times[k]),
                    _fmt_repr(traj.tv_norm[k]),
                    _fmt_repr(traj.neg_part_tv[k]),
                    _fmt_repr(traj.fm_step_distance[k]),
                    str(int(traj.picard_iters[k])),
                    _fmt_repr(traj.contraction_ratio[k]),
                    _fmt_repr(traj.lp_norm[k]),
                ]
            )


def _snapshot_indices(n_nodes: int, snapshots: int) -> np.ndarray:
    count = min(snapshots, n_nodes)
    return np.unique(np.round(np.linspace(0, n_nodes - 1, count)).astype(int))


def _write_outputs(out_dir: Path, traj, snapshots: int) -> int:
    """Write trajectory.csv and the snapshots; returns the snapshot count."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out_dir / "trajectory.csv", traj)
    indices = _snapshot_indices(len(traj.times), snapshots)
    manifest = out_dir / "snapshots.csv"
    with open(manifest, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["snapshot", "t", "measure_file", "density_file"])
        for pos, node in enumerate(indices):
            mfile = f"measure_{pos:03d}.csv"
            save_measure(traj.measures[node], str(out_dir / mfile))
            dfile = ""
            if traj.densities is not None:
                dfile = f"density_{pos:03d}.csv"
                save_density(traj.densities[node], str(out_dir / dfile))
            writer.writerow([str(pos), _fmt_repr(traj.times[node]), mfile, dfile])
    return len(indices)


def run_simulate(config_path: str, out: str | None) -> int:
    try:
        scenario, output = parse_scenario(config_path)
    except ScenarioError as exc:
        print(f"mvt simulate: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(out) if out is not None else Path(scenario.name)
    try:
        traj = solve_maximal(
            scenario.reaction,
            scenario.velocity,
            scenario.initial,
            scenario.t0,
            scenario.horizon,
            scenario.solver,
            initial_density=scenario.density,
        )
    except SolverError as exc:
        if isinstance(exc, NonContractionError):
            print(
                f"mvt simulate: Picard iteration failed to contract "
                f"(measured ratio {exc.measured_ratio:.3g}): {exc}",
                file=sys.stderr,
            )
        else:
            print(f"mvt simulate: solver failure: {exc}", file=sys.stderr)
        if exc.partial is not None:
            written = _write_outputs(out_dir, exc.partial, output.snapshots)
            print(f"mvt simulate: kept the {len(exc.partial.times)} nodes solved before the "
                  f"failure ({written} snapshots) in {out_dir}", file=sys.stderr)
        return 3

    written = _write_outputs(out_dir, traj, output.snapshots)

    print(f"scenario: {scenario.name}")
    print(f"output: {out_dir} ({len(traj.times)} nodes, {written} snapshots)")
    print(f"final time: {_fmt_repr(traj.final_time)}")
    print(f"final tv: {_fmt_repr(traj.tv_norm[-1])}")
    print(f"blown up: {'true' if traj.blown_up else 'false'}")
    if traj.blown_up and traj.blowup_time is not None:
        print(f"blowup time: {_fmt_repr(traj.blowup_time)}")
    if traj.densities is not None:
        print(f"density blown up: {'true' if traj.density_blown_up else 'false'}")
        if traj.density_blown_up and traj.density_blowup_time is not None:
            print(f"density blowup time: {_fmt_repr(traj.density_blowup_time)}")
    return 0


def run_verify(suite: str, seed: int) -> int:
    if suite not in SUITE_NAMES:
        print(
            f"mvt verify: unknown suite {suite!r}; expected one of {SUITE_NAMES}",
            file=sys.stderr,
        )
        return 2
    try:
        reports = run_suite(suite, seed=seed)
    except (ScenarioError, SolverError) as exc:
        print(f"mvt verify: {exc}", file=sys.stderr)
        return 3
    for report in reports:
        print(report.summary())
    return 0 if all(report.passed for report in reports) else 1


def _significant(value: float, digits: int = 12) -> str:
    return f"{float(value):.{digits}g}"


def run_metric(path_a: str, path_b: str, domain: str) -> int:
    from .flat_metric import fm_distance

    try:
        mu = load_measure(path_a, domain)
        nu = load_measure(path_b, domain)
    except (OSError, MeasureError, ValueError) as exc:
        print(f"mvt metric: {exc}", file=sys.stderr)
        return 2
    if mu.num_atoms and nu.num_atoms and mu.dim != nu.dim:
        print(
            f"mvt metric: dimension mismatch ({mu.dim} vs {nu.dim})",
            file=sys.stderr,
        )
        return 2
    try:
        value = fm_distance(mu, nu)
    except (MeasureError, ValueError) as exc:
        print(f"mvt metric: {exc}", file=sys.stderr)
        return 2
    print(_significant(value))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvt",
        description="Simulate and verify measure-valued transport-reaction dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario config to its horizon")
    sim.add_argument("--config", required=True, help="scenario config file (INI)")
    sim.add_argument(
        "--out",
        default=None,
        help="output directory (default: ./<scenario name>)",
    )

    ver = sub.add_parser("verify", help="run an invariance check suite")
    ver.add_argument(
        "--suite",
        required=True,
        help=f"one of {', '.join(SUITE_NAMES)}",
    )
    ver.add_argument("--seed", type=int, default=42, help="seed for random draws")

    met = sub.add_parser("metric", help="flat distance between two measure CSVs")
    met.add_argument("a", help="first measure CSV")
    met.add_argument("b", help="second measure CSV")
    met.add_argument(
        "--domain",
        default="euclidean",
        choices=("euclidean", "torus"),
        help="domain both measures live on",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "simulate":
        return run_simulate(args.config, args.out)
    if args.command == "verify":
        return run_verify(args.suite, args.seed)
    return run_metric(args.a, args.b, args.domain)


if __name__ == "__main__":
    raise SystemExit(main())
