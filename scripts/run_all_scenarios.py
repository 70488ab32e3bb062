#!/usr/bin/env python3
"""Solve every bundled scenario and print a one-line summary for each.

Usage:
    python scripts/run_all_scenarios.py [--only NAME] [--out DIR] [--expect BENCH.json]

The last column is a sha256 over the whole trajectory: times, every
diagnostic array, each node's atom points and weights, each density's
values, and the blow-up and horizon flags.  Two runs print the same
digest exactly when their trajectories are bit-identical.

With --out, each scenario also writes its trajectory.csv into
DIR/<name>/ in the same format as ``mvt simulate``.

With --expect, the digests are compared with ``scenarios.change.<name>.sha256``
of a saved benchmark record such as BENCH_8.json; the script exits 1 and
names every scenario whose digest moved.
"""
import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from mvt.cli import write_trajectory_csv
from mvt.scenarios import BUNDLED_SCENARIOS, bundled_scenario
from mvt.solver import Trajectory, solve_maximal


def trajectory_digest(traj: Trajectory) -> str:
    """sha256 hex digest of every array and flag of a trajectory."""
    h = hashlib.sha256()

    def add(arr) -> None:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())

    for arr in (
        traj.times,
        traj.tv_norm,
        traj.neg_part_tv,
        traj.fm_step_distance,
        traj.picard_iters,
        traj.contraction_ratio,
        traj.lp_norm,
    ):
        add(arr)
    for mu in traj.measures:
        add(mu.points)
        add(mu.weights)
    for dens in traj.densities or []:
        add(dens.values)
    flags = (
        traj.blown_up,
        traj.blowup_time,
        traj.density_blown_up,
        traj.density_blowup_time,
        traj.reached_horizon,
    )
    h.update(repr(flags).encode())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=None, help="run a single scenario")
    parser.add_argument("--out", default=None, help="directory for trajectory CSVs")
    parser.add_argument("--expect", default=None,
                        help="benchmark record whose scenario digests must match")
    args = parser.parse_args()
    expected = None
    if args.expect is not None:
        with open(args.expect, encoding="utf-8") as fh:
            expected = json.load(fh)["scenarios"]["change"]

    names = [args.only] if args.only else list(BUNDLED_SCENARIOS)
    header = (
        f"{'scenario':<16} {'nodes':>6} {'final_t':>9} {'final_tv':>12} "
        f"{'max_ratio':>9} {'blowup':>6} {'secs':>7} {'sha256':<64}"
    )
    print(header)
    print("-" * len(header))
    moved = []
    for name in names:
        sc = bundled_scenario(name)
        start = time.perf_counter()
        traj = solve_maximal(
            sc.reaction,
            sc.velocity,
            sc.initial,
            sc.t0,
            sc.horizon,
            sc.solver,
            initial_density=sc.density,
        )
        secs = time.perf_counter() - start
        digest = trajectory_digest(traj)
        if expected is not None and expected.get(name, {}).get("sha256") != digest:
            moved.append(name)
        print(
            f"{name:<16} {len(traj.times):>6} {traj.final_time:>9.4f} "
            f"{traj.tv_norm[-1]:>12.6g} {traj.contraction_ratio.max():>9.3f} "
            f"{'yes' if traj.blown_up else 'no':>6} {secs:>7.2f} "
            f"{digest}",
            flush=True,
        )
        if args.out is not None:
            out_dir = Path(args.out) / name
            out_dir.mkdir(parents=True, exist_ok=True)
            write_trajectory_csv(out_dir / "trajectory.csv", traj)
    if expected is None:
        return 0
    if moved:
        print(f"digest moved from {args.expect}: {', '.join(moved)}", file=sys.stderr)
        return 1
    print(f"all {len(names)} digests match {args.expect}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
