#!/usr/bin/env python3
"""Solve every bundled scenario and print a one-line summary for each.

Usage:
    python scripts/run_all_scenarios.py [--only NAME] [--out DIR]
        [--expect BENCH.json] [--json FILE]

The last column is a sha256 over the whole trajectory: times, every
diagnostic array, each node's atom points and weights, each density's
values, and the blow-up and horizon flags.  Two runs print the same
digest exactly when their trajectories are bit-identical.  Each part
also gets a digest of its own: one per diagnostic array, one over all
nodes' points, one over their weights, one over the densities and one
over the flags.

With --out, each scenario also writes its trajectory.csv, its final
measure (final_measure.csv) and, where it tracks one, its final density
(final_density.csv) into DIR/<name>/, in the same formats as
``mvt simulate``.

With --expect, the digests are compared with ``scenarios.change.<name>.sha256``
of a saved benchmark record such as BENCH_8.json; the script exits 1 and
names every scenario whose digest moved, with the parts that moved where
the record holds per-part digests (``scenarios.change.<name>.arrays``).

With --json, the scenario entries (nodes, secs, sha256 and the per-part
``arrays`` digests) are written to FILE in the form those records use.
"""
import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from mvt.cli import write_trajectory_csv
from mvt.grids import save_density
from mvt.measures import save_measure
from mvt.scenarios import BUNDLED_SCENARIOS, bundled_scenario
from mvt.solver import Trajectory, solve_maximal


DIAGNOSTICS = (
    "times",
    "tv_norm",
    "neg_part_tv",
    "fm_step_distance",
    "picard_iters",
    "contraction_ratio",
    "lp_norm",
)


def trajectory_digests(traj: Trajectory) -> tuple[str, dict[str, str]]:
    """sha256 hex digest of every array and flag of a trajectory, and one per part."""
    whole, parts = hashlib.sha256(), {}

    def add(part: str, data: bytes) -> None:
        for h in (whole, parts.setdefault(part, hashlib.sha256())):
            h.update(data)

    def add_array(part: str, arr) -> None:
        arr = np.ascontiguousarray(arr)
        add(part, f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())

    for name in DIAGNOSTICS:
        add_array(name, getattr(traj, name))
    for mu in traj.measures:
        add_array("points", mu.points)
        add_array("weights", mu.weights)
    for dens in traj.densities or []:
        add_array("densities", dens.values)
    flags = (
        traj.blown_up,
        traj.blowup_time,
        traj.density_blown_up,
        traj.density_blowup_time,
        traj.reached_horizon,
    )
    add("flags", repr(flags).encode())
    return whole.hexdigest(), {part: h.hexdigest() for part, h in parts.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=None, help="run a single scenario")
    parser.add_argument("--out", default=None,
                        help="directory for trajectory and final-state CSVs")
    parser.add_argument("--expect", default=None,
                        help="benchmark record whose scenario digests must match")
    parser.add_argument("--json", default=None,
                        help="file to write the scenario entries to, as JSON")
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
    moved, entries = [], {}
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
        digest, arrays = trajectory_digests(traj)
        entries[name] = {"nodes": len(traj.times), "secs": round(secs, 2),
                         "sha256": digest, "arrays": arrays}
        want = {} if expected is None else expected.get(name, {})
        if expected is not None and want.get("sha256") != digest:
            if "arrays" in want:
                parts = [p for p in arrays if want["arrays"].get(p) != arrays[p]]
                moved.append(f"{name} ({', '.join(parts)})")
            else:
                moved.append(f"{name} (no per-array digests in the record)")
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
            save_measure(traj.final_measure, str(out_dir / "final_measure.csv"))
            if traj.densities is not None:
                save_density(traj.densities[-1], str(out_dir / "final_density.csv"))
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
    if expected is None:
        return 0
    if moved:
        print(f"digest moved from {args.expect}: {', '.join(moved)}", file=sys.stderr)
        return 1
    print(f"all {len(names)} digests match {args.expect}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
