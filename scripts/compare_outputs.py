#!/usr/bin/env python3
"""Largest deviation between two ``run_all_scenarios.py --out`` trees.

Usage:
    python scripts/compare_outputs.py A B

For every scenario directory found in both A and B, and for each of its
trajectory.csv, final_measure.csv and final_density.csv, prints one line
per column: the largest absolute deviation, the largest relative
deviation (|a - b| / max(|a|, |b|) over the entries where that is
non-zero) and whether the column is bitwise equal.  A density file's
metadata row counts as columns of its own (``meta:<name>``).  NaN equals
NaN; NaN against a number, or columns of different lengths, read as an
infinite deviation.  Exits 1 when any column differs, 0 otherwise.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

FILES = ("trajectory.csv", "final_measure.csv", "final_density.csv")


def read_columns(path: Path) -> dict[str, np.ndarray]:
    """The file's numeric columns by header name."""
    lines = path.read_text(encoding="ascii").splitlines()
    names = lines[0].split(",")
    columns = {}
    if names[0] == "cells_per_axis":  # a density: metadata row, then one value per row
        columns.update((f"meta:{n}", np.array([float(v)]))
                       for n, v in zip(names, lines[1].split(",")))
        names, lines = ["value"], lines[1:]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:] if line])
    rows = rows.reshape(-1, len(names))
    columns.update(zip(names, rows.T))
    return columns


def deviation(a: np.ndarray, b: np.ndarray) -> tuple[float, float, bool]:
    """(largest |a - b|, largest relative deviation, bitwise equal)."""
    if a.shape != b.shape:
        return float("inf"), float("inf"), False
    with np.errstate(invalid="ignore"):
        diff = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
        diff[np.isnan(diff)] = np.inf
        nonzero = diff > 0.0
        rel = diff[nonzero] / np.maximum(np.abs(a), np.abs(b))[nonzero]
    rel[np.isnan(rel)] = np.inf
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0)), a.tobytes() == b.tobytes()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first --out tree")
    parser.add_argument("b", type=Path, help="second --out tree")
    args = parser.parse_args()
    scenarios = sorted(p.name for p in args.a.iterdir() if (args.b / p.name).is_dir())
    if not scenarios:
        print(f"no scenario directory in both {args.a} and {args.b}", file=sys.stderr)
        return 2
    header = f"{'scenario':<16} {'file':<18} {'column':<20} {'max_abs':>10} {'max_rel':>10}  bitwise"
    print(header)
    print("-" * len(header))
    moved = 0
    for name in scenarios:
        for file in FILES:
            pa, pb = args.a / name / file, args.b / name / file
            if not pa.exists() and not pb.exists():
                continue
            if not (pa.exists() and pb.exists()):
                print(f"{name:<16} {file:<18} only in {args.a if pa.exists() else args.b}")
                moved += 1
                continue
            ca, cb = read_columns(pa), read_columns(pb)
            for column in dict.fromkeys([*ca, *cb]):
                if column in ca and column in cb:
                    dev_abs, dev_rel, same = deviation(ca[column], cb[column])
                else:
                    dev_abs, dev_rel, same = float("inf"), float("inf"), False
                moved += not same
                print(f"{name:<16} {file:<18} {column:<20} {dev_abs:>10.3g} {dev_rel:>10.3g}  "
                      f"{'yes' if same else 'no'}")
    print(f"{moved} column(s) differ" if moved else "every column is bitwise equal")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
