#!/usr/bin/env python3
"""Flat-metric convergence of shrinking Gaussians, and a counterexample.

Part 1: quantized Gaussians with width sigma_n = sigma* + 1/n converge
in flat metric to the sigma* Gaussian; the table shows the O(1/n)
decay of the distance.

Part 2: the escaping-profile family u_n = n * 1_[0, 1/n] converges to
the unit Dirac at 0 in flat metric while its L^2 norm sqrt(n) blows
up: norm control does not pass to weak limits in the other direction.

Usage:
    python scripts/metric_convergence.py [--sigma S] [--ns N1,N2,...]
"""
import argparse
import sys

from mvt.flat_metric import fm_distance
from mvt.grids import gaussian_density, indicator_density, lp_norm, quantize
from mvt.measures import dirac


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sigma", type=float, default=0.25, help="limit width")
    parser.add_argument(
        "--ns",
        default="1,2,5,10,20,50,100,200,500",
        help="comma-separated sequence indices",
    )
    parser.add_argument("--cells", type=int, default=512)
    args = parser.parse_args()
    ns = [int(tok) for tok in args.ns.split(",")]

    box = (-4.0, 4.0)
    limit = quantize(
        gaussian_density([box[0]], [box[1]], args.cells, args.sigma, [0.0], 2.0)
    )
    print(f"Gaussian widths sigma_n = {args.sigma} + 1/n, {args.cells} cells")
    print(f"{'n':>6} {'sigma_n':>9} {'fm_distance':>12} {'n*distance':>11}")
    for n in ns:
        u_n = quantize(
            gaussian_density([box[0]], [box[1]], args.cells, args.sigma + 1.0 / n, [0.0], 2.0)
        )
        d = fm_distance(u_n, limit)
        print(f"{n:>6} {args.sigma + 1.0 / n:>9.4f} {d:>12.3e} {n * d:>11.3f}")

    print()
    print("escaping profiles u_n = n * 1_[0,1/n]: flat limit delta_0, L2 norm sqrt(n)")
    print(f"{'n':>6} {'fm_to_delta0':>13} {'l2_norm':>9}")
    target = dirac(0.0, 1.0)
    for n in ns:
        u_n = indicator_density([-1.0], [1.0], args.cells, [0.0], [1.0 / n], float(n), 2.0)
        print(
            f"{n:>6} {fm_distance(quantize(u_n), target):>13.3e} "
            f"{lp_norm(u_n):>9.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
