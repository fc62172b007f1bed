#!/usr/bin/env python3
"""Bulk-density convergence study for the fixed-trace ensemble.

Estimates the bulk-rescaled eigenvalue density across a ladder of matrix
sizes and reports the L1 distance to the semicircle, plus the weak-form
functional against the shipped bump, for beta in {1, 2, 4}.

Usage: python scripts/semicircle_experiment.py [--reps 500] [--out densities.csv]
"""

import argparse
import csv
import sys
import time

import numpy as np

from betahermite.density import Regime, bump, sample_density, semicircle_bins, weak_functional
from betahermite.ensemble import EnsembleKind, EnsembleParams


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200])
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--out", default="semicircle_densities.csv")
    args = ap.parse_args()

    grid = np.linspace(-1.2, 1.2, 61)
    ref = semicircle_bins(grid)
    f = bump(-0.5, 0.5)

    rows = []
    print(f"{'beta':>5} {'N':>5} {'L1 to semicircle':>18} {'weak functional':>16} {'secs':>6}")
    for beta in (1.0, 2.0, 4.0):
        for n in args.sizes:
            t0 = time.perf_counter()
            params = EnsembleParams(n, beta, EnsembleKind.FIXED_TRACE)
            d = sample_density(params, args.seed, args.reps, grid, Regime.BULK)
            l1 = float(np.sum(np.abs(d.height - ref) * d.widths))
            wf = weak_functional(d, f)
            dt = time.perf_counter() - t0
            print(f"{beta:5.1f} {n:5d} {l1:18.5f} {wf:16.6f} {dt:6.1f}")
            for c, h, r in zip(d.centers, d.height, ref):
                rows.append((beta, n, c, h, r))
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["beta", "n", "bin_center", "height", "semicircle"])
        w.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
