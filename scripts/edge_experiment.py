#!/usr/bin/env python3
"""Soft-edge comparison: Gaussian vs fixed-trace edge histograms vs the
closed-form limit profile.

The two ensembles are sampled with independent streams and binned in edge
coordinates t = 2 N^(2/3) (lambda/edge - 1) as expected counts per unit t,
by Sturm counts at the bin edges (`betahermite.density.sample_density`).
For beta in {1, 2, 4} the closed form is the pointwise limit of both
histograms; residual deviations are finite-N bias plus Monte Carlo noise.

Usage: python scripts/edge_experiment.py [--n 400] [--reps 2000] [--beta 2]
"""

import argparse
import csv
import sys
import time

import numpy as np

from betahermite.airy import edge_density_closed, has_closed_edge_form
from betahermite.density import Regime, sample_density
from betahermite.ensemble import EnsembleKind, EnsembleParams


def edge_density(n, beta, kind, reps, seed, grid):
    return sample_density(EnsembleParams(n, beta, kind), seed, reps, grid, Regime.EDGE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=400)
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=77)
    ap.add_argument("--out", default="edge_comparison.csv")
    args = ap.parse_args()

    grid = np.linspace(-5.0, 2.0, 29)
    t0 = time.perf_counter()
    d_g = edge_density(args.n, args.beta, EnsembleKind.GAUSSIAN, args.reps, args.seed, grid)
    d_f = edge_density(args.n, args.beta, EnsembleKind.FIXED_TRACE, args.reps, args.seed + 1, grid)
    print(f"sampled 2 x {args.reps} replicates of N={args.n} in {time.perf_counter()-t0:.1f}s")

    centers = d_g.centers
    ref = None
    if has_closed_edge_form(args.beta):
        ref = edge_density_closed(args.beta, centers)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["t", "gaussian", "fixed_trace"] + (["closed_form"] if ref is not None else [])
        w.writerow(header)
        for i, t in enumerate(centers):
            row = [t, d_g.height[i], d_f.height[i]]
            if ref is not None:
                row.append(ref[i])
            w.writerow(row)
    gap = float(np.max(np.abs(d_g.height - d_f.height)))
    print(f"max |gaussian - fixed_trace| over bins: {gap:.4f}")
    if ref is not None:
        win = (centers >= -4.0) & (centers <= 1.0)
        print(f"sup |gaussian - closed| on [-4,1]: {np.max(np.abs(d_g.height[win]-ref[win])):.4f}")
        print(f"sup |fixed   - closed| on [-4,1]: {np.max(np.abs(d_f.height[win]-ref[win])):.4f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
