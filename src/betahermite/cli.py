"""Command-line interface: sample, density, special, verify.

This is the one module that reads and writes files: the other modules only
compute.  The density and `special` tables, stdout included, go through
`_write_csv`, the spectra CSV through `_spectra_lines` (csv.writer's dialect,
built a block at a time), and every sidecar, <output>.json, through
`_write_sidecar`; each output file is a pure function of its sidecar.
`sample` and `density` walk the replicates with `ensemble.replicate_blocks`,
one stream block at a time, so memory stays bounded at any --reps; the
sidecars record the stream layout as "stream".  `sample`, `density` and
`verify` print one "[time] <stage> <seconds> s" line per stage (per check for
`verify`) on stderr, never in a file, and only after every stage has run, so a
refusal's stderr starts with "error:".  A command refuses its input by raising
ValueError, and `main` alone maps that (and a missing file) to an "error:" line
and exit status 2.  Exit status: 0 all good, 1 check failure or unconverged
quadrature, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from . import __version__
from .airy import airy_ai, airy_ai_prime, airy_tail, edge_density_closed
from .checks import CHECK_NAMES, run_checks, validate_flags
from .density import (DensityEstimate, Regime, estimate_density, rescale, sample_density,
                      semicircle_bins)
from .ensemble import STREAM_LAYOUT, EnsembleKind, EnsembleParams, replicate_blocks
from .kontsevich import kontsevich_k
from .tridiag import eigenvalues_block

USAGE_ERROR = 2
SPECTRA_HEADER = "replicate,index,eigenvalue"
MAX_SPECIAL_POINTS = 1_000_000  # points one `special` table may hold


def _params(args) -> EnsembleParams:
    kind = EnsembleKind(args.kind)
    return EnsembleParams(n=args.n, beta=args.beta, kind=kind)


def _write_csv(fh, header, rows, lineterminator="\r\n") -> None:
    """Write ``header`` and ``rows`` to the text stream ``fh`` in csv.writer's dialect:
    a float cell as its repr, a None cell empty."""
    w = csv.writer(fh, lineterminator=lineterminator)
    w.writerow(header)
    w.writerows(rows)


def _write_sidecar(args, out: Path, **fields) -> None:
    """Write <out>.json: the command's flags (those set), the versions that ran, and
    ``fields``, as indented JSON with sorted keys."""
    cfg = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    versions = {"betahermite": __version__, "numpy": np.__version__, "scipy": scipy.__version__}
    meta = {"config": cfg, "versions": versions, **fields}
    Path(f"{out}.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


class _Stages:
    """Seconds per stage of a command, each stage the sum of its laps."""

    def __init__(self, *stages: str):
        self.seconds = dict.fromkeys(stages, 0.0)
        self._last = perf_counter()

    def lap(self, stage: str) -> None:
        """Add the seconds since the last lap (or since the start) to ``stage``."""
        now = perf_counter()
        self.seconds[stage] += now - self._last
        self._last = now

    def report(self) -> None:
        for stage, seconds in self.seconds.items():
            print(f"[time] {stage} {seconds:.3f} s", file=sys.stderr)


def _density_fields(d: DensityEstimate, params: EnsembleParams) -> dict:
    """The sidecar fields of a density estimate: its grid, normalization and mass
    outside the grid, and the ensemble."""
    return {
        "regime": d.regime.value,
        "n_samples": d.n_samples,
        "grid_lo": float(d.grid[0]),
        "grid_hi": float(d.grid[-1]),
        "bins": int(len(d.height)),
        "normalization": "per-replicate" if d.regime is Regime.EDGE else "per-eigenvalue",
        "eigs_below": d.below,
        "eigs_above": d.above,
        "captured_fraction": d.captured_fraction,
        "params": {"n": params.n, "beta": params.beta, "kind": params.kind.value},
    }


def _spectra_lines(start: int, values: np.ndarray) -> str:
    """The CSV lines of a block's (R, n) eigenvalues, replicates start..start+R-1.

    Each line is "replicate,index,repr(eigenvalue)" ending in "\r\n", as
    csv.writer writes it; the "r,i," prefixes are built once per block.
    """
    cols = [f",{i}," for i in range(values.shape[1])]
    prefixes = [f"{r}{c}" for r in range(start, start + len(values)) for c in cols]
    return "\r\n".join(map(str.__add__, prefixes, map(repr, values.ravel().tolist()))) + "\r\n"


def cmd_sample(args) -> int:
    params = _params(args)
    if args.reps < 1:
        raise ValueError("need at least one replicate")
    out = Path(args.output)
    clock = _Stages("sample", "solve", "write")
    with out.open("w", newline="") as fh:
        fh.write(SPECTRA_HEADER + "\r\n")
        clock.lap("write")
        for first, diag, sub in replicate_blocks(params, args.seed, 0, args.reps):
            clock.lap("sample")
            values = eigenvalues_block(diag, sub)
            clock.lap("solve")
            fh.write(_spectra_lines(first, values))
            clock.lap("write")
    _write_sidecar(args, out, stream=STREAM_LAYOUT)
    clock.lap("write")
    print(f"wrote {args.reps} replicates ({params.n} eigenvalues each) to {out}")
    clock.report()
    return 0


def _read_spectra(path, params) -> tuple[np.ndarray, int, object]:
    """The (replicates, n) eigenvalues of a `sample` CSV, and its sidecar's master seed and
    stream layout (None for a sidecar that records none).

    The sidecar fixes the ensemble and the master seed; flags that disagree
    with it are an error rather than a silently mis-scaled density.  The CSV
    must have the layout `sample` writes: its header, then row k holds
    replicate k // n and index k % n.
    """
    sidecar = Path(str(path) + ".json")
    if not sidecar.is_file():
        raise ValueError(f"{sidecar}: spectra sidecar not found; "
                         "--input takes a CSV written by `sample`")
    try:
        meta = json.loads(sidecar.read_text())
        cfg = meta["config"]
        stream = meta.get("stream")
        wrote = {"n": int(cfg["n"]), "beta": float(cfg["beta"]), "kind": cfg["kind"]}
        master_seed = int(cfg["seed"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{sidecar}: not a `sample` sidecar: {exc!r}") from exc
    asked = {"n": params.n, "beta": params.beta, "kind": params.kind.value}
    if wrote != asked:
        diff = ", ".join(f"--{k} {asked[k]} (spectra: {wrote[k]})" for k in wrote
                         if wrote[k] != asked[k])
        raise ValueError(f"{path} was sampled with other parameters: {diff}")
    n = params.n
    with Path(path).open() as fh:
        if fh.readline().strip() != SPECTRA_HEADER:
            raise ValueError(f"{path}: header is not {SPECTRA_HEADER!r}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body is reported below
            try:
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ValueError(f"{path}: not a `sample` CSV: {exc}") from exc
    if len(table) == 0:
        raise ValueError(f"{path}: no eigenvalue rows below the header")
    k = np.arange(len(table))
    if (len(table) % n or table.shape[1] != 3
            or not np.array_equal(table[:, 0], k // n) or not np.array_equal(table[:, 1], k % n)):
        raise ValueError(f"{path}: rows must run replicate 0, 1, ... with index 0..{n - 1} "
                         "each, as `sample` writes them")
    values = table[:, 2].reshape(-1, n)
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: eigenvalues must be finite")
    return values, master_seed, stream


def cmd_density(args) -> int:
    clock = _Stages("reference", "read+bin" if args.input else "sample+count", "write")
    params = _params(args)
    if not 0 < args.grid_hi - args.grid_lo < np.inf:
        raise ValueError("--grid-lo and --grid-hi must be finite, with --grid-hi above --grid-lo")
    regime = Regime(args.regime)
    grid = np.linspace(args.grid_lo, args.grid_hi, args.bins + 1)
    if len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("--bins must be at least 1, and the bins it makes of "
                         "[--grid-lo, --grid-hi] must have nonzero width")
    # the reference first: a beta or grid it cannot be evaluated on is refused before sampling
    ref = {}
    if args.reference == "semicircle":
        ref = {"semicircle": semicircle_bins(grid)}
    elif args.reference == "aibeta":
        ref = {"aibeta": edge_density_closed(params.beta, 0.5 * (grid[1:] + grid[:-1]))}
    clock.lap("reference")
    stream = STREAM_LAYOUT
    if args.input:
        values, master_seed, stream = _read_spectra(args.input, params)
        # the sidecar records the spectra's seed, count and layout, not the flags
        args.seed, args.reps = master_seed, len(values)
        d = estimate_density(list(rescale(values, regime, params)), grid, regime)
        clock.lap("read+bin")
    else:
        d = sample_density(params, args.seed, args.reps, grid, regime)
        clock.lap("sample+count")
    if d.n_disjoint == d.n_samples:
        raise ValueError("no samples meet the grid; adjust --grid-lo/--grid-hi")
    out = Path(args.output)
    columns = [d.grid[:-1], d.grid[1:], d.height, *ref.values()]
    with out.open("w", newline="") as fh:
        _write_csv(fh, ["bin_lo", "bin_hi", "height", *ref], zip(*(c.tolist() for c in columns)))
    fields = _density_fields(d, params)
    if stream is not None:
        fields["stream"] = stream
    _write_sidecar(args, out, **fields)
    clock.lap("write")
    print(f"wrote {regime.value} density ({args.bins} bins, {d.n_samples} replicates) to {out}")
    clock.report()
    return 0


def cmd_special(args) -> int:
    if args.x is None and not (args.x_step > 0 and args.x_lo <= args.x_hi):
        raise ValueError("--x-step must be positive and --x-lo must not exceed --x-hi")
    if not np.isfinite([args.x_lo, args.x_hi] if args.x is None else [args.x]).all():
        raise ValueError("--x, --x-lo and --x-hi must be finite")
    if args.x is None:
        # the length np.arange gives, counted before anything is allocated
        count = np.ceil((args.x_hi + 1e-12 - args.x_lo) / args.x_step)
        if not count <= MAX_SPECIAL_POINTS:
            raise ValueError(f"--x-lo, --x-hi and --x-step give {count:g} points, "
                             f"over the cap of {MAX_SPECIAL_POINTS}")
    xs = np.arange(args.x_lo, args.x_hi + 1e-12, args.x_step) if args.x is None else np.array([args.x])
    rows = []
    if args.fn == "kontsevich":
        for x in xs.tolist():
            r = kontsevich_k(args.kn, args.beta, x)
            if not r.converged:
                print(f"error: quadrature did not converge at x={x}", file=sys.stderr)
                return 1
            rows.append((x, r.value, r.error))
    else:
        fn = {
            "ai": airy_ai,
            "ai-prime": airy_ai_prime,
            "ai-tail": airy_tail,
            "aibeta": lambda x: edge_density_closed(args.beta, x),
        }[args.fn]
        rows = [(x, v, None) for x, v in zip(xs.tolist(), fn(xs).tolist())]
    header = ("x", "value", "error_estimate")
    if args.output:
        out = Path(args.output)
        with out.open("w", newline="") as fh:
            _write_csv(fh, header, rows)
        _write_sidecar(args, out)
    else:
        _write_csv(sys.stdout, header, rows, "\n")
    return 0


def cmd_verify(args) -> int:
    names = list(CHECK_NAMES) if args.check == "all" else [args.check]
    results = []
    validate_flags(names, n=args.n, beta=args.beta)
    # seconds go to stderr only: the report is a pure function of its flags
    clock = _Stages(*names)
    for name in names:
        results += run_checks([name], master_seed=args.seed, n=args.n, beta=args.beta)
        clock.lap(name)
    clock.report()
    report = {
        "seed": args.seed,
        "checks": [dataclasses.asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.check_name} {r.params}: metric={r.metric:.3e} tol={r.tolerance:.3e}",
              file=sys.stderr)
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="betahermite",
        description="Monte Carlo and exact verification for beta-Hermite and "
                    "fixed-trace beta-Hermite ensembles",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="sample spectra to CSV")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--beta", type=float, required=True)
    ps.add_argument("--kind", choices=[k.value for k in EnsembleKind], default="gaussian")
    ps.add_argument("--reps", type=int, default=1)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--output", default="spectra.csv")
    ps.set_defaults(func=cmd_sample)

    pd = sub.add_parser("density", help="estimate a scaled density to CSV")
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--beta", type=float, required=True)
    pd.add_argument("--kind", choices=[k.value for k in EnsembleKind], default="gaussian")
    pd.add_argument("--reps", type=int, default=100)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--input", default=None, metavar="SPECTRA_CSV",
                    help="reuse spectra from a `sample` run instead of sampling inline; "
                         "--reps and --seed are then taken from the spectra")
    pd.add_argument("--regime", choices=[r.value for r in Regime], default="bulk")
    pd.add_argument("--grid-lo", type=float, default=-1.2)
    pd.add_argument("--grid-hi", type=float, default=1.2)
    pd.add_argument("--bins", type=int, default=60)
    pd.add_argument("--reference", choices=["semicircle", "aibeta"], default=None)
    pd.add_argument("--output", default="density.csv")
    pd.set_defaults(func=cmd_density)

    pf = sub.add_parser("special", help="tabulate the limiting special functions")
    pf.add_argument("--fn", choices=["ai", "ai-prime", "ai-tail", "aibeta", "kontsevich"],
                    required=True)
    pf.add_argument("--beta", type=float, default=2.0)
    pf.add_argument("--kn", type=int, default=2, metavar="N",
                    help="number of integration variables for --fn kontsevich")
    pf.add_argument("--x", type=float, default=None)
    pf.add_argument("--x-lo", type=float, default=-5.0)
    pf.add_argument("--x-hi", type=float, default=3.0)
    pf.add_argument("--x-step", type=float, default=0.25)
    pf.add_argument("--output", default=None)
    pf.set_defaults(func=cmd_special)

    pv = sub.add_parser("verify", help="run exact/statistical verification checks")
    pv.add_argument("--check", choices=[*CHECK_NAMES, "all"], default="all")
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--beta", type=float, default=None)
    pv.add_argument("--seed", type=int, default=1)
    pv.add_argument("--output", default=None)
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
