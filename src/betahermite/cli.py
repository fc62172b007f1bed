"""Command-line interface: sample, density, special, verify.

This is the one module that reads and writes files: the other modules only
compute.  The density and `special` tables, stdout included, go through
`_write_csv`, the spectra CSV through `_spectra_lines` (csv.writer's dialect,
a block at a time: a template of "r,i,%r" lines, its replicate numbers put in
by `str.join`, and one `%` over the block's floats to put in their reprs), and
every sidecar, <output>.json, through `_write_sidecar`; each output file is a
pure function of its sidecar.  `density --input` reads a spectra CSV back
through `_read_spectra`: the header on its own, then the body in one typed
`np.loadtxt` pass, integer replicate and index keys and float eigenvalues,
refused unless its replicate count is its sidecar's.  A density sidecar
records its grid in the regime's coordinate and on the eigenvalue axis
(`lambda_lo`, `lambda_hi`).  `sample` and `density` walk the replicates with
`ensemble.replicate_blocks`, one stream block at a time, so memory stays
bounded at any --reps; the sidecars record the stream layout as "stream".
`sample`, `density` and `verify` print one "[time] <stage> <seconds> s" line
per stage (per check for `verify`; `density --input` times its read and its
binning apart) on stderr, never in a file, and only after every stage has run,
so a refusal's stderr starts with "error:".  Every command refuses an --output
that is a directory, or whose directory does not exist, before it samples,
tabulates or runs a check (`_output_path`).  A command refuses its input by
raising ValueError, and `main` alone maps that, and any OSError (a missing
input, an --output that cannot be written), to an "error:" line and exit
status 2.  `special` refuses a flag that its --fn or --x does not read (--beta,
--kn, an x range), so its sidecar records only the flags that shaped its table.
Exit status: 0 all good, 1 check failure or a `special` value (or its error
estimate) that is not finite, with no table written, 2 usage error.
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
from .density import (DensityEstimate, Regime, estimate_density, grid_to_lambda, sample_density,
                      semicircle_bins)
from .ensemble import STREAM_LAYOUT, EnsembleKind, EnsembleParams, replicate_blocks
from .kontsevich import kontsevich_k
from .tridiag import eigenvalues_block

USAGE_ERROR = 2
SPECTRA_HEADER = "replicate,index,eigenvalue"
MAX_TABLE_ROWS = 1_000_000  # rows one `density` or `special` table may hold
# each `density --reference`: the regime of its coordinate (semicircle: bulk u; aibeta: edge t,
# at the bin midpoints), and its column on a grid's bins at a beta, looked up when it is built
_REFERENCES = {
    "semicircle": (Regime.BULK, lambda grid, beta: semicircle_bins(grid)),
    "aibeta": (Regime.EDGE,
               lambda grid, beta: edge_density_closed(beta, 0.5 * (grid[1:] + grid[:-1]))),
}


def _params(args) -> EnsembleParams:
    kind = EnsembleKind(args.kind)
    return EnsembleParams(n=args.n, beta=args.beta, kind=kind)


def _write_csv(fh, header, rows, lineterminator="\r\n") -> None:
    """Write ``header`` and ``rows`` to the text stream ``fh`` in csv.writer's dialect:
    a float cell as its repr, a None cell empty."""
    w = csv.writer(fh, lineterminator=lineterminator)
    w.writerow(header)
    w.writerows(rows)


def _output_path(name) -> Path:
    """``name`` as a Path, refused unless a file can be written there: not a
    directory, and in a directory that exists.  Nothing is created."""
    out = Path(name)
    if out.is_dir():
        raise ValueError(f"--output {out} is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"--output {out}: there is no directory {out.parent}")
    return out


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
    """The sidecar fields of a density estimate: its grid and the grid's ends on the
    eigenvalue axis (`grid_to_lambda`), normalization, mass outside the grid and
    counting route, and the ensemble."""
    lambda_lo, lambda_hi = grid_to_lambda(d.grid[[0, -1]], d.regime, params).tolist()
    return {
        "regime": d.regime.value,
        "n_samples": d.n_samples,
        "grid_lo": float(d.grid[0]),
        "grid_hi": float(d.grid[-1]),
        "lambda_lo": lambda_lo,
        "lambda_hi": lambda_hi,
        "bins": int(len(d.height)),
        "normalization": "per-replicate" if d.regime is Regime.EDGE else "per-eigenvalue",
        "eigs_below": d.below,
        "eigs_above": d.above,
        "captured_fraction": d.captured_fraction,
        "count_route": d.count_route,
        "params": {"n": params.n, "beta": params.beta, "kind": params.kind.value},
    }


def _spectra_lines(start: int, values: np.ndarray) -> str:
    """The CSV lines of a block's (R, n) eigenvalues, replicates start..start+R-1.

    Each line is "replicate,index,repr(eigenvalue)" ending in "\r\n", as
    csv.writer writes it.  The block's template holds, per replicate r, the n
    lines "r,0,%r\r\n" to "r,n-1,%r\r\n": `str.join` with r as the separator
    puts r in front of each ",i,%r\r\n" cell.  One `%` over the block's floats
    then fills in every %r, and `%r` of a Python float is its repr (hence
    `.tolist()`: a numpy scalar's repr is "np.float64(...)").  So the block
    makes no string per eigenvalue.
    """
    cells = ["", *(f",{i},%r\r\n" for i in range(values.shape[1]))]
    template = "".join([str(r).join(cells) for r in range(start, start + len(values))])
    return template % tuple(values.ravel().tolist())


def cmd_sample(args) -> int:
    params = _params(args)
    if args.reps < 1:
        raise ValueError("need at least one replicate")
    out = _output_path(args.output)
    clock = _Stages("sample", "solve", "write")
    with out.open("w", newline="") as fh:
        fh.write(SPECTRA_HEADER + "\r\n")
        clock.lap("write")
        for first, diag, sub in replicate_blocks(params, args.seed, args.reps):
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

    The sidecar fixes the ensemble, the master seed and the replicate count;
    flags or a CSV that disagree with it are an error rather than a silently
    mis-scaled density.  The CSV must have the layout `sample` writes: its
    header, then row k holds replicate k // n and index k % n, both integers.
    The body is parsed in one `np.loadtxt` pass into integer keys and float
    eigenvalues.
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
        reps = int(cfg["reps"])
        master_seed = int(cfg["seed"])
    except (KeyError, TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
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
        # a numpy that still parses a non-integer key such as 0.5 as a float truncates it
        # and only warns; as an error the key is refused like any unparsable field
        warnings.simplefilter("error", DeprecationWarning)
        try:
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1,
                               dtype=[("r", np.int64), ("i", np.int64), ("v", float)])
        except ValueError as exc:
            raise ValueError(f"{path}: not a `sample` CSV: {exc}") from exc
    if len(table) == 0:
        raise ValueError(f"{path}: no eigenvalue rows below the header")
    if (len(table) % n
            or not (table["r"].reshape(-1, n) == np.arange(len(table) // n)[:, None]).all()
            or not (table["i"].reshape(-1, n) == np.arange(n)).all()):
        raise ValueError(f"{path}: rows must run replicate 0, 1, ... with index 0..{n - 1} "
                         "each, as `sample` writes them")
    values = table["v"].reshape(-1, n)
    if len(values) != reps:
        raise ValueError(f"{path} holds {len(values)} replicates, but its sidecar {sidecar} "
                         f"records --reps {reps}")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: eigenvalues must be finite")
    return values, master_seed, stream


def cmd_density(args) -> int:
    clock = _Stages("reference", *(("read", "bin") if args.input else ("sample+count",)), "write")
    params = _params(args)
    if not 0 < args.grid_hi - args.grid_lo < np.inf:
        raise ValueError("--grid-lo and --grid-hi must be finite, with --grid-hi above --grid-lo")
    regime = Regime(args.regime)
    want, column = _REFERENCES.get(args.reference, (regime, None))
    if want is not regime:
        raise ValueError(f"--reference {args.reference} is the {want.value} density; "
                         f"it needs --regime {want.value}, not {regime.value}")
    if args.bins < 1:
        raise ValueError(f"--bins must be at least 1, got {args.bins}")
    if args.bins > MAX_TABLE_ROWS:
        raise ValueError(f"--bins {args.bins} is over the cap of {MAX_TABLE_ROWS}")
    grid = np.linspace(args.grid_lo, args.grid_hi, args.bins + 1)
    if np.any(np.diff(grid) <= 0):
        raise ValueError("the --bins bins of [--grid-lo, --grid-hi] must have nonzero width")
    given = [f"--{k}" for k in ("reps", "seed") if getattr(args, k) is not None]
    if args.input and given:
        raise ValueError(f"{' and '.join(given)} would be ignored: --input takes the "
                         "replicates and seed of its spectra")
    out = _output_path(args.output)
    # the reference first: a beta or grid it cannot be evaluated on is refused before sampling
    ref = {args.reference: column(grid, params.beta)} if column else {}
    clock.lap("reference")
    stream = STREAM_LAYOUT
    if args.input:
        values, master_seed, stream = _read_spectra(args.input, params)
        clock.lap("read")
        # the sidecar records the spectra's seed, count and layout, not the flags
        args.seed, args.reps = master_seed, len(values)
        d = estimate_density(list(values), params, grid, regime)
        clock.lap("bin")
    else:
        args.reps = 100 if args.reps is None else args.reps
        args.seed = 0 if args.seed is None else args.seed
        d = sample_density(params, args.seed, args.reps, grid, regime)
        clock.lap("sample+count")
    if d.below + d.above == d.n_values:
        raise ValueError("no eigenvalue falls inside the grid; adjust --grid-lo/--grid-hi")
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
    # a flag that --fn or --x does not read is refused, not dropped; one that is read takes
    # its default when not given, so the sidecar records only the flags that shaped the table
    ranged = args.x is None
    flags = {"beta": (2.0, args.fn in ("aibeta", "kontsevich")), "kn": (2, args.fn == "kontsevich"),
             "x_lo": (-5.0, ranged), "x_hi": (3.0, ranged), "x_step": (0.25, ranged)}
    unread = [f"--{k.replace('_', '-')}" for k, (_, read) in flags.items()
              if getattr(args, k) is not None and not read]
    if unread:
        raise ValueError(f"{' and '.join(unread)} would be ignored by "
                         f"`special --fn {args.fn}{'' if ranged else ' --x'}`")
    for k, (default, read) in flags.items():
        if read and getattr(args, k) is None:
            setattr(args, k, default)
    if ranged and not (args.x_step > 0 and args.x_lo <= args.x_hi):
        raise ValueError("--x-step must be positive and --x-lo must not exceed --x-hi")
    if not np.isfinite([args.x_lo, args.x_hi] if ranged else [args.x]).all():
        raise ValueError("--x, --x-lo and --x-hi must be finite")
    if ranged:
        # the length np.arange gives, counted before anything is allocated
        count = np.ceil((args.x_hi + 1e-12 - args.x_lo) / args.x_step)
        if not count <= MAX_TABLE_ROWS:
            raise ValueError(f"--x-lo, --x-hi and --x-step give {count:g} points, "
                             f"over the cap of {MAX_TABLE_ROWS}")
    out = _output_path(args.output) if args.output else None
    xs = np.arange(args.x_lo, args.x_hi + 1e-12, args.x_step) if ranged else np.array([args.x])
    rows = []
    # a value or error that is not finite is a failed evaluation: exit 1, no table
    if args.fn == "kontsevich":
        for x in xs.tolist():
            r = kontsevich_k(args.kn, args.beta, x)
            if not r.converged:
                print(f"error: --fn kontsevich is not finite at x={x} on the {r.route} route "
                      f"(value {r.value!r}, error {r.error!r})", file=sys.stderr)
                return 1
            rows.append((x, r.value, r.error))
    else:
        fn = {
            "ai": airy_ai,
            "ai-prime": airy_ai_prime,
            "ai-tail": airy_tail,
            "aibeta": lambda x: edge_density_closed(args.beta, x),
        }[args.fn]
        values = fn(xs)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            print(f"error: --fn {args.fn} is not finite at x={xs[bad[0]].item()}", file=sys.stderr)
            return 1
        rows = [(x, v, None) for x, v in zip(xs.tolist(), values.tolist())]
    header = ("x", "value", "error_estimate")
    if out is not None:
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
    out = _output_path(args.output) if args.output else None
    # seconds go to stderr only: the report is a pure function of its flags
    clock = _Stages(*names)
    for name in names:
        results += run_checks([name], master_seed=args.seed, n=args.n, beta=args.beta)
        clock.lap(name)
    report = {
        "seed": args.seed,
        "checks": [dataclasses.asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if out is not None:
        out.write_text(text + "\n")
    else:
        print(text)
    clock.report()
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
    pd.add_argument("--reps", type=int, default=None, help="replicates to sample (default 100)")
    pd.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    pd.add_argument("--input", default=None, metavar="SPECTRA_CSV",
                    help="reuse spectra from a `sample` run instead of sampling inline; "
                         "their sidecar fixes the replicates and seed: no --reps or --seed")
    pd.add_argument("--regime", choices=[r.value for r in Regime], default="bulk")
    pd.add_argument("--grid-lo", type=float, default=-1.2)
    pd.add_argument("--grid-hi", type=float, default=1.2)
    pd.add_argument("--bins", type=int, default=60)
    pd.add_argument("--reference", choices=list(_REFERENCES), default=None)
    pd.add_argument("--output", default="density.csv")
    pd.set_defaults(func=cmd_density)

    pf = sub.add_parser("special", help="tabulate the limiting special functions")
    pf.add_argument("--fn", choices=["ai", "ai-prime", "ai-tail", "aibeta", "kontsevich"],
                    required=True)
    pf.add_argument("--beta", type=float, default=None, help="for aibeta, kontsevich (default 2)")
    pf.add_argument("--kn", type=int, default=None, metavar="N",
                    help="number of integration variables for --fn kontsevich (default 2)")
    pf.add_argument("--x", type=float, default=None, help="one point, instead of a table")
    pf.add_argument("--x-lo", type=float, default=None, help="table start (default -5)")
    pf.add_argument("--x-hi", type=float, default=None, help="table end (default 3)")
    pf.add_argument("--x-step", type=float, default=None, help="table step (default 0.25)")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
