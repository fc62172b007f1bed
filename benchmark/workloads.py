"""The benchmark's workloads: CLI commands built from a seed, and their output checks.

Each check reads what a command wrote into the work directory and returns an
error message, or None when the output is right.  Checks run outside the
timed region and use references of their own (scipy's Airy functions, a
direct `np.histogram`), apart from re-deriving replicates with
`sample_spectrum`, which is the definition of a replicate stream.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass
from math import sqrt
from pathlib import Path
from typing import Callable

Check = Callable[[Path, int], "str | None"]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files it writes, relative to the work directory
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    replicates: int | None  # Monte Carlo replicates per iteration, for replicates_per_s
    kernel: str  # the speed-probe kernel its run time scales with (child.SpeedProbe)
    commands: Callable[[int], list[Command]]


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- edge-n400 ---------------------------------------------------------------

EDGE_BINS = 28
EDGE_REPS = 2000
EDGE_TOL = 0.1  # acceptance criterion 2: sup |height - aibeta| on t in [-4, 1]
# The check is statistical: at n=400, R=2000 the sup distance sits near its
# tolerance and exceeds it for about one master seed in fifty (seed 403 gives
# 0.1046), a false alarm rather than a regression.  The benchmark seed picks
# from seeds 0..29, which all pass on the code the benchmark was defined on.
EDGE_SEEDS = tuple(range(30))


def _check_edge(work: Path, seed: int) -> str | None:
    import numpy as np
    from scipy.special import airy

    header, body = _rows(work / "edge.csv")
    if header != ["bin_lo", "bin_hi", "height", "aibeta"] or len(body) != EDGE_BINS:
        return f"edge.csv: header {header}, {len(body)} rows; want 4 columns, {EDGE_BINS} rows"
    lo, hi, height, ref_cli = np.array(body, dtype=float).T
    x = 0.5 * (lo + hi)
    ai, aip, _, _ = airy(x)
    ref = aip**2 - x * ai**2
    if not np.allclose(ref_cli, ref, rtol=1e-8, atol=1e-10):
        return f"aibeta column differs from scipy by {np.max(np.abs(ref_cli - ref)):.3g}"
    meta = json.loads((work / "edge.csv.json").read_text())
    if meta.get("n_samples") != EDGE_REPS:
        return f"edge.csv.json: n_samples {meta.get('n_samples')}, want {EDGE_REPS}"
    window = (x >= -4.0) & (x <= 1.0)
    sup = float(np.max(np.abs(height[window] - ref[window])))
    if sup > EDGE_TOL:
        return f"sup |height - aibeta| on [-4, 1] is {sup:.4f} > {EDGE_TOL}"
    return None


def edge_n400(seed: int) -> list[Command]:
    argv = ("density", "--regime", "edge", "--kind", "gaussian", "--n", "400", "--beta", "2",
            "--reps", str(EDGE_REPS), "--grid-lo", "-5", "--grid-hi", "2",
            "--bins", str(EDGE_BINS), "--reference", "aibeta",
            "--seed", str(EDGE_SEEDS[seed % len(EDGE_SEEDS)]), "--output", "edge.csv")
    return [Command(argv, ("edge.csv", "edge.csv.json"), _check_edge)]


# -- pipeline-n20 ------------------------------------------------------------

PIPE_N = 20
PIPE_REPS = 20_000


def _spectra_csv(work: Path):
    """The sample CSV's eigenvalues as a (replicates, n) array, or an error."""
    path = work / "spectra.csv"
    return _parse_spectra(str(path), path.stat().st_mtime_ns)


@functools.lru_cache(maxsize=1)  # both pipeline checks read the same file
def _parse_spectra(path: str, mtime_ns: int):
    import numpy as np

    header, body = _rows(Path(path))
    if header != ["replicate", "index", "eigenvalue"] or len(body) != PIPE_REPS * PIPE_N:
        return None, f"spectra.csv: header {header}, {len(body)} rows; want {PIPE_REPS * PIPE_N}"
    keys = np.array([(int(r), int(i)) for r, i, _ in body])
    rows = np.arange(len(body))
    if not (np.array_equal(keys[:, 0], rows // PIPE_N)
            and np.array_equal(keys[:, 1], rows % PIPE_N)):
        return None, "spectra.csv: replicate/index columns are not in order"
    return np.array([float(v) for _, _, v in body]).reshape(PIPE_REPS, PIPE_N), None


def _check_sample(work: Path, seed: int) -> str | None:
    import numpy as np
    from betahermite.ensemble import EnsembleKind, EnsembleParams, SampleSeed
    from betahermite.tridiag import sample_spectrum

    values, err = _spectra_csv(work)
    if err:
        return err
    params = EnsembleParams(PIPE_N, 2.0, EnsembleKind.FIXED_TRACE)
    for r in sorted({0, 1, PIPE_REPS // 2, PIPE_REPS - 1, (seed * 7919) % PIPE_REPS}):
        if not np.array_equal(sample_spectrum(params, SampleSeed(seed, r)).values, values[r]):
            return f"spectra.csv replicate {r} differs from sample_spectrum"
    return None


def _check_density_input(work: Path, seed: int) -> str | None:
    import numpy as np

    values, err = _spectra_csv(work)
    if err:
        return err
    header, body = _rows(work / "bulk.csv")
    if header[:3] != ["bin_lo", "bin_hi", "height"]:
        return f"bulk.csv: header {header}"
    grid = np.linspace(-1.2, 1.2, 61)  # the CLI's default bulk grid
    counts, _ = np.histogram(values.ravel() / sqrt(2.0 * PIPE_N), bins=grid)
    want = counts / (values.size * np.diff(grid))
    got = np.array([float(row[2]) for row in body])
    if got.shape != want.shape or not np.array_equal(got, want):
        return "bulk.csv heights differ from a direct histogram of spectra.csv"
    return None


def pipeline_n20(seed: int) -> list[Command]:
    common = ("--kind", "fixed-trace", "--n", str(PIPE_N), "--beta", "2")
    sample = ("sample", *common, "--reps", str(PIPE_REPS), "--seed", str(seed),
              "--output", "spectra.csv")
    density = ("density", "--input", "spectra.csv", *common, "--regime", "bulk",
               "--reference", "semicircle", "--output", "bulk.csv")
    return [Command(sample, ("spectra.csv", "spectra.csv.json"), _check_sample),
            Command(density, ("bulk.csv", "bulk.csv.json"), _check_density_input)]


# -- verify-all --------------------------------------------------------------

VERIFY_CHECKS = 20
# The Monte Carlo checks in `verify` are 3-sigma tests that by design fail on
# about one master seed in a hundred.  Such a failure is a false alarm, not a
# regression, so the benchmark seed picks from the seeds in 0..24 that pass on
# the code the benchmark was defined on.  Seed 20 is out: its n=10
# moments-equivalence metric is 0.0618 against a tolerance of 0.0611.  The
# work done is the same for every seed.
VERIFY_SEEDS = tuple(s for s in range(25) if s != 20)


def _check_verify(work: Path, seed: int) -> str | None:
    report = json.loads((work / "report.json").read_text())
    checks = report.get("checks", [])
    failed = [c["check_name"] for c in checks if not c["passed"]]
    if len(checks) != VERIFY_CHECKS or failed or report.get("all_passed") is not True:
        return f"report.json: {len(checks)} checks, failed {failed}"
    return None


def verify_all(seed: int) -> list[Command]:
    argv = ("verify", "--check", "all", "--seed", str(VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]),
            "--output", "report.json")
    return [Command(argv, ("report.json",), _check_verify)]


WORKLOADS = {
    w.name: w for w in (
        Workload("edge-n400", EDGE_REPS, "lapack", edge_n400),
        Workload("pipeline-n20", PIPE_REPS, "numpy", pipeline_n20),
        Workload("verify-all", None, "numpy", verify_all),
    )
}
