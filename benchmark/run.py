"""Benchmark of the betahermite CLI: measure a workload, print its metrics as JSON.

    python3 benchmark/run.py --workload edge-n400 --seed 1 --seconds 36 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 36

Workloads are in `workloads.py`.  The load is a closed loop with one client:
each CLI command runs in a fresh single-threaded Python process (child.py),
one at a time, and the workload repeats for as many whole iterations as fit
in `--seconds` of wall time.  Every command's output is checked outside the
timed region.

--trace 0 reports the end-to-end metrics: run_s (seconds inside `cli.main`
per iteration), setup_s (seconds to import `betahermite.cli`) and
peak_rss_mb, each the median over the run.  The two times are scaled to a
reference host speed by an in-process speed probe (child.SpeedProbe).
--trace 1 alternates untraced and traced iterations, without the probe, and
reports per-layer self times and counts (spans.py).  The last line of stdout
is the result object; the lines before it give provenance and a readable
summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEADLINE_S = 165.0  # a run must end within 180 s
SETUP_PROBES = 4  # import-only processes per untraced run, besides each command's own import
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Children:
    """Starts child.py processes in the work directory, one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "BETAHERMITE_THREADS"}
        self.env.update(dict.fromkeys(THREAD_VARS, "1"), TMPDIR=str(work))
        self.started = 0

    def run(self, argv=(), trace_id: str | None = None, provenance: bool = False,
            speed_probe: str | None = None) -> dict | None:
        """Run one child; return its result, or None when it failed or ran out of time."""
        self.started += 1
        result = self.work / f"result-{self.started}.json"
        cmd = [sys.executable, "-I", str(HERE / "child.py"), "--src", str(SRC),
               "--result", str(result)]
        if trace_id is not None:
            cmd += ["--trace", trace_id]
        if provenance:
            cmd.append("--provenance")
        if speed_probe is not None:
            cmd += ["--speed-probe", speed_probe]
        cmd += ["--", *argv]
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=max(self.deadline - monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            print(f"timed out: {' '.join(argv) or 'import'}", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.exists():
            print(f"child failed ({proc.returncode}): {' '.join(argv) or 'import'}\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        out = json.loads(result.read_text())
        result.unlink()
        return out


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _provenance(children: Children, seed: int, traced: bool) -> dict:
    warm = children.run(provenance=True)  # also compiles bytecode and warms the file cache
    if warm is None:
        raise SystemExit("cannot import betahermite.cli from src/")
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    cpu = next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")), None)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu": cpu, **warm["provenance"], "git_commit": commit,
            "seed": seed, "traced": traced}


class Loop:
    """Runs a workload's iterations, checks each command, and keeps the samples."""

    def __init__(self, workload, seed: int, children: Children):
        self.workload = workload
        self.seed = seed
        self.commands = workload.commands(seed)
        self.children = children
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.iterations = 0

    def _check(self, i: int, cmd, res: dict | None) -> str | None:
        if res is None:
            return "no result"
        if res["exit"] != 0:
            return f"exit status {res['exit']}"
        digest = _digest(self.children.work / p for p in cmd.outputs)
        if i not in self.digests:
            self.digests[i] = digest
            return cmd.check(self.children.work, self.seed)
        if digest != self.digests[i]:
            return "outputs differ from the first iteration's"
        return None

    def iteration(self, traced: bool, speed_probe: str | None = None) -> list[dict] | None:
        """One pass over the workload's commands, each checked and counted.

        Returns the commands' results, or None when one of them produced none
        (it crashed or ran out of time).
        """
        self.iterations += 1
        results = []
        for i, cmd in enumerate(self.commands):
            trace_id = f"{self.workload.name}-{self.iterations}-{i}" if traced else None
            self.attempted += 1
            res = self.children.run(cmd.argv, trace_id, speed_probe=speed_probe)
            err = self._check(i, cmd, res)
            if err is not None:
                self.failed += 1
                print(f"{self.workload.name}: {cmd.argv[0]}: {err}", file=sys.stderr)
            results.append(res)
        for cmd in self.commands:
            for p in cmd.outputs:
                (self.children.work / p).unlink(missing_ok=True)
        return None if None in results else results


# The speed-probe kernels' times on the host the benchmark was defined on, at
# its faster speed.  A time measured under a probe is scaled by the kernel's
# reference time over its mean time in that region, so it reads as seconds
# on that host whatever the speed the host ran at (child.SpeedProbe).
PROBE_REFERENCE_S = {"python": 1.4e-4, "numpy": 8.0e-4, "lapack": 3.0e-4}


def _at_reference(seconds: float, probe_s: float, kernel: str) -> float:
    return seconds * PROBE_REFERENCE_S[kernel] / probe_s


def _due(done_one: bool, last_s: float, end: float, deadline: float) -> bool:
    """Whether to start another iteration: the first always, later ones only
    if one as long as the last ends by `end`."""
    now = monotonic()
    return now < deadline and (not done_one or now + last_s <= end)


def measure(loop: Loop, children: Children, seconds: float) -> tuple[dict | None, list[str]]:
    end = monotonic() + seconds
    kernel = loop.workload.kernel
    run_s, raw_run_s, rss, setup, raw_setup = [], [], [], [], []

    def imported(res: dict) -> None:
        raw_setup.append(res["import_s"])
        setup.append(_at_reference(res["import_s"], res["import_probe_s"], "python"))

    for _ in range(SETUP_PROBES):
        # an import-only child probes its import with the pure-Python kernel
        probe = children.run(speed_probe=kernel)
        loop.attempted += 1
        if probe is None:
            loop.failed += 1
        else:
            imported(probe)
    last_s = 0.0
    while _due(bool(run_s), last_s, end, children.deadline):
        t0 = monotonic()
        results = loop.iteration(traced=False, speed_probe=kernel)
        if results is None:
            break
        last_s = monotonic() - t0
        for r in results:
            imported(r)
        run_s.append(sum(_at_reference(r["run_s"], r["run_probe_s"], kernel) for r in results))
        raw_run_s.append(sum(r["run_s"] for r in results))
        rss.append(max(r["peak_rss_mb"] for r in results))
    if not run_s:
        return None, []
    median = statistics.median
    metrics = {"run_s": median(run_s), "setup_s": median(setup), "peak_rss_mb": median(rss)}
    fmt = " ".join
    notes = [f"run_s: median of {len(run_s)} iterations ({fmt(f'{x:.4g}' for x in run_s)}), "
             f"scaled by the '{kernel}' speed probe; unscaled {median(raw_run_s):.4g} s "
             f"({fmt(f'{x:.4g}' for x in raw_run_s)})",
             f"setup_s: median of {len(setup)} imports, scaled by the 'python' speed probe; "
             f"unscaled {median(raw_setup):.4g} s",
             f"peak_rss_mb: median of {len(rss)} iterations"]
    if loop.workload.replicates:
        rate = median([loop.workload.replicates / s for s in run_s])
        notes.append(f"replicates_per_s {rate:.6g} 1/s "
                     f"({loop.workload.replicates} replicates over scaled run_s, "
                     f"median of {len(run_s)})")
    return metrics, notes


def measure_traced(loop: Loop, children: Children,
                   seconds: float) -> tuple[dict | None, list[str]]:
    import spans

    end = monotonic() + seconds
    plain, traced, layers = [], [], []
    last_s = 0.0
    while _due(bool(traced), last_s, end, children.deadline):
        t0 = monotonic()
        base = loop.iteration(traced=False)
        results = loop.iteration(traced=True) if base is not None else None
        if results is None:
            break
        last_s = monotonic() - t0
        plain.append(sum(r["run_s"] for r in base))
        traced.append(sum(r["run_s"] for r in results))
        m = spans.layer_metrics([r["trace"] for r in results])
        m["cli.bytes_written"] = sum(r["bytes_written"] for r in results)
        m["cli.bytes_read"] = sum(r["bytes_read"] for r in results)
        layers.append(m)
    if not layers:
        return None, []
    # every layer metric comes from the one traced iteration with the median run_s,
    # so that they add up as the spans did
    run_s = statistics.median_low(traced)
    metrics = layers[traced.index(run_s)]
    metrics["trace.run_s"] = run_s
    metrics["trace.overhead_frac"] = run_s / statistics.median(plain) - 1.0
    return metrics, [f"the median of {len(traced)} traced iterations, "
                     f"against the median of {len(plain)} untraced ones"]


def run_workload(workload, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload and print its provenance, summary and result lines."""
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        children = Children(Path(tmp), monotonic() + DEADLINE_S)
        provenance = _provenance(children, seed, trace)
        loop = Loop(workload, seed, children)
        if trace:
            metrics, notes = measure_traced(loop, children, seconds)
            units = _units("per_layer")
        else:
            metrics, notes = measure(loop, children, seconds)
            units = _units("end_to_end")
    print(json.dumps({"provenance": provenance}))
    if metrics is None:
        print(f"error: {workload.name}: no iteration completed", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(loop.attempted, 1),
                          "failed": max(loop.failed, 1), "metrics": {}}))
        return 1

    print(f"workload {workload.name}: {loop.attempted} processes, {loop.failed} failed, "
          f"failed_frac {loop.failed / loop.attempted:.6g} fraction")
    for name, unit in units.items():
        print(f"  {name:24s} {metrics[name]:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True,
                    help="'all' runs every workload in turn, each with its own result line")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "betahermite" / "cli.py").is_file():
        print(f"error: no betahermite sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the output checks import the package
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # subprocess.run kills its child

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status = max(status, run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                                          bool(args.trace)))
    return status


if __name__ == "__main__":
    sys.exit(main())
