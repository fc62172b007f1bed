"""One measured process: import `betahermite.cli`, then run one CLI command.

Usage: python -I child.py --src SRC --result FILE [--trace RUN_ID] [--provenance]
                          [--speed-probe numpy|lapack] [-- ARGV...]

With no ARGV the process only imports (a set-up probe).  The result file is
JSON with the import seconds, the seconds inside `cli.main`, its exit code,
peak RSS, the bytes the command wrote to and read from its working
directory, and with --trace the spans recorded around each layer.

With --speed-probe the import and the command are timed under a SpeedProbe,
the import with a pure-Python kernel and the command with the one named, and
the result also holds the kernel's mean time in each.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter


def _files(directory: Path) -> dict[str, tuple[int, int]]:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in directory.iterdir() if p.is_file()}


def _inputs(argv: list[str]) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--input"]


def _provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
    }


def _python_kernel() -> None:
    acc = 0
    for i in range(1500):
        acc += i * i % 7


def _numpy_kernel():
    import numpy as np

    x = np.random.default_rng(12345).standard_normal(20)

    def kernel() -> None:
        for _ in range(10):
            np.histogram(x, bins=10, range=(-3.0, 3.0))
            np.cumsum(x)

    return kernel


def _lapack_kernel():
    import numpy as np
    from scipy.linalg.lapack import dstev

    rng = np.random.default_rng(12345)
    d, e = rng.standard_normal(100), rng.standard_normal(99)
    return lambda: dstev(d, e, compute_v=0)


# The kernels a command can be probed with (run.py picks one per workload);
# an import is always probed with the pure-Python one, as numpy is not
# loaded yet.
RUN_KERNELS = {"numpy": _numpy_kernel, "lapack": _lapack_kernel}


class SpeedProbe:
    """Times a region, and with a kernel the host's speed while it runs.

    The host's speed changes by up to 2x from one second to the next, and
    differently on each CPU, so the speed a command ran at can only be taken
    in its own process while it runs.  Every PERIOD_S seconds a SIGALRM
    handler times the kernel, which is fixed work: its mean time over the
    region is the region's slowdown, up to a constant.  `elapsed` is the
    region's seconds less the kernel's own.
    """

    PERIOD_S = 0.04

    def __init__(self, kernel=None):
        self.kernel = kernel
        self.times: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        self.kernel()
        self.times.append(perf_counter() - t0)

    def __enter__(self):
        if self.kernel is not None:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.kernel is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.elapsed = perf_counter() - self.t0 - sum(self.times)
        if self.kernel is not None and not self.times:
            self._tick()

    def mean(self) -> float:
        return sum(self.times) / len(self.times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", metavar="RUN_ID", default=None)
    ap.add_argument("--provenance", action="store_true")
    ap.add_argument("--speed-probe", choices=tuple(RUN_KERNELS), default=None)
    ap.add_argument("argv", nargs="*")
    args = ap.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))

    with SpeedProbe(_python_kernel if args.speed_probe else None) as probe:
        import betahermite.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"betahermite imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    result: dict = {"import_s": probe.elapsed}
    if args.speed_probe:
        result["import_probe_s"] = probe.mean()
    if args.provenance:
        result["provenance"] = _provenance()

    if args.argv:
        tracer = None
        if args.trace is not None:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import spans

            tracer = spans.Tracer(args.trace)
            spans.install(tracer)
        cwd = Path.cwd()
        before = _files(cwd)
        kernel = RUN_KERNELS[args.speed_probe]() if args.speed_probe else None
        with SpeedProbe(kernel) as probe:
            code = cli.main(args.argv)
        after = _files(cwd)
        if args.speed_probe:
            result["run_probe_s"] = probe.mean()
        result.update(
            exit=code,
            run_s=probe.elapsed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            bytes_written=sum(size for name, (size, mtime) in after.items()
                              if before.get(name) != (size, mtime)),
            bytes_read=sum(os.path.getsize(p) for p in _inputs(args.argv)),
        )
        if tracer is not None:
            result["trace"] = tracer.dump()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
