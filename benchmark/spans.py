"""In-memory spans around betahermite's public functions, recorded from outside.

`install` wraps every public function of the package's layer modules and
rebinds the wrapper wherever the original is bound, so calls through
`from .x import f` names are traced too.  Nothing under `src/` changes.

A span is a name, start, end, parent span and failed flag; the spans of one
process share its run id.  `layer_metrics` turns the spans of one or more
runs into self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from array import array
from collections.abc import Sequence
from time import perf_counter

LAYERS = ("ensemble", "tridiag", "density", "airy", "kontsevich", "exact", "moments",
          "checks", "cli")
CHECKS = ("integral-eq", "stieltjes", "bound", "moments", "edge-remark")

COUNTERS = (
    "tridiag.solves", "tridiag.work_n2", "ensemble.draws", "density.eigs_binned",
    "density.in_grid", "kontsevich.calls", "kontsevich.unconverged", "moments.replicates",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_solve(counts, args, kwargs, result):
    counts["tridiag.solves"] += 1
    counts["tridiag.work_n2"] += _arg(args, kwargs, 0, "t").n ** 2


def _count_draws(counts, args, kwargs, result):
    counts["ensemble.draws"] += 2 * _arg(args, kwargs, 0, "params").n - 1


def _count_binned(counts, args, kwargs, result):
    samples = _arg(args, kwargs, 0, "samples")
    if not isinstance(samples, Sequence):
        raise TypeError("traced estimate_density needs a sequence of samples to count them")
    total = sum(len(v) for v in samples)
    # heights are counts / (replicates * width) on the edge, / (eigenvalues * width) otherwise
    norm = result.n_samples if result.regime.value == "edge" else total
    counts["density.eigs_binned"] += total
    counts["density.in_grid"] += int(round(float((result.height * result.widths).sum()) * norm))


def _count_kontsevich(counts, args, kwargs, result):
    counts["kontsevich.calls"] += 1
    counts["kontsevich.unconverged"] += not result.converged


def _count_moments(counts, args, kwargs, result):
    counts["moments.replicates"] += _arg(args, kwargs, 2, "n_reps")


COUNT_HOOKS = {
    "tridiag.eigenvalues": _count_solve,
    "ensemble.sample_beta_hermite": _count_draws,
    "density.estimate_density": _count_binned,
    "kontsevich.kontsevich_k": _count_kontsevich,
    "moments.moment_mc": _count_moments,
}


class Tracer:
    """Span recorder for one process: spans stay in memory until `dump`.

    Spans are kept column-wise in flat arrays, which the garbage collector
    does not traverse, so recording a span costs the same at the millionth
    span as at the first.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # index of the enclosing span, -1 at the root
        self.failed = bytearray()
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)
        names, start, end = self.names, self.start, self.end
        parent, failed, stack, counts = self.parent, self.failed, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            failed.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[i] = 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"run_id": self.run_id, "names": self.names, "start": self.start.tolist(),
                "end": self.end.tolist(), "parent": self.parent.tolist(),
                "failed": list(self.failed), "counts": self.counts}


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions everywhere they are bound."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"betahermite.{layer}")
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{name}", obj))
    for modname, mod in list(sys.modules.items()):
        if modname != "betahermite" and not modname.startswith("betahermite."):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    """Self seconds per layer, per-check seconds and counts, summed over `runs`."""
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({f"checks.{c}.s": 0.0 for c in CHECKS})
    out.update(dict.fromkeys(COUNTERS, 0))
    out["tridiag.failures"] = 0  # eigenvalues spans that raised
    check_span = {f"checks.check_{c.replace('-', '_')}": f"checks.{c}.s" for c in CHECKS}
    for run in runs:
        names, parent = run["names"], run["parent"]
        duration = [e - s for s, e in zip(run["start"], run["end"])]
        self_s = duration[:]
        for i, p in enumerate(parent):
            if p >= 0:
                self_s[p] -= duration[i]
        for name, d, s, failed in zip(names, duration, self_s, run["failed"]):
            out[name.split(".", 1)[0] + ".self_s"] += s
            if name in check_span:
                out[check_span[name]] += d
            if failed and name == "tridiag.eigenvalues":
                out["tridiag.failures"] += 1
        for name, value in run["counts"].items():
            out[name] += value
    in_grid = out.pop("density.in_grid")
    binned = out["density.eigs_binned"]
    out["density.in_grid_frac"] = in_grid / binned if binned else 0.0
    return out
