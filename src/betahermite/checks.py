"""Named verification checks with machine-readable reports.

Each check returns CheckResult entries carrying the measured metric, the
tolerance it was held to, and a pass flag; the CLI serializes them to JSON.
All Monte Carlo inside a check is keyed off the caller's master seed, so a
report is a pure function of its configuration.

One table, `_CHECKS`, maps each name to the `run_checks` arguments it reads
and a runner that applies the defaults and seed offsets; `CHECK_NAMES`,
`validate_flags` and `run_checks` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from . import exact
from .density import Regime, sample_density
from .ensemble import (EnsembleKind, EnsembleParams, big_l, replicate_blocks, trace_sphere,
                       trace_sq_rows)
from .kontsevich import kontsevich_edge_density, kontsevich_k
from .airy import AIRY_ERROR, edge_density_closed
from .moments import MomentIndex, moment_ratio_exact, verify_moment_equivalence

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks", "validate_flags"]


@dataclass
class CheckResult:
    check_name: str
    params: dict
    metric: float
    tolerance: float
    passed: bool
    details: str = ""


def check_integral_eq(n: int, beta: float) -> list[CheckResult]:
    tol = 1e-6 if n == 2 else 1e-5
    step = 0.1 if n == 2 else 0.5
    grid = np.arange(-3.0, 3.0 + step / 2, step)
    res = exact.verify_integral_equation(n, beta, grid)
    return [CheckResult(
        check_name="integral-eq",
        params={"n": n, "beta": beta, "grid": [-3.0, 3.0, step]},
        metric=res, tolerance=tol, passed=bool(res <= tol),
        details="max |gaussian density - radial integral of fixed-trace density|",
    )]


def check_stieltjes(n_max: int, master_seed: int) -> list[CheckResult]:
    if n_max < 2:
        raise ValueError(f"the Stieltjes check runs n = 2..n_max, got n_max={n_max}")
    out = []
    worst_rel = 0.0
    worst_sum = 0.0
    exceeded = 0
    rng = np.random.default_rng(master_seed % 2**64)  # any integer seed, as `_philox_key` takes it
    for n in range(2, n_max + 1):
        z = exact.hermite_zeros(n)
        lv = exact.log_vandermonde_sq(z)
        lmax = exact.log_vandermonde_sq_max(n)
        worst_rel = max(worst_rel, abs(lv - lmax) / abs(lmax))
        r2 = trace_sphere(n)
        worst_sum = max(worst_sum, abs(np.sum(z**2) - r2))
        d = rng.standard_normal((100, n))
        radius = np.sqrt(r2 * rng.uniform(0.0, 1.0, (100, 1)))
        pts = d / np.linalg.norm(d, axis=1, keepdims=True) * radius
        exceeded += int(np.count_nonzero(exact.log_vandermonde_sq(pts) > lmax))
    out.append(CheckResult(
        check_name="stieltjes",
        params={"n_max": n_max}, metric=worst_rel, tolerance=1e-10,
        passed=bool(worst_rel <= 1e-10),
        details="log-relative error of Vandermonde^2 at Hermite zeros vs closed form",
    ))
    out.append(CheckResult(
        check_name="stieltjes-sphere",
        params={"n_max": n_max}, metric=worst_sum, tolerance=1e-9,
        passed=bool(worst_sum <= 1e-9),
        details="sum of squared Hermite zeros vs n(n-1)/2",
    ))
    out.append(CheckResult(
        check_name="stieltjes-perturbations",
        params={"n_max": n_max, "per_n": 100, "seed": master_seed},
        metric=float(exceeded), tolerance=0.0, passed=bool(exceeded == 0),
        details="random feasible points exceeding the maximum",
    ))
    return out


_BOUND_BETAS = (1.0, 2.0, 4.0)
_MC_REPS = 10_000  # replicates of the bound and moment-equivalence Monte Carlo


def check_bound(n: int, master_seed: int) -> list[CheckResult]:
    if n < 2:
        raise ValueError(f"the bound check needs n >= 2, where the trace sphere has a "
                         f"positive radius; got n={n}")
    out = []
    r = sqrt(trace_sphere(n))
    grid = np.linspace(-1.0, 1.0, 41)
    for beta in _BOUND_BETAS:
        params = EnsembleParams(n, beta, EnsembleKind.FIXED_TRACE)
        # the bound is on rho_lambda at lambda = r x, in the bulk coordinate x
        d = sample_density(params, master_seed, _MC_REPS, r * grid, Regime.RAW)
        # a bin's mean density is at most the bound's largest value on the bin: at one of
        # its edges, as the bound is monotone in |x| and 0 is an edge; never 0, inf gives 0
        edges = exact.density_upper_bound(n, beta, grid)
        ratio = float(np.max(d.height / np.maximum(edges[:-1], edges[1:])))
        out.append(CheckResult(
            check_name="bound-dominance",
            params={"n": n, "beta": beta, "n_reps": _MC_REPS, "seed": master_seed},
            metric=ratio, tolerance=1.0, passed=bool(ratio <= 1.0),
            details="max over the bins of empirical density / the bound's largest value on it",
        ))
    for beta in _BOUND_BETAS:
        diffs = [abs(exact.log_g_n_beta(m, beta) / m - np.log(exact.c_beta(beta)))
                 for m in (50, 200, 800)]
        mono = diffs[0] > diffs[1] > diffs[2]
        out.append(CheckResult(
            check_name="bound-constant-limit",
            params={"beta": beta, "n_ladder": [50, 200, 800]},
            metric=diffs[-1], tolerance=diffs[0],
            passed=bool(mono),
            details=f"|w_N - ln C_beta| ladder {['%.5f' % d for d in diffs]}, monotone decrease",
        ))
    return out


def check_moments(master_seed: int) -> list[CheckResult]:
    out = []
    for n in (10, 40):
        rep = verify_moment_equivalence(
            EnsembleParams(n, 2.0), MomentIndex.single_a(n, 1, 2), _MC_REPS, master_seed,
        )
        out.append(CheckResult(
            check_name="moments-equivalence",
            params={"n": n, "beta": 2.0, "moment": "a1^2", "n_reps": _MC_REPS,
                    "seed": master_seed},
            metric=abs(rep.mc_ratio - rep.exact_ratio),
            tolerance=3.0 * rep.std_error,
            passed=rep.within_3_sigma,
            details=f"mc_ratio={rep.mc_ratio:.5f} exact={rep.exact_ratio:.5f} "
                    f"distance from unity {abs(1.0 - rep.exact_ratio):.2e}",
        ))
    # the bounded-trace ratio ladder is monotone toward 1
    ratios = [moment_ratio_exact(n, 2.0, 2) for n in (10, 40, 160)]
    mono = ratios[0] < ratios[1] < ratios[2] < 1.0 + 1e-15
    out.append(CheckResult(
        check_name="moments-ratio-ladder",
        params={"beta": 2.0, "s": 2, "n_ladder": [10, 40, 160]},
        metric=1.0 - ratios[-1], tolerance=1.0 - ratios[0],
        passed=bool(mono),
        details=f"ratios {['%.6f' % q for q in ratios]}",
    ))
    # Gaussian trace moment <tr H^2> = 2L
    n, beta = 20, 1.0
    reps = 4000
    vals = np.concatenate([trace_sq_rows(diag, sub) for _, diag, sub
                           in replicate_blocks(EnsembleParams(n, beta), master_seed + 7, reps)])
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / sqrt(reps))
    target = 2.0 * big_l(n, beta)
    out.append(CheckResult(
        check_name="moments-trace",
        params={"n": n, "beta": beta, "n_reps": reps, "seed": master_seed + 7},
        metric=abs(mean - target), tolerance=3.0 * se,
        passed=bool(abs(mean - target) <= 3.0 * se),
        details=f"<tr H^2> = {mean:.2f} vs 2L = {target:.2f} (se {se:.3f})",
    ))
    return out


def check_edge_remark() -> list[CheckResult]:
    out = []
    xs = np.arange(-5.0, 3.0 + 1e-9, 0.25)
    k = np.array([kontsevich_k(2, 2.0, float(x), route="reduction").value for x in xs])
    worst = float(np.max(np.abs(0.5 * k - edge_density_closed(2, xs))))
    out.append(CheckResult(
        check_name="edge-remark-identity",
        params={"beta": 2, "grid": [-5.0, 3.0, 0.25]},
        metric=worst, tolerance=1e-8, passed=bool(worst <= 1e-8),
        details="max |prefactor*K_22(x) - (Ai'^2 - x Ai^2)|",
    ))
    # each x is held to the sum of the two routes' error bars; the tolerance is the widest
    xq = [-2.0, 0.0, 2.0]
    diffs, bars = [], []
    for x in xq:
        kq = kontsevich_k(2, 2.0, x, route="quadrature")
        kr = kontsevich_k(2, 2.0, x, route="reduction")
        diffs.append(abs(kq.value - kr.value))
        bars.append(kq.error + kr.error)
    out.append(CheckResult(
        check_name="edge-remark-quadrature",
        params={"beta": 2, "x": xq},
        metric=max(diffs), tolerance=max(bars),
        passed=all(d <= b for d, b in zip(diffs, bars)),
        details="one-dimensional Airy-integral quadrature vs Airy-derivative reduction, each "
                "within the sum of their error bars; "
                + "; ".join(f"x={x:g}: {d:.1e} <= {b:.1e}" for x, d, b in zip(xq, diffs, bars)),
    ))
    # the closed form's error is airy_tail's bound
    k4 = kontsevich_edge_density(4, 0.0)
    closed4 = edge_density_closed(4, 0.0)
    diff = abs(k4.value - closed4)
    tol4 = k4.error + AIRY_ERROR
    out.append(CheckResult(
        check_name="edge-remark-beta4",
        params={"beta": 4, "x": 0.0},
        metric=diff, tolerance=tol4, passed=bool(diff <= tol4),
        details=(f"multiple-integral {k4.value:.7f} +- {k4.error:.1e} vs closed "
                 f"{closed4:.7f} +- {AIRY_ERROR:g}; route {k4.route}"),
    ))
    return out


def _run_integral_eq(master_seed: int, n: int | None, beta: float | None) -> list[CheckResult]:
    if n is not None or beta is not None:
        return check_integral_eq(2 if n is None else n, 2.0 if beta is None else beta)
    return [r for nb in ((2, 1.0), (2, 2.0), (2, 4.0), (3, 2.0)) for r in check_integral_eq(*nb)]


# name -> (the arguments of `run_checks` the check reads, its runner of (master_seed, n, beta)).
# A runner looks its check_* function up when it runs, so rebinding that module attribute
# (as a tracer does) changes what runs.
_CHECKS = {
    "integral-eq": (("n", "beta"), _run_integral_eq),
    "stieltjes": (("n",), lambda seed, n, beta: check_stieltjes(50 if n is None else n, seed)),
    "bound": (("n",), lambda seed, n, beta: check_bound(20 if n is None else n, seed + 10)),
    "moments": ((), lambda seed, n, beta: check_moments(seed + 20)),
    "edge-remark": ((), lambda seed, n, beta: check_edge_remark()),
}
CHECK_NAMES = tuple(_CHECKS)
# the largest n each check may be given, so that one check stays within 5 s and a 128 MiB
# peak RSS on 2 vCPUs.  stieltjes holds (100, n(n-1)/2) pair arrays for every n up to
# its n, so its time grows like n^3: 3.0 s and a 115 MiB peak at n = 200, 5.7 s and
# 146 MiB at 250.  bound's cap is the same 5 s budget: 3.4 s and a 67 MiB peak at
# n = 500.  (From n = 519 its beta = 4 upper bound is inf near x = 0, where it bounds
# nothing.)
_MAX_N = {"stieltjes": 200, "bound": 500}


def validate_flags(names, n: int | None = None, beta: float | None = None) -> None:
    """Raise ValueError for an unknown check, for n or beta given to a check that ignores it,
    or for an n above the check's cap (`_MAX_N`)."""
    given = {"n": n, "beta": beta}
    for name in names:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
        flags = _CHECKS[name][0]
        unread = [f"{k}={v}" for k, v in given.items() if v is not None and k not in flags]
        if unread:
            reads = " and ".join(flags) or "neither n nor beta"
            raise ValueError(f"check {name!r} reads {reads}, so {', '.join(unread)} "
                             "would be ignored")
        if n is not None and n > _MAX_N.get(name, n):
            raise ValueError(f"check {name!r} takes n <= {_MAX_N[name]}, got n={n}")


def run_checks(
    names,
    master_seed: int = 1,
    n: int | None = None,
    beta: float | None = None,
) -> list[CheckResult]:
    """Run the named checks (or all) and return their results.

    Refuses, before running any check, an unknown name and an n or beta that
    a named check does not read (`validate_flags`).
    """
    validate_flags(names, n, beta)
    return [r for name in names for r in _CHECKS[name][1](master_seed, n, beta)]
