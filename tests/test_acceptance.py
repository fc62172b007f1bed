"""Acceptance criteria, one test per criterion, at their stated tolerances.

Statistical criteria (1, 2, 6, 7) run at the pinned desk scale with fixed
seeds; exact criteria (3, 4, 5, 8, 9) are deterministic oracle checks.
Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import time
from math import exp, pi, sqrt

import numpy as np
import pytest
import scipy.integrate as si

from betahermite import (
    EnsembleKind,
    EnsembleParams,
    SampleSeed,
    bump,
    edge_density_closed,
    eigenvalues_bisect,
    eigenvalues_block,
    estimate_density,
    kontsevich_edge_density,
    kontsevich_k,
    moment_ratio_exact,
    rescale,
    sample_block,
    semicircle,
    trace_sq_rows,
    verify_moment_equivalence,
    weak_functional,
)
from betahermite.airy import AI0, AIP0, airy_ai, airy_ai_prime, airy_tail
from betahermite.density import Regime, semicircle_mass
from betahermite.exact import (
    c_beta,
    density_upper_bound,
    hermite_zeros,
    log_g_n_beta,
    log_vandermonde_sq,
    log_vandermonde_sq_max,
    verify_integral_equation,
)
from betahermite.moments import MomentIndex, big_l

BUMP_SEMICIRCLE_INTEGRAL = 0.138472435237  # int of bump[-0.5,0.5] * rho_W


def _ok(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def _sample_checked(params: EnsembleParams, master: int, reps: int) -> np.ndarray:
    """Spectra (reps, n) of replicates 0..reps-1; asserts trace/Frobenius conservation per row."""
    diag, sub = sample_block(params, master, 0, reps)
    values = eigenvalues_block(diag, sub)
    scale = np.maximum(np.max(np.abs(values), axis=1), 1.0)
    t2 = trace_sq_rows(diag, sub)
    assert np.all(np.abs(np.sum(values, axis=1) - np.sum(diag, axis=1))
                  <= 1e-10 * params.n * scale)
    assert np.all(np.abs(np.sum(values**2, axis=1) - t2) <= 1e-9 * t2)
    return values


def test_criterion_1_semicircle_law():
    t0 = time.perf_counter()
    grid = np.linspace(-1.2, 1.2, 61)
    ref = np.array([semicircle_mass(a, b) / (b - a) for a, b in zip(grid[:-1], grid[1:])])
    f = bump(-0.5, 0.5)
    oracle = si.quad(lambda x: f(np.array([x]))[0] * semicircle(x), -0.5, 0.5, limit=200)[0]
    assert oracle == pytest.approx(BUMP_SEMICIRCLE_INTEGRAL, abs=1e-9)
    details = []
    for bi, beta in enumerate((1.0, 2.0, 4.0)):
        params = EnsembleParams(200, beta, EnsembleKind.FIXED_TRACE)
        values = rescale(_sample_checked(params, 1000 + bi, 500), Regime.BULK, params)
        d = estimate_density(list(values), grid, Regime.BULK)
        l1 = float(np.sum(np.abs(d.height - ref) * d.widths))
        weak = weak_functional(d, f)
        assert l1 <= 0.05, f"beta={beta}: L1 {l1:.4f} > 0.05"
        assert abs(weak - oracle) <= 0.02, f"beta={beta}: weak {weak:.4f} vs {oracle:.4f}"
        details.append(f"beta={beta:g} L1={l1:.4f} weak_err={abs(weak - oracle):.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    _ok(1, "; ".join(details) + f"; runtime {elapsed:.1f}s")


def test_criterion_2_edge_agreement():
    t0 = time.perf_counter()
    n, m_reps = 400, 2000
    grid = np.linspace(-5.0, 2.0, 29)
    width = grid[1] - grid[0]
    centers = 0.5 * (grid[1:] + grid[:-1])

    def edge_histogram(kind, master):
        params = EnsembleParams(n, 2.0, kind)
        # the oracle: each replicate's stev spectrum through np.histogram
        t = rescale(_sample_checked(params, master, m_reps), Regime.EDGE, params)
        counts = np.array([np.histogram(row, bins=grid)[0] for row in t], dtype=float)
        height = counts.mean(axis=0) / width
        se = counts.std(axis=0, ddof=1) / (sqrt(m_reps) * width)
        return height, se

    h_g, se_g = edge_histogram(EnsembleKind.GAUSSIAN, 2100)
    h_f, se_f = edge_histogram(EnsembleKind.FIXED_TRACE, 2200)

    diff = np.abs(h_g - h_f)
    tol = 3.0 * np.sqrt(se_g**2 + se_f**2)
    ok = (diff <= tol) | ((se_g == 0) & (se_f == 0) & (diff == 0))
    assert np.all(ok), f"bin-wise mismatch at t={centers[~ok]}, diff={diff[~ok]}"

    window = (centers >= -4.0) & (centers <= 1.0)
    ai2 = edge_density_closed(2, centers[window])
    sup_g = float(np.max(np.abs(h_g[window] - ai2)))
    sup_f = float(np.max(np.abs(h_f[window] - ai2)))
    assert sup_g <= 0.1, f"gaussian sup-norm {sup_g:.4f} > 0.1"
    assert sup_f <= 0.1, f"fixed-trace sup-norm {sup_f:.4f} > 0.1"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0, f"runtime {elapsed:.1f}s exceeds 10 minutes"
    _ok(2, f"binwise 3-sigma ok; sup_g={sup_g:.4f} sup_f={sup_f:.4f}; runtime {elapsed:.1f}s")


def test_criterion_3_remark_identity():
    worst = 0.0
    for x in np.arange(-5.0, 3.0 + 1e-9, 0.25):
        k = kontsevich_k(2, 2.0, float(x), route="reduction")
        ai = airy_ai(float(x))
        aip = airy_ai_prime(float(x))
        worst = max(worst, abs(0.5 * k.value - (aip**2 - x * ai**2)))
    assert worst <= 1e-8, f"reduction identity residual {worst:.2e}"

    worst_q = 0.0
    for x in (-2.0, 0.0, 2.0):
        kq = kontsevich_k(2, 2.0, x, route="quadrature")
        kr = kontsevich_k(2, 2.0, x, route="reduction")
        assert kq.converged
        worst_q = max(worst_q, abs(kq.value - kr.value))
    assert worst_q <= 1e-3, f"quadrature-vs-reduction {worst_q:.2e}"

    e4 = kontsevich_edge_density(4, 0.0)
    c4 = edge_density_closed(4, 0.0)
    assert e4.error <= 5e-2, f"beta=4 error bar {e4.error:.2e} above 5e-2"
    assert abs(e4.value - c4) <= max(e4.error, 1e-6), (
        f"beta=4 mismatch {abs(e4.value - c4):.2e} vs bar {e4.error:.2e}"
    )
    _ok(3, f"grid residual {worst:.1e}; quad cross {worst_q:.1e}; "
           f"beta4 |diff|={abs(e4.value - c4):.1e} bar={e4.error:.1e}")


def test_criterion_4_integral_equation():
    details = []
    for beta in (1.0, 2.0, 4.0):
        res = verify_integral_equation(2, beta, np.arange(-3.0, 3.0 + 1e-9, 0.1))
        assert res <= 1e-6, f"n=2 beta={beta}: residual {res:.2e}"
        details.append(f"n2 b{beta:g}:{res:.1e}")
    res3 = verify_integral_equation(3, 2.0, np.arange(-3.0, 3.0 + 1e-9, 0.5))
    assert res3 <= 1e-5, f"n=3 beta=2: residual {res3:.2e}"
    details.append(f"n3 b2:{res3:.1e}")
    _ok(4, " ".join(details))


def test_criterion_5_stieltjes_maximum():
    rng = np.random.default_rng(555)
    worst_rel, worst_sum = 0.0, 0.0
    for n in range(2, 51):
        z = hermite_zeros(n)
        lv = log_vandermonde_sq(z)
        lmax = log_vandermonde_sq_max(n)
        worst_rel = max(worst_rel, abs(lv - lmax) / abs(lmax))
        worst_sum = max(worst_sum, abs(float(np.sum(z**2)) - n * (n - 1) / 2.0))
        r2 = n * (n - 1) / 2.0
        for _ in range(100):
            d = rng.standard_normal(n)
            pt = d / np.linalg.norm(d) * sqrt(r2 * rng.uniform(0.0, 1.0))
            assert log_vandermonde_sq(pt) <= lmax, f"perturbation exceeded max at n={n}"
    assert worst_rel <= 1e-10, f"log-relative error {worst_rel:.2e}"
    assert worst_sum <= 1e-9, f"sphere constraint error {worst_sum:.2e}"
    _ok(5, f"identity rel_err {worst_rel:.1e}; sum-sq err {worst_sum:.1e}; "
           "4900 perturbations all below max")


def test_criterion_6_density_upper_bound():
    n, reps = 20, 10_000
    r = sqrt(n * (n - 1) / 2.0)
    grid = np.linspace(-1.0, 1.0, 41)
    details = []
    for bi, beta in enumerate((1.0, 2.0, 4.0)):
        params = EnsembleParams(n, beta, EnsembleKind.FIXED_TRACE)
        values = eigenvalues_block(*sample_block(params, 3000 + bi, 0, reps)) / r
        d = estimate_density(list(values), grid, Regime.RAW)
        emp = d.height / r  # bound is stated for the unscaled-argument density
        bound = density_upper_bound(n, beta, d.centers)
        margin = float(np.max(emp - bound))
        assert margin <= 0.0, f"beta={beta}: density exceeds bound by {margin:.2e}"
        details.append(f"beta={beta:g} margin={margin:.2e}")
    assert c_beta(2.0) == pytest.approx(exp(2.0) / sqrt(2.0 * pi), rel=1e-12)
    for beta in (1.0, 2.0, 4.0):
        diffs = [abs(log_g_n_beta(m, beta) / m - np.log(c_beta(beta)))
                 for m in (50, 200, 800)]
        assert diffs[0] > diffs[1] > diffs[2], f"beta={beta}: non-monotone {diffs}"
    _ok(6, "; ".join(details) + f"; C_2={c_beta(2.0):.5f}; w-ladder monotone for all beta")


def test_criterion_7_moment_equivalence():
    details = []
    for n in (10, 40):
        rep = verify_moment_equivalence(
            EnsembleParams(n, 2.0), MomentIndex.single_a(n, 1, 2),
            10_000, SampleSeed(4000 + n, 0),
        )
        assert rep.within_3_sigma, (
            f"n={n}: mc {rep.mc_ratio:.5f} vs exact {rep.exact_ratio:.5f} "
            f"(3se={3 * rep.std_error:.5f})"
        )
        details.append(f"n={n} |mc-exact|={abs(rep.mc_ratio - rep.exact_ratio):.4f} "
                       f"3se={3 * rep.std_error:.4f}")
    L = big_l(100, 2.0)
    target = L * L / ((L + 1.0) * (L + 2.0))
    got = moment_ratio_exact(100, 2.0, 4)
    assert got == pytest.approx(target, rel=1e-11)
    assert got == pytest.approx(0.9994002799, abs=1e-8)
    ladder = [moment_ratio_exact(m, 2.0, 4) for m in (25, 50, 100, 200, 400)]
    assert np.all(np.diff(ladder) > 0) and ladder[-1] < 1.0
    _ok(7, "; ".join(details) + f"; exact(100,2,4)={got:.6f}; ladder monotone to 1")


def test_criterion_8_eigensolver_oracles():
    rng = np.random.default_rng(808)
    mats = [(2.0 * rng.standard_normal(20), np.abs(2.0 * rng.standard_normal(19)) + 1e-3)
            for _ in range(100)]
    diag, sub = (np.array(m) for m in zip(*mats))
    ql = eigenvalues_block(diag, sub)
    worst = max(float(np.max(np.abs(a - eigenvalues_bisect(d, e, abs_tol=1e-13))))
                for a, d, e in zip(ql, diag, sub))
    assert worst <= 1e-10, f"QL vs bisection disagreement {worst:.2e}"
    # conservation on sampled replicates (also enforced inline in criteria 1-2)
    _sample_checked(EnsembleParams(100, 2.0, EnsembleKind.FIXED_TRACE), 8088, 50)
    _ok(8, f"QL-vs-bisection max |diff| {worst:.1e} over 100 random 20x20; "
           "conservation holds on sampled replicates")


def test_criterion_9_airy_kernel():
    assert airy_ai(0.0) == pytest.approx(AI0, abs=1e-12)
    assert airy_ai_prime(0.0) == pytest.approx(AIP0, abs=1e-12)
    h = 0.004
    worst = 0.0
    for x in np.arange(-10.0, 10.0 + 1e-9, 0.25):
        f = airy_ai(np.array([x - 2 * h, x - h, x, x + h, x + 2 * h]))
        second = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        worst = max(worst, abs(second - x * f[2]))
    assert worst <= 1e-8, f"ODE residual {worst:.2e}"
    tail0 = airy_tail(0.0)
    assert tail0 == pytest.approx(1.0 / 3.0, abs=1e-9)
    _ok(9, f"Ai(0), Ai'(0) exact to 1e-12; ODE residual {worst:.1e}; "
           f"tail(0)-1/3 = {tail0 - 1/3:.1e}")
