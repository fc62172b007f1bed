"""Entry-moment comparison between the Gaussian and fixed-trace ensembles.

Moments are taken over the tridiagonal model entries a_1..a_n (diagonal) and
b_1..b_{n-1} (subdiagonal, indexed from the bottom-right corner so that b_j
has chi_{j beta}/sqrt(2) statistics).  Fixed-trace averages rescale each
Gaussian sample onto the sphere tr H^2 = 2L with L = n/2 + beta n(n-1)/4,
the Gaussian mean of tr H^2; the radial-angular factorization of the
Gaussian measure makes that rescaling an exact sampler of the constrained
ensemble (the n=2 quadrature guard in the test suite checks it).

``moment_ratio_exact`` evaluates the finite-N ratio
L^(s/2) Gamma(L+1)/Gamma(L+s/2+1).  Its N -> infinity limit is 1 with
log-ratio ~ -s(s+2)/(8L).  Caution for small n: direct sphere averages
(quadrature or high-precision Monte Carlo) follow L^(s/2) Gamma(L)/Gamma(L+s/2)
instead, which differs by the factor L/(L+s/2); the two coincide as
N -> infinity.  See tests/test_moments.py for the quadrature comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import fsum, lgamma, log, sqrt

import numpy as np

from .ensemble import (
    REPLICATE_CHUNK,
    EnsembleKind,
    EnsembleParams,
    SampleSeed,
    sample_block,
    sample_diag_block,
    trace_sq_rows,
)

__all__ = [
    "MomentIndex",
    "MomentEstimate",
    "EquivalenceReport",
    "big_l",
    "moment_mc",
    "moment_ratio_exact",
    "verify_moment_equivalence",
]


@dataclass(frozen=True)
class MomentIndex:
    """Exponent vectors for prod a_j^eta_a[j] * prod b_j^eta_b[j].

    eta_b is indexed bottom-up: eta_b[0] weights b_1, the entry nearest the
    bottom-right corner.
    """

    eta_a: tuple[int, ...]
    eta_b: tuple[int, ...]

    def __post_init__(self):
        if any(e < 0 for e in self.eta_a) or any(e < 0 for e in self.eta_b):
            raise ValueError("exponents must be non-negative")
        if len(self.eta_b) != len(self.eta_a) - 1:
            raise ValueError("eta_b must have length len(eta_a) - 1")

    @property
    def n(self) -> int:
        return len(self.eta_a)

    @property
    def s(self) -> int:
        """Total degree sum(eta_a) + sum(eta_b)."""
        return int(sum(self.eta_a) + sum(self.eta_b))

    @classmethod
    def single_a(cls, n: int, j: int, power: int) -> "MomentIndex":
        """Moment of a_j^power (1-based j)."""
        ea = [0] * n
        ea[j - 1] = power
        return cls(tuple(ea), tuple([0] * (n - 1)))

    @classmethod
    def single_b(cls, n: int, j: int, power: int) -> "MomentIndex":
        """Moment of b_j^power, j counted from the bottom (1-based)."""
        eb = [0] * (n - 1)
        eb[j - 1] = power
        return cls(tuple([0] * n), tuple(eb))


@dataclass
class MomentEstimate:
    mean: float
    std_error: float
    n_reps: int
    sign_symmetric: bool = False  # odd diagonal moments vanish identically


def big_l(n: int, beta: float) -> float:
    """L = n/2 + beta n(n-1)/4, half the Gaussian mean of tr H^2."""
    return n / 2.0 + beta * n * (n - 1) / 4.0


def moment_mc(
    params: EnsembleParams,
    idx: MomentIndex,
    n_reps: int,
    seed: SampleSeed,
) -> MomentEstimate:
    """Monte Carlo estimate of the requested entry moment.

    Gaussian kind averages over raw samples; fixed-trace kind rescales every
    sample onto the tr H^2 = 2L sphere before taking the product.  Replicates
    seed.replicate, seed.replicate+1, ... are drawn ``REPLICATE_CHUNK`` at a
    time with `sample_block`; a Gaussian index with no subdiagonal exponent
    reads only the diagonal, which `sample_diag_block` draws bit for bit
    without the subdiagonal's gamma variates.
    """
    if n_reps < 100:
        raise ValueError("n_reps must be >= 100")
    if idx.n != params.n:
        raise ValueError("moment index dimension does not match params")
    if idx.s == 0:
        return MomentEstimate(mean=1.0, std_error=0.0, n_reps=n_reps)
    ea = np.asarray(idx.eta_a, dtype=float)
    eb = np.asarray(idx.eta_b, dtype=float)
    fixed = params.kind is EnsembleKind.FIXED_TRACE
    diag_only = not fixed and not any(idx.eta_b)
    gaussian = replace(params, kind=EnsembleKind.GAUSSIAN)
    r2 = 2.0 * big_l(params.n, params.beta)
    v = np.empty(n_reps)
    for start in range(0, n_reps, REPLICATE_CHUNK):
        count = min(REPLICATE_CHUNK, n_reps - start)
        first = seed.replicate + start
        if diag_only:
            # the product of b**0 is exactly 1, so this is the full route's value
            a = sample_diag_block(gaussian, seed.master_seed, first, count)
            v[start:start + count] = np.prod(a**ea, axis=1)
            continue
        a, sub = sample_block(gaussian, seed.master_seed, first, count)
        b = sub[:, ::-1]  # bottom-up indexing
        if fixed:
            c = np.sqrt(r2 / trace_sq_rows(a, sub))[:, None]
            a = a * c
            b = b * c
        v[start:start + count] = np.prod(a**ea, axis=1) * np.prod(b**eb, axis=1)
    mean, std_error = _mean_and_std_error(v)
    return MomentEstimate(
        mean=mean,
        std_error=std_error,
        n_reps=n_reps,
        sign_symmetric=any(e % 2 == 1 for e in idx.eta_a),
    )


def _mean_and_std_error(v: np.ndarray) -> tuple[float, float]:
    """Mean of ``v`` from its exactly rounded sum (`math.fsum`), and its standard error.

    The standard error is sqrt(var / len(v)), where the variance is the mean
    squared deviation from that mean, taken in a second pass, so it keeps its
    digits when the mean is large against the spread (E[v^2] - mean^2 would
    cancel them).
    """
    mean = fsum(v.tolist()) / len(v)
    var = float(np.sum((v - mean) ** 2)) / len(v)
    return mean, sqrt(var / len(v))


def moment_ratio_exact(n: int, beta: float, s: int) -> float:
    """Finite-N fixed-trace/Gaussian moment ratio L^(s/2) G(L+1)/G(L+s/2+1)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if s < 0 or s % 2 != 0:
        raise ValueError("total degree s must be a non-negative even integer")
    if s == 0:
        return 1.0
    L = big_l(n, beta)
    return float(np.exp((s / 2.0) * log(L) + lgamma(L + 1.0) - lgamma(L + s / 2.0 + 1.0)))


@dataclass
class EquivalenceReport:
    n: int
    beta: float
    s: int
    mc_ratio: float | None
    std_error: float | None
    exact_ratio: float
    distance_from_unity: float
    within_3_sigma: bool | None
    skipped: str | None = None


def verify_moment_equivalence(
    params: EnsembleParams,
    idx: MomentIndex,
    n_reps: int,
    seed: SampleSeed,
) -> EquivalenceReport:
    """Compare the MC fixed-trace/Gaussian ratio with the exact ratio.

    Uses independent replicate streams for the two ensembles and the delta
    method for the ratio's standard error.  Odd moments (both sides ~ 0)
    are skipped with a reason instead of producing an ill-conditioned ratio.
    """
    exact = moment_ratio_exact(params.n, params.beta, idx.s) if idx.s % 2 == 0 else float("nan")
    base = EnsembleParams(params.n, params.beta, EnsembleKind.GAUSSIAN)
    if any(e % 2 == 1 for e in idx.eta_a) or idx.s % 2 == 1:
        return EquivalenceReport(
            n=params.n, beta=params.beta, s=idx.s,
            mc_ratio=None, std_error=None,
            exact_ratio=exact if exact == exact else 0.0,
            distance_from_unity=abs(1.0 - exact) if exact == exact else float("nan"),
            within_3_sigma=None,
            skipped="odd moment vanishes in both ensembles; ratio is degenerate",
        )
    fixed = EnsembleParams(params.n, params.beta, EnsembleKind.FIXED_TRACE)
    m_gauss = moment_mc(base, idx, n_reps, SampleSeed(seed.master_seed, seed.replicate))
    m_fixed = moment_mc(fixed, idx, n_reps, SampleSeed(seed.master_seed + 0x9E3779B9, seed.replicate))
    if abs(m_gauss.mean) < 5.0 * m_gauss.std_error:
        return EquivalenceReport(
            n=params.n, beta=params.beta, s=idx.s,
            mc_ratio=None, std_error=None, exact_ratio=exact,
            distance_from_unity=abs(1.0 - exact), within_3_sigma=None,
            skipped="denominator moment indistinguishable from zero",
        )
    ratio = m_fixed.mean / m_gauss.mean
    se = abs(ratio) * sqrt(
        (m_fixed.std_error / m_fixed.mean) ** 2 + (m_gauss.std_error / m_gauss.mean) ** 2
    )
    return EquivalenceReport(
        n=params.n, beta=params.beta, s=idx.s,
        mc_ratio=ratio, std_error=se, exact_ratio=exact,
        distance_from_unity=abs(1.0 - exact),
        within_3_sigma=bool(abs(ratio - exact) <= 3.0 * se),
    )
