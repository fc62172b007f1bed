"""Entry moments of the fixed-trace sampler against the Gaussian ensemble.

Moments are taken over the tridiagonal model entries a_1..a_n (diagonal) and
b_1..b_{n-1} (subdiagonal, indexed from the bottom-right corner so that b_j
has chi_{j beta}/sqrt(2) statistics).  The entries are independent, so every
Gaussian moment has a closed form (`gaussian_moment_exact`).  Fixed-trace
moments are Monte Carlo averages over replicates 0..n_reps-1 of a master
seed from `sample_block`, the sampler `sample` ships, walked one stream block
at a time by `replicate_blocks`, on the sphere tr H^2 = 2L with
L = n/2 + beta n(n-1)/4, the Gaussian mean of tr H^2.

Under the Gaussian measure R^2 = tr H^2 has R^2/2 ~ Gamma(L), independent of
the direction, so a degree-s moment over its Gaussian value is
``moment_ratio_sphere``, L^(s/2) Gamma(L)/Gamma(L+s/2), on the sphere the
sampler obeys (exactly 1 at s = 2).  ``moment_ratio_exact``,
L^(s/2) Gamma(L+1)/Gamma(L+s/2+1), is the ratio of the bounded-trace
ensemble tr H^2 <= 2L instead.  They differ by the factor L/(L+s/2) and
share the N -> infinity limit 1, with log-ratio ~ -s(s+2)/(8L).
`verify_moment_equivalence` compares only even degrees with even diagonal
exponents: an odd diagonal exponent has Gaussian moment 0 and is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, lgamma, log, prod, sqrt

import numpy as np
from scipy.special import poch

from .ensemble import EnsembleKind, EnsembleParams, big_l, replicate_blocks, trace_sphere

__all__ = [
    "MomentIndex",
    "MomentEstimate",
    "EquivalenceReport",
    "gaussian_moment_exact",
    "moment_mc",
    "moment_ratio_exact",
    "moment_ratio_sphere",
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


def moment_mc(
    params: EnsembleParams,
    idx: MomentIndex,
    n_reps: int,
    master_seed: int,
) -> MomentEstimate:
    """Monte Carlo estimate of the requested entry moment in the params' ensemble.

    Replicates 0..n_reps-1 of the params' kind under ``master_seed`` are
    drawn one stream block at a time with `replicate_blocks`.  A
    fixed-trace row lies on the sampler's sphere tr H^2 = `trace_sphere`(n);
    its entries are multiplied by the constant sqrt(2L / trace_sphere(n)), so
    the moment is the one on the sphere tr H^2 = 2L.
    """
    if n_reps < 100:
        raise ValueError("n_reps must be >= 100")
    if idx.n != params.n:
        raise ValueError("moment index dimension does not match params")
    ea = np.asarray(idx.eta_a, dtype=float)
    eb = np.asarray(idx.eta_b, dtype=float)
    fixed = params.kind is EnsembleKind.FIXED_TRACE
    c = sqrt(2.0 * big_l(params.n, params.beta) / trace_sphere(params.n)) if fixed else 1.0
    # sub[:, ::-1] indexes b bottom-up
    v = np.concatenate([
        np.prod((a * c) ** ea, axis=1) * np.prod((sub[:, ::-1] * c) ** eb, axis=1)
        for _, a, sub in replicate_blocks(params, master_seed, n_reps)
    ])
    return MomentEstimate(*_mean_and_std_error(v))


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


def _check_degree(n: int, s: int) -> None:
    if n < 2:
        raise ValueError("n must be >= 2")
    if s < 0 or s % 2 != 0:
        raise ValueError("total degree s must be a non-negative even integer")


def moment_ratio_exact(n: int, beta: float, s: int) -> float:
    """Finite-N bounded-trace/Gaussian moment ratio L^(s/2) G(L+1)/G(L+s/2+1).

    The ratio of the ensemble uniform in the ball tr H^2 <= 2L, not of the
    sampler's sphere; `moment_ratio_sphere` is the sampler's.
    """
    _check_degree(n, s)
    if s == 0:
        return 1.0
    L = big_l(n, beta)
    return float(np.exp((s / 2.0) * log(L) + lgamma(L + 1.0) - lgamma(L + s / 2.0 + 1.0)))


def moment_ratio_sphere(n: int, beta: float, s: int) -> float:
    """Finite-N fixed-trace/Gaussian moment ratio L^(s/2) G(L)/G(L+s/2) on tr H^2 = 2L.

    The ratio the fixed-trace sampler obeys, taken as the product of
    L/(L+i) over i < s/2: exactly 1 at s = 2 and L/(L+1) at s = 4.
    """
    _check_degree(n, s)
    L = big_l(n, beta)
    return float(np.prod(L / (L + np.arange(s // 2))))


def gaussian_moment_exact(params: EnsembleParams, idx: MomentIndex) -> float:
    """Closed-form entry moment of the Gaussian ensemble with the params' n and beta.

    The entries are independent: E a^k = (k-1)!! for even k and 0 for odd k,
    and b_j^2 ~ Gamma(j beta/2) gives E b_j^k = Gamma(j beta/2 + k/2)/Gamma(j beta/2).
    """
    if idx.n != params.n:
        raise ValueError("moment index dimension does not match params")
    if any(k % 2 == 1 for k in idx.eta_a):
        return 0.0
    a = prod(prod(range(k - 1, 0, -2)) for k in idx.eta_a)
    shape = np.arange(1, params.n) * params.beta / 2.0  # j beta/2 of b_1..b_{n-1}
    return float(a * np.prod(poch(shape, np.asarray(idx.eta_b) / 2.0)))


@dataclass
class EquivalenceReport:
    mc_ratio: float
    std_error: float
    exact_ratio: float

    @property
    def within_3_sigma(self) -> bool:
        """Whether ``mc_ratio`` lies within 3 ``std_error`` of ``exact_ratio``."""
        return bool(abs(self.mc_ratio - self.exact_ratio) <= 3.0 * self.std_error)


def verify_moment_equivalence(
    params: EnsembleParams,
    idx: MomentIndex,
    n_reps: int,
    master_seed: int,
) -> EquivalenceReport:
    """Compare the fixed-trace sampler's moment over the Gaussian one with `moment_ratio_sphere`.

    One Monte Carlo estimate, `moment_mc` of the fixed-trace ensemble with the
    params' n and beta over replicates 0..n_reps-1 of ``master_seed``, is
    divided by the closed-form `gaussian_moment_exact`, so the ratio's
    standard error is the estimate's over that constant.  An odd degree
    (`moment_ratio_sphere`) and an odd diagonal exponent, whose Gaussian moment
    is 0, raise ValueError.  The report holds the two ratios and that error.
    """
    n, beta = params.n, params.beta
    exact = moment_ratio_sphere(n, beta, idx.s)
    if any(e % 2 == 1 for e in idx.eta_a):
        raise ValueError("an odd diagonal exponent has Gaussian moment 0, so no ratio exists")
    m = moment_mc(EnsembleParams(n, beta, EnsembleKind.FIXED_TRACE), idx, n_reps, master_seed)
    gauss = gaussian_moment_exact(params, idx)
    return EquivalenceReport(mc_ratio=m.mean / gauss, std_error=m.std_error / gauss,
                             exact_ratio=exact)
