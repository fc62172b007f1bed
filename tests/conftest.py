import numpy as np
import pytest

from betahermite import EnsembleKind, EnsembleParams, TridiagonalSymmetric, sample_block


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240911)


def sample_matrices(n, beta, reps, master_seed, kind=None):
    """Replicate matrices 0..reps-1 from the production sampler, drawn as one block."""
    params = EnsembleParams(n, beta, kind or EnsembleKind.GAUSSIAN)
    diag, sub = sample_block(params, master_seed, 0, reps)
    for d, s in zip(diag, sub):
        yield TridiagonalSymmetric(d, s)
