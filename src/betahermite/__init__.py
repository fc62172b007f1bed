"""beta-Hermite and fixed-trace beta-Hermite ensembles: sampling, spectral
density estimation, limiting special functions, and exact verification.

Each layer declares its public names in its own ``__all__``; import them from
there (``from betahermite.density import sample_density``).  The package
imports no layer, so ``import betahermite.ensemble`` loads numpy only."""

__version__ = "0.1.0"

__all__ = ["__version__"]
