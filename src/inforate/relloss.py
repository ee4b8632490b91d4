"""Relative information loss rate for constant pieces and downsamplers.

For functions whose pieces are each injective or constant, the fraction
of input information destroyed per sample equals the marginal mass of
the constant region, for the process just as for a single variable.
For an M-fold downsampler the block of n samples keeps floor(n/M)
non-degenerate coordinates, giving 1 - floor(n/M)/n and (M-1)/M in the
limit; both are exact rationals computed from the projection pattern,
never estimated from data.
"""

from fractions import Fraction

import numpy as np

from .errors import BadParameterError, TooFewSamplesError
from .pbf import constant_mass
from .process import sample_path


def relative_loss_rate_constant_pieces(f, process, cfg=None):
    """Marginal mass of the constant region; equals both the per-variable
    relative loss and the relative loss rate."""
    return constant_mass(
        f,
        process.marginal_pdf,
        quad_support=process.quad_support,
        split_points=process.marginal_split_points,
        cfg=cfg,
    )


def downsampler_relative_loss(M, n=None):
    """Relative loss of keeping every M-th sample: exact rationals."""
    if not isinstance(M, int) or M < 1:
        raise BadParameterError("M must be a positive integer")
    if n is None:
        return Fraction(M - 1, M)
    if not isinstance(n, int) or n < 1:
        raise BadParameterError("block length must be a positive integer")
    return 1 - Fraction(n // M, n)


def empirical_constant_frequency(f, process, n_samples=10**6, seed=42, stream=0):
    """Fraction of path samples landing in constant pieces.

    Monte Carlo cross-check for the quadrature mass: by stationarity the
    time average of the constant-region indicator converges to it.
    """
    if n_samples < 10**4:
        raise TooFewSamplesError("need at least 1e4 samples")
    constant_idx = {b.index for b in f.branches if b.kind == "constant"}
    if not constant_idx:
        return 0.0
    if len(constant_idx) == len(f.branches):
        return 1.0
    path = sample_path(process, n_samples, seed, stream=stream)
    idx = f.branch_index_array(path.values)
    mask = np.isin(idx, sorted(constant_idx))
    return float(np.mean(mask))
