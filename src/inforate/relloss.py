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

from .errors import TooFewSamplesError, check_int
from .estimate import DEFAULT_QUAD, check_cover
from .process import check_normalized, check_path_args, sample_path


def relative_loss_rate_constant_pieces(f, process, cfg=DEFAULT_QUAD):
    """Marginal mass of the constant region; equals both the per-variable
    relative loss and the relative loss rate.  The marginal must integrate
    to one over the process's quadrature window; checked to 1e-6 by
    quadrature to ``cfg``.  The mass of each constant tile, cut to that
    window, is a difference of ``marginal_cdf``."""
    check_cover(f, process)
    lo, hi = process.quad_support
    check_normalized(process.marginal_pdf, (lo, hi), process.marginal_split_points, cfg)
    if not f.has_constant:
        return 0.0
    if all(b.kind == "constant" for b in f.branches):
        return 1.0
    mass = 0.0  # a running sum in branch order; np.sum would regroup the terms
    for b in f.branches:
        if b.kind == "constant":
            ends = np.clip([b.domain_lo, b.domain_hi], lo, hi)
            start, end = process.marginal_cdf(ends)
            mass += end - start
    return float(min(max(mass, 0.0), 1.0))


def downsampler_relative_loss(M, n=None):
    """Relative loss of keeping every M-th sample: exact rationals.
    Raises BadParameterError unless M and n (when given) are ints >= 1."""
    check_int("M", M, 1)
    if n is None:
        return Fraction(M - 1, M)
    check_int("block length", n, 1)
    return 1 - Fraction(n // M, n)


def empirical_constant_frequency(f, process, n_samples=10**6, seed=42):
    """Fraction of path samples landing in constant pieces.

    Monte Carlo cross-check for the quadrature mass: by stationarity the
    time average of the constant-region indicator converges to it.
    """
    check_path_args(n_samples, seed)
    if n_samples < 10**4:
        raise TooFewSamplesError("need at least 1e4 samples")
    check_cover(f, process)
    constant = [b.kind == "constant" for b in f.branches]
    if not any(constant):
        return 0.0
    if all(constant):
        return 1.0
    path = sample_path(process, n_samples, seed)
    # indexed by the 1-based branch index
    is_constant = np.array([False] + constant)
    return float(np.mean(is_constant[f.branch_index_array(path.values)]))
