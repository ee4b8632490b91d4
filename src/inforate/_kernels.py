"""Hot numeric kernels over pre-drawn random arrays.

Each kernel is a numpy expression of a scalar recurrence; given the same
draws it returns the same path, so sampled paths are reproducible given
(seed, stream).
"""

import numpy as np


def ar1_path(x0, a, z):
    """AR(1) recurrence x[k+1] = a*x[k] + z[k] from x[0] = x0."""
    # scipy.signal costs most of the package's import time; load it on use
    from scipy.signal import lfilter

    out = np.empty(z.size + 1)
    out[0] = x0
    if z.size:
        out[1:], _ = lfilter([1.0], [1.0, -a], z, zi=np.array([a * x0]))
    return out


def cyclic_path(x0, steps, m):
    """Cyclic walk x[k+1] = wrap(x[k] + steps[k]) onto [-m, m)."""
    out = np.empty(steps.size + 1)
    out[0] = x0
    if steps.size:
        # wrapping commutes with addition, so one cumsum plus a final
        # wrap reproduces the stepwise recurrence exactly up to rounding
        out[1:] = x0 + np.cumsum(steps)
    return ((out + m) % (2.0 * m)) - m


def alternating_blocks_path(x0, blocks, offsets):
    """Block-alternating chain on [0, 4): the block parity flips every step."""
    out = np.empty(blocks.size + 1)
    out[0] = x0
    if blocks.size:
        parity0 = int(np.floor(x0)) & 1
        parity = (parity0 + 1 + np.arange(blocks.size)) % 2
        out[1:] = 2.0 * blocks + parity + offsets
    return out


def pair_counts(ix, iy, nbins):
    """nbins x nbins joint counts of paired bin indices, of any integer
    dtype; they are combined in a widened copy, so narrow labels cannot
    overflow."""
    codes = ix.astype(np.intp)
    codes *= nbins
    codes += iy
    return np.bincount(codes, minlength=nbins * nbins).reshape(nbins, nbins)
