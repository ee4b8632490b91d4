"""Counter-based random generators keyed by a seed.

Philox is counter-based, so a seed gives the same draws on any machine.
"""

import numpy as np


def make_rng(seed):
    """Return the Generator of ``seed``."""
    # the spawn key is part of every path's bits: without it they change
    ss = np.random.SeedSequence(seed, spawn_key=(0,))
    return np.random.Generator(np.random.Philox(ss))
