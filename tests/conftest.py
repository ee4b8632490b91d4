"""Shared fixtures and fixture-like constructors."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from inforate import _kernels
from inforate.process import MarkovKernel, StationaryProcess


def shifted_kernel_process(a=0.5, sigma=1.0, shift=0.5):
    """Gaussian marginal with a mean-shifted step kernel.

    The shift breaks the point symmetry that makes the magnitude fold
    lumpable.  Not stationary, which pointwise condition checks do not
    require.
    """
    var_x = sigma**2 / (1 - a**2)
    norm_x = 1.0 / math.sqrt(2 * math.pi * var_x)
    norm_z = 1.0 / math.sqrt(2 * math.pi) / sigma

    def marginal_pdf(x):
        x = np.asarray(x, dtype=float)
        return norm_x * np.exp(-x * x / (2 * var_x))

    def cond_pdf(x2, x1):
        d = np.asarray(x2, dtype=float) - (a * np.asarray(x1, dtype=float) + shift)
        return norm_z * np.exp(-d * d / (2 * sigma**2))

    def cond_cdf(x2, x1):
        d = np.asarray(x2, dtype=float) - (a * np.asarray(x1, dtype=float) + shift)
        return ndtr(d / sigma)

    sd_x = math.sqrt(var_x)

    def path_sampler(rng, n):
        # x0 from the marginal, then the n - 1 innovations shift + z
        x0 = float(rng.normal(0.0, sd_x, 1)[0])
        z = rng.normal(0.0, sigma, n - 1)
        return _kernels.ar1_path(x0, a, shift + z)

    # the lookups take arrays of x1; a smooth kernel has no split points,
    # so split_points and x1_split_points keep their empty defaults
    kernel = MarkovKernel(
        cond_pdf=cond_pdf,
        cond_cdf=cond_cdf,
        quad_range=lambda x1s: (
            a * x1s + shift - 10 * sigma,
            a * x1s + shift + 10 * sigma,
        ),
    )
    return StationaryProcess(
        marginal_pdf=marginal_pdf,
        marginal_cdf=lambda x: ndtr(np.asarray(x, dtype=float) / sd_x),
        path_sampler=path_sampler,
        kernel=kernel,
        support=(-np.inf, np.inf),
        quad_support=(-10 * sd_x, 10 * sd_x),
    )


@pytest.fixture
def small_bincounts(monkeypatch):
    """np.bincount, as ``_kernels`` calls it, raising MemoryError where it
    would count into more than 10**8 bins: a refused table is asked for
    without being allocated."""
    bincount = np.bincount

    def guarded(x, weights=None, minlength=0):
        if minlength > 10**8:
            raise MemoryError(f"{minlength} counters")
        return bincount(x, weights, minlength)

    monkeypatch.setattr(_kernels.np, "bincount", guarded)
