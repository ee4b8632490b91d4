"""Shared fixtures and fixture-like constructors."""

import math

import numpy as np

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

    sd_x = math.sqrt(var_x)
    kernel = MarkovKernel(
        cond_pdf=cond_pdf,
        sample_step=lambda x1, rng: a * x1 + shift + rng.normal(0.0, sigma),
        quad_range=lambda x1: (
            a * x1 + shift - 10 * sigma,
            a * x1 + shift + 10 * sigma,
        ),
    )
    return StationaryProcess(
        name="shifted",
        params={"a": a, "sigma": sigma, "shift": shift},
        marginal_pdf=marginal_pdf,
        marginal_sampler=lambda rng, n: rng.normal(0.0, sd_x, n),
        kernel=kernel,
        support=(-np.inf, np.inf),
        quad_support=(-10 * sd_x, 10 * sd_x),
        symmetric=False,
    )
