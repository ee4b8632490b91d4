"""Reference implementations that tests compare the library against.

None runs on a library path: each computes by a direct route a
quantity that the library reaches another way or assumes.
"""

import numpy as np

from inforate.errors import ConstantBranchError
from inforate.estimate import DEFAULT_QUAD, quad_batch
from inforate.process import wrap_interval


def branch_integrals(f, integrand, lo, hi, cfg=DEFAULT_QUAD, points=()):
    """int integrand(x, col, b) dx over each tile b of f cut to the
    windows [lo[col], hi[col]].

    ``points`` holds one row of split points per window.  Returns a
    (windows, branches) array; tiles outside a window give 0.  One
    batched quadrature per branch covers every window.
    """
    lo, hi = (np.asarray(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    out = np.zeros((lo.size, len(f.branches)))
    for i, b in enumerate(f.branches):
        a = np.maximum(b.domain_lo, lo)
        c = np.maximum(np.minimum(b.domain_hi, hi), a)
        out[:, i] = quad_batch(lambda x, col: integrand(x, col, b), a, c, cfg, points)
    return out


def circular_distance(x, y, m):
    """min_k |x - y - 2km| on the circle of circumference 2m, through the
    float modulo of ``wrap_interval``: the cyclic walk's kernel as first
    written."""
    return np.abs(wrap_interval(np.asarray(x, dtype=float) - y, m))


def stationarity_residual(process):
    """max_x | int f(x2|x1) f(x1) dx1 - f(x2) | on an interior grid of
    64 points."""
    kern = process.kernel
    if kern is None:
        return 0.0
    lo, hi = process.quad_support
    eps = 1e-6 * (hi - lo)
    xs2 = np.linspace(lo + eps, hi - eps, 64) + 1e-9
    f = process.marginal_pdf
    # the integrand jumps in x1 where the marginal does and where a
    # kernel discontinuity lands on x2
    marginal_points = np.tile(process.marginal_split_points, (xs2.size, 1))
    got = quad_batch(
        lambda x1, col: kern.cond_pdf(xs2[col], x1) * f(x1),
        np.full(xs2.size, lo),
        hi,
        DEFAULT_QUAD,
        np.column_stack([marginal_points, kern.x1_split_points(xs2)]),
    )
    return float(np.max(np.abs(got - f(xs2))))


def expected_log_abs_derivative(f, process, cfg=DEFAULT_QUAD):
    """E[log2 |g'(X)|] by branch-wise quadrature against the marginal."""
    if f.has_constant:
        raise ConstantBranchError("derivative term undefined on constant pieces")
    f_marg = process.marginal_pdf
    lo, hi = process.quad_support
    total = 0.0  # a running sum in branch order; np.sum would regroup the terms
    for term in branch_integrals(
        f,
        lambda x, col, b: f_marg(x) * np.log2(np.abs(b.derivative(x))),
        lo,
        hi,
        cfg,
        [process.marginal_split_points],
    )[0]:
        total += term
    return float(total)
