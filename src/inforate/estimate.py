"""Numerical primitives shared by the loss-rate computations.

Adaptive Gauss-Kronrod quadrature with mandatory split points, histogram
estimators for differential entropy and mutual information, conditional
entropies of branch-index variables, and plug-in block entropies.  All
entropies are in bits.
"""

import heapq
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import (
    BadParameterError,
    ConstantBranchError,
    NoConvergenceError,
    TooFewSamplesError,
)

LOG2E = 1.0 / math.log(2.0)

# 15-point Kronrod nodes (ascending) with the embedded 7-point Gauss rule
# sitting on the odd-indexed nodes.  Constants as published for QUADPACK.
_XK = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)
_WK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
        0.381830050505118944950369775488975,
        0.279705391489276667901467771423780,
        0.129484966168869693270611432679082,
    ]
)
_GAUSS_IDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-9
    max_depth: int = 120
    max_intervals: int = 200_000

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise BadParameterError("abs_tol must be positive")


DEFAULT_QUAD = QuadratureConfig()


def _gk15(f, lo, hi):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fv = np.asarray(f(c + h * _XK), dtype=float)
    if fv.shape != (15,):
        raise BadParameterError("integrand must map a length-15 array to one")
    resk = float(_WK @ fv)
    resg = float(_WG @ fv[_GAUSS_IDX])
    err = abs(resk - resg) * h
    # rescale against the deviation integral so integrable endpoint
    # singularities do not pin the estimate at the raw Gauss-Kronrod gap
    resasc = float(_WK @ np.abs(fv - 0.5 * resk)) * h
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    resabs = float(_WK @ np.abs(fv)) * h
    err = max(err, 50.0 * np.finfo(float).eps * resabs)
    return resk * h, err


def quad(f, lo, hi, cfg=DEFAULT_QUAD, points=()):
    """Adaptive GK15 integral of a vectorized integrand over [lo, hi].

    ``points`` are mandatory split locations (discontinuities, kinks);
    those inside the interval become initial panel edges, the others are
    dropped.  The panel with the largest error estimate is bisected
    until the summed estimate is at most ``cfg.abs_tol``.  Raises
    NoConvergenceError when the panel to bisect already sits at
    ``cfg.max_depth`` halvings, or the panel count passes
    ``cfg.max_intervals``.  The depth limit only decides when to give
    up: an integral that converges under a smaller limit returns the
    same bits under a larger one.
    """
    lo = float(lo)
    hi = float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise BadParameterError("quad requires finite bounds (truncate first)")
    if hi <= lo:
        if hi == lo:
            return 0.0
        raise BadParameterError(f"empty interval [{lo}, {hi}]")

    cuts = sorted({lo, hi, *(float(p) for p in points if lo < p < hi)})
    heap = []
    total = 0.0
    err_total = 0.0
    tick = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, err = _gk15(f, a, b)
        total += val
        err_total += err
        heapq.heappush(heap, (-err, tick, a, b, val, err, 0))
        tick += 1

    while err_total > cfg.abs_tol:
        neg_err, _, a, b, val, err, depth = heapq.heappop(heap)
        if depth >= cfg.max_depth or len(heap) > cfg.max_intervals:
            raise NoConvergenceError(
                f"quadrature stalled on [{a}, {b}] (err={err:.3e})",
                partial=total,
            )
        mid = 0.5 * (a + b)
        v1, e1 = _gk15(f, a, mid)
        v2, e2 = _gk15(f, mid, b)
        total += v1 + v2 - val
        err_total += e1 + e2 - err
        heapq.heappush(heap, (-e1, tick, a, mid, v1, e1, depth + 1))
        tick += 1
        heapq.heappush(heap, (-e2, tick, mid, b, v2, e2, depth + 1))
        tick += 1
    return total


def xlog2x(p):
    """Elementwise p*log2(p) with the 0*log(0)=0 convention."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = p * np.log2(np.where(p > 0, p, 1.0))
    return np.where(p > 0, out, 0.0)


def entropy_bits(probs):
    """Shannon entropy in bits of a (not necessarily normalized) vector."""
    return float(-np.sum(xlog2x(np.asarray(probs, dtype=float))))


# ---------------------------------------------------------------------------
# histograms


def default_bins(n):
    """Cube-root rule used throughout: ceil(N**(1/3)) bins per axis."""
    return int(math.ceil(n ** (1.0 / 3.0) - 1e-9))


def histogram2d_quantile(xs, ys, bins):
    """Joint counts on a bins x bins grid with marginal-quantile edges."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    qs = np.linspace(0.0, 1.0, bins + 1)
    ex = np.quantile(xs, qs)
    ey = np.quantile(ys, qs)
    ix = np.clip(np.searchsorted(ex[1:-1], xs, side="right"), 0, bins - 1)
    iy = np.clip(np.searchsorted(ey[1:-1], ys, side="right"), 0, bins - 1)
    return _kernels.pair_counts(ix, iy, bins)


def diff_entropy_hist(samples, bins=None):
    """Plug-in differential entropy from an equal-width histogram, in bits."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1000:
        raise TooFewSamplesError("need at least 1e3 samples")
    if bins is None:
        bins = default_bins(samples.size)
    counts, edges = np.histogram(samples, bins=bins)
    widths = np.diff(edges)
    p = counts / samples.size
    occupied = p > 0
    return float(
        -np.sum(xlog2x(p[occupied])) + np.sum(p[occupied] * np.log2(widths[occupied]))
    )


def mutual_information_hist(xs, ys, bins=None):
    """Plug-in mutual information on a quantile-edged 2D histogram, in bits."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size:
        raise BadParameterError("paired samples must have equal length")
    if xs.size < 1000:
        raise TooFewSamplesError("need at least 1e3 sample pairs")
    if bins is None:
        bins = default_bins(xs.size)
    pij = histogram2d_quantile(xs, ys, bins) / xs.size
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    h_x = entropy_bits(pi)
    h_y = entropy_bits(pj)
    h_xy = entropy_bits(pij.ravel())
    return h_x + h_y - h_xy


# ---------------------------------------------------------------------------
# quadrature-based entropies


def _kernel_splits(process, x):
    kern = process.kernel
    if kern is None or kern.split_points is None:
        return ()
    return kern.split_points(x)


def _cond_pdf_fn(process):
    kern = process.kernel
    if kern is None:
        marginal = process.marginal_pdf
        return lambda x2, x1: marginal(x2)
    return kern.cond_pdf


def _cond_window(process, x1):
    kern = process.kernel
    if kern is None or kern.quad_range is None:
        return process.quad_support
    return kern.quad_range(x1)


def _x1_integral(process, value, cfg, f=None):
    """int f_X(x1) value(x1) dx1 over the truncated support.

    Split at the marginal's split points and, when a function is given,
    at its finite tile edges, where value(x1) may kink.
    """
    lo, hi = process.quad_support
    f_marg = process.marginal_pdf
    points = list(process.marginal_split_points)
    if f is not None:
        points += f.tile_edges

    def outer(x1s):
        return f_marg(x1s) * np.array([value(x) for x in np.atleast_1d(x1s)])

    return quad(outer, lo, hi, cfg, points=points)


def branch_integrals(f, integrand, lo, hi, cfg=DEFAULT_QUAD, points=(), kind=None):
    """int integrand(x, b) dx over each tile b of f cut to [lo, hi].

    One entry per branch; tiles outside the window, or not of the given
    ``kind`` when one is given, give 0.
    """
    out = np.zeros(len(f.branches))
    for i, b in enumerate(f.branches):
        a = max(b.domain_lo, lo)
        c = min(b.domain_hi, hi)
        if c > a and kind in (None, b.kind):
            out[i] = quad(lambda x: integrand(x, b), a, c, cfg, points=points)
    return out


def marginal_entropy_quad(process, cfg=DEFAULT_QUAD):
    """h(X) = -int f log2 f over the truncated support, by quadrature."""
    f = process.marginal_pdf
    lo, hi = process.quad_support
    return -quad(
        lambda x: xlog2x(f(x)), lo, hi, cfg, points=process.marginal_split_points
    )


def cond_entropy_rate_quad(process, cfg=DEFAULT_QUAD):
    """h(X2|X1) for a Markov process by nested quadrature (bits).

    For an iid process this reduces to the marginal entropy.
    """
    if process.kernel is None:
        return marginal_entropy_quad(process, cfg)
    cond = process.kernel.cond_pdf
    lo, hi = process.quad_support

    def point_entropy(x1):
        wlo, whi = _cond_window(process, x1)
        return -quad(
            lambda x2: xlog2x(cond(x2, x1)),
            max(wlo, lo),
            min(whi, hi),
            cfg,
            points=_kernel_splits(process, x1),
        )

    return _x1_integral(process, point_entropy, cfg)


def _branch_probabilities(f, process, x1, cfg):
    """Pr(W2 = w | X1 = x1) for every branch w, by quadrature."""
    cond = _cond_pdf_fn(process)
    wlo, whi = _cond_window(process, x1)
    splits = _kernel_splits(process, x1)
    return branch_integrals(f, lambda x2, b: cond(x2, x1), wlo, whi, cfg, splits)


def cond_entropy_W_given_X(f, process, cfg=DEFAULT_QUAD):
    """H(W2|X1): entropy of the next branch index given the current sample.

    W is the discrete process of partition indices; the outer expectation
    over X1 and the per-branch probabilities are both quadratures.
    """
    inner_cfg = replace(cfg, abs_tol=min(1e-12, cfg.abs_tol))

    def point_entropy(x1):
        probs = _branch_probabilities(f, process, x1, inner_cfg)
        total = probs.sum()
        if total <= 0:
            return 0.0
        return entropy_bits(probs / total)

    return _x1_integral(process, point_entropy, cfg, f)


def output_cond_pdf(f, cond_pdf, x1, ys):
    """Density of Y2 = g(X2) given X1 = x1, evaluated on an array of y."""
    return f.preimage_sum(lambda xs: cond_pdf(xs, x1), ys)


def cond_entropy_output_given_input(f, process, cfg=DEFAULT_QUAD):
    """h(Y2|X1) for Y = g(X), by nested quadrature over x1 and y."""
    lo, hi = process.quad_support
    cond = _cond_pdf_fn(process)

    def point_entropy(x1):
        wlo, whi = _cond_window(process, x1)
        window = f.image_window(max(wlo, lo), min(whi, hi))
        if window is None or window[1] <= window[0]:
            return 0.0
        ylo, yhi, edges = window
        # images of kernel discontinuities under g are further split points
        splits = edges + f.image_points(_kernel_splits(process, x1))
        return -quad(
            lambda ys: xlog2x(output_cond_pdf(f, cond, x1, ys)),
            ylo,
            yhi,
            cfg,
            points=splits,
        )

    return _x1_integral(process, point_entropy, cfg, f)


def expected_log_abs_derivative(f, process, cfg=DEFAULT_QUAD):
    """E[log2 |g'(X)|] by branch-wise quadrature against the marginal."""
    if f.has_constant:
        raise ConstantBranchError("derivative term undefined on constant pieces")
    f_marg = process.marginal_pdf
    lo, hi = process.quad_support
    total = 0.0  # a running sum in branch order; np.sum would regroup the terms
    for term in branch_integrals(
        f,
        lambda x, b: f_marg(x) * np.log2(np.abs(b.derivative(x))),
        lo,
        hi,
        cfg,
        process.marginal_split_points,
    ):
        total += term
    return float(total)


def expected_log_abs_derivative_mc(f, samples):
    """Monte Carlo version of the derivative term, for cross-checking."""
    samples = np.asarray(samples, dtype=float)
    idx = f.branch_index_array(samples)
    out = np.empty_like(samples)
    for i, b in enumerate(f.branches):
        mask = idx == i + 1
        if np.any(mask):
            out[mask] = np.log2(np.abs(b.derivative(samples[mask])))
    return float(np.mean(out))


# ---------------------------------------------------------------------------
# plug-in block entropies of the branch-index process


@dataclass(frozen=True)
class BlockEntropyEstimate:
    value: float
    levels: tuple = field(default_factory=tuple)
    converged: bool = False
    order: int = 0

    def __float__(self):
        return self.value


def _plugin_entropy(counts):
    p = counts[counts > 0] / counts.sum()
    return entropy_bits(p)


def markov_block_entropy_W(f, process, k=4, n_samples=10**6, seed=42, stream=0):
    """Plug-in conditional entropies H(W_{j+1} | W_1^j) for j = 0..k.

    Returns the estimate at the largest order whose successive difference
    dropped below 0.01 bit; the full level sequence rides along.
    """
    from .process import sample_path

    n_branches = len(f.branches)
    if k > 6:
        raise BadParameterError("block order capped at 6")
    if n_branches ** (k + 1) * 30 > n_samples:
        raise TooFewSamplesError(
            f"need >= {n_branches ** (k + 1) * 30} samples for order {k}"
        )
    path = sample_path(process, n_samples, seed, stream=stream)
    w = f.branch_index_array(path.values) - 1

    levels = []
    prev_joint = 0.0
    for order in range(k + 1):
        width = order + 1
        codes = np.zeros(w.size - width + 1, dtype=np.int64)
        for t in range(width):
            codes = codes * n_branches + w[t : w.size - width + 1 + t]
        h_joint = _plugin_entropy(np.bincount(codes))
        levels.append(h_joint - prev_joint)
        prev_joint = h_joint

    order = 0
    converged = False
    for j in range(1, len(levels)):
        if abs(levels[j] - levels[j - 1]) < 0.01:
            order = j
            converged = True
    if not converged:
        order = len(levels) - 1
    return BlockEntropyEstimate(
        value=float(levels[order]),
        levels=tuple(float(v) for v in levels),
        converged=converged,
        order=order,
    )
