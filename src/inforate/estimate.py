"""Numerical primitives shared by the loss-rate computations.

Adaptive Gauss-Kronrod quadrature with mandatory split points, histogram
estimators for differential entropy and mutual information, conditional
entropies of branch-index variables, and plug-in block entropies.  All
entropies are in bits.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import (
    BadParameterError,
    ConstantBranchError,
    NoConvergenceError,
    TooFewSamplesError,
    check_int,
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


def _split_rows(points, n):
    """Per-integral split points: an (n, k) array padded with NaN."""
    rows = np.asarray(points, dtype=float)
    if not rows.size:
        return np.empty((n, 0))
    if rows.shape[:1] != (n,) or rows.ndim != 2:
        raise BadParameterError(
            f"need one row of split points per integral, got shape {rows.shape}"
        )
    return rows


def _gk15(f, a, b, col):
    """GK15 values and error estimates of panels [a, b] of integrals col,
    from one integrand call on all their nodes."""
    if not a.size:
        return np.zeros(0), np.zeros(0)
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = (c[:, None] + h[:, None] * _XK).ravel()
    fv = np.asarray(f(x, np.repeat(col, 15)), dtype=float)
    if fv.shape != x.shape:
        raise BadParameterError("integrand must map each node to one value")
    fv = fv.reshape(-1, 15)
    resk = fv @ _WK
    err = np.abs(resk - fv[:, _GAUSS_IDX] @ _WG) * h
    # rescale against the deviation integral so integrable endpoint
    # singularities do not pin the estimate at the raw Gauss-Kronrod gap
    resasc = (np.abs(fv - 0.5 * resk[:, None]) @ _WK) * h
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    resabs = (np.abs(fv) @ _WK) * h
    return resk * h, np.maximum(err, 50.0 * np.finfo(float).eps * resabs)


def quad_batch(f, lo, hi, cfg=DEFAULT_QUAD, points=()):
    """Adaptive GK15 integrals of one vectorized integrand over many windows.

    Integral j runs over [lo[j], hi[j]].  ``f(x, col)`` takes flat arrays
    of nodes and of the integral each node belongs to, and returns one
    value per node.  ``points`` is an (n, k) array, padded with NaN, of
    mandatory split locations (discontinuities, kinks), one row per
    integral; those inside the window become initial panel edges, the
    others are dropped.

    Each integral keeps its own error control: while its summed error
    estimate exceeds ``cfg.abs_tol``, its largest-error panels are
    bisected until the rest sum to at most ``cfg.abs_tol / 2``.  One
    refinement step evaluates the new panels of every integral in one
    integrand call.  Raises NoConvergenceError when a panel to bisect
    already sits at ``cfg.max_depth`` halvings, or when one integrand
    call would evaluate more than ``cfg.max_intervals`` panels over the
    whole batch (its initial panels, or the new panels of one step): that
    budget bounds the memory of a step however many integrals it holds.
    The depth limit only decides when to give up: an integral that
    converges under a smaller limit returns the same bits under a larger
    one.
    """
    lo, hi = (np.asarray(v, dtype=float).ravel() for v in np.broadcast_arrays(lo, hi))
    n = lo.size
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise BadParameterError("quad requires finite bounds (truncate first)")
    if np.any(hi < lo):
        j = int(np.argmax(hi < lo))
        raise BadParameterError(f"empty interval [{lo[j]}, {hi[j]}]")

    # initial panels: the window of each integral cut at its interior points
    cuts = _split_rows(points, n)
    cuts = np.where((cuts > lo[:, None]) & (cuts < hi[:, None]), cuts, np.nan)
    cuts = np.sort(np.column_stack([lo, cuts, hi]), axis=1)
    a, b = cuts[:, :-1], cuts[:, 1:]
    keep = b > a  # drops NaN padding, repeated points and empty windows
    col = np.nonzero(keep)[0]
    a, b = a[keep], b[keep]
    if a.size > cfg.max_intervals:
        raise NoConvergenceError(
            f"quadrature batch starts with {a.size} panels, over {cfg.max_intervals}"
        )
    depth = np.zeros(a.size, dtype=int)
    val, err = _gk15(f, a, b, col)

    total = np.zeros(n)
    while True:
        err_sum = np.bincount(col, weights=err, minlength=n)
        # NaN sums count as done, so a NaN integrand returns NaN
        done = ~(err_sum[col] > cfg.abs_tol)
        total += np.bincount(col[done], weights=val[done], minlength=n)
        live = np.nonzero(~done)[0]
        if not live.size:
            return total
        # per integral, largest errors first: bisect each panel while the
        # errors from it on sum to more than half the tolerance, and
        # always the largest one
        live = live[np.lexsort((-err[live], col[live]))]
        a, b, col, val, err, depth = (v[live] for v in (a, b, col, val, err, depth))
        first = np.r_[True, col[1:] != col[:-1]]
        before = np.cumsum(err) - err
        before -= before[np.searchsorted(col, col)]
        split = first | (err_sum[col] - before > 0.5 * cfg.abs_tol)
        stuck = split & (depth >= cfg.max_depth)
        grown = 2 * np.count_nonzero(split) > cfg.max_intervals
        if stuck.any() or grown:
            # name a panel at the depth limit, else the batch's worst one
            i = int(np.argmax(stuck if stuck.any() else err))
            why = f"; one step would pass {cfg.max_intervals} panels" if grown else ""
            raise NoConvergenceError(
                f"quadrature stalled on [{a[i]}, {b[i]}] (err={err[i]:.3e}){why}",
                partial=val[col == col[i]].sum(),
            )
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[split], mid])
        new_b = np.concatenate([mid, b[split]])
        new_col = np.tile(col[split], 2)
        new_val, new_err = _gk15(f, new_a, new_b, new_col)
        keep = ~split
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        col = np.concatenate([col[keep], new_col])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])
        depth = np.concatenate([depth[keep], np.tile(depth[split] + 1, 2)])


def quad(f, lo, hi, cfg=DEFAULT_QUAD, points=()):
    """Adaptive GK15 integral of a vectorized integrand over [lo, hi].

    The one-integral case of ``quad_batch``: ``f`` maps an array of
    nodes to one value each, and ``points`` are mandatory split
    locations.
    """
    return float(quad_batch(lambda x, col: f(x), lo, hi, cfg, [points])[0])


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


def resolve_bins(bins, n):
    """Bins per axis for ``n`` samples: ``bins``, or if it is None the
    cube-root rule used throughout, ceil(n**(1/3)).  Raises
    BadParameterError unless ``bins`` is an int >= 1."""
    if bins is None:
        return int(math.ceil(n ** (1.0 / 3.0) - 1e-9))
    check_int("bins", bins, 1)
    return int(bins)


def _check_finite(lo, hi):
    """Refuse samples whose extremes ``lo`` and ``hi`` are not finite."""
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise BadParameterError("samples must be finite (found NaN or inf)")


def _sorted_finite(v):
    """``v`` sorted; BadParameterError if it holds NaN or inf."""
    s = np.sort(v)
    _check_finite(s[0], s[-1])  # -inf sorts first, +inf and NaN last
    return s


def _quantile_edges(s, bins, drop=None):
    """Edges of ``bins`` quantile bins of the sorted ``s`` less its sample
    at index ``drop`` (None: all of ``s``): the values of
    ``np.quantile(np.delete(s, drop), np.linspace(0, 1, bins + 1))``,
    read off the sort with numpy's linear-method formula, so no copy is
    made or partitioned.  A zero edge may differ from numpy's in its sign
    (numpy's partition reorders equal zeros); no label sees the sign.
    Raises BadParameterError where two neighbouring values lie further
    apart than the largest float: the edge between them is then not
    finite, and the edges not sorted."""
    n = s.size - (drop is not None)
    virtual = (n - 1) * np.linspace(0.0, 1.0, bins + 1)
    prev = np.floor(virtual)
    nxt = prev + 1
    top = virtual >= n - 1
    prev[top] = nxt[top] = -1  # numpy's marker for the last value ...
    gamma = virtual - prev  # ... which its weight is taken against
    a, b = (s[_full_index(i, n, drop)] for i in (prev, nxt))
    with np.errstate(over="ignore", invalid="ignore"):
        diff = b - a
        edges = a + diff * gamma
        np.subtract(b, diff * (1 - gamma), out=edges, where=gamma >= 0.5)
    if not np.all(np.isfinite(edges)):
        raise BadParameterError(
            "quantile edges overflow: neighbouring samples lie further apart"
            " than the largest float"
        )
    return edges


def _full_index(i, n, drop):
    """Index into the full sorted array of index ``i`` (-1: the last) of
    its ``n`` values less the one at ``drop``."""
    i = np.where(i < 0, n - 1, i).astype(np.intp)
    if drop is not None:
        i += i >= drop
    return i


def _bin_labels(edges, part):
    """Bin of each sample of ``part`` under ``edges``, in the smallest
    unsigned dtype that holds the last bin: exactly
    ``np.searchsorted(edges[1:-1], part, side="right")``, read off a table
    of the edges."""
    labels = np.empty(part.size, np.min_scalar_type(edges.size - 2))
    _kernels.edge_counter(edges[1:-1], labels.dtype)(part, labels)
    return labels


def _lagged_labels(v, bins):
    """Quantile-bin labels of ``v[:-1]`` and of ``v[1:]``, each half under
    its own edges, from one sort of ``v``: the sorted values of a half
    are those of ``v`` less one copy of the sample the half drops.
    Raises BadParameterError on NaN or inf."""
    s = _sorted_finite(v)
    head, tail = (
        _quantile_edges(s, bins, drop=np.searchsorted(s, dropped))
        for dropped in (v[-1], v[0])
    )
    del s  # bin with only the series and its labels alive: less peak memory
    return _bin_labels(head, v[:-1]), _bin_labels(tail, v[1:])


def _mi_from_labels(ix, iy, bins):
    """Plug-in mutual information, in bits, of paired bin labels."""
    pij = _kernels.pair_counts(ix, iy, bins) / ix.size
    h_x = entropy_bits(pij.sum(axis=1))
    h_y = entropy_bits(pij.sum(axis=0))
    return h_x + h_y - entropy_bits(pij.ravel())


def diff_entropy_hist(samples, bins=None):
    """Plug-in differential entropy from an equal-width histogram, in bits.

    Raises BadParameterError on NaN or inf samples, and where the
    equal-width edges are not strictly increasing: max - min exceeds the
    largest float, so that no bin width is finite, or the range holds too
    few floats for the bins.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1000:
        raise TooFewSamplesError("need at least 1e3 samples")
    lo, hi = samples.min(), samples.max()
    _check_finite(lo, hi)
    bins = resolve_bins(bins, samples.size)
    # np.histogram's edges: equal widths, over a unit span where lo == hi
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(lo, hi, bins + 1)
    if not np.all(edges[:-1] < edges[1:]):  # NaN, from an overflow, fails too
        raise BadParameterError(
            f"cannot split the sample range into {bins} equal bins: its width"
            " overflows, or it holds too few floats"
        )
    counts, edges = np.histogram(samples, bins=bins)
    widths = np.diff(edges)
    p = counts / samples.size
    occupied = p > 0
    return float(
        -np.sum(xlog2x(p[occupied])) + np.sum(p[occupied] * np.log2(widths[occupied]))
    )


def mutual_information_hist(xs, ys, bins=None):
    """Plug-in mutual information on a quantile-edged 2D histogram, in bits.

    Raises BadParameterError on NaN or inf samples.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size:
        raise BadParameterError("paired samples must have equal length")
    if xs.size < 1000:
        raise TooFewSamplesError("need at least 1e3 sample pairs")
    bins = resolve_bins(bins, xs.size)
    ix, iy = (
        _bin_labels(_quantile_edges(_sorted_finite(v), bins), v) for v in (xs, ys)
    )
    return _mi_from_labels(ix, iy, bins)


# ---------------------------------------------------------------------------
# quadrature-based entropies


def _cond_pdf_fn(process):
    kern = process.kernel
    if kern is None:
        marginal = process.marginal_pdf
        return lambda x2, x1: marginal(x2)
    return kern.cond_pdf


def _cond_windows(process, x1s):
    """Low and high ends of the x2 window at each x1, and the kernel's
    split points there, one row per x1."""
    kern = process.kernel
    if kern is None or kern.quad_range is None:
        ends = process.quad_support
    else:
        ends = kern.quad_range(x1s)
    lo, hi, _ = np.broadcast_arrays(*ends, x1s)
    points = np.empty((x1s.size, 0)) if kern is None else kern.split_points(x1s)
    return lo, hi, points


def _x1_integral(process, value, cfg, f=None):
    """int f_X(x1) value(x1) dx1 over the truncated support.

    ``value`` maps an array of x1 nodes to one value each.  Split where
    value(x1) may kink: at the marginal's split points, at the finite tile
    edges of a given function, and at the x1 where a kernel
    discontinuity lands on a tile edge or an end of the support.  No
    rule finds such kinks by itself (Lyness, 1983), so they are declared
    as in QUADPACK's QAGP.
    """
    lo, hi = process.quad_support
    f_marg = process.marginal_pdf
    edges = np.array([lo, hi, *(f.tile_edges if f is not None else ())])
    points = np.concatenate([process.marginal_split_points, edges])
    if process.kernel is not None:
        points = np.append(points, process.kernel.x1_split_points(edges))
    return quad(lambda x1s: f_marg(x1s) * value(x1s), lo, hi, cfg, points=points)


def branch_integrals(f, integrand, lo, hi, cfg=DEFAULT_QUAD, points=(), kind=None):
    """int integrand(x, col, b) dx over each tile b of f cut to the
    windows [lo[col], hi[col]].

    ``points`` holds one row of split points per window.  Returns a
    (windows, branches) array; tiles outside a window, or not of the
    given ``kind`` when one is given, give 0.  One batched quadrature
    per branch covers every window.
    """
    lo, hi = (np.asarray(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    out = np.zeros((lo.size, len(f.branches)))
    for i, b in enumerate(f.branches):
        if kind not in (None, b.kind):
            continue
        a = np.maximum(b.domain_lo, lo)
        c = np.maximum(np.minimum(b.domain_hi, hi), a)
        out[:, i] = quad_batch(lambda x, col: integrand(x, col, b), a, c, cfg, points)
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

    def point_entropy(x1s):
        wlo, whi, kinks = _cond_windows(process, x1s)
        return -quad_batch(
            lambda x2, col: xlog2x(cond(x2, x1s[col])),
            np.maximum(wlo, lo),
            np.minimum(whi, hi),
            cfg,
            kinks,
        )

    return _x1_integral(process, point_entropy, cfg)


def _branch_probabilities(f, process, x1s, cfg):
    """Pr(W2 = w | X1 = x1) for every x1 (rows) and branch w (columns)."""
    x1s = np.asarray(x1s, dtype=float)
    cond = _cond_pdf_fn(process)
    wlo, whi, kinks = _cond_windows(process, x1s)
    return branch_integrals(
        f, lambda x2, col, b: cond(x2, x1s[col]), wlo, whi, cfg, kinks
    )


def cond_entropy_W_given_X(f, process, cfg=DEFAULT_QUAD):
    """H(W2|X1): entropy of the next branch index given the current sample.

    W is the discrete process of partition indices; the outer expectation
    over X1 and the per-branch probabilities are both quadratures.
    """
    inner_cfg = replace(cfg, abs_tol=min(1e-12, cfg.abs_tol))

    def point_entropy(x1s):
        probs = _branch_probabilities(f, process, x1s, inner_cfg)
        total = probs.sum(axis=1, keepdims=True)
        probs = probs / np.where(total > 0, total, 1.0)
        return np.where(total[:, 0] > 0, -np.sum(xlog2x(probs), axis=1), 0.0)

    return _x1_integral(process, point_entropy, cfg, f)


def _output_integral(f, process, node_value, cfg):
    """int f_X(x1) int node_value(t) dy dx1 for Y = g(X), where t holds
    the terms f(x_b | x1) / |g'(x_b)| at the preimages x_b of y, one row
    per branch.  The y window is the image of the x2 window, split at the
    images of its tile edges and of the kernel's discontinuities."""
    lo, hi = process.quad_support
    cond = _cond_pdf_fn(process)

    def point_value(x1s):
        wlo, whi, kinks = _cond_windows(process, x1s)
        ylo, yhi, edges = f.image_window(np.maximum(wlo, lo), np.minimum(whi, hi))
        empty = ~(yhi > ylo)  # ylo = yhi = 0 there: the integral is 0
        return quad_batch(
            lambda ys, col: node_value(
                f.preimage_weights(lambda x2: cond(x2, x1s[col]), ys)
            ),
            np.where(empty, 0.0, ylo),
            np.where(empty, 0.0, yhi),
            cfg,
            np.column_stack([edges, f.image_points(kinks)]),
        )

    return _x1_integral(process, point_value, cfg, f)


def cond_entropy_output_given_input(f, process, cfg=DEFAULT_QUAD):
    """h(Y2|X1) for Y = g(X), by nested quadrature over x1 and y."""
    return _output_integral(f, process, lambda t: -xlog2x(t.sum(axis=0)), cfg)


def cond_entropy_X2_given_Y2_X1(f, process, cfg=DEFAULT_QUAD):
    """H(X2 | Y2, X1) for Y = g(X), by nested quadrature over x1 and y.

    Given X1 = x1 and Y2 = y, X2 is the preimage x_b of y with probability
    t_b / T, t_b = f(x_b | x1) / |g'(x_b)|, T = sum_b t_b (Geiger,
    Feldbauer and Kubin, 2011).  Each term of -sum_b t_b log2(t_b / T) is
    at least 0, and exactly 0 where one preimage carries all the weight.
    """

    def entropy(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            share = t / t.sum(axis=0)
            terms = np.where((share > 0) & (share < 1), -t * np.log2(share), 0.0)
        return terms.sum(axis=0)

    return _output_integral(f, process, entropy, cfg)


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


def cond_entropy_input_given_output(f, process, cfg=DEFAULT_QUAD):
    """H(X|Y) for Y = g(X): the loss L(X -> Y) of the marginal variable.

    For piecewise bijective g it is -E[log2 Pr(X | g(X))], where the
    conditional law of X given g(X) = y puts mass proportional to
    f_X(x)/|g'(x)| on each preimage x of y (Geiger, Feldbauer and Kubin,
    2011), so it is one bounded quadrature per branch.  It is divided by
    the mass of f_X on the window, integrated alongside: the value is that
    of the law restricted to the window, and a fold whose preimages always
    weigh the same gives log2 of their count to the last bit.  The
    integrand jumps where a preimage enters or leaves the window: at the
    preimages of the images of the window ends, the tile edges and the
    marginal's split points.
    """
    f_marg = process.marginal_pdf
    lo, hi = process.quad_support
    split_points = process.marginal_split_points
    _, _, edges = f.image_window(lo, hi)
    table = f.preimage_table(np.concatenate([edges, f.image_points(split_points)]))
    points = np.concatenate([split_points, table.x[table.valid]])

    def integrand(x, col, b):
        """-f_X log2 Pr(x | g(x)) in column 0, f_X in column 1."""
        px = f_marg(x)
        own = px / np.abs(b.derivative(x))
        # the sum holds the own term, unless the inverse rounds x across
        # a tile edge; then the own term alone stands for it
        total = np.maximum(f.preimage_sum(f_marg, b.forward(x)), own)
        with np.errstate(divide="ignore", invalid="ignore"):
            loss = np.where(own > 0, -px * np.log2(own / total), 0.0)
        return np.where(col == 0, loss, px)

    # running sums in branch order; np.sum would regroup the terms
    loss = mass = 0.0
    terms = branch_integrals(f, integrand, [lo, lo], [hi, hi], cfg, [points] * 2)
    for term, part in zip(*terms):
        loss += term
        mass += part
    return float(loss / mass)


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


# starting points per block of the block-entropy count
_COUNT_BLOCK = 1 << 16


def _plugin_entropy(counts):
    p = counts[counts > 0] / counts.sum()
    return entropy_bits(p)


def _check_block_order(f, k, n_samples):
    """Refuse a block order ``k`` that is not an int in 0..6, or too few
    samples to count the blocks of k + 1 indices."""
    n_branches = len(f.branches)
    check_int("block order", k, 0, 6)
    if n_branches ** (k + 1) * 30 > n_samples:
        raise TooFewSamplesError(
            f"need >= {n_branches ** (k + 1) * 30} samples for order {k}"
        )


def _block_entropy(f, values, k):
    """``markov_block_entropy_W`` on the sampled path ``values``.

    One count of the blocks of k + 1 indices gives every lower order: the
    blocks of order j are those counts summed over their last k - j
    indices, plus the k - j blocks that start too late to extend to
    k + 1 indices.  The path is indexed and counted _COUNT_BLOCK starting
    points at a time, so no path-sized array is built."""
    n_branches = len(f.branches)
    n_codes = n_branches ** (k + 1)
    n = values.size
    counts = np.zeros(n_codes, np.int64)
    for start in range(0, n - k, _COUNT_BLOCK):
        stop = min(start + _COUNT_BLOCK, n - k)
        # the block's indices and the k after its last starting point
        w = f.branch_index_array(values[start : stop + k])
        w -= 1
        m = stop - start
        codes = w[:m].astype(np.int64)
        for i in range(1, k + 1):
            codes *= n_branches
            codes += w[i : m + i]
        counts += np.bincount(codes, minlength=n_codes)
    counts = counts.reshape((n_branches,) * (k + 1))
    tail = w[w.size - k :]

    joint = []
    for order in range(k + 1):
        blocks = counts.sum(axis=tuple(range(order + 1, k + 1)))
        for start in range(k - order):
            blocks[tuple(tail[start : start + order + 1])] += 1
        # C order is code order, so the plug-in sees the counts in the
        # order a bincount of the codes of this order lists them
        joint.append(_plugin_entropy(blocks.ravel()))
    levels = [hi - lo for lo, hi in zip([0.0] + joint, joint)]

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


def markov_block_entropy_W(f, process, k=4, n_samples=10**6, seed=42, stream=0):
    """Plug-in conditional entropies H(W_{j+1} | W_1^j) for j = 0..k.

    Returns the estimate at the largest order whose successive difference
    dropped below 0.01 bit; the full level sequence rides along.
    """
    from .process import check_path_args, sample_path

    check_path_args(n_samples, seed, stream)
    _check_block_order(f, k, n_samples)
    return _block_entropy(f, sample_path(process, n_samples, seed, stream).values, k)
