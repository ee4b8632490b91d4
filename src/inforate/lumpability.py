"""Grid checks for Markovity of the output process and bound tightness.

The sufficient condition compares, for every pair of inputs mapping to
the same output value, the preimage sums

    s(x) = sum_{x2 in preimage(y2)} f(x2|x) / |g'(x2)|

over a grid of output pairs (y1, y2).  A second pair of conditions
certifies that the branch-index bound H(W2|X1) is attained.  All checks
are grid-sampled: a pass means "holds on this grid", never a proof.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadParameterError, check_int
from .estimate import DEFAULT_QUAD, _branch_probabilities, _cond_pdf_fn

_EDGE_EPS = 1e-9
# points per kernel call in both checks
_BLOCK_POINTS = 1 << 14


@dataclass(frozen=True)
class LumpabilityReport:
    condition_holds: bool
    max_deviation: float
    grid: str
    tol: float
    witnesses: tuple = ()
    tightness_a_holds: bool = None
    tightness_b_holds: bool = None
    tightness_a_deviation: float = None
    tightness_b_deviation: float = None


@dataclass(frozen=True)
class TightnessResult:
    a_holds: bool
    b_holds: bool
    a_deviation: float
    b_deviation: float


def _relative_deviation(s, s_prime):
    scale = np.maximum(np.maximum(np.abs(s), np.abs(s_prime)), 1e-300)
    return np.abs(s - s_prime) / scale


def _spread(v):
    """Relative gap between the largest and smallest non-NaN entry per row."""
    return _relative_deviation(np.nanmax(v, axis=-1), np.nanmin(v, axis=-1))


def _nudged_grid(lo, hi, n, avoid=()):
    """Interior grid avoiding a 1e-9 neighborhood of the given points."""
    span = hi - lo
    pts = np.linspace(lo + 1e-6 * span, hi - 1e-6 * span, n) + _EDGE_EPS
    for a in avoid:
        close = np.abs(pts - a) < _EDGE_EPS
        pts[close] += 2.0 * _EDGE_EPS
    return pts


def _preimage_table(f, process, grid, tol):
    """The output grid over the image of the process support, its label
    and its preimage table, after refusing what neither check accepts."""
    check_grid_params(grid, tol)
    if not f.all_injective:
        raise BadParameterError("the grid checks need an all-injective function")
    y_lo, y_hi, _ = f.image_window(*process.quad_support)
    if y_lo > y_hi:
        raise BadParameterError("function range is empty on the process support")
    ys = _nudged_grid(y_lo, y_hi, grid, avoid=f.tile_edges)
    return ys, f.preimage_table(ys), f"{grid}x{grid} on [{y_lo:.6g}, {y_hi:.6g}]^2"


def _kernel_terms(cond, table, x1s):
    """f(x2_b(y) | x1) / |g'(x2_b(y))| over the table at each x1, on
    x1s.shape + (branch, grid) arrays, also where an iid kernel ignores
    x1; 0 where x2_b(y) does not exist."""
    with np.errstate(all="ignore"):
        val = table.weights(lambda x2: cond(x2, x1s[..., None, None]))
    return np.broadcast_to(val, x1s.shape + table.valid.shape)


def check_grid_params(grid, tol):
    """Refuse a grid that is not an integer >= 101 and a tol that is not
    a finite number >= 0."""
    check_int("grid", grid, 101)
    if not (isinstance(tol, numbers.Real) and 0 <= tol < np.inf):
        raise BadParameterError(f"tol must be a finite number >= 0, got {tol!r}")


def _blocks(n, points):
    """Slices of n rows, ``points`` kernel points a row, <= _BLOCK_POINTS each."""
    step = max(1, _BLOCK_POINTS // points)
    return (slice(start, start + step) for start in range(0, n, step))


def check_lumpable(f, process, grid=201, tol=1e-6):
    """Compare preimage sums across inputs sharing an output, on a grid."""
    # the y1 grid is the y2 grid, so the table also holds the preimages
    # x1 of each y1; they count where the input density is positive
    ys, table, label = _preimage_table(f, process, grid, tol)
    # iid: both sums equal the output marginal density by construction
    cond = _cond_pdf_fn(process)
    x1 = table.x.T
    live = (table.valid & (process.marginal_pdf(table.x) > 0.0)).T

    # per block of y1 values: every pair of live preimages of one y1, by
    # y1, then by branches, and the preimage sums in preimage_sum's order
    bi, bj = np.triu_indices(live.shape[1], 1)
    worst = 0.0
    witnesses = []
    for blk in _blocks(grid, live.shape[1] * table.valid.size):
        cols, pair = np.nonzero(live[blk, bi] & live[blk, bj])
        if not cols.size:
            continue
        i, j, xs = bi[pair], bj[pair], x1[blk]
        sums = sum(np.moveaxis(_kernel_terms(cond, table, xs), -2, 0))
        dev = _relative_deviation(sums[cols, i], sums[cols, j])
        k = np.argmax(dev, axis=1)
        peak = dev[np.arange(k.size), k]
        worst = max(worst, float(np.nanmax(peak, initial=0.0)))
        hit = np.nonzero(peak > tol)[0][: 10 - len(witnesses)]
        witnesses += [
            (float(ys[blk][c]), float(ys[kk]), float(xs[c, a]), float(xs[c, b]))
            for c, kk, a, b in zip(cols[hit], k[hit], i[hit], j[hit])
        ]
    return LumpabilityReport(
        condition_holds=worst <= tol,
        max_deviation=worst,
        grid=label,
        tol=tol,
        witnesses=tuple(witnesses),
    )


def check_tightness(f, process, grid=201, tol=1e-6):
    """Check the two equality conditions under which H(W2|X1) is attained.

    (a) the weighted kernel values agree across branches at each output
        value; (b) the branch probabilities given X1 = x are all equal.
    """
    _, table, _ = _preimage_table(f, process, grid, tol)
    valid = table.valid.T
    cond = _cond_pdf_fn(process)
    xs = _nudged_grid(*process.quad_support, grid, avoid=f.tile_edges)
    xs = xs[process.marginal_pdf(xs) > 0.0]
    probs = _branch_probabilities(f, process, xs, DEFAULT_QUAD)
    total = probs.sum(axis=1, keepdims=True)
    probs = probs / np.where(total > 0, total, 1.0)
    # the conditions compare branches, so only x with two or more live
    # branches count
    live = (probs > tol) & (total > 0)
    rows = live.sum(axis=1) >= 2
    xs, probs, live = xs[rows], probs[rows], live[rows]
    # (b): equal branch probabilities
    worst_b = float(_spread(np.where(live, probs, np.nan)).max(initial=0.0))
    # (a): equal kernel terms of the live branches wherever the preimage
    # exists, on (x, y2, branch) arrays
    worst_a = 0.0
    for blk in _blocks(xs.size, valid.size):
        val = np.swapaxes(_kernel_terms(cond, table, xs[blk]), 1, 2)
        terms = np.where(live[blk, None, :] & valid & np.isfinite(val), val, np.nan)
        pairs = (~np.isnan(terms)).sum(axis=-1) >= 2
        worst_a = max(worst_a, float(_spread(terms[pairs]).max(initial=0.0)))
    return TightnessResult(
        a_holds=worst_a <= tol,
        b_holds=worst_b <= tol,
        a_deviation=worst_a,
        b_deviation=worst_b,
    )


def full_report(f, process, grid=201, tol=1e-6):
    """Lumpability plus tightness in one report."""
    rep = check_lumpable(f, process, grid=grid, tol=tol)
    tight = check_tightness(f, process, grid=grid, tol=tol)
    return replace(
        rep,
        tightness_a_holds=tight.a_holds,
        tightness_b_holds=tight.b_holds,
        tightness_a_deviation=tight.a_deviation,
        tightness_b_deviation=tight.b_deviation,
    )
