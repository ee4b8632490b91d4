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
from .estimate import _branch_probabilities, _cond_fns, _support_image
from .pbf import PreimageTable

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
    """Relative gap between the largest and smallest non-NaN entry along
    the leading axis; 0 where one entry is not NaN, NaN where none is."""
    return _relative_deviation(np.fmax.reduce(v), np.fmin.reduce(v))


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
    y_lo, y_hi, _ = _support_image(f, process)
    ys = _nudged_grid(y_lo, y_hi, grid, avoid=f.tile_edges)
    return ys, f.preimage_table(ys), f"{grid}x{grid} on [{y_lo:.6g}, {y_hi:.6g}]^2"


def _lifted(table, ndim):
    """The table's (branch, grid) rows as (branch,) + (1,) * ndim + (grid,),
    to broadcast against x1 arrays of ``ndim`` dimensions."""
    lift = (slice(None),) + (None,) * ndim
    return PreimageTable(table.x[lift], table.dabs[lift], table.valid[lift])


def _kernel_terms(cond, rows, x1s):
    """f(x2_b(y) | x1) / |g'(x2_b(y))| over the ``_lifted`` rows at each
    x1, on (branch,) + x1s.shape + (grid,) arrays, also where an iid
    kernel ignores x1; 0 where x2_b(y) does not exist.  Branch first, so
    that sums and extremes over the branches run over contiguous slices."""
    with np.errstate(all="ignore"):
        val = rows.weights(lambda x2: cond(x2, x1s[..., None]))
    return np.broadcast_to(val, rows.x.shape[:1] + x1s.shape + rows.x.shape[-1:])


def check_grid_params(grid, tol):
    """Refuse a grid that is not an integer >= 101 and a tol that is not
    a finite number >= 0."""
    check_int("grid", grid, 101)
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not (real and 0 <= tol < np.inf):
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
    cond, _, _ = _cond_fns(process)
    x1 = table.x.T
    live = (table.valid & (process.marginal_pdf(table.x) > 0.0)).T

    # per block of y1 values: every pair of live preimages of one y1, by
    # y1, then by branches, and the preimage sums in branch order
    bi, bj = np.triu_indices(live.shape[1], 1)
    both = live[:, bi] & live[:, bj]
    rows = _lifted(table, 2)
    worst = 0.0
    witnesses = []
    for blk in _blocks(grid, live.shape[1] * table.valid.size):
        cols, pair = np.nonzero(both[blk])
        if not cols.size:
            continue
        i, j, xs = bi[pair], bj[pair], x1[blk]
        sums = np.add.reduce(_kernel_terms(cond, rows, xs), axis=0)
        dev = _relative_deviation(sums[cols, i], sums[cols, j])
        peak = dev.max(axis=1)  # NaN where a row holds one, as argmax finds
        worst = max(worst, float(np.fmax.reduce(peak, initial=0.0)))
        # the y2 of the peak only for the pairs that become witnesses
        hit = np.nonzero(peak > tol)[0][: 10 - len(witnesses)]
        k = np.argmax(dev[hit], axis=1)
        witnesses += [
            (float(ys[blk][c]), float(ys[kk]), float(xs[c, a]), float(xs[c, b]))
            for c, kk, a, b in zip(cols[hit], k, i[hit], j[hit])
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
    cond, _, _ = _cond_fns(process)
    xs = _nudged_grid(*process.quad_support, grid, avoid=f.tile_edges)
    xs = xs[process.marginal_pdf(xs) > 0.0]
    probs, total = _branch_probabilities(f, process, xs)
    # branch first from here.  The conditions compare branches, so only x
    # with two or more live branches count
    probs = probs.T
    live = (probs > tol) & (total > 0)
    rows = live.sum(axis=0) >= 2
    xs, probs, live = xs[rows], probs[:, rows], live[:, rows]
    # (b): equal branch probabilities
    worst_b = float(_spread(np.where(live, probs, np.nan)).max(initial=0.0))
    # (a): equal kernel terms of the live branches wherever the preimage
    # exists, on (branch, x, y2) arrays; a (x, y2) with one such term
    # spreads 0, one with none NaN, which neither moves the maximum
    rows = _lifted(table, 1)
    worst_a = 0.0
    for blk in _blocks(xs.size, table.valid.size):
        val = _kernel_terms(cond, rows, xs[blk])
        keep = live[:, blk, None] & table.valid[:, None] & np.isfinite(val)
        dev = _spread(np.where(keep, val, np.nan))
        worst_a = max(worst_a, float(np.nanmax(dev, initial=0.0)))
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
