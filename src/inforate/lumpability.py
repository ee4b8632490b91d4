"""Grid checks for Markovity of the output process and bound tightness.

The sufficient condition compares, for every pair of inputs mapping to
the same output value, the preimage sums

    s(x) = sum_{x2 in preimage(y2)} f(x2|x) / |g'(x2)|

over a grid of output pairs (y1, y2).  A second pair of conditions
certifies that the branch-index bound H(W2|X1) is attained.  All checks
are grid-sampled: a pass means "holds on this grid", never a proof.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadParameterError
from .estimate import QuadratureConfig, _branch_probabilities, _cond_pdf_fn

_EDGE_EPS = 1e-9
# points per preimage-sum call in check_lumpable and per kernel call in
# check_tightness
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


def _output_range(f, process):
    y_lo, y_hi, _ = f.image_window(*process.quad_support)
    if y_lo > y_hi:
        raise BadParameterError("function range is empty on the process support")
    return float(y_lo), float(y_hi)


def check_lumpable(f, process, grid=201, tol=1e-6):
    """Compare preimage sums across inputs sharing an output, on a grid."""
    if grid < 101:
        raise BadParameterError("need at least 101 grid points per axis")
    if not f.all_injective:
        raise BadParameterError("lumpability check needs an all-injective function")
    # iid: both sums equal the output marginal density by construction
    cond = _cond_pdf_fn(process)

    y_lo, y_hi = _output_range(f, process)
    y1s = y2s = _nudged_grid(y_lo, y_hi, grid, avoid=f.tile_edges)

    # preimages of the y1 grid, one row per branch, and where the input
    # density is positive there
    terms = list(f.preimage_terms(y1s))
    pre = np.array([np.where(valid, x, 0.0) for _, x, _, valid in terms])
    live = np.array([valid for *_, valid in terms]) & (process.marginal_pdf(pre) > 0.0)

    # per block of y1 values: the preimage sums over the y2 grid of every
    # live preimage, one row each, then every pair of live preimages of
    # one y1, ordered by y1, then by branches; the blocks bound the
    # temporaries
    bi, bj = np.triu_indices(len(terms), 1)
    step = max(1, _BLOCK_POINTS // (len(terms) * y2s.size))
    worst = 0.0
    witnesses = []
    for start in range(0, y1s.size, step):
        blk = slice(start, start + step)
        xs, lv = pre[:, blk], live[:, blk]
        cols, pair = np.nonzero((lv[bi] & lv[bj]).T)
        if not cols.size:
            continue
        i, j = bi[pair], bj[pair]
        row = np.cumsum(lv).reshape(lv.shape) - 1
        x1 = xs[lv][:, None]
        sums = f.preimage_sum(
            lambda x2: cond(x2, x1), np.broadcast_to(y2s, (lv.sum(), y2s.size))
        )
        dev = _relative_deviation(sums[row[i, cols]], sums[row[j, cols]])
        k = np.argmax(dev, axis=1)
        peak = dev[np.arange(k.size), k]
        worst = max(worst, float(np.nanmax(peak, initial=0.0)))
        hit = np.nonzero(peak > tol)[0][: 10 - len(witnesses)]
        witnesses += [
            (float(y1s[blk][c]), float(y2s[kk]), float(xs[a, c]), float(xs[b, c]))
            for c, kk, a, b in zip(cols[hit], k[hit], i[hit], j[hit])
        ]
    return LumpabilityReport(
        condition_holds=worst <= tol,
        max_deviation=worst,
        grid=f"{grid}x{grid} on [{y_lo:.6g}, {y_hi:.6g}]^2",
        tol=tol,
        witnesses=tuple(witnesses),
    )


def check_tightness(f, process, grid=201, tol=1e-6):
    """Check the two equality conditions under which H(W2|X1) is attained.

    (a) the weighted kernel values agree across branches at each output
        value; (b) the branch probabilities given X1 = x are all equal.
    """
    if not f.all_injective:
        raise BadParameterError("tightness check needs an all-injective function")
    cond = _cond_pdf_fn(process)

    qlo, qhi = process.quad_support
    xs = _nudged_grid(qlo, qhi, grid, avoid=f.tile_edges)
    y_lo, y_hi = _output_range(f, process)
    y2s = _nudged_grid(y_lo, y_hi, grid, avoid=f.tile_edges)
    # preimages of the y2 grid and their |g'|, one column per branch
    # (every branch is injective)
    pre = [(x2, dabs, valid) for _, x2, dabs, valid in f.preimage_terms(y2s)]
    x2, dabs, valid = (np.array(v).T for v in zip(*pre))

    prob_cfg = QuadratureConfig(abs_tol=1e-12)
    xs = xs[process.marginal_pdf(xs) > 0.0]
    probs = _branch_probabilities(f, process, xs, prob_cfg)
    total = probs.sum(axis=1, keepdims=True)
    probs = probs / np.where(total > 0, total, 1.0)
    # the conditions compare branches, so only x with two or more live
    # branches count
    live = (probs > tol) & (total > 0)
    rows = live.sum(axis=1) >= 2
    xs, probs, live = xs[rows], probs[rows], live[rows]
    # (b): equal branch probabilities
    worst_b = float(_spread(np.where(live, probs, np.nan)).max(initial=0.0))
    # (a): equal weighted kernel terms of the live branches wherever the
    # inverse exists, on (x, y2, branch) arrays over blocks of x that
    # bound the temporaries
    worst_a = 0.0
    step = max(1, _BLOCK_POINTS // valid.size)
    for start in range(0, xs.size, step):
        blk = slice(start, start + step)
        with np.errstate(all="ignore"):
            val = cond(np.where(valid, x2, 0.0), xs[blk, None, None]) / dabs
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
