"""Grid checks for Markovity of the output process and bound tightness.

The sufficient condition compares, for every pair of inputs mapping to
the same output value, the preimage sums

    s(x) = sum_{x2 in preimage(y2)} f(x2|x) / |g'(x2)|

over a grid of output pairs (y1, y2).  A second pair of conditions
certifies that the branch-index bound H(W2|X1) is attained.  All checks
are grid-sampled: a pass means "holds on this grid", never a proof.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadParameterError
from .estimate import (
    QuadratureConfig,
    _branch_probabilities,
    _cond_pdf_fn,
    output_cond_pdf,
)

_EDGE_EPS = 1e-9


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
    return np.abs(s - s_prime) / np.maximum.reduce(
        [np.abs(s), np.abs(s_prime), np.full_like(np.asarray(s, float), 1e-300)]
    )


def _nudged_grid(lo, hi, n, avoid=()):
    """Interior grid avoiding a 1e-9 neighborhood of the given points."""
    span = hi - lo
    pts = np.linspace(lo + 1e-6 * span, hi - 1e-6 * span, n) + _EDGE_EPS
    for a in avoid:
        close = np.abs(pts - a) < _EDGE_EPS
        pts[close] += 2.0 * _EDGE_EPS
    return pts


def _output_range(f, process):
    window = f.image_window(*process.quad_support)
    if window is None:
        raise BadParameterError("function range is empty on the process support")
    return window[:2]


def check_lumpable(f, process, grid=201, tol=1e-6):
    """Compare preimage sums across inputs sharing an output, on a grid."""
    if grid < 101:
        raise BadParameterError("need at least 101 grid points per axis")
    if not f.all_injective:
        raise BadParameterError("lumpability check needs an all-injective function")
    # iid: both sums equal the output marginal density by construction
    cond = _cond_pdf_fn(process)

    y_lo, y_hi = _output_range(f, process)
    avoid = [b.domain_lo for b in f.branches] + [f.domain_hi]
    y1s = _nudged_grid(y_lo, y_hi, grid, avoid=avoid)
    y2s = _nudged_grid(y_lo, y_hi, grid, avoid=avoid)

    worst = 0.0
    witnesses = []
    f_marg = process.marginal_pdf
    for y1 in y1s:
        xs = [
            p.x
            for p in f.preimage(float(y1))
            if p.pointwise and float(f_marg(p.x)) > 0.0
        ]
        if len(xs) < 2:
            continue
        sums = [output_cond_pdf(f, cond, x, y2s) for x in xs]
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                dev = _relative_deviation(sums[i], sums[j])
                k = int(np.argmax(dev))
                if dev[k] > worst:
                    worst = float(dev[k])
                if dev[k] > tol and len(witnesses) < 10:
                    witnesses.append((y1, float(y2s[k]), xs[i], xs[j]))
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
    avoid = [b.domain_lo for b in f.branches] + [f.domain_hi]
    xs = _nudged_grid(qlo, qhi, grid, avoid=avoid)
    y_lo, y_hi = _output_range(f, process)
    y2s = _nudged_grid(y_lo, y_hi, grid, avoid=avoid)
    # preimages of the y2 grid; every branch is injective, so entry i
    # belongs to branch i
    preimages = list(f.preimage_terms(y2s))

    prob_cfg = QuadratureConfig(abs_tol=1e-12)
    f_marg = process.marginal_pdf
    worst_a = 0.0
    worst_b = 0.0
    for x in xs:
        if float(f_marg(x)) <= 0.0:
            continue
        probs = _branch_probabilities(f, process, x, prob_cfg)
        total = probs.sum()
        if total <= 0:
            continue
        probs = probs / total
        live = np.nonzero(probs > tol)[0]
        if live.size < 2:
            continue
        # (b): equal branch probabilities
        worst_b = max(
            worst_b,
            float(
                _relative_deviation(probs[live].max(), probs[live].min())
            ),
        )
        # (a): equal weighted kernel terms wherever the inverse exists
        terms = []
        for bi in live:
            _, x2, dabs, valid = preimages[bi]
            with np.errstate(all="ignore"):
                val = cond(np.where(valid, x2, 0.0), x)
                terms.append(np.where(valid, val / dabs, np.nan))
        stacked = np.vstack(terms)
        defined = np.isfinite(stacked)
        cols = np.nonzero(defined.sum(axis=0) >= 2)[0]
        for c in cols:
            col = stacked[defined[:, c], c]
            worst_a = max(worst_a, float(_relative_deviation(col.max(), col.min())))
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
    return LumpabilityReport(
        condition_holds=rep.condition_holds,
        max_deviation=rep.max_deviation,
        grid=rep.grid,
        tol=rep.tol,
        witnesses=rep.witnesses,
        tightness_a_holds=tight.a_holds,
        tightness_b_holds=tight.b_holds,
        tightness_a_deviation=tight.a_deviation,
        tightness_b_deviation=tight.b_deviation,
    )
