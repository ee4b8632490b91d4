"""Numerical primitives shared by the loss-rate computations.

Adaptive quadrature under nested Kronrod-Patterson rules with mandatory
split points, histogram estimators for differential entropy and mutual
information, conditional entropies of branch-index variables, and plug-in
block entropies.  All entropies are in bits.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import (
    BadParameterError,
    IncompatibleSpecError,
    NoConvergenceError,
    TooFewSamplesError,
    check_int,
)
from .pbf import identity


def _nested(*tables):
    """(nodes, weights) of each rule of a nested sequence on [-1, 1], the
    nodes ascending, those of the rule before at odd indices; from half
    tables, outermost node first, of the nodes a rule adds (down to 0 for
    the first) and the weights of all its nodes down to 0."""
    levels, nodes = [], np.empty(0)
    for new, w in tables:
        new, w = np.array(new), np.array(w)
        nodes = np.sort(np.concatenate([nodes, -new[new > 0], new]))
        levels.append((nodes, np.concatenate([w, w[-2::-1]])))
    return tuple(levels)


# Patterson's nested rules G7 < K15 < P31 < P63 (Math. Comp. 22, 1968): G7
# and K15 from QUADPACK's dqk15 (Piessens et al., 1983); P31 and P63 derived
# with mpmath at 200 digits, each adding the n + 1 roots of the monic q with
# int prod(x - node) q(x) x**k dx = 0 for k <= n, with interpolatory weights.
_LEVELS = _nested(
    (
        [
            0.949107912342758524526189684047851,
            0.741531185599394439863864773280788,
            0.405845151377397166906606412076961,
            0.000000000000000000000000000000000,
        ],
        [
            0.129484966168869693270611432679082,
            0.279705391489276667901467771423780,
            0.381830050505118944950369775488975,
            0.417959183673469387755102040816327,
        ],
    ),
    (
        [
            0.991455371120812639206854697526329,
            0.864864423359769072789712788640926,
            0.586087235467691130294144838258730,
            0.207784955007898467600689403773245,
        ],
        [
            0.022935322010529224963732008058970,
            0.063092092629978553290700663189204,
            0.104790010322250183839876322541518,
            0.140653259715525918745189590510238,
            0.169004726639267902826583426598550,
            0.190350578064785409913256402421014,
            0.204432940075298892414161999234649,
            0.209482141084727828012999174891714,
        ],
    ),
    (
        [
            0.998687109678466729790660660569463,
            0.975383588208893369675287074951628,
            0.912204882783262878350584611171538,
            0.807688939172437509088075575912030,
            0.667348098104300175431382116612425,
            0.498636786552832004293429260084633,
            0.308579247910587778899587521987072,
            0.104528273810780713400625068279575,
        ],
        [
            0.003634931195049883856073927323479,
            0.011319468444683435107484337677574,
            0.021039446258726795607092616934190,
            0.031577706217045857273769765165731,
            0.042193500584546594484849918471097,
            0.052384370820982692472468037761585,
            0.061821985645449856431459019945985,
            0.070332046410400650935000423631126,
            0.077875347115245996421179504125039,
            0.084498765301243021195121987354564,
            0.090261802146558602310121354156035,
            0.095178029931830680121115000866675,
            0.099196857667432912489848978389310,
            0.102214180005702743915914938969645,
            0.104099955472697355014704207842270,
            0.104743213564805844727591962771386,
        ],
    ),
    (
        [
            0.999809214198043517683853183801810,
            0.996040238625968543068929416814380,
            0.984637143875644179797308158697301,
            0.963564953613396169948875982747928,
            0.931984657380665140627131096209738,
            0.889809364874942640040706031974947,
            0.837456832560144586521412458847055,
            0.775673908358334814097856547302901,
            0.705382409374850309141845887609357,
            0.627545421382293261363880410874788,
            0.543082350986701131146601933622507,
            0.452855632849607231381999359735536,
            0.357714831586033270409031511090624,
            0.258559618754472473546151272260968,
            0.156392640336081401531118588925022,
            0.052344665459830506663082263918285,
        ],
        [
            0.000539407286658021770227282651189,
            0.001803939389445907328564786148484,
            0.003557740557132036398470433186518,
            0.005660867725095312756491752589004,
            0.008008877528118372921808738832923,
            0.010519600488254708542550823156437,
            0.013129713474427210902904437075012,
            0.015788872779215423952826797363047,
            0.018455916099884639803929444219689,
            0.021096745715199243564092531115339,
            0.023683152580752000205659558914159,
            0.026192186880710567449383235551446,
            0.028605857490498295943818272429331,
            0.030910992205938984343763578651508,
            0.033099092907400232260095420548826,
            0.035166023524553984272055668514642,
            0.037111404910397191759135754166883,
            0.038937673364353656897663986246097,
            0.040648875788571024107184933445887,
            0.042249382781031758513685093961325,
            0.043742748418925043826302908632958,
            0.045130900978520531207843398040543,
            0.046413730813032435147882814992167,
            0.047589015038602680558435386205614,
            0.048652555041851185680857155266320,
            0.049598428775219425281144054259548,
            0.050419337829027882637267417252215,
            0.051107090052427067321974073405396,
            0.051653256012700288788277931664642,
            0.052049977691713990512535540115507,
            0.052290832457614024465476569516938,
            0.052371606825453741755380443760816,
        ],
    ),
)
_TOP = len(_LEVELS) - 1  # P63: a panel that fails at its top rule is bisected
_SIZES = np.array([nodes.size for nodes, _ in _LEVELS])
_BOUNDS = np.arange(1, _TOP + 2)  # where a sorted run of levels changes
_ADDS = np.array([0, *np.diff(_SIZES)[1:], 2 * _SIZES[1]])  # nodes a refinement adds
_MAX_DEPTH = 120  # halvings of a panel before quad_batch gives up on it
_MAX_NODES = 3_000_000  # nodes one integrand call of a batch may evaluate
_GRADE = 4  # power of the substitution at a graded window end (_grading)
_MAX_BINS = 4096  # bins per axis: a pair table of 2**24 int64 counters, 128 MiB


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-9

    def __post_init__(self):
        tol = self.abs_tol
        real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
        if not (real and 0 < tol < math.inf):  # NaN fails the comparison
            raise BadParameterError(f"abs_tol must be a finite number > 0, got {tol!r}")


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


def _gk(f, a, b, col, level, old=None):
    """Values (panels, m), errors (the largest component's) and node values
    (panels, m, 31) of panels [a, b] of integrals col under the rules
    ``level``, from one call of f; and f's leading shape.  The last
    len(``old``) panels rise from ``old``, their values under the rule
    below.  ``level`` does not decrease over the others, nor over these."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fresh = a.size - (0 if old is None else len(old))
    groups = []  # runs of panels under one rule, new or rising
    for start, stop, up in ((0, fresh, False), (fresh, a.size, True)):
        if stop == start and (up or a.size):  # an empty batch still calls f once
            continue
        ends = (start + np.searchsorted(level[start:stop], _BOUNDS)).tolist()
        for lv in range(1, _TOP + 1):
            if ends[lv] > ends[lv - 1] or not (a.size or lv > 1):
                nodes = _LEVELS[lv][0][::2] if up else _LEVELS[lv][0]
                groups.append((slice(ends[lv - 1], ends[lv]), lv, nodes, up))
    x = np.concatenate([(c[s, None] + h[s, None] * t).ravel() for s, _, t, _ in groups])
    at = np.concatenate([np.repeat(col[s], t.size) for s, _, t, _ in groups])
    fv = np.asarray(f(x, at), dtype=float)
    if fv.shape[-1:] != x.shape or fv.ndim > 2:
        raise BadParameterError("integrand must give (N,) or (m, N) values at N nodes")
    lead = fv.shape[:-1]
    fv = fv.reshape(m := math.prod(lead), x.size)
    kept = np.empty((a.size, m, _SIZES[_TOP - 1]))
    sums = np.empty((4, a.size * m))  # one column per panel and component
    done = 0
    for s, lv, t, up in groups:
        k = s.stop - s.start
        v = fv[:, done : done + k * t.size].reshape(m, k, t.size).transpose(1, 0, 2)
        done += k * t.size
        if up:  # the rule below holds the odd-indexed nodes
            got, v = v, np.empty((k, m, _SIZES[lv]))
            v[..., ::2] = got
            v[..., 1::2] = old[s.start - fresh : s.stop - fresh, :, : _SIZES[lv - 1]]
        if lv < _TOP:
            kept[s, :, : _SIZES[lv]] = v
        v = v.reshape(-1, _SIZES[lv])
        wk, cols = _LEVELS[lv][1], slice(s.start * m, s.stop * m)
        sums[0, cols] = resk = v @ wk
        sums[1, cols] = v[:, 1::2] @ _LEVELS[lv - 1][1]
        sums[2, cols] = np.abs(v - 0.5 * resk[:, None]) @ wk
        sums[3, cols] = np.abs(v) @ wk
    sums *= np.repeat(h, m)
    resk, resg, resasc, resabs = sums
    err = np.abs(resk - resg)
    # rescale against the deviation integral so integrable endpoint
    # singularities do not pin the estimate at the raw rule gap
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.maximum(err, 50.0 * np.finfo(float).eps * resabs)
    return resk.reshape(-1, m), err.reshape(-1, m).max(axis=1), kept, lead


def quad_batch(f, lo, hi, cfg=DEFAULT_QUAD, points=()):
    """Adaptive integrals of one vectorized integrand over many windows.

    Integral j runs over [lo[j], hi[j]].  ``f(x, col)`` takes flat arrays
    of N nodes and of the integral each node belongs to, and returns (N,)
    values, or (m, N) for m components that share their panels, a panel's
    error being the largest of theirs; the totals are (n,) or (m, n).
    Where every window has zero width ``f`` is still called once, with
    empty arrays (N = 0), so that the shape of the zero totals is known.
    ``points`` is an (n, k) array, padded with NaN, of mandatory split
    locations (discontinuities, kinks), one row per integral; those
    inside the window become initial panel edges, the others are dropped.

    A panel starts at K15, the 15-point Kronrod extension of the 7-point
    Gauss rule (QUADPACK's dqk15), and rises to Patterson's extensions P31
    and P63 by evaluating only the 16 or 32 nodes each adds; its error is
    the gap to the rule below, scaled as in QUADPACK.  Each integral keeps
    its own error control: while its summed error estimate exceeds
    ``cfg.abs_tol``, its largest-error panels are refined, one rule up or,
    at 63 nodes, bisected into two K15 panels, until the rest sum to at
    most ``cfg.abs_tol / 2``.  One refinement step evaluates the new nodes
    of every integral in one integrand call.  Raises NoConvergenceError,
    ``partial`` holding the stalled integral's sums, when a panel to bisect
    already sits at ``_MAX_DEPTH`` halvings, or when one integrand call
    would evaluate more than ``_MAX_NODES`` nodes over the whole batch (its
    initial panels, or the new nodes of one step): that budget bounds the
    memory of a step however many integrals it holds; the node values kept
    for rising add 31 floats a live panel and component.  Also raises it,
    naming the window, for an integral not finite in some component.  The
    depth limit only decides when to give up: an integral that converges
    under a smaller limit returns the same bits under a larger one.
    """
    return _adapt(f, lo, hi, cfg, points)[0]


def _adapt(f, lo, hi, cfg, points, levels=None):
    """The adaptive loop of ``quad_batch``, its initial panels under the
    rules ``levels`` (1: K15, 2: P31, 3: P63; None: all K15) in the order
    the points cut them.  Returns its totals, and the left ends and rules
    of the panels all integrals converged on, in no particular order; for
    one integral those ends are its first edge and every edge inside."""
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
    # a panel at stage s has been bisected s // 3 times and runs the rule
    # s % 3 + 1: each refinement takes it one stage on
    stage = np.zeros(a.size, dtype=int) if levels is None else np.asarray(levels) - 1
    if stage.shape != a.shape or not np.all((stage >= 0) & (stage < _TOP)):
        raise BadParameterError(f"need a rule 1-{_TOP} per initial panel, got {levels}")
    order = np.argsort(stage, kind="stable")  # _gk takes them rule by rule
    a, b, col, stage = a[order], b[order], col[order], stage[order]
    if (nodes := _SIZES[stage + 1].sum()) > _MAX_NODES:
        raise NoConvergenceError(
            f"quadrature batch starts with {a.size} panels ({nodes} nodes), "
            f"over {_MAX_NODES} nodes"
        )
    val, err, kept, lead = _gk(f, a, b, col, stage + 1)

    settled = []  # the panels of each step whose integral converged
    while True:
        err_sum = np.bincount(col, weights=err, minlength=n)
        # NaN sums count as done; the total is refused below
        done = ~(err_sum[col] > cfg.abs_tol)
        settled.append((col[done], val[done], a[done], stage[done]))
        live = np.nonzero(~done)[0]
        if not live.size:
            col, val, ends, stage = map(np.concatenate, zip(*settled))
            # bin k * n + j sums component k of integral j
            bins = (col[:, None] + n * np.arange(val.shape[1])).ravel()
            total = np.bincount(bins, weights=val.ravel(), minlength=val.shape[1] * n)
            total = total.reshape(lead + (n,))
            bad = ~np.isfinite(total)
            if bad.any():
                j = int(np.argmax(bad)) % n
                raise NoConvergenceError(
                    f"quadrature over [{lo[j]}, {hi[j]}] gave {total[..., j]}"
                )
            return total, ends, stage % _TOP + 1
        # per integral, largest errors first: refine each panel while the
        # errors from it on sum to more than half the tolerance, and
        # always the largest one
        live = live[np.lexsort((-err[live], col[live]))]
        c, e = col[live], err[live]
        first = np.concatenate(([True], c[1:] != c[:-1]))
        before = np.cumsum(e) - e
        before -= before[np.searchsorted(c, c)]
        split = first | (err_sum[c] - before > 0.5 * cfg.abs_tol)
        stay, go = live[~split], live[split]
        # a panel below the top rule rises one; one at the top is bisected
        level = stage[go] % _TOP + 1
        order = np.argsort(level, kind="stable")
        go, level = go[order], level[order]
        cut = np.searchsorted(level, _TOP)
        rise, halve = go[:cut], go[cut:]
        stuck = stage[halve] // _TOP >= _MAX_DEPTH
        grown = _ADDS[level].sum() > _MAX_NODES
        if stuck.any() or grown:
            # name a panel at the depth limit, else the batch's worst one
            i = halve[np.argmax(stuck)] if stuck.any() else live[np.argmax(e)]
            why = f"; its new panels would pass {_MAX_NODES} nodes" if grown else ""
            raise NoConvergenceError(
                f"quadrature stalled on [{a[i]}, {b[i]}] (err={err[i]:.3e}){why}",
                partial=val[col == col[i]].sum(axis=0).reshape(lead)[()],
            )
        mid = 0.5 * (a[halve] + b[halve])
        src = np.concatenate([halve, halve, rise])  # the panel each new one refines
        new_a = np.concatenate([a[halve], mid, a[rise]])
        new_b = np.concatenate([mid, b[halve], b[rise]])
        new = new_a, new_b, col[src], stage[src] + 1
        new += _gk(f, *new[:3], new[3] % _TOP + 1, kept[rise])[:3]
        a, b, col, stage, val, err, kept = (
            np.concatenate([v[stay], w]) if stay.size else w
            for v, w in zip((a, b, col, stage, val, err, kept), new)
        )


def quad(f, lo, hi, cfg=DEFAULT_QUAD, points=(), *, levels=None):
    """Adaptive integral of a vectorized integrand over [lo, hi].

    The one-integral case of ``quad_batch``: ``f`` maps an array of
    nodes to one value each, and ``points`` are mandatory split
    locations; ``levels`` are the rules the panels they cut start at, as
    ``_marginal_edges`` returns them.  BadParameterError refuses an
    integrand with components.
    """
    points = np.asarray(points, dtype=float)[None]
    total = _adapt(lambda x, col: f(x), lo, hi, cfg, points, levels)[0]
    if total.shape != (1,):
        raise BadParameterError("quad integrates one value per node; use quad_batch")
    return float(total[0])


def xlog2x(p):
    """Elementwise p*log2(p) with the 0*log(0)=0 convention."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = p * np.log2(np.where(p > 0, p, 1.0))
    return np.where(p > 0, out, 0.0)


def entropy_bits(probs):
    """-sum p log2 p in bits of the vector as given, not renormalized."""
    return float(-np.sum(xlog2x(np.asarray(probs, dtype=float))))


# ---------------------------------------------------------------------------
# histograms


def resolve_bins(bins, n):
    """Bins per axis for ``n`` samples: ``bins``, or if it is None the
    cube-root rule used throughout, ceil(n**(1/3)).  Raises
    BadParameterError unless ``bins`` is an int in 1.._MAX_BINS."""
    if bins is None:
        bins = int(math.ceil(n ** (1.0 / 3.0) - 1e-9))
    check_int("bins", bins, 1, _MAX_BINS)
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


def _cond_fns(process):
    """Density, distribution function and x2 split points of X2 given X1,
    the lookups taking arrays; iid: the marginal's at every x1."""
    kern = process.kernel
    if kern is None:
        pdf, cdf = process.marginal_pdf, process.marginal_cdf
        jumps = np.array(process.marginal_split_points, dtype=float)
        return (
            lambda x2, x1: pdf(x2),
            lambda x2, x1: cdf(x2),
            lambda x1s: np.tile(jumps, (np.size(x1s), 1)),
        )
    return kern.cond_pdf, kern.cond_cdf, kern.split_points


def _cond_windows(process, x1s):
    """Low and high ends of the x2 window at each x1: the kernel's
    ``quad_range`` clipped to ``quad_support``, or ``quad_support``."""
    lo, hi = process.quad_support
    if process.kernel is not None and process.kernel.quad_range is not None:
        wlo, whi = process.kernel.quad_range(x1s)
        lo, hi = np.maximum(wlo, lo), np.minimum(whi, hi)
    lo, hi, _ = np.broadcast_arrays(lo, hi, x1s)
    return lo, hi


def _x1_split_points(process, f):
    """Where value(x1) of ``_x1_integral`` may kink: at the marginal's split
    points, at the finite tile edges of f, and at the kernel's
    ``_x1_landings``.  No rule finds such kinks by itself (Lyness, 1983),
    so they are declared as in QUADPACK's QAGP."""
    lo, hi = process.quad_support
    edges = [lo, hi, *f.tile_edges]
    return np.concatenate(
        [process.marginal_split_points, edges, _x1_landings(process, f)]
    )


def _x1_landings(process, f):
    """The x1, NaN among them, where a kernel discontinuity lands on a tile
    edge of f or on an end of the support."""
    if process.kernel is None:
        return np.empty(0)
    lo, hi = process.quad_support
    return process.kernel.x1_split_points(np.array([lo, hi, *f.tile_edges])).ravel()


def _x1_integral(process, value, cfg, f, graded=()):
    """int f_X(x1) value(x1) dx1 over the truncated support; for an iid
    input, whose value does not depend on x1, value at one x1 node, as
    Python floats.

    ``value`` maps an array of x1 nodes to one value each.  The x1 split
    points inside the support cut it into windows; those that end at a
    point of ``graded`` run graded (``_grading``), all of them in one
    integral to ``cfg``.  The first panels, each at its own rule, are
    those on which f_X dx1/ds alone settles (``_marginal_edges``), from
    the window ends and the midpoints ``_grading`` halves windows at: the
    bisections and rises mostly follow the weight f_X, not ``value``, and
    a panel that settles f_X mostly settles f_X * value too, so a nested
    integral mostly runs one batch of inner integrals.  From there the
    integral keeps the full error control of ``quad``.
    """
    lo, hi = process.quad_support
    if process.kernel is None:
        return value(np.array([lo]))[..., 0].tolist()
    fx = process.marginal_pdf
    cuts = _x1_split_points(process, f)
    ends = np.sort(np.concatenate([[lo, hi], cuts[(cuts > lo) & (cuts < hi)]]))
    mids, _, x_of = _grading(ends[:-1], ends[1:], graded)
    inner = ends[1:-1]

    def x1_of(s):  # the last window starting at or below each node
        return x_of(s, np.searchsorted(inner, s, "right"))

    points, levels = _marginal_edges(process, cfg, x1_of, np.concatenate([ends, mids]))

    def graded_value(s):
        x1s, jac = x1_of(s)
        return fx(x1s) * value(x1s) * jac

    return quad(graded_value, lo, hi, cfg, points, levels=levels)


def _marginal_edges(process, cfg, x1_of, points):
    """Edges, in ascending order, and rules of the panels on which
    ``quad_batch``'s loop integrates f_X dx1/ds alone to ``cfg``, refined
    from the s split ``points`` of the map ``x1_of`` (``_x1_integral``);
    the edges hold every split point inside the support.  Where that loop
    gives up on f_X, raises NoConvergenceError without a partial sum: the
    integral asked for has not begun."""
    lo, hi = process.quad_support
    f_marg = process.marginal_pdf

    def weight(s, col):
        x1s, jac = x1_of(s)
        return f_marg(x1s) * jac

    try:
        _, edges, levels = _adapt(weight, lo, hi, cfg, points[None])
    except NoConvergenceError as e:
        raise NoConvergenceError(f"settling the outer x1 panels on f_X: {e}") from e
    order = np.argsort(edges)
    return edges[order], levels[order]


def marginal_entropy_quad(process, cfg=DEFAULT_QUAD):
    """h(X) = -int f log2 f over the truncated support, by quadrature:
    h(X2|X1) of the marginal law, the process without its kernel (only its
    law is read, never its sampler)."""
    return cond_entropy_rate_quad(replace(process, kernel=None), cfg)


def cond_entropy_rate_quad(process, cfg=DEFAULT_QUAD):
    """h(X2|X1) by nested quadrature (bits): h(Y2|X1) at g = identity, whose
    y windows, split points and integrand values are those of x2.  For an
    iid process this is the marginal entropy."""
    return cond_entropy_output_given_input(identity(), process, cfg)


def _branch_probabilities(f, process, x1s):
    """Pr(W2 = w | X1 = x1) for every x1 (rows) and branch w (columns), and
    the row totals; each row is divided by its total where that is
    positive.  A branch's entry is F(end | x1) - F(start | x1) of the
    kernel's distribution function at its tile's ends, both clipped into
    the x2 window."""
    x1s = np.asarray(x1s, dtype=float)
    _, cdf, _ = _cond_fns(process)
    wlo, whi = _cond_windows(process, x1s)
    ends = np.array([[b.domain_lo, b.domain_hi] for b in f.branches])
    ends = np.clip(ends, wlo[:, None, None], whi[:, None, None])
    at = cdf(ends, x1s[:, None, None])
    probs = at[..., 1] - at[..., 0]
    total = probs.sum(axis=1)
    return probs / np.where(total > 0, total, 1.0)[:, None], total


def cond_entropy_W_given_X(f, process, cfg=DEFAULT_QUAD):
    """H(W2|X1): entropy of the next branch index given the current sample.

    W is the discrete process of partition indices.  The outer expectation
    over X1 is a quadrature to ``cfg``, from the panels that settle f_X to
    ``cfg``; the branch probabilities given each x1 are differences of the
    kernel's distribution function.  A branch probability can reach 0 at
    the kernel's ``_x1_landings``, where p log2 p has an unbounded slope,
    so the outer integral is graded there.
    """
    check_cover(f, process)

    def point_entropy(x1s):
        probs, total = _branch_probabilities(f, process, x1s)
        return np.where(total > 0, -np.sum(xlog2x(probs), axis=1), 0.0)

    return _x1_integral(process, point_entropy, cfg, f, _x1_landings(process, f))


def _preimage_entropy(t):
    """-sum_b t_b log2(t_b / T), T = sum_b t_b: T times the entropy of which
    preimage x_b of y it was, each with probability t_b / T (Geiger,
    Feldbauer and Kubin, 2011); 0 where one x_b has all of T."""
    with np.errstate(divide="ignore", invalid="ignore"):
        share = t / t.sum(axis=0)
        terms = np.where((share > 0) & (share < 1), -t * np.log2(share), 0.0)
    return terms.sum(axis=0)


def _grading(lo, hi, points):
    """The variable s that windows [lo, hi] are integrated in.

    A window that ends at c in ``points`` runs as x = c + (e - c) t**_GRADE,
    t = (s - c) / (e - c) going from 0 at c to 1 at its other end e, with
    factor _GRADE t**(_GRADE - 1): smooth in t where the integrand goes as
    a power of |x - c| down to -3/4, or has an unbounded slope at c.  One
    that ends at two such points is halved at its midpoint, each half
    graded at its own end.  Every other window runs in x, s = x with
    factor 1.  Either way s runs over the window itself.

    Returns the midpoint of each window where it is halved (NaN
    elsewhere), ``cut(rows)``: the s of rows of points, one row per window
    (a point outside its window maps outside its window, or to NaN), and
    ``x_of(s, w)``: x and the factor at nodes s of windows w."""
    at = np.isin(np.array([lo, hi]), points) & (hi > lo)
    graded = at[0] | at[1]
    mids = np.full(lo.size, np.nan)
    gi = np.flatnonzero(graded)
    if not gi.size:  # s = x everywhere: nothing to compute at a node
        return mids, lambda points: points, lambda s, w: (s, 1.0)
    # from here the m graded windows only, at their places ``slot``
    m, slot = gi.size, np.cumsum(graded) - 1
    ends, (at_lo, at_hi) = np.array([lo[gi], hi[gi]]), at[:, gi]
    mid = 0.5 * (ends[0] + ends[1])
    both = at_lo & at_hi & (ends[0] < mid) & (mid < ends[1])  # too narrow: from lo
    mids[gi] = np.where(both, mid, np.nan)
    # nodes of a window above ``half`` grade from its high end
    half = np.where(both, mid, np.where(at_lo, np.inf, -np.inf))
    # per piece, the m graded from the low end and then the m from the high
    # end: the graded end c and the span to the other end
    far = np.where(both, mid, ends[::-1])
    pieces = np.array([ends, far - ends]).reshape(2, 2 * m)

    def cut(points):
        rows = points[gi]
        pc, pspan = pieces[:, np.arange(m)[:, None] + m * (rows > half[:, None])]
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN off the window
            t = ((rows - pc) / pspan) ** (1.0 / _GRADE)
        out = np.array(points, dtype=float)
        out[gi] = pc + pspan * t
        return out

    def x_of(s, w):
        # powers only at the nodes of graded windows, which most are not
        g = graded[w]
        j, sg = slot[w[g]], s[g]
        pc, pspan = pieces[:, j + m * (sg > half[j])]
        t = (sg - pc) / pspan
        x, jac = s.copy(), np.ones_like(s)
        x[g] = pc + pspan * t**_GRADE
        jac[g] = _GRADE * t ** (_GRADE - 1)
        return x, jac

    return mids, cut, x_of


def _y_integrals(value, ylo, yhi, points, graded, cfg):
    """``quad_batch``'s loop of value(y, col) over windows [ylo, yhi] split
    at ``points``, every panel starting at K15; each window graded in
    place (``_grading``) where it ends at a point of ``graded``, the
    critical images of g: smooth there where g' has a zero of order <= 3.
    A critical image inside a window is left to refinement."""
    mids, cut, y_of = _grading(ylo, yhi, graded)

    def graded_value(s, col):
        y, jac = y_of(s, col)
        return value(y, col) * jac

    return _adapt(graded_value, ylo, yhi, cfg, np.column_stack([cut(points), mids]))[0]


def _output_integral(f, process, node_value, cfg):
    """int f_X(x1) int node_value(t) dy dx1 for Y = g(X), where t holds
    the terms f(x_b | x1) / |g'(x_b)| at the preimages x_b of y, one row
    per branch.  The y window is the image of the x2 window, split at the
    images of its tile edges and of the x2 split points."""
    cond, _, kinks = _cond_fns(process)

    def point_value(x1s):
        ylo, yhi, edges = f.image_window(*_cond_windows(process, x1s))
        empty = ~(yhi > ylo)  # ylo = yhi = 0 there: the integral is 0
        return _y_integrals(
            lambda ys, col: node_value(
                f.preimage_table(ys).weights(lambda x2: cond(x2, x1s[col]))
            ),
            np.where(empty, 0.0, ylo),
            np.where(empty, 0.0, yhi),
            np.column_stack([edges, f.image_points(kinks(x1s))]),
            f.critical_images,
            cfg,
        )

    return _x1_integral(process, point_value, cfg, f)


def cond_entropy_output_given_input(f, process, cfg=DEFAULT_QUAD):
    """h(Y2|X1) for Y = g(X), by nested quadrature over x1 and y."""
    return _output_integral(f, process, lambda t: -xlog2x(t.sum(axis=0)), cfg)


def cond_entropy_X2_given_Y2_X1(f, process, cfg=DEFAULT_QUAD):
    """H(X2 | Y2, X1) for Y = g(X), by nested quadrature over x1 and y: the
    ``_preimage_entropy`` of y with the kernel slice f(. | x1) as density."""
    return _output_integral(f, process, _preimage_entropy, cfg)


def check_cover(f, process):
    """Refuse, with IncompatibleSpecError, a function whose domain misses
    more than 1e-9 of either end of the process's quadrature window."""
    qlo, qhi = process.quad_support
    if f.domain_lo > qlo + 1e-9 or f.domain_hi < qhi - 1e-9:
        raise IncompatibleSpecError(
            f"function domain [{f.domain_lo}, {f.domain_hi}) does not cover "
            f"the process support window [{qlo}, {qhi})"
        )


def _support_image(f, process):
    """``f.image_window`` of the quadrature window, with the tile image
    ends and the images of the marginal's split points as its split
    points; refuses a function that misses part of the window, an empty
    image and one that is not finite."""
    check_cover(f, process)
    y_lo, y_hi, edges = f.image_window(*process.quad_support)
    if y_lo > y_hi:
        raise BadParameterError("function range is empty on the process support")
    if not (math.isfinite(y_lo) and math.isfinite(y_hi)):
        raise BadParameterError(f"function image [{y_lo}, {y_hi}] is not finite")
    return y_lo, y_hi, np.concatenate(
        [edges, f.image_points(process.marginal_split_points)]
    )


def cond_entropy_input_given_output(f, process, cfg=DEFAULT_QUAD):
    """H(X|Y) for Y = g(X): the loss L(X -> Y) of the marginal variable.

    ``_preimage_entropy`` with f_X as the density, integrated in y through
    ``_output_integral`` of the marginal law (the process without its
    kernel), and divided by the output mass, integrated alongside, so that
    equally weighted preimages give log2 of their count exactly."""
    _support_image(f, process)  # for its refusals

    def value(t):  # the loss and the output density, at the same nodes
        return np.array([_preimage_entropy(t), t.sum(axis=0)])

    loss, mass = _output_integral(f, replace(process, kernel=None), value, cfg)
    return loss / mass


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


def markov_block_entropy_W(f, process, k=4, n_samples=10**6, seed=42):
    """Plug-in conditional entropies H(W_{j+1} | W_1^j) for j = 0..k.

    Returns the estimate at the largest order whose successive difference
    dropped below 0.01 bit; the full level sequence rides along.  Before
    the path is drawn, refuses bad path arguments, a function that misses
    part of the window, a block order ``k`` that is not an int in 0..6,
    and too few samples to count the blocks of k + 1 indices.

    One count of the blocks of k + 1 indices gives every lower order: the
    blocks of order j are those counts summed over their last k - j
    indices, plus the k - j blocks that start too late to extend to
    k + 1 indices.  The path is indexed and counted _COUNT_BLOCK starting
    points at a time, so no path-sized array is built."""
    from .process import check_path_args, sample_path

    check_path_args(n_samples, seed)
    check_cover(f, process)
    n_branches = len(f.branches)
    check_int("block order", k, 0, 6)
    n_codes = n_branches ** (k + 1)
    if n_codes * 30 > n_samples:
        raise TooFewSamplesError(f"need >= {n_codes * 30} samples for order {k}")
    values = sample_path(process, n_samples, seed).values
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
