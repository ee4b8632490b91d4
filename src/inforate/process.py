"""Stationary first-order Markov and iid process models.

Each model carries an analytic marginal density and distribution
function, a conditional kernel (or none for iid) and an exact path
sampler.  Everything is immutable; samplers take explicit RNG state.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._rng import make_rng
from .errors import BadParameterError, NotNormalizedError, check_int
from .estimate import DEFAULT_QUAD, _support_image, quad

def _no_points(xs):
    """No split points at any of xs: an (n, 0) array."""
    return np.empty((np.size(xs), 0))


@dataclass(frozen=True)
class MarkovKernel:
    """Transition density and distribution function; the lookups take
    arrays, one row per entry."""

    cond_pdf: callable  # (x2, x1) -> density; numpy-broadcasting
    cond_cdf: callable  # (x2, x1) -> P(X2 <= x2 | X1 = x1); broadcasts as cond_pdf
    split_points: callable = _no_points  # x1s -> (n, k) x2 jumps, NaN-padded
    quad_range: callable = None  # x1s -> (lo, hi) x2 window; None: quad_support
    x1_split_points: callable = _no_points  # x2s -> (n, k) x1 putting a jump on x2


@dataclass(frozen=True)
class StationaryProcess:
    marginal_pdf: callable
    marginal_cdf: callable  # x -> P(X <= x); numpy-broadcasting
    path_sampler: callable  # (rng, n) -> length-n path, x0 from the marginal
    kernel: object  # MarkovKernel or None for iid
    support: tuple
    quad_support: tuple
    marginal_split_points: tuple = ()


@dataclass(frozen=True)
class PathSample:
    values: np.ndarray
    seed: int

    def __post_init__(self):
        self.values.setflags(write=False)


# ---------------------------------------------------------------------------
# built-in processes


def _normal_cdf(z):
    """Standard normal distribution function at every z."""
    # scipy.special costs 0.1-0.4 s of import time; load it on use
    from scipy.special import ndtr

    return ndtr(np.asarray(z, dtype=float))


def _normalizers(compute):
    """The constants ``compute()`` returns; BadParameterError unless each
    is finite and > 0.  A builder checks those the rest follow from."""
    try:
        values = compute()
    except (OverflowError, ZeroDivisionError):  # x**2 past the float range, 1 / 0
        values = (0.0,)
    if not all(0.0 < v < math.inf for v in values):
        raise BadParameterError("a normalizing constant overflows or underflows")
    return values


def _uniform(lo, hi):
    """Density and distribution function of the uniform law on [lo, hi);
    BadParameterError unless its density 1 / (hi - lo) is finite and > 0."""
    (dens,) = _normalizers(lambda: (1.0 / (hi - lo),))

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x < hi), dens, 0.0)

    def cdf(x):
        return np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)

    return pdf, cdf


def make_ar1(a, sigma):
    """Zero-mean Gaussian AR(1): X_n = a X_{n-1} + Z_n, Z ~ N(0, sigma^2)."""
    if not 0.0 < a < 1.0:
        raise BadParameterError("pole a must lie in (0, 1)")
    if not 0.0 < sigma < math.inf:
        raise BadParameterError("sigma must be finite and positive")
    a = float(a)
    sigma = float(sigma)

    def constants():
        var_x = sigma**2 / (1.0 - a**2)
        return var_x, 0.5 / sigma**2, 1.0 / math.sqrt(2.0 * math.pi * var_x)

    var_x, inv_2var_z, norm_x = _normalizers(constants)
    sd_x = math.sqrt(var_x)
    inv_2var_x = 0.5 / var_x
    norm_z = 1.0 / math.sqrt(2.0 * math.pi) / sigma

    def marginal_pdf(x):
        x = np.asarray(x, dtype=float)
        return norm_x * np.exp(-inv_2var_x * x * x)

    def cond_pdf(x2, x1):
        d = np.asarray(x2, dtype=float) - a * np.asarray(x1, dtype=float)
        return norm_z * np.exp(-inv_2var_z * d * d)

    def cond_cdf(x2, x1):
        d = np.asarray(x2, dtype=float) - a * np.asarray(x1, dtype=float)
        return _normal_cdf(d / sigma)

    def path_sampler(rng, n):
        x0 = float(rng.normal(0.0, sd_x, 1)[0])
        z = rng.normal(0.0, sigma, n - 1)
        return _kernels.ar1_path(x0, a, z)

    kernel = MarkovKernel(
        cond_pdf=cond_pdf,
        cond_cdf=cond_cdf,
        quad_range=lambda x1s: (a * x1s - 10.0 * sigma, a * x1s + 10.0 * sigma),
    )
    return StationaryProcess(
        marginal_pdf=marginal_pdf,
        marginal_cdf=lambda x: _normal_cdf(np.asarray(x, dtype=float) / sd_x),
        path_sampler=path_sampler,
        kernel=kernel,
        support=(-np.inf, np.inf),
        quad_support=(-10.0 * sd_x, 10.0 * sd_x),
    )


def wrap_interval(x, m):
    """Map onto [-m, m) modulo its length."""
    return ((np.asarray(x, dtype=float) + m) % (2.0 * m)) - m


def make_cyclic_walk(M, a):
    """Uniform-increment random walk wrapped onto [-M, M)."""
    if not 0.0 < a <= M < math.inf:
        raise BadParameterError("need 0 < a <= M with M finite")
    M = float(M)
    a = float(a)
    # the sampler draws over [-M, M), so 2M must be finite too
    marginal_pdf, marginal_cdf = _uniform(-M, M)
    (dens,) = _normalizers(lambda: (1.0 / (2.0 * a),))

    def on_circle(x):
        return (x >= -M) & (x < M)

    # the least float d with 2M - d <= a; 2M - d is exact for d >= M
    far = 2.0 * M - a
    if 2.0 * M - far > a:
        far = np.nextafter(far, math.inf)

    def cond_pdf(x2, x1):
        # for x1 and x2 on [-M, M), d = |x2 - x1| is on the step's arc
        # directly (d <= a) or across the wrap (d >= far): compares, no
        # float modulo; 0 unless both are on [-M, M), which holds the mass
        x2, x1 = np.asarray(x2, dtype=float), np.asarray(x1, dtype=float)
        d = np.abs(x2 - x1)
        arc = ((d <= a) | (d >= far)) & (on_circle(x2) & on_circle(x1))
        return dens * arc

    def cond_cdf(x2, x1):
        # the measure of the step's arc [x1 - a, x1 + a] that wraps onto
        # [-M, x2]: x1 +- a stays within one turn of [-M, M)
        x2 = np.clip(np.asarray(x2, dtype=float), -M, M)
        x1 = np.asarray(x1, dtype=float)
        arc = sum(
            np.maximum(0.0, np.minimum(x2 + k, x1 + a) - np.maximum(k - M, x1 - a))
            for k in (-2.0 * M, 0.0, 2.0 * M)
        )
        # the pieces' rounding may sum past the step's whole arc
        return np.minimum(arc / (2.0 * a), 1.0)

    def path_sampler(rng, n):
        x0 = float(rng.uniform(-M, M, 1)[0])
        steps = rng.uniform(-a, a, n - 1)
        return _kernels.cyclic_path(x0, steps, M)

    def split_points(xs):
        # f(x2|x1) jumps where x2 = x1 -+ a on the circle, so the same
        # points are where x1 puts a jump onto a given x2
        return np.column_stack([wrap_interval(xs - a, M), wrap_interval(xs + a, M)])

    kernel = MarkovKernel(
        cond_pdf=cond_pdf,
        cond_cdf=cond_cdf,
        split_points=split_points,
        x1_split_points=split_points,
    )
    return StationaryProcess(
        marginal_pdf=marginal_pdf,
        marginal_cdf=marginal_cdf,
        path_sampler=path_sampler,
        kernel=kernel,
        support=(-M, M),
        quad_support=(-M, M),
    )


def make_tightness_example():
    """Block-alternating chain on [0, 4).

    From the even blocks [0,1) u [2,3) the next sample is uniform on the
    odd blocks [1,2) u [3,4), and vice versa; the marginal is uniform.
    """
    marginal_pdf, marginal_cdf = _uniform(0.0, 4.0)

    def _even(x):
        x = np.asarray(x, dtype=float)
        return (np.floor(x).astype(int) % 2) == 0

    def cond_pdf(x2, x1):
        x2 = np.asarray(x2, dtype=float)
        in_dom = (x2 >= 0.0) & (x2 < 4.0)
        hit = _even(x2) != _even(x1)
        return np.where(in_dom & hit, 0.5, 0.0)

    def cond_cdf(x2, x1):
        # half the length of [0, x2] on the blocks of the other parity
        first = np.where(_even(x1), 1.0, 0.0)
        x2 = np.asarray(x2, dtype=float)
        return 0.5 * sum(np.clip(x2 - (first + k), 0.0, 1.0) for k in (0.0, 2.0))

    def path_sampler(rng, n):
        x0 = float(rng.uniform(0.0, 4.0, 1)[0])
        blocks = rng.integers(0, 2, n - 1).astype(np.float64)
        offsets = rng.uniform(0.0, 1.0, n - 1)
        return _kernels.alternating_blocks_path(x0, blocks, offsets)

    kernel = MarkovKernel(
        cond_pdf=cond_pdf,
        cond_cdf=cond_cdf,
        split_points=lambda xs: np.tile([1.0, 2.0, 3.0], (np.size(xs), 1)),
    )
    return StationaryProcess(
        marginal_pdf=marginal_pdf,
        marginal_cdf=marginal_cdf,
        path_sampler=path_sampler,
        kernel=kernel,
        support=(0.0, 4.0),
        quad_support=(0.0, 4.0),
        marginal_split_points=(1.0, 2.0, 3.0),
    )


def check_normalized(marginal_pdf, window, split_points, cfg=DEFAULT_QUAD):
    """NotNormalizedError unless ``marginal_pdf`` integrates to 1 in 1e-6."""
    total = quad(marginal_pdf, *window, cfg, points=split_points)
    if abs(total - 1.0) > 1e-6:
        raise NotNormalizedError(f"marginal integrates to {total}, not 1")


def make_iid(
    marginal_pdf,
    marginal_cdf,
    marginal_sampler,
    support,
    quad_support=None,
    split_points=(),
):
    """Memoryless process from a marginal density, its distribution
    function and a sampler ``marginal_sampler(rng, n)`` of n independent
    draws, its path sampler.  NotNormalizedError unless the density
    integrates to 1 over ``quad_support`` (``support`` by default)."""
    if quad_support is None:
        quad_support = support
    check_normalized(marginal_pdf, quad_support, split_points)
    return StationaryProcess(
        marginal_pdf=marginal_pdf,
        marginal_cdf=marginal_cdf,
        path_sampler=marginal_sampler,
        kernel=None,
        support=support,
        quad_support=quad_support,
        marginal_split_points=tuple(split_points),
    )


def make_iid_gaussian(sigma=1.0):
    if not 0.0 < sigma < math.inf:
        raise BadParameterError("sigma must be finite and positive")
    sigma = float(sigma)
    # the density squares x up to the window's edge, 10 sigma
    inv_2var, _ = _normalizers(lambda: (0.5 / sigma**2, (10.0 * sigma) ** 2))
    norm = 1.0 / math.sqrt(2.0 * math.pi) / sigma
    return StationaryProcess(
        marginal_pdf=lambda x: norm
        * np.exp(-inv_2var * np.asarray(x, dtype=float) ** 2),
        marginal_cdf=lambda x: _normal_cdf(np.asarray(x, dtype=float) / sigma),
        path_sampler=lambda rng, n: rng.normal(0.0, sigma, n),
        kernel=None,
        support=(-np.inf, np.inf),
        quad_support=(-10.0 * sigma, 10.0 * sigma),
    )


def make_iid_uniform(lo=0.0, hi=1.0):
    if not (-math.inf < lo < hi < math.inf and hi - lo < math.inf):
        raise BadParameterError("need finite lo < hi with hi - lo finite")
    lo = float(lo)
    hi = float(hi)
    marginal_pdf, marginal_cdf = _uniform(lo, hi)
    return StationaryProcess(
        marginal_pdf=marginal_pdf,
        marginal_cdf=marginal_cdf,
        path_sampler=lambda rng, n: rng.uniform(lo, hi, n),
        kernel=None,
        support=(lo, hi),
        quad_support=(lo, hi),
    )


# ---------------------------------------------------------------------------
# path sampling


def check_path_args(n, seed):
    """Raise BadParameterError unless the sample count ``n`` is an int
    >= 1 and ``seed`` is an int >= 0."""
    check_int("sample count", n, 1)
    check_int("seed", seed, 0)


# (process, (n, seed), PathSample) of the last path drawn, or None
_last_path = None


def sample_path(process, n, seed):
    """Length-n realization, drawn through ``make_rng(seed)``.

    The last path drawn is kept: a call with the same process object
    (compared with ``is``) and the same n and seed returns that same
    PathSample, whose values are read-only.  Any other call drops it
    before drawing, so at most one path is held.  Raises
    BadParameterError unless n is an int >= 1 and seed is an int >= 0.
    """
    global _last_path
    check_path_args(n, seed)
    key = (n, seed)
    # the slot is read once and replaced whole, so a caller on another
    # thread sees a complete entry or None
    last = _last_path
    if last is not None and last[0] is process and last[1] == key:
        return last[2]
    _last_path = last = None
    path = PathSample(values=_draw_path(process, make_rng(seed), n), seed=seed)
    _last_path = (process, key, path)
    return path


def _draw_path(process, rng, n):
    return np.asarray(process.path_sampler(rng, n), dtype=float)


# ---------------------------------------------------------------------------
# pushforward through a piecewise function


def _image_cdf(f, cdf, ys):
    """P(g(X) <= y) at every y for an all-injective g, from ``cdf(x)`` =
    P(X <= x), whose output broadcasts against ys.

    Each tile adds the mass from its end with the lower image to the
    preimage of y: its ``preimage_table`` entry for y inside the tile's
    image from ``image_window``, the whole tile from the top of that image
    on and nothing up to its bottom.  A y inside the image without a valid
    preimage gives NaN.
    """
    ys = np.asarray(ys, dtype=float)
    table = f.preimage_table(ys)
    _, _, images = f.image_window(f.domain_lo, f.domain_hi)
    total = 0.0
    for b, x, ok, (y_lo, y_hi) in zip(
        f.branches, table.x, table.valid, images.reshape(-1, 2)
    ):
        # forward at two finite points of the tile tells its direction
        mid = b.rep_point()
        ends = np.array([max(b.domain_lo, mid - 1.0), min(b.domain_hi, mid + 1.0)])
        ya, yc = np.asarray(b.forward(ends), dtype=float)
        low, high = b.domain_lo, b.domain_hi
        if ya > yc:
            low, high = high, low
        x = np.where(ok, x, np.nan)
        x = np.where(ys <= y_lo, low, np.where(ys >= y_hi, high, x))
        total = total + np.abs(cdf(x) - cdf(low))
    # the tiles' rounding may sum past the whole mass
    return np.minimum(total, 1.0)


def pushforward_process(f, process):
    """Process of Y = g(X): exact marginal and the mixture kernel

    f_{Y2|Y1}(y2|y1) = sum_{x1 in preimage(y1)} w(x1) f_{Y2|X1}(y2|x1)

    with weights w proportional to f_X(x1)/|g'(x1)|, and the distribution
    functions that go with them.  This is the true conditional law
    whether or not the output process is Markov; treating it as a
    first-order kernel is exact precisely in the lumpable case.
    """
    if not f.all_injective:
        raise BadParameterError("pushforward needs an all-injective function")

    def marginal_pdf(ys):
        return f.preimage_table(ys).weights(process.marginal_pdf).sum(axis=0)

    def path_sampler(rng, n):
        # Y = g(X) sample by sample, so mapping the input path is exact
        return f.eval_array(_draw_path(process, rng, n))

    # finite output window from the truncated input window
    y_lo, y_hi, splits = _support_image(f, process)
    y_lo, y_hi = float(y_lo), float(y_hi)

    kernel = None
    if process.kernel is not None:
        base = process.kernel

        def mapped(lookup, ys):
            """A base-kernel lookup at every preimage of each y, mapped
            through g: one NaN-padded row per y."""
            t = f.preimage_table(ys)
            rows = zip(t.x, t.valid)
            pts = [np.where(ok[:, None], lookup(x), np.nan) for x, ok in rows]
            return f.image_points(np.column_stack(pts))

        def mixture(given_x1, y2, y1):
            """given_x1(y2, x1s) at the preimages x1s of y1, one row per
            branch, mixed with the weights f_X(x1)/|g'(x1)|, normalised."""
            # y1 and y2 padded to one ndim, so that their tables broadcast
            y1, y2 = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
            n = max(y1.ndim, y2.ndim)
            y1, y2 = (y[(None,) * (n - y.ndim)] for y in (y1, y2))
            t1 = f.preimage_table(y1)
            w = t1.weights(process.marginal_pdf)
            total = w.sum(axis=0)
            w = w / np.where(total > 0.0, total, 1.0)
            return (w * given_x1(y2, t1.x)).sum(axis=0)

        def cond_pdf(y2, y1):
            # the output density given each x1, summed over the preimages of y2
            return mixture(
                lambda y2, x1s: f.preimage_table(y2)
                .weights(lambda x2: base.cond_pdf(x2, x1s[:, None]))
                .sum(axis=1),
                y2,
                y1,
            )

        def cond_cdf(y2, y1):
            given_x1 = mixture(
                lambda y2, x1s: _image_cdf(f, lambda x2: base.cond_cdf(x2, x1s), y2),
                y2,
                y1,
            )
            return np.minimum(given_x1, 1.0)  # the weights' rounding, as above

        def split_points(y1s):
            # the base kernel's jumps at the preimages of y1, mapped through
            # g, and the images of the input window's split points
            rows = mapped(base.split_points, y1s)
            return np.column_stack([rows, np.tile(splits, (len(rows), 1))])

        kernel = MarkovKernel(
            cond_pdf=cond_pdf,
            cond_cdf=cond_cdf,
            split_points=split_points,
            # y1 whose preimages put a base-kernel jump onto a preimage of y2
            x1_split_points=lambda y2s: mapped(base.x1_split_points, y2s),
        )

    interior = sorted({float(s) for s in splits if y_lo < s < y_hi})
    return StationaryProcess(
        marginal_pdf=marginal_pdf,
        marginal_cdf=lambda ys: _image_cdf(f, process.marginal_cdf, ys),
        path_sampler=path_sampler,
        kernel=kernel,
        support=(y_lo, y_hi),
        quad_support=(y_lo, y_hi),
        marginal_split_points=tuple(interior),
    )
