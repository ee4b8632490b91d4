"""Stationary first-order Markov and iid process models.

Each model carries an analytic marginal density, a conditional kernel
(or none for iid) and an exact sampler.  Everything is immutable;
samplers take explicit RNG state.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._rng import make_rng
from .errors import BadParameterError, NotNormalizedError

def _no_points(xs):
    """No split points at any of xs: an (n, 0) array."""
    return np.empty((np.size(xs), 0))


@dataclass(frozen=True)
class MarkovKernel:
    """Transition density; the lookups take arrays, one row per entry."""

    cond_pdf: callable  # (x2, x1) -> density; numpy-broadcasting
    sample_step: callable  # (x1, rng) -> x2, generic scalar fallback
    split_points: callable = _no_points  # x1s -> (n, k) x2 jumps, NaN-padded
    quad_range: callable = None  # x1s -> (lo, hi) x2 window; None: quad_support
    x1_split_points: callable = _no_points  # x2s -> (n, k) x1 putting a jump on x2


@dataclass(frozen=True)
class StationaryProcess:
    name: str
    params: dict
    marginal_pdf: callable
    marginal_sampler: callable  # (rng, n) -> ndarray
    kernel: object  # MarkovKernel or None for iid
    support: tuple
    quad_support: tuple
    marginal_split_points: tuple = ()
    path_sampler: callable = None  # (rng, n) -> path; None: scalar kernel loop

    @property
    def is_markov(self):
        return self.kernel is not None


@dataclass(frozen=True)
class PathSample:
    values: np.ndarray
    seed: int
    length: int
    stream: int = 0

    def __post_init__(self):
        self.values.setflags(write=False)


# ---------------------------------------------------------------------------
# built-in processes


def make_ar1(a, sigma):
    """Zero-mean Gaussian AR(1): X_n = a X_{n-1} + Z_n, Z ~ N(0, sigma^2)."""
    if not 0.0 < a < 1.0:
        raise BadParameterError("pole a must lie in (0, 1)")
    if sigma <= 0.0:
        raise BadParameterError("sigma must be positive")
    a = float(a)
    sigma = float(sigma)
    var_x = sigma**2 / (1.0 - a**2)
    sd_x = math.sqrt(var_x)
    inv_2var_x = 0.5 / var_x
    norm_x = 1.0 / math.sqrt(2.0 * math.pi * var_x)
    inv_2var_z = 0.5 / sigma**2
    norm_z = 1.0 / math.sqrt(2.0 * math.pi) / sigma

    def marginal_pdf(x):
        x = np.asarray(x, dtype=float)
        return norm_x * np.exp(-inv_2var_x * x * x)

    def cond_pdf(x2, x1):
        d = np.asarray(x2, dtype=float) - a * np.asarray(x1, dtype=float)
        return norm_z * np.exp(-inv_2var_z * d * d)

    def marginal_sampler(rng, n):
        return rng.normal(0.0, sd_x, n)

    def path_sampler(rng, n):
        x0 = float(marginal_sampler(rng, 1)[0])
        z = rng.normal(0.0, sigma, n - 1)
        return _kernels.ar1_path(x0, a, z)

    kernel = MarkovKernel(
        cond_pdf=cond_pdf,
        sample_step=lambda x1, rng: a * x1 + rng.normal(0.0, sigma),
        quad_range=lambda x1s: (a * x1s - 10.0 * sigma, a * x1s + 10.0 * sigma),
    )
    return StationaryProcess(
        name="ar1",
        params={"a": a, "sigma": sigma},
        marginal_pdf=marginal_pdf,
        marginal_sampler=marginal_sampler,
        kernel=kernel,
        support=(-np.inf, np.inf),
        quad_support=(-10.0 * sd_x, 10.0 * sd_x),
        path_sampler=path_sampler,
    )


def wrap_interval(x, m):
    """Map onto [-m, m) modulo its length."""
    return ((np.asarray(x, dtype=float) + m) % (2.0 * m)) - m


def circular_distance(x, y, m):
    """min_k |x - y - 2kM| on the circle of circumference 2M."""
    return np.abs(wrap_interval(np.asarray(x, dtype=float) - y, m))


def make_cyclic_walk(M, a):
    """Uniform-increment random walk wrapped onto [-M, M)."""
    if not 0.0 < a <= M:
        raise BadParameterError("need 0 < a <= M")
    M = float(M)
    a = float(a)
    dens = 1.0 / (2.0 * a)

    def marginal_pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= -M) & (x < M), 1.0 / (2.0 * M), 0.0)

    def cond_pdf(x2, x1):
        return np.where(circular_distance(x2, x1, M) <= a, dens, 0.0)

    def marginal_sampler(rng, n):
        return rng.uniform(-M, M, n)

    def path_sampler(rng, n):
        x0 = float(marginal_sampler(rng, 1)[0])
        steps = rng.uniform(-a, a, n - 1)
        return _kernels.cyclic_path(x0, steps, M)

    def split_points(xs):
        # f(x2|x1) jumps where x2 = x1 -+ a on the circle, so the same
        # points are where x1 puts a jump onto a given x2
        return np.column_stack([wrap_interval(xs - a, M), wrap_interval(xs + a, M)])

    kernel = MarkovKernel(
        cond_pdf=cond_pdf,
        sample_step=lambda x1, rng: float(
            wrap_interval(x1 + rng.uniform(-a, a), M)
        ),
        split_points=split_points,
        x1_split_points=split_points,
    )
    return StationaryProcess(
        name="cyclic_walk",
        params={"M": M, "a": a},
        marginal_pdf=marginal_pdf,
        marginal_sampler=marginal_sampler,
        kernel=kernel,
        support=(-M, M),
        quad_support=(-M, M),
        marginal_split_points=(),
        path_sampler=path_sampler,
    )


def make_tightness_example():
    """Block-alternating chain on [0, 4).

    From the even blocks [0,1) u [2,3) the next sample is uniform on the
    odd blocks [1,2) u [3,4), and vice versa; the marginal is uniform.
    """

    def marginal_pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x < 4.0), 0.25, 0.0)

    def _even(x):
        x = np.asarray(x, dtype=float)
        return (np.floor(x).astype(int) % 2) == 0

    def cond_pdf(x2, x1):
        x2 = np.asarray(x2, dtype=float)
        in_dom = (x2 >= 0.0) & (x2 < 4.0)
        hit = _even(x2) != _even(x1)
        return np.where(in_dom & hit, 0.5, 0.0)

    def sample_step(x1, rng):
        parity = (int(math.floor(x1)) + 1) % 2
        return 2.0 * rng.integers(0, 2) + parity + rng.uniform(0.0, 1.0)

    def marginal_sampler(rng, n):
        return rng.uniform(0.0, 4.0, n)

    def path_sampler(rng, n):
        x0 = float(marginal_sampler(rng, 1)[0])
        blocks = rng.integers(0, 2, n - 1).astype(np.float64)
        offsets = rng.uniform(0.0, 1.0, n - 1)
        return _kernels.alternating_blocks_path(x0, blocks, offsets)

    kernel = MarkovKernel(
        cond_pdf=cond_pdf,
        sample_step=sample_step,
        split_points=lambda xs: np.tile([1.0, 2.0, 3.0], (np.size(xs), 1)),
    )
    return StationaryProcess(
        name="tightness",
        params={},
        marginal_pdf=marginal_pdf,
        marginal_sampler=marginal_sampler,
        kernel=kernel,
        support=(0.0, 4.0),
        quad_support=(0.0, 4.0),
        marginal_split_points=(1.0, 2.0, 3.0),
        path_sampler=path_sampler,
    )


def make_iid(
    marginal_pdf,
    marginal_sampler,
    support,
    quad_support=None,
    split_points=(),
    name="iid",
    params=None,
    check_normalization=True,
):
    """Memoryless process from a marginal density and sampler."""
    from .estimate import DEFAULT_QUAD, quad

    if quad_support is None:
        quad_support = support
    if check_normalization:
        lo, hi = quad_support
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise BadParameterError("iid process needs a finite quadrature window")
        total = quad(marginal_pdf, lo, hi, DEFAULT_QUAD, points=split_points)
        if abs(total - 1.0) > 1e-6:
            raise NotNormalizedError(f"marginal integrates to {total}, not 1")
    return StationaryProcess(
        name=name,
        params=params or {},
        marginal_pdf=marginal_pdf,
        marginal_sampler=marginal_sampler,
        kernel=None,
        support=support,
        quad_support=quad_support,
        marginal_split_points=tuple(split_points),
    )


def make_iid_gaussian(sigma=1.0):
    if sigma <= 0:
        raise BadParameterError("sigma must be positive")
    sigma = float(sigma)
    norm = 1.0 / math.sqrt(2.0 * math.pi) / sigma
    inv_2var = 0.5 / sigma**2
    return make_iid(
        marginal_pdf=lambda x: norm
        * np.exp(-inv_2var * np.asarray(x, dtype=float) ** 2),
        marginal_sampler=lambda rng, n: rng.normal(0.0, sigma, n),
        support=(-np.inf, np.inf),
        quad_support=(-10.0 * sigma, 10.0 * sigma),
        name="iid_gaussian",
        params={"sigma": sigma},
        check_normalization=False,
    )


def make_iid_uniform(lo=0.0, hi=1.0):
    if not hi > lo:
        raise BadParameterError("need hi > lo")
    lo = float(lo)
    hi = float(hi)
    dens = 1.0 / (hi - lo)
    return make_iid(
        marginal_pdf=lambda x: np.where(
            (np.asarray(x, dtype=float) >= lo) & (np.asarray(x, dtype=float) < hi),
            dens,
            0.0,
        ),
        marginal_sampler=lambda rng, n: rng.uniform(lo, hi, n),
        support=(lo, hi),
        name="iid_uniform",
        params={"lo": lo, "hi": hi},
        check_normalization=False,
    )


# ---------------------------------------------------------------------------
# path sampling


def sample_path(process, n, seed, stream=0):
    """Length-n realization; deterministic in (seed, stream)."""
    if n < 1:
        raise BadParameterError("need n >= 1")
    values = _draw_path(process, make_rng(seed, stream), n)
    return PathSample(values=values, seed=seed, length=n, stream=stream)


def _draw_path(process, rng, n):
    if process.path_sampler is not None:
        return np.asarray(process.path_sampler(rng, n), dtype=float)
    if process.kernel is None:
        return np.asarray(process.marginal_sampler(rng, n), dtype=float)
    # generic scalar fallback for custom kernels
    values = np.empty(n)
    values[0] = float(process.marginal_sampler(rng, 1)[0])
    step = process.kernel.sample_step
    for i in range(1, n):
        values[i] = step(values[i - 1], rng)
    return values


def stationarity_residual(process, n_grid=64):
    """max_x | int f(x2|x1) f(x1) dx1 - f(x2) | on an interior grid."""
    from .estimate import DEFAULT_QUAD, quad_batch

    kern = process.kernel
    if kern is None:
        return 0.0
    lo, hi = process.quad_support
    eps = 1e-6 * (hi - lo)
    xs2 = np.linspace(lo + eps, hi - eps, n_grid) + 1e-9
    f = process.marginal_pdf
    # the integrand jumps in x1 where the marginal does and where a
    # kernel discontinuity lands on x2
    marginal_points = np.tile(process.marginal_split_points, (n_grid, 1))
    got = quad_batch(
        lambda x1, col: kern.cond_pdf(xs2[col], x1) * f(x1),
        np.full(n_grid, lo),
        hi,
        DEFAULT_QUAD,
        np.column_stack([marginal_points, kern.x1_split_points(xs2)]),
    )
    return float(np.max(np.abs(got - f(xs2))))


# ---------------------------------------------------------------------------
# pushforward through a piecewise function


def pushforward_process(f, process):
    """Process of Y = g(X): exact marginal and the mixture kernel

    f_{Y2|Y1}(y2|y1) = sum_{x1 in preimage(y1)} w(x1) f_{Y2|X1}(y2|x1)

    with weights w proportional to f_X(x1)/|g'(x1)|.  This is the true
    conditional law whether or not the output process is Markov; treating
    it as a first-order kernel is exact precisely in the lumpable case.
    """
    if not f.all_injective:
        raise BadParameterError("pushforward needs an all-injective function")

    def marginal_pdf(ys):
        return f.preimage_sum(process.marginal_pdf, ys)

    def marginal_sampler(rng, n):
        return f.eval_array(np.asarray(process.marginal_sampler(rng, n), dtype=float))

    def path_sampler(rng, n):
        # Y = g(X) sample by sample, so mapping the input path is exact
        return f.eval_array(_draw_path(process, rng, n))

    # finite output window from the truncated input window
    qlo, qhi = process.quad_support
    y_lo, y_hi, edges = f.image_window(qlo, qhi)
    if y_lo > y_hi:
        raise BadParameterError("function does not cover the process support")
    y_lo, y_hi = float(y_lo), float(y_hi)
    splits = np.concatenate([edges, f.image_points(process.marginal_split_points)])

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

        def cond_pdf(y2, y1):
            # y1 and y2 padded to one ndim, so that their tables broadcast
            y1, y2 = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
            n = max(y1.ndim, y2.ndim)
            t1, t2 = (f.preimage_table(y[(None,) * (n - y.ndim)]) for y in (y1, y2))
            # mixture weights f_X(x1)/|g'(x1)| over the preimages x1 of y1,
            # normalised, times the output density given each x1
            w = t1.weights(process.marginal_pdf)
            total = w.sum(axis=0)
            w = w / np.where(total > 0.0, total, 1.0)
            given_x1 = t2.weights(lambda x2: base.cond_pdf(x2, t1.x[:, None]))
            return (w * given_x1.sum(axis=1)).sum(axis=0)

        def split_points(y1s):
            # the base kernel's jumps at the preimages of y1, mapped through
            # g, and the images of the input window's split points
            rows = mapped(base.split_points, y1s)
            return np.column_stack([rows, np.tile(splits, (len(rows), 1))])

        kernel = MarkovKernel(
            cond_pdf=cond_pdf,
            sample_step=None,
            split_points=split_points,
            # y1 whose preimages put a base-kernel jump onto a preimage of y2
            x1_split_points=lambda y2s: mapped(base.x1_split_points, y2s),
        )

    interior = sorted({float(s) for s in splits if y_lo < s < y_hi})
    return StationaryProcess(
        name=f"pushforward({process.name})",
        params=dict(process.params),
        marginal_pdf=marginal_pdf,
        marginal_sampler=marginal_sampler,
        kernel=kernel,
        support=(y_lo, y_hi),
        quad_support=(y_lo, y_hi),
        marginal_split_points=tuple(interior),
        path_sampler=path_sampler,
    )
