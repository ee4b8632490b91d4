"""Piecewise functions with branch-wise evaluation, inversion, derivatives.

A function is an ordered list of branches tiling a half-open interval
[domain_lo, domain_hi); each branch is either injective (with analytic
inverse and derivative closures) or constant.  The half-open convention
puts every tile boundary in the branch to its right.
"""

from dataclasses import dataclass, field, InitVar

import numpy as np

from . import _kernels
from .errors import (
    BadParameterError,
    ConstantBranchError,
    NotNormalizedError,
    OutOfDomainError,
    RangeMismatchError,
)

_ROUNDTRIP_TOL = 1e-9
_TILE_TOL = 1e-12


@dataclass(frozen=True)
class Branch:
    index: int
    domain_lo: float
    domain_hi: float
    kind: str  # "injective" or "constant"
    forward: callable = None
    inverse: callable = None
    derivative: callable = None
    constant_value: float = np.nan
    range_lo: float = np.nan
    range_hi: float = np.nan

    def __post_init__(self):
        if self.domain_lo >= self.domain_hi:
            raise BadParameterError(
                f"branch {self.index}: empty domain [{self.domain_lo}, {self.domain_hi})"
            )
        if self.kind not in ("injective", "constant"):
            raise BadParameterError(f"unknown branch kind {self.kind!r}")
        if self.kind == "injective" and (
            self.forward is None or self.inverse is None or self.derivative is None
        ):
            raise BadParameterError("injective branch needs forward/inverse/derivative")

    def rep_point(self):
        """A finite interior point, used for direction probes."""
        return _rep_point(self.domain_lo, self.domain_hi)


def _rep_point(lo, hi):
    if np.isfinite(lo) and np.isfinite(hi):
        return 0.5 * (lo + hi)
    if np.isfinite(lo):
        return lo + 1.0
    if np.isfinite(hi):
        return hi - 1.0
    return 0.0


def _branch_range(lo, hi, forward, derivative):
    rep = _rep_point(lo, hi)
    d = float(derivative(rep))
    if d == 0.0:
        eps = 1e-6 * max(1.0, abs(rep))
        d = float(forward(rep + eps)) - float(forward(rep - eps))
    increasing = d > 0
    if np.isfinite(lo):
        y_lo = float(forward(lo))
    else:
        y_lo = -np.inf if increasing else np.inf
    if np.isfinite(hi):
        y_hi = float(forward(hi))
    else:
        y_hi = np.inf if increasing else -np.inf
    return (y_lo, y_hi) if y_lo <= y_hi else (y_hi, y_lo)


def injective_branch(index, lo, hi, forward, inverse, derivative):
    """Branch with analytic inverse/derivative; range derived from endpoints."""
    r_lo, r_hi = _branch_range(lo, hi, forward, derivative)
    return Branch(
        index=index,
        domain_lo=float(lo),
        domain_hi=float(hi),
        kind="injective",
        forward=forward,
        inverse=inverse,
        derivative=derivative,
        range_lo=r_lo,
        range_hi=r_hi,
    )


def constant_branch(index, lo, hi, value):
    value = float(value)
    return Branch(
        index=index,
        domain_lo=float(lo),
        domain_hi=float(hi),
        kind="constant",
        forward=lambda x, v=value: np.full_like(np.asarray(x, dtype=float), v),
        constant_value=value,
        range_lo=value,
        range_hi=value,
    )


@dataclass(frozen=True)
class PreimagePoint:
    branch: int
    x: float
    pointwise: bool = True


@dataclass(frozen=True)
class PreimageTable:
    """Preimages x of an array of y, one row per injective branch, with
    ``dabs`` = |g'(x)| and ``valid``; x is 0 and dabs 1 where the branch
    has none."""

    x: np.ndarray
    dabs: np.ndarray
    valid: np.ndarray

    def weights(self, density):
        """density(x) / |g'(x)| from one call of density on the table,
        broadcast with its output; 0 where no preimage exists."""
        return np.where(self.valid, density(self.x) / self.dabs, 0.0)


@dataclass(frozen=True)
class PiecewiseFunction:
    branches: tuple
    validate_tiling: InitVar[bool] = True
    domain_lo: float = field(init=False)
    domain_hi: float = field(init=False)

    def __post_init__(self, validate_tiling):
        branches = tuple(self.branches)
        if not branches:
            raise BadParameterError("need at least one branch")
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "domain_lo", branches[0].domain_lo)
        object.__setattr__(self, "domain_hi", branches[-1].domain_hi)
        if validate_tiling:
            for i, b in enumerate(branches):
                if b.index != i + 1:
                    raise BadParameterError(
                        f"branch indices must be 1..n in order, got {b.index} at {i}"
                    )
            for prev, cur in zip(branches[:-1], branches[1:]):
                gap = cur.domain_lo - prev.domain_hi
                if abs(gap) > _TILE_TOL * max(1.0, abs(prev.domain_hi)):
                    kind = "gap" if gap > 0 else "overlap"
                    raise BadParameterError(
                        f"{kind} between branches {prev.index} and {cur.index}"
                    )
        edges = [b.domain_lo for b in branches] + [branches[-1].domain_hi]
        object.__setattr__(self, "_edges", np.array(edges))
        # the tile of x is 1 + the inner edges at or below it
        object.__setattr__(
            self, "_count_edges", _kernels.edge_counter(self._edges[1:-1], np.intp)
        )
        # finite tile boundaries, where integrands change branch
        object.__setattr__(self, "tile_edges", tuple(filter(np.isfinite, edges)))

    # -- lookup ---------------------------------------------------------

    def _locate(self, x):
        x = float(x)
        if not (self.domain_lo <= x < self.domain_hi):
            raise OutOfDomainError(
                f"x={x} outside [{self.domain_lo}, {self.domain_hi})"
            )
        idx = int(np.searchsorted(self._edges, x, side="right")) - 1
        return min(max(idx, 0), len(self.branches) - 1)

    def branch_at(self, x):
        return self.branches[self._locate(x)]

    def branch_index(self, x):
        """1-based index of the tile containing x (the variable W)."""
        return self._locate(x) + 1

    def branch_index_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        # written so that NaN, which compares false, fails it
        if not (np.all(xs >= self.domain_lo) and np.all(xs < self.domain_hi)):
            raise OutOfDomainError("samples outside the function domain")
        idx = np.empty(xs.shape, np.intp)
        self._count_edges(xs.reshape(-1), idx.reshape(-1))
        idx += 1
        return idx

    # -- evaluation -----------------------------------------------------

    def eval(self, x):
        b = self.branch_at(x)
        if b.kind == "constant":
            return b.constant_value
        return float(b.forward(x))

    def __call__(self, x):
        return self.eval(x)

    def eval_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        idx = self.branch_index_array(xs) - 1
        out = np.empty_like(xs)
        for i, b in enumerate(self.branches):
            mask = idx == i
            if not np.any(mask):
                continue
            if b.kind == "constant":
                out[mask] = b.constant_value
            else:
                out[mask] = b.forward(xs[mask])
        return out

    def log_abs_derivative(self, x):
        """log2 |g'(x)|; refuses constant pieces."""
        b = self.branch_at(x)
        if b.kind == "constant":
            raise ConstantBranchError(f"x={x} lies in constant branch {b.index}")
        return float(np.log2(np.abs(b.derivative(x))))

    # -- preimages ------------------------------------------------------

    def preimage_terms(self, ys):
        """Per-branch candidate preimages of an array of y values.

        Yields (branch, xs, |g'(xs)|, valid) where valid marks entries
        that land in the branch domain and pass the round-trip check; xs
        is 0 and |g'(xs)| is 1 where it is False.
        """
        ys = np.asarray(ys, dtype=float)
        for b in self.branches:
            if b.kind != "injective":
                continue
            with np.errstate(all="ignore"):
                xs = np.asarray(b.inverse(ys), dtype=float)
                valid = np.isfinite(xs)
                lo_slack = _ROUNDTRIP_TOL * np.maximum(1.0, np.abs(b.domain_lo))
                if np.isfinite(b.domain_lo):
                    valid &= xs >= b.domain_lo - lo_slack
                    xs = np.where(valid, np.maximum(xs, b.domain_lo), xs)
                valid &= xs < b.domain_hi
                safe = np.where(valid, xs, b.rep_point())
                fwd = np.asarray(b.forward(safe), dtype=float)
                valid &= np.abs(fwd - ys) <= _ROUNDTRIP_TOL * np.maximum(
                    1.0, np.abs(ys)
                )
                dabs = np.abs(np.asarray(b.derivative(safe), dtype=float))
            yield b, np.where(valid, xs, 0.0), np.where(valid, dabs, 1.0), valid

    def preimage(self, y):
        """All preimages of y: points on injective branches, interval
        markers on constant branches whose value equals y."""
        y = float(y)
        out = []
        arr = np.array([y])
        for b, xs, _, valid in self.preimage_terms(arr):
            if valid[0]:
                out.append(PreimagePoint(branch=b.index, x=float(xs[0])))
        for b in self.branches:
            if b.kind == "constant" and b.constant_value == y:
                out.append(PreimagePoint(branch=b.index, x=np.nan, pointwise=False))
        return tuple(out)

    def preimage_table(self, ys):
        """The PreimageTable of an array of y: (branch,) + ys.shape arrays."""
        ys = np.asarray(ys, dtype=float)
        rows = [t[1:] for t in self.preimage_terms(ys)]
        # np.reshape, not np.stack: a function with no injective branch has no rows
        shape = (len(rows),) + ys.shape
        x, dabs, valid = (np.reshape([r[k] for r in rows], shape) for k in range(3))
        return PreimageTable(x, dabs, valid.astype(bool))

    def preimage_weights(self, density, ys):
        """density(x) / |g'(x)| at the preimage x of each y, one row per
        injective branch, 0 where the branch has none.  A row over the
        column sums is the probability that the preimage is on its branch."""
        return self.preimage_table(ys).weights(density)

    def preimage_sum(self, density, ys):
        """sum over x in preimage(y) of density(x) / |g'(x)|, for an array of y.

        With the marginal as density this is the output density; with a
        kernel slice x2 -> f(x2|x1) it is the output density given x1.
        """
        # summed row by row in branch order
        return self.preimage_weights(density, ys).sum(axis=0)

    # -- structure ------------------------------------------------------

    @property
    def all_injective(self):
        return all(b.kind == "injective" for b in self.branches)

    @property
    def has_constant(self):
        return any(b.kind == "constant" for b in self.branches)

    def range_hull(self):
        lo = min(b.range_lo for b in self.branches)
        hi = max(b.range_hi for b in self.branches)
        return lo, hi

    def interior_edges(self):
        return tuple(b.domain_lo for b in self.branches[1:])

    def image_window(self, lo, hi):
        """Images of windows [lo, hi] under the injective branches.

        Takes arrays of window ends and returns (y_lo, y_hi, edges):
        ``edges`` holds one row of (low, high) branch image ends per
        window, NaN for branches that miss it, and y_lo, y_hi are the
        ends of their hull.  y_lo > y_hi marks a window that every
        branch misses.
        """
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), hi)
        edges = np.full(lo.shape + (2 * len(self.branches),), np.nan)
        for i, b in enumerate(self.branches):
            if b.kind != "injective":
                continue
            a = np.maximum(b.domain_lo, lo)
            c = np.minimum(b.domain_hi, hi)
            meets = c > a
            with np.errstate(all="ignore"):
                # + 0.0 turns a -0.0 end (the fold's left tile) into 0.0
                ya = np.asarray(b.forward(a), dtype=float) + 0.0
                yc = np.asarray(b.forward(c), dtype=float) + 0.0
            edges[..., 2 * i] = np.where(meets, np.minimum(ya, yc), np.nan)
            edges[..., 2 * i + 1] = np.where(meets, np.maximum(ya, yc), np.nan)
        # fmin and fmax skip NaN; a row of NaN keeps the initial values
        y_lo = np.fmin.reduce(edges, axis=-1, initial=np.inf)
        y_hi = np.fmax.reduce(edges, axis=-1, initial=-np.inf)
        return y_lo, y_hi, edges

    def image_points(self, points):
        """Images of an array of points, e.g. of a density's
        discontinuities, which become split points in y; NaN where a
        point falls outside the domain."""
        points = np.asarray(points, dtype=float)
        inside = (points >= self.domain_lo) & (points < self.domain_hi)
        safe = np.where(inside, points, self.branches[0].rep_point())
        return np.where(inside, self.eval_array(safe), np.nan)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    gaps: tuple
    overlaps: tuple
    non_monotone: tuple
    zero_derivative: tuple
    max_roundtrip_error: float
    range_gaps: tuple = ()

    @property
    def ok(self):
        return not (
            self.gaps or self.overlaps or self.non_monotone or self.zero_derivative
        )


def _finite_window(lo, hi, span=1e3):
    wlo = lo if np.isfinite(lo) else (hi - span if np.isfinite(hi) else -span)
    whi = hi if np.isfinite(hi) else (lo + span if np.isfinite(lo) else span)
    return wlo, whi


def validate(f, grid=10_000):
    """Grid-sampled structural checks; failures are reported, not raised."""
    gaps, overlaps = [], []
    for prev, cur in zip(f.branches[:-1], f.branches[1:]):
        gap = cur.domain_lo - prev.domain_hi
        if gap > _TILE_TOL * max(1.0, abs(prev.domain_hi)):
            gaps.append((prev.index, cur.index, gap))
        elif gap < -_TILE_TOL * max(1.0, abs(prev.domain_hi)):
            overlaps.append((prev.index, cur.index, gap))

    non_monotone = []
    zero_deriv = []
    max_rt = 0.0
    for b in f.branches:
        if b.kind != "injective":
            continue
        wlo, whi = _finite_window(b.domain_lo, b.domain_hi)
        xs = np.linspace(wlo, whi, grid, endpoint=False)
        fv = np.asarray(b.forward(xs), dtype=float)
        d = np.diff(fv)
        if not (np.all(d > 0) or np.all(d < 0)):
            non_monotone.append(b.index)
        dv = np.abs(np.asarray(b.derivative(xs), dtype=float))
        small = np.nonzero(dv < 1e-8)[0]
        for i in small[:5]:
            zero_deriv.append((b.index, float(xs[i])))
        back = np.asarray(b.inverse(fv), dtype=float)
        rt = np.max(np.abs(back - xs) / np.maximum(1.0, np.abs(xs)))
        max_rt = max(max_rt, float(rt))

    # surjectivity onto the range hull, on a coarse sample grid
    hull_lo, hull_hi = f.range_hull()
    wlo, whi = _finite_window(hull_lo, hull_hi)
    span = whi - wlo
    ys = np.linspace(wlo + 1e-6 * span, whi - 1e-6 * span, 512)
    covered = f.preimage_table(ys).valid.any(axis=0)
    for b in f.branches:
        if b.kind == "constant":
            covered |= np.isclose(ys, b.constant_value, atol=1e-9)
    range_gaps = [float(y) for y in ys[~covered][:5]]
    return ValidationReport(
        gaps=tuple(gaps),
        overlaps=tuple(overlaps),
        non_monotone=tuple(non_monotone),
        zero_derivative=tuple(zero_deriv),
        max_roundtrip_error=max_rt,
        range_gaps=tuple(range_gaps),
    )


# ---------------------------------------------------------------------------
# composition


def compose(outer, inner):
    """Branch structure of outer(inner(x)).

    Inner branches are refined at preimages of outer tile boundaries so
    every new piece maps into a single outer branch; closures satisfy the
    chain rule.  Both functions must be all-injective.
    """
    if not (outer.all_injective and inner.all_injective):
        raise ConstantBranchError("compose requires all-injective functions")
    r_lo, r_hi = inner.range_hull()
    slack = _ROUNDTRIP_TOL * max(1.0, abs(outer.domain_lo), abs(outer.domain_hi))
    if r_lo < outer.domain_lo - slack or r_hi > outer.domain_hi + slack:
        raise RangeMismatchError(
            f"inner range [{r_lo}, {r_hi}] not inside outer domain "
            f"[{outer.domain_lo}, {outer.domain_hi})"
        )

    pieces = []
    for ib in inner.branches:
        cuts = set()
        for edge in outer.interior_edges():
            if not (ib.range_lo < edge < ib.range_hi):
                continue
            with np.errstate(all="ignore"):
                x_cut = float(ib.inverse(edge))
            if np.isfinite(x_cut) and ib.domain_lo < x_cut < ib.domain_hi:
                cuts.add(x_cut)
        bounds = [ib.domain_lo] + sorted(cuts) + [ib.domain_hi]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo <= 0:
                continue
            y_rep = float(ib.forward(_rep_point(lo, hi)))
            y_rep = min(
                max(y_rep, outer.domain_lo), np.nextafter(outer.domain_hi, -np.inf)
            )
            ob = outer.branch_at(y_rep)
            g, gi, gd = ib.forward, ib.inverse, ib.derivative
            h, hi_, hd = ob.forward, ob.inverse, ob.derivative
            pieces.append(
                (
                    lo,
                    hi,
                    lambda x, g=g, h=h: h(g(x)),
                    lambda y, gi=gi, hi_=hi_: gi(hi_(y)),
                    lambda x, g=g, gd=gd, hd=hd: gd(x) * hd(g(x)),
                )
            )

    branches = [
        injective_branch(i + 1, lo, hi, fwd, inv, der)
        for i, (lo, hi, fwd, inv, der) in enumerate(pieces)
    ]
    return PiecewiseFunction(tuple(branches))


# ---------------------------------------------------------------------------
# constant-piece mass


def constant_mass(f, marginal_pdf, quad_support=None, split_points=(), cfg=None):
    """P_X of the union of constant pieces, by quadrature.

    The marginal must integrate to one over the (possibly truncated)
    support; checked to 1e-6.
    """
    from .estimate import DEFAULT_QUAD, branch_integrals, quad

    cfg = cfg or DEFAULT_QUAD
    if quad_support is None:
        quad_support = (f.domain_lo, f.domain_hi)
    lo, hi = quad_support
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise BadParameterError("constant_mass needs a finite integration window")
    norm = quad(marginal_pdf, lo, hi, cfg, points=split_points)
    if abs(norm - 1.0) > 1e-6:
        raise NotNormalizedError(f"marginal integrates to {norm}, not 1")
    if not f.has_constant:
        return 0.0
    if all(b.kind == "constant" for b in f.branches):
        return 1.0
    mass = 0.0
    for m in branch_integrals(
        f, lambda x, col, b: marginal_pdf(x), lo, hi, cfg, [split_points], "constant"
    )[0]:
        mass += m
    return float(min(max(mass, 0.0), 1.0))


# ---------------------------------------------------------------------------
# built-in function constructors


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def identity(lo=-np.inf, hi=np.inf):
    return PiecewiseFunction(
        (
            injective_branch(
                1,
                lo,
                hi,
                lambda x: _as_float_array(x) + 0.0,
                lambda y: _as_float_array(y) + 0.0,
                lambda x: np.ones_like(_as_float_array(x)),
            ),
        )
    )


def scale(k, lo=-np.inf, hi=np.inf):
    k = float(k)
    if k == 0.0:
        raise BadParameterError("scale factor must be non-zero")
    return PiecewiseFunction(
        (
            injective_branch(
                1,
                lo,
                hi,
                lambda x: k * _as_float_array(x),
                lambda y: _as_float_array(y) / k,
                lambda x: np.full_like(_as_float_array(x), k),
            ),
        )
    )


def magnitude(lo=-np.inf, hi=np.inf):
    """|x| as one or two injective branches split at zero."""

    def neg(index, a, b):
        return injective_branch(
            index,
            a,
            b,
            lambda x: -_as_float_array(x),
            lambda y: -_as_float_array(y),
            lambda x: np.full_like(_as_float_array(x), -1.0),
        )

    def pos(index, a, b):
        return injective_branch(
            index,
            a,
            b,
            lambda x: _as_float_array(x) + 0.0,
            lambda y: _as_float_array(y) + 0.0,
            lambda x: np.ones_like(_as_float_array(x)),
        )

    if hi <= 0.0:
        return PiecewiseFunction((neg(1, lo, hi),))
    if lo >= 0.0:
        return PiecewiseFunction((pos(1, lo, hi),))
    return PiecewiseFunction((neg(1, lo, 0.0), pos(2, 0.0, hi)))


def square(lo=-np.inf, hi=np.inf):
    """x**2, split at zero when the domain straddles it."""

    def fwd(x):
        return _as_float_array(x) ** 2

    def der(x):
        return 2.0 * _as_float_array(x)

    def inv_neg(y):
        return -np.sqrt(np.maximum(_as_float_array(y), 0.0))

    def inv_pos(y):
        return np.sqrt(np.maximum(_as_float_array(y), 0.0))

    if hi <= 0.0:
        return PiecewiseFunction((injective_branch(1, lo, hi, fwd, inv_neg, der),))
    if lo >= 0.0:
        return PiecewiseFunction((injective_branch(1, lo, hi, fwd, inv_pos, der),))
    return PiecewiseFunction(
        (
            injective_branch(1, lo, 0.0, fwd, inv_neg, der),
            injective_branch(2, 0.0, hi, fwd, inv_pos, der),
        )
    )


def shift_mod(period, offset=0.0, lo=0.0, hi=None):
    """Sawtooth of shifts: piece k maps [lo+k*p, lo+(k+1)*p) onto a common
    range of width p starting at lo+offset."""
    period = float(period)
    if period <= 0:
        raise BadParameterError("period must be positive")
    if hi is None:
        raise BadParameterError("shift_mod needs an explicit finite upper bound")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise BadParameterError("shift_mod needs a finite domain")
    n = (hi - lo) / period
    m = int(round(n))
    if m < 1 or abs(n - m) > 1e-9:
        raise BadParameterError("domain length must be an integer number of periods")
    branches = []
    for k in range(m):
        shift = -k * period + offset
        branches.append(
            injective_branch(
                k + 1,
                lo + k * period,
                lo + (k + 1) * period,
                lambda x, s=shift: _as_float_array(x) + s,
                lambda y, s=shift: _as_float_array(y) - s,
                lambda x: np.ones_like(_as_float_array(x)),
            )
        )
    return PiecewiseFunction(tuple(branches))


def quantizer(edges):
    """All-constant staircase: cell [e_i, e_{i+1}) maps to its midpoint."""
    edges = [float(e) for e in edges]
    if len(edges) < 2 or any(b <= a for a, b in zip(edges[:-1], edges[1:])):
        raise BadParameterError("quantizer needs strictly increasing edges")
    branches = tuple(
        constant_branch(i + 1, a, b, 0.5 * (a + b))
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:]))
    )
    return PiecewiseFunction(branches)
