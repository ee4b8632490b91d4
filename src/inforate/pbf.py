"""Piecewise functions with branch-wise evaluation, inversion, derivatives.

A function is an ordered list of branches tiling a half-open interval
[domain_lo, domain_hi); each branch is either injective (with analytic
inverse and derivative closures) or constant.  The half-open convention
puts every tile boundary in the branch to its right.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import (
    BadParameterError,
    ConstantBranchError,
    OutOfDomainError,
    RangeMismatchError,
)

_ROUNDTRIP_TOL = 1e-9
_TILE_TOL = 1e-12
# points per block of eval_array: its (branch, block) table stays in cache
_EVAL_BLOCK = 1 << 14


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

    def __post_init__(self):
        if np.isnan(self.domain_lo) or np.isnan(self.domain_hi):
            raise BadParameterError(
                f"branch {self.index}: a tile end is NaN in "
                f"[{self.domain_lo}, {self.domain_hi})"
            )
        if not self.domain_lo < self.domain_hi:
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


def injective_branch(index, lo, hi, forward, inverse, derivative):
    """Branch with analytic inverse/derivative."""
    return Branch(
        index=index,
        domain_lo=float(lo),
        domain_hi=float(hi),
        kind="injective",
        forward=forward,
        inverse=inverse,
        derivative=derivative,
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
        broadcast with its output; 0 where no preimage exists.  The divide
        and the mask are skipped where every |g'| is 1 or every x exists."""
        w = density(self.x)
        w = w if (self.dabs == 1.0).all() else w / self.dabs
        return w if self.valid.all() else np.where(self.valid, w, 0.0)


@dataclass(frozen=True)
class PiecewiseFunction:
    branches: tuple
    domain_lo: float = field(init=False)
    domain_hi: float = field(init=False)

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise BadParameterError("need at least one branch")
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "domain_lo", branches[0].domain_lo)
        object.__setattr__(self, "domain_hi", branches[-1].domain_hi)
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

    def branch_at(self, x):
        return self.branches[self.branch_index(x) - 1]

    def branch_index(self, x):
        """1-based index of the tile containing x (the variable W): the
        scalar case of branch_index_array."""
        return int(self.branch_index_array(x))

    def _check_domain(self, xs):
        # written so that NaN, which compares false, fails it
        if not (np.all(xs >= self.domain_lo) and np.all(xs < self.domain_hi)):
            raise OutOfDomainError(f"x outside [{self.domain_lo}, {self.domain_hi})")

    def branch_index_array(self, xs):
        xs = np.asarray(xs, dtype=float)
        self._check_domain(xs)
        idx = np.empty(xs.shape, np.intp)
        self._count_edges(xs.reshape(-1), idx.reshape(-1))
        idx += 1
        return idx

    # -- evaluation -----------------------------------------------------

    def eval(self, x):
        """g(x): the scalar case of eval_array."""
        return float(self.eval_array(x))

    def __call__(self, x):
        return self.eval(x)

    def eval_array(self, xs):
        """g at every point of xs, block by block: each branch fills its
        row of a (branch, block) table from the block clipped into its
        own closed tile, and each point takes the entry of its branch.
        The clip stops at the tile's end, not at the float below it,
        which is subnormal where a tile ends at 0: arithmetic on
        subnormals is tens of times slower."""
        xs = np.asarray(xs, dtype=float)
        self._check_domain(xs)
        flat = xs.reshape(-1)
        out = np.empty(xs.shape)
        flat_out = out.reshape(-1)
        block = max(min(_EVAL_BLOCK, flat.size), 1)
        table = np.empty((len(self.branches), block))
        idx = np.empty(block, np.intp)
        offsets = np.arange(block)
        for start in range(0, flat.size, block):
            x = flat[start : start + block]
            n = x.size
            for row, b in zip(table, self.branches):
                if b.kind == "constant":
                    row[:n] = b.constant_value
                else:
                    row[:n] = b.forward(np.clip(x, b.domain_lo, b.domain_hi))
            self._count_edges(x, idx[:n])
            idx[:n] *= block
            idx[:n] += offsets[:n]
            # every index is in range; "clip" spares take a buffered copy
            table.take(idx[:n], out=flat_out[start : start + n], mode="clip")
        return out

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

    # -- structure ------------------------------------------------------

    @property
    def all_injective(self):
        return all(b.kind == "injective" for b in self.branches)

    @property
    def has_constant(self):
        return any(b.kind == "constant" for b in self.branches)

    def range_hull(self):
        """Hull of the image: image_window of the whole domain, which reads
        forward at the tile ends, +-inf included, and the constant values.
        Every injective branch meets its own tile, so a NaN end image is
        forward's NaN at a tile end: refused, not skipped."""
        y_lo, y_hi, edges = self.image_window(self.domain_lo, self.domain_hi)
        for b, ends in zip(self.branches, edges.reshape(-1, 2)):
            if b.kind == "injective" and np.isnan(ends).any():
                raise BadParameterError(
                    f"branch {b.index}: forward is NaN at an end of its tile"
                )
        values = [b.constant_value for b in self.branches if b.kind == "constant"]
        return min([float(y_lo)] + values), max([float(y_hi)] + values)

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

    @cached_property
    def critical_images(self):
        """Images of the finite tile ends where g' vanishes: the density of
        the output is singular there."""
        ends = [(b, x) for b in self.branches for x in (b.domain_lo, b.domain_hi)]
        ends = [(b, x) for b, x in ends if b.kind == "injective" and np.isfinite(x)]
        return np.array([float(b.forward(x)) for b, x in ends if b.derivative(x) == 0])

    def image_points(self, points):
        """Images of an array of points, e.g. of a density's
        discontinuities, which become split points in y; NaN where a
        point falls outside the domain."""
        points = np.asarray(points, dtype=float)
        inside = (points >= self.domain_lo) & (points < self.domain_hi)
        safe = np.where(inside, points, self.branches[0].rep_point())
        return np.where(inside, self.eval_array(safe), np.nan)


# ---------------------------------------------------------------------------
# composition


def compose(outer, inner):
    """Branch structure of outer(inner(x)).

    Each inner tile is cut at the preimages of the outer interior tile
    edges that preimage_table finds strictly inside it, so every new
    piece maps into a single outer branch; closures satisfy the chain
    rule.  Both functions must be all-injective.
    """
    if not (outer.all_injective and inner.all_injective):
        raise ConstantBranchError("compose requires all-injective functions")
    r_lo, r_hi = inner.range_hull()
    # an infinite end would make the slack infinite: read the finite ends
    ends = [abs(e) for e in (outer.domain_lo, outer.domain_hi) if abs(e) < np.inf]
    slack = _ROUNDTRIP_TOL * max([1.0] + ends)
    if r_lo < outer.domain_lo - slack or r_hi > outer.domain_hi + slack:
        raise RangeMismatchError(
            f"inner range [{r_lo}, {r_hi}] not inside outer domain "
            f"[{outer.domain_lo}, {outer.domain_hi})"
        )

    pieces = []
    table = inner.preimage_table(outer._edges[1:-1])
    for ib, xs, valid in zip(inner.branches, table.x, table.valid):
        inside = valid & (xs > ib.domain_lo) & (xs < ib.domain_hi)
        bounds = [ib.domain_lo] + sorted(set(xs[inside].tolist())) + [ib.domain_hi]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
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
    if not (k != 0.0 and np.isfinite(k)):
        raise BadParameterError("scale factor must be finite and non-zero")
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
    """|x| as one or two injective branches split at zero: -x from
    scale(-1.0) on the left, x from identity() on the right."""
    if hi <= 0.0:
        return scale(-1.0, lo, hi)
    if lo >= 0.0:
        return identity(lo, hi)
    (neg,) = scale(-1.0, lo, 0.0).branches
    (pos,) = identity(0.0, hi).branches
    return PiecewiseFunction((neg, replace(pos, index=2)))


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
    if not period > 0:  # NaN fails the comparison
        raise BadParameterError(f"period must be positive, got {period}")
    if hi is None:
        raise BadParameterError("shift_mod needs an explicit finite upper bound")
    if not np.all(np.isfinite([lo, hi, offset])):
        raise BadParameterError("shift_mod needs a finite domain and offset")
    n = (hi - lo) / period
    m = int(round(n)) if np.isfinite(n) else 0
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
