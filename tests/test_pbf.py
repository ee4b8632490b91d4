"""Branch-wise evaluation, inversion, differentiation, composition."""

import math
import tracemalloc

import numpy as np
import pytest

from inforate import (
    Branch,
    PiecewiseFunction,
    StationaryProcess,
    compose,
    constant_branch,
    identity,
    injective_branch,
    magnitude,
    quantizer,
    relative_loss_rate_constant_pieces,
    scale,
    shift_mod,
    square,
)
from inforate.errors import (
    BadParameterError,
    ConstantBranchError,
    NotNormalizedError,
    OutOfDomainError,
    RangeMismatchError,
)
from inforate._rng import make_rng

inf = np.inf


def _identity_branch(index, lo, hi):
    return injective_branch(
        index,
        lo,
        hi,
        lambda x: np.asarray(x, float) + 0.0,
        lambda y: np.asarray(y, float) + 0.0,
        lambda x: np.ones_like(np.asarray(x, float)),
    )


def uniform_pdf(lo, hi):
    dens = 1.0 / (hi - lo)
    return lambda x: np.where(
        (np.asarray(x, float) >= lo) & (np.asarray(x, float) < hi), dens, 0.0
    )


def uniform_cdf(lo, hi):
    return lambda x: np.clip((np.asarray(x, float) - lo) / (hi - lo), 0.0, 1.0)


def half_constant():
    """Constant 0 on [0,1), identity on [1,2)."""
    return PiecewiseFunction(
        (constant_branch(1, 0.0, 1.0, 0.0), _identity_branch(2, 1.0, 2.0))
    )


class TestEval:
    def test_magnitude(self):
        assert magnitude().eval(-3.0) == 3.0
        assert magnitude()(-3.0) == 3.0

    def test_shift_map(self):
        f = shift_mod(2.0, lo=0.0, hi=4.0)
        assert f.eval(3.5) == pytest.approx(1.5, abs=1e-15)

    def test_identity(self):
        assert identity(0.0, 1.0).eval(0.25) == 0.25

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            identity(0.0, 1.0).eval(1.0)
        with pytest.raises(OutOfDomainError):
            identity(0.0, 1.0).eval(-0.1)

    def test_eval_array_matches_scalar(self):
        f = magnitude(-2.0, 2.0)
        xs = np.linspace(-2.0, 2.0, 101, endpoint=False)
        np.testing.assert_allclose(f.eval_array(xs), [f.eval(x) for x in xs])

    def test_eval_array_temporaries_stay_block_sized(self):
        # no mask, gather or index array of the input's size: only the
        # output grows with the samples
        f = magnitude()
        xs = make_rng(6).normal(0.0, 1.0, 10**6)
        tracemalloc.start()
        try:
            out = f.eval_array(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * 2**20

    def test_eval_array_feeds_no_subnormals_to_a_tile_ending_at_zero(self):
        # the points right of (-inf, 0) are clipped to 0, not to -5e-324,
        # on which -1.0 * x is tens of times slower
        seen = []

        def forward(x):
            seen.append(np.array(x, dtype=float))
            return -1.0 * np.asarray(x, dtype=float)

        neg = injective_branch(
            1, -np.inf, 0.0, forward, lambda y: -y, lambda x: np.full_like(x, -1.0)
        )
        f = PiecewiseFunction((neg, _identity_branch(2, 0.0, np.inf)))
        xs = np.linspace(-1.0, 1.0, 101)
        np.testing.assert_array_equal(f.eval_array(xs), np.abs(xs))
        seen = np.concatenate([np.ravel(x) for x in seen])
        assert not np.any((seen != 0.0) & (np.abs(seen) < np.finfo(float).tiny))


class TestBranchIndex:
    def test_magnitude_left_of_zero(self):
        f = magnitude(-3.0, 3.0)
        assert f.branch_index(-0.5) == 1

    def test_boundary_belongs_right(self):
        f = magnitude(-3.0, 3.0)
        assert f.branch_index(0.0) == 2

    def test_single_branch(self):
        f = identity()
        for x in (-10.0, 0.0, 7.5):
            assert f.branch_index(x) == 1

    def test_array_version(self):
        f = shift_mod(1.0, lo=0.0, hi=3.0)
        np.testing.assert_array_equal(
            f.branch_index_array([0.1, 1.1, 2.9]), [1, 2, 3]
        )
        with pytest.raises(OutOfDomainError):
            f.branch_index_array([0.5, 3.0])

    def test_nan_is_outside_the_domain_as_for_the_scalar(self):
        f = magnitude()
        with pytest.raises(OutOfDomainError):
            f.branch_index(np.nan)
        with pytest.raises(OutOfDomainError):
            f.branch_index_array([0.5, np.nan])
        with pytest.raises(OutOfDomainError):
            f.eval_array([np.nan])

    @pytest.mark.parametrize(
        "f",
        [magnitude(), shift_mod(0.3, lo=-1.5, hi=1.5), half_constant(), identity()],
        ids=["magnitude", "shift_mod", "half_constant", "identity"],
    )
    def test_array_version_is_the_binary_search(self, f):
        edges = f._edges
        inner = edges[1:-1]
        lo, hi = f.domain_lo, f.domain_hi
        draws = make_rng(47).uniform(-1.0, 1.0, 2000)
        spread = draws * 4.0 if np.isinf(lo) else lo + (hi - lo) * (draws + 1.0) / 2
        # the tile edges and their float neighbours, where the compares decide
        xs = np.concatenate(
            [
                spread,
                np.nextafter(inner, -np.inf),
                inner,
                np.nextafter(inner, np.inf),
                [lo, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)],
            ]
        )
        xs = xs[(xs >= lo) & (xs < hi)]
        xs = np.resize(xs, (4, xs.size))  # a 2-D input keeps its shape
        ref = np.clip(np.searchsorted(edges, xs, "right") - 1, 0, len(f.branches) - 1)
        got = f.branch_index_array(xs)
        assert got.shape == xs.shape and got.dtype == np.intp
        np.testing.assert_array_equal(got, ref + 1)
        np.testing.assert_array_equal(f.branch_index_array(xs[0, 0]), ref[0, 0] + 1)
        below = [np.nextafter(lo, -np.inf)] if np.isfinite(lo) else []
        for bad in [np.nan, hi] + below:
            with pytest.raises(OutOfDomainError):
                f.branch_index_array(np.append(xs[0], bad))


    def test_temporaries_stay_block_sized(self):
        # ten branches, so the edge table is read; only the output may
        # grow with the samples
        f = shift_mod(0.3, lo=-1.5, hi=1.5)
        xs = make_rng(5).uniform(-1.5, 1.5, 10**6)
        tracemalloc.start()
        try:
            idx = f.branch_index_array(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= idx.nbytes + 2 * 2**20


class TestPreimage:
    def test_magnitude(self):
        pts = magnitude().preimage(2.0)
        assert {(p.branch, p.x) for p in pts} == {(1, -2.0), (2, 2.0)}

    def test_shift_map(self):
        f = shift_mod(2.0, lo=0.0, hi=4.0)
        pts = f.preimage(0.5)
        assert {(p.branch, p.x) for p in pts} == {(1, 0.5), (2, 2.5)}

    def test_outside_range_empty(self):
        assert magnitude().preimage(-1.0) == ()

    def test_constant_marker_not_pointwise(self):
        pts = half_constant().preimage(0.0)
        markers = [p for p in pts if not p.pointwise]
        assert len(markers) == 1 and markers[0].branch == 1

    def test_consistency(self):
        f = square()
        rng = make_rng(11)
        for y in rng.uniform(0.0, 9.0, 200):
            for p in f.preimage(y):
                assert abs(f.eval(p.x) - y) <= 1e-10 * max(1.0, abs(y))


_FOLDED = [
    magnitude(),
    square(),
    shift_mod(2.0, offset=-1.0, lo=0.0, hi=4.0),
    compose(magnitude(), shift_mod(2.0, offset=-1.0, lo=0.0, hi=4.0)),
]
_FOLDED_IDS = ["magnitude", "square", "shift_mod", "composed"]


class TestPreimageSum:
    @pytest.mark.parametrize("f", _FOLDED, ids=_FOLDED_IDS)
    def test_matches_scalar_loop_over_preimages(self, f):
        def density(x):
            return np.exp(-((np.asarray(x, dtype=float) - 0.3) ** 2))

        # 0 is left out: the square's density is infinite there
        ys = np.concatenate([np.linspace(-1.5, 4.5, 240), [-1.0, 1.0, 2.0]])
        want = []
        for y in ys:
            total = 0.0
            for p in f.preimage(y):
                b = f.branches[p.branch - 1]
                total += float(density(p.x)) / abs(float(b.derivative(p.x)))
            want.append(total)
        got = f.preimage_table(ys).weights(density).sum(axis=0)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_outside_the_range_is_zero(self):
        table = magnitude().preimage_table([-2.0, -0.5])
        got = table.weights(lambda x: np.ones_like(x)).sum(axis=0)
        assert got.tolist() == [0.0, 0.0]


class TestPreimageTable:
    def test_no_injective_branch_gives_no_rows(self):
        f = quantizer([0.0, 1.0, 2.0])
        table = f.preimage_table(np.linspace(0.0, 2.0, 12).reshape(3, 4))
        for part in (table.x, table.dabs, table.valid):
            assert part.shape == (0, 3, 4)
        assert table.valid.dtype == bool

    @pytest.mark.parametrize(
        "f",
        [magnitude(), square(), shift_mod(4 / 3, lo=0.0, hi=4.0), half_constant()],
        ids=["magnitude", "square", "shift_mod", "half_constant"],
    )
    def test_weights_are_a_loop_over_preimage_terms(self, f):
        def density(x):
            return np.exp(-((np.asarray(x, dtype=float) - 0.3) ** 2))

        # 2-D, and clear of 0, where the square's weight is infinite
        ys = np.linspace(-1.5, 4.5, 60).reshape(6, 10) + 1e-7
        rows = list(f.preimage_terms(ys))
        want = np.zeros((len(rows),) + ys.shape)
        for row, (_, xs, dabs, valid) in zip(want, rows):
            row[valid] = density(xs[valid]) / dabs[valid]
        got = f.preimage_table(ys).weights(density)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


class TestImageWindow:
    @pytest.mark.parametrize(
        "f, ends",
        list(zip(_FOLDED, [[0, inf] * 2, [0, inf] * 2, [-1, 1] * 2, [0, 1] * 4]))
        + [
            (scale(-2.5), [-inf, inf]),
            (magnitude(-5.0, 5.0), [0, 5] * 2),
            (square(-3.0, 3.0), [0, 9] * 2),
        ],
        ids=_FOLDED_IDS + ["scale", "magnitude-finite", "square-finite"],
    )
    def test_full_domain_gives_the_range_hull(self, f, ends):
        # the (low, high) image of each tile, written out; as integers,
        # so that the sign of a zero counts
        ends = np.array(ends, dtype=float)
        y_lo, y_hi, edges = f.image_window([f.domain_lo], [f.domain_hi])
        np.testing.assert_array_equal(edges[0].view(np.int64), ends.view(np.int64))
        hulls = np.array([y_lo[0], y_hi[0], *f.range_hull()])
        want = np.array([ends.min(), ends.max()] * 2)
        np.testing.assert_array_equal(hulls.view(np.int64), want.view(np.int64))

    def test_partial_and_empty_windows(self):
        f = shift_mod(2.0, lo=0.0, hi=4.0)
        y_lo, y_hi, edges = f.image_window([1.0, 5.0, 2.5], [2.5, 6.0, 4.0])
        assert (y_lo[0], y_hi[0]) == (0.0, 2.0)
        assert (y_lo[2], y_hi[2]) == (0.5, 2.0)
        # a window that misses every branch: low end above the high end
        assert y_lo[1] > y_hi[1]
        # one (low, high) pair per branch, NaN where the branch misses
        np.testing.assert_array_equal(
            edges,
            [[1.0, 2.0, 0.0, 0.5], [np.nan] * 4, [np.nan, np.nan, 0.5, 2.0]],
        )

    def test_window_ends_carry_no_negative_zero(self):
        # the fold's left tile ends at -(0.0); a report would print "-0"
        y_lo, _, edges = magnitude(-1.0, 1.0).image_window([-1.0], [1.0])
        assert np.copysign(1.0, np.r_[y_lo, edges[0]]).tolist() == [1.0] * 5

    def test_a_bounded_branch_on_the_line_gives_its_limits(self):
        def der(x):
            return 1 / (1 + x * x)

        f = PiecewiseFunction((injective_branch(1, -inf, inf, np.arctan, np.tan, der),))
        assert f.range_hull() == (-math.pi / 2, math.pi / 2)

    def test_a_nan_end_image_is_refused(self):
        # x / (1 + |x|) is inf / inf, NaN, at the ends of the line
        f = PiecewiseFunction(
            (
                injective_branch(
                    1,
                    -inf,
                    inf,
                    lambda x: x / (1 + np.abs(x)),
                    lambda y: y / (1 - np.abs(y)),
                    lambda x: 1 / (1 + np.abs(x)) ** 2,
                ),
            )
        )
        with pytest.raises(BadParameterError, match="NaN"):
            f.range_hull()
        with pytest.raises(BadParameterError, match="NaN"):
            compose(identity(), f)

    def test_a_quantizer_range_is_the_hull_of_its_values(self):
        # image_window skips constant branches; range_hull adds their values
        assert quantizer([0.0, 1.0, 3.0]).range_hull() == (0.5, 2.0)

    def test_image_points_keep_the_domain_only(self):
        f = shift_mod(2.0, lo=0.0, hi=4.0)
        np.testing.assert_array_equal(
            f.image_points([[-1.0, 1.0], [3.0, 4.0]]), [[np.nan, 1.0], [1.0, np.nan]]
        )


class TestTileEdges:
    def test_finite_edges_in_order(self):
        assert magnitude().tile_edges == (0.0,)
        assert identity().tile_edges == ()
        assert shift_mod(2.0, lo=0.0, hi=4.0).tile_edges == (0.0, 2.0, 4.0)
        assert half_constant().tile_edges == (0.0, 1.0, 2.0)


def log_abs_derivative(f, x):
    """log2 |g'(x)| from the derivative of the branch holding x."""
    return math.log2(abs(float(f.branch_at(x).derivative(x))))


class TestLogAbsDerivative:
    def test_magnitude_slope_one(self):
        assert log_abs_derivative(magnitude(), -3.0) == 0.0

    def test_scale_two(self):
        assert log_abs_derivative(scale(2.0), 1.0) == pytest.approx(1.0)

    def test_square_at_four(self):
        # finite-difference oracle for d/dx x^2 at x=4
        h = 1e-6
        slope = ((4 + h) ** 2 - (4 - h) ** 2) / (2 * h)
        expected = math.log2(abs(slope))
        got = log_abs_derivative(square(0.0, np.inf), 4.0)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            log_abs_derivative(magnitude(-1.0, 1.0), 5.0)


class TestValidate:
    """Structural checks made when a function is built."""

    def test_overlap_rejected_at_construction(self):
        with pytest.raises(BadParameterError):
            PiecewiseFunction(
                (_identity_branch(1, 0.0, 1.0), _identity_branch(2, 0.0, 1.0))
            )

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: _identity_branch(1, 1.0, 1.0), "empty domain"),
            (lambda: Branch(1, 0.0, 1.0, "linear"), "unknown branch kind"),
            (
                lambda: Branch(1, 0.0, 1.0, "injective", forward=np.negative),
                "needs forward/inverse/derivative",
            ),
            (lambda: PiecewiseFunction(()), "at least one branch"),
            (
                lambda: PiecewiseFunction((_identity_branch(2, 0.0, 1.0),)),
                "indices must be 1..n in order",
            ),
        ],
        ids=["empty tile", "unknown kind", "missing closures", "no branch", "index"],
    )
    def test_bad_structure_is_refused(self, build, message):
        with pytest.raises(BadParameterError, match=message):
            build()


class TestCompose:
    def test_identity_after_magnitude(self):
        comp = compose(identity(0.0, np.inf), magnitude())
        assert len(comp.branches) == 2
        assert comp.eval(-4.0) == 4.0

    def test_halve_after_magnitude(self):
        comp = compose(scale(0.5, 0.0, np.inf), magnitude())
        assert comp.eval(-4.0) == 2.0

    def test_magnitude_after_shift(self):
        # hand composition: shift 3.5 -> 1.5, magnitude -> 1.5
        shift = shift_mod(2.0, lo=0.0, hi=4.0)
        comp = compose(magnitude(0.0, 2.0), shift)
        x = 3.5
        expected = abs(shift.eval(x))
        assert comp.eval(x) == pytest.approx(expected, abs=1e-12)
        assert expected == 1.5

    def test_range_mismatch(self):
        with pytest.raises(RangeMismatchError):
            compose(identity(0.0, 1.0), scale(5.0, 0.0, 1.0))

    def test_range_mismatch_at_an_infinite_outer_end(self):
        # the inner range is (-inf, 0]; x**2 on [0, inf) takes none of it
        with pytest.raises(RangeMismatchError, match=r"\[-inf, 0\.0\]"):
            compose(square(0.0, inf), compose(scale(-2.0), magnitude()))

    def test_constant_refused(self):
        with pytest.raises(ConstantBranchError):
            compose(identity(), quantizer([0.0, 1.0]))

    def test_refinement_splits_at_outer_edges(self):
        # inner identity on [0,4) against outer with edge at 2
        comp = compose(shift_mod(2.0, lo=0.0, hi=4.0), identity(0.0, 4.0))
        assert len(comp.branches) == 2
        assert comp.eval(3.0) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "outer, inner, want",
        [
            (
                shift_mod(0.5, lo=0.0, hi=2.0),
                magnitude(-2.0, 2.0),
                [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0],
            ),
            # the preimage of the edge 0 under -1.5x is -0.0
            (magnitude(), scale(-1.5), [-inf, -0.0, inf]),
        ],
        ids=["shift_mod-after-magnitude", "magnitude-after-scale"],
    )
    def test_cuts_keep_their_bits(self, outer, inner, want):
        got = compose(outer, inner)._edges
        np.testing.assert_array_equal(
            got.view(np.int64), np.array(want).view(np.int64)
        )

    def test_chain_rule_property(self):
        rng = make_rng(5)
        shift = shift_mod(2.0, lo=0.0, hi=4.0)
        mag = magnitude(0.0, 2.0)
        comp = compose(mag, shift)
        xs = rng.uniform(0.0, 4.0, 1000)
        for x in xs:
            lhs = log_abs_derivative(comp, x)
            rhs = log_abs_derivative(shift, x) + log_abs_derivative(mag, shift.eval(x))
            assert abs(lhs - rhs) <= 1e-10

    def test_chain_rule_with_scales(self):
        rng = make_rng(6)
        inner = scale(-1.5)
        outer = magnitude()
        comp = compose(outer, inner)
        for x in rng.normal(0.0, 2.0, 1000):
            lhs = log_abs_derivative(comp, x)
            rhs = log_abs_derivative(inner, x)
            rhs += log_abs_derivative(outer, inner.eval(x))
            assert abs(lhs - rhs) <= 1e-10


class TestInverseRoundTrip:
    @pytest.mark.parametrize(
        "f,lo,hi",
        [
            (magnitude(-5.0, 5.0), -5.0, 5.0),
            (square(-3.0, 3.0), -3.0, 3.0),
            (scale(-2.5, -4.0, 4.0), -4.0, 4.0),
            (shift_mod(2.0, lo=0.0, hi=4.0), 0.0, 4.0),
        ],
    )
    def test_thousand_samples(self, f, lo, hi):
        rng = make_rng(3)
        xs = rng.uniform(lo, hi, 1000)
        for b in f.branches:
            sel = xs[(xs >= b.domain_lo) & (xs < b.domain_hi)]
            if sel.size == 0:
                continue
            back = np.asarray(b.inverse(b.forward(sel)), dtype=float)
            assert np.all(np.abs(back - sel) <= 1e-10 * np.maximum(1.0, np.abs(sel)))


def constant_mass(f, lo, hi, window):
    """The constant mass of f under the uniform density on [lo, hi),
    integrated over window; its normalization is left to that check."""
    proc = StationaryProcess(
        marginal_pdf=uniform_pdf(lo, hi),
        marginal_cdf=uniform_cdf(lo, hi),
        path_sampler=None,
        kernel=None,
        support=window,
        quad_support=window,
    )
    return relative_loss_rate_constant_pieces(f, proc)


class TestConstantMass:
    def test_quantizer_everything(self):
        q = quantizer([0.0, 0.5, 1.0])
        assert constant_mass(q, 0.0, 1.0, (0.0, 1.0)) == 1.0

    def test_magnitude_nothing(self):
        assert constant_mass(magnitude(-1.0, 1.0), -1.0, 1.0, (-1.0, 1.0)) == 0.0

    def test_half_constant(self):
        # direct measure oracle: uniform mass of [0,1) inside [0,2) is 1/2
        got = constant_mass(half_constant(), 0.0, 2.0, (0.0, 2.0))
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            constant_mass(half_constant(), 0.0, 4.0, (0.0, 2.0))

    def test_in_unit_interval(self):
        got = constant_mass(half_constant(), 0.75, 1.75, (0.75, 1.75))
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(0.25, abs=1e-9)

    def test_zero_when_constant_piece_carries_no_mass(self):
        got = constant_mass(half_constant(), 1.0, 2.0, (1.0, 2.0))
        assert got == 0.0


class TestBuilders:
    def test_shift_mod_bad_period(self):
        with pytest.raises(BadParameterError):
            shift_mod(3.0, lo=0.0, hi=4.0)

    def test_shift_mod_period_too_small_to_count(self):
        # (hi - lo) / period overflows to inf
        with pytest.raises(BadParameterError, match="periods"):
            shift_mod(1e-320, lo=-1.0, hi=1.0)

    def test_quantizer_bad_edges(self):
        with pytest.raises(BadParameterError):
            quantizer([1.0, 1.0])

    def test_scale_zero(self):
        with pytest.raises(BadParameterError):
            scale(0.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_scale_not_finite(self, k):
        with pytest.raises(BadParameterError):
            scale(k)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: identity(lo=math.nan),
            lambda: magnitude(lo=math.nan),
            lambda: scale(2.0, math.nan, 1.0),
            lambda: square(math.nan, 1.0),
            lambda: quantizer([0.0, math.nan]),
            lambda: shift_mod(1.0, offset=math.nan, lo=0.0, hi=2.0),
            lambda: shift_mod(1.0, offset=math.inf, lo=0.0, hi=2.0),
        ],
        ids=["identity", "magnitude", "scale", "square", "quantizer"]
        + ["nan offset", "inf offset"],
    )
    def test_refuses_a_nan_tile_end_or_a_non_finite_offset(self, build):
        with pytest.raises(BadParameterError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: quantizer([0.0, math.nan]),
            lambda: magnitude(math.nan, 1.0),
            lambda: shift_mod(math.nan, lo=0.0, hi=2.0),
        ],
        ids=["quantizer", "magnitude", "shift_mod period"],
    )
    def test_a_nan_argument_is_named_in_the_refusal(self, build):
        with pytest.raises(BadParameterError, match=r"is NaN|got nan"):
            build()

    def test_shift_mod_needs_an_upper_end(self):
        with pytest.raises(BadParameterError, match="upper bound"):
            shift_mod(1.0, lo=0.0)

    def test_square_on_the_negative_half_line_inverts_to_it(self):
        f = square(-3.0, 0.0)
        assert len(f.branches) == 1
        assert [p.x for p in f.preimage(4.0)] == [-2.0]

    def test_square_splits_at_zero(self):
        f = square(-2.0, 2.0)
        assert len(f.branches) == 2
        assert f.branch_index(-1.0) == 1
        assert f.eval(-1.5) == pytest.approx(2.25)

    def test_magnitude_positive_domain_single_branch(self):
        assert len(magnitude(0.0, 5.0).branches) == 1

    def test_magnitude_keeps_the_bits_of_its_own_closures(self):
        # the branches magnitude wrote out before it took them from
        # scale(-1.0) and identity(): -x on the left, x + 0.0 on the right
        def neg(x):
            return -x, -x, np.full_like(x, -1.0)

        def pos(x):
            return x + 0.0, x + 0.0, np.ones_like(x)

        cases = {
            (-inf, inf): [(1, -inf, 0.0, neg), (2, 0.0, inf, pos)],
            (-3.0, 0.0): [(1, -3.0, 0.0, neg)],
            (0.0, 2.0): [(1, 0.0, 2.0, pos)],
        }
        tiny = np.nextafter(0.0, 1.0)
        xs = np.array(
            [-inf, -1e308, -2.5, -1e-310, -tiny, -0.0, 0.0, tiny, 1e-310, 7.0, inf]
        )
        for (lo, hi), want in cases.items():
            f = magnitude(lo, hi)
            assert len(f.branches) == len(want)
            for b, (index, d_lo, d_hi, closures) in zip(f.branches, want):
                assert b.index == index
                ends = np.array([b.domain_lo, b.domain_hi])
                # as integers, so that the sign of a zero counts
                want_ends = np.array([d_lo, d_hi])
                np.testing.assert_array_equal(
                    ends.view(np.int64), want_ends.view(np.int64)
                )
                for got, ref in zip((b.forward, b.inverse, b.derivative), closures(xs)):
                    np.testing.assert_array_equal(
                        np.asarray(got(xs), dtype=float).view(np.int64),
                        ref.view(np.int64),
                    )
