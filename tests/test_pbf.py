"""Branch-wise evaluation, inversion, differentiation, composition."""

import math
import tracemalloc

import numpy as np
import pytest

from inforate import (
    PiecewiseFunction,
    compose,
    constant_branch,
    constant_mass,
    identity,
    injective_branch,
    magnitude,
    quantizer,
    scale,
    shift_mod,
    square,
    validate,
)
from inforate.errors import (
    BadParameterError,
    ConstantBranchError,
    NotNormalizedError,
    OutOfDomainError,
    RangeMismatchError,
)
from inforate._rng import make_rng


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


def half_constant():
    """Constant 0 on [0,1), identity on [1,2)."""
    return PiecewiseFunction(
        (constant_branch(1, 0.0, 1.0, 0.0), _identity_branch(2, 1.0, 2.0))
    )


class TestEval:
    def test_magnitude(self):
        assert magnitude().eval(-3.0) == 3.0

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
        got = f.preimage_sum(density, ys)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_outside_the_range_is_zero(self):
        got = magnitude().preimage_sum(lambda x: np.ones_like(x), [-2.0, -0.5])
        assert got.tolist() == [0.0, 0.0]


class TestPreimageTable:
    def test_no_injective_branch_gives_no_rows(self):
        f = quantizer([0.0, 1.0, 2.0])
        table = f.preimage_table(np.linspace(0.0, 2.0, 12).reshape(3, 4))
        for part in (table.x, table.dabs, table.valid):
            assert part.shape == (0, 3, 4)
        assert table.valid.dtype == bool
        assert validate(f).ok

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
        got = f.preimage_weights(density, ys)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


class TestImageWindow:
    @pytest.mark.parametrize(
        "f",
        _FOLDED + [scale(-2.5), magnitude(-5.0, 5.0), square(-3.0, 3.0)],
        ids=_FOLDED_IDS + ["scale", "magnitude-finite", "square-finite"],
    )
    def test_full_domain_gives_the_range_hull(self, f):
        y_lo, y_hi, edges = f.image_window([f.domain_lo], [f.domain_hi])
        assert (y_lo[0], y_hi[0]) == f.range_hull()
        assert edges[0].tolist() == [
            v for b in f.branches for v in (b.range_lo, b.range_hi)
        ]

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


class TestLogAbsDerivative:
    def test_magnitude_slope_one(self):
        assert magnitude().log_abs_derivative(-3.0) == 0.0

    def test_scale_two(self):
        assert scale(2.0).log_abs_derivative(1.0) == pytest.approx(1.0)

    def test_square_at_four(self):
        # finite-difference oracle for d/dx x^2 at x=4
        h = 1e-6
        slope = ((4 + h) ** 2 - (4 - h) ** 2) / (2 * h)
        expected = math.log2(abs(slope))
        got = square(0.0, np.inf).log_abs_derivative(4.0)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_constant_branch_refused(self):
        with pytest.raises(ConstantBranchError):
            half_constant().log_abs_derivative(0.5)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            magnitude(-1.0, 1.0).log_abs_derivative(5.0)


class TestValidate:
    def test_magnitude_valid(self):
        assert validate(magnitude()).ok

    def test_overlap_reported(self):
        bad = PiecewiseFunction(
            (_identity_branch(1, 0.0, 1.0), _identity_branch(2, 0.0, 1.0)),
            validate_tiling=False,
        )
        rep = validate(bad)
        assert rep.overlaps and not rep.ok

    def test_overlap_rejected_at_construction(self):
        with pytest.raises(BadParameterError):
            PiecewiseFunction(
                (_identity_branch(1, 0.0, 1.0), _identity_branch(2, 0.0, 1.0))
            )

    def test_cubic_zero_derivative_flagged(self):
        f = PiecewiseFunction(
            (
                injective_branch(
                    1,
                    -1.0,
                    1.0,
                    lambda x: np.asarray(x, float) ** 3,
                    lambda y: np.cbrt(np.asarray(y, float)),
                    lambda x: 3.0 * np.asarray(x, float) ** 2,
                ),
            )
        )
        rep = validate(f)
        assert any(abs(x) < 1e-3 for _, x in rep.zero_derivative)

    def test_range_gap_reported(self):
        gapped = PiecewiseFunction(
            (
                _identity_branch(1, 0.0, 1.0),
                injective_branch(
                    2,
                    1.0,
                    2.0,
                    lambda x: np.asarray(x, float) + 5.0,
                    lambda y: np.asarray(y, float) - 5.0,
                    lambda x: np.ones_like(np.asarray(x, float)),
                ),
            )
        )
        assert validate(gapped).range_gaps


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

    def test_constant_refused(self):
        with pytest.raises(ConstantBranchError):
            compose(identity(), quantizer([0.0, 1.0]))

    def test_refinement_splits_at_outer_edges(self):
        # inner identity on [0,4) against outer with edge at 2
        comp = compose(shift_mod(2.0, lo=0.0, hi=4.0), identity(0.0, 4.0))
        assert len(comp.branches) == 2
        assert comp.eval(3.0) == pytest.approx(1.0)

    def test_chain_rule_property(self):
        rng = make_rng(5)
        shift = shift_mod(2.0, lo=0.0, hi=4.0)
        mag = magnitude(0.0, 2.0)
        comp = compose(mag, shift)
        xs = rng.uniform(0.0, 4.0, 1000)
        for x in xs:
            lhs = comp.log_abs_derivative(x)
            rhs = shift.log_abs_derivative(x) + mag.log_abs_derivative(shift.eval(x))
            assert abs(lhs - rhs) <= 1e-10

    def test_chain_rule_with_scales(self):
        rng = make_rng(6)
        inner = scale(-1.5)
        outer = magnitude()
        comp = compose(outer, inner)
        for x in rng.normal(0.0, 2.0, 1000):
            lhs = comp.log_abs_derivative(x)
            rhs = inner.log_abs_derivative(x) + outer.log_abs_derivative(
                inner.eval(x)
            )
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


class TestConstantMass:
    def test_quantizer_everything(self):
        q = quantizer([0.0, 0.5, 1.0])
        assert constant_mass(q, uniform_pdf(0.0, 1.0), (0.0, 1.0)) == 1.0

    def test_magnitude_nothing(self):
        assert constant_mass(magnitude(-1.0, 1.0), uniform_pdf(-1.0, 1.0), (-1.0, 1.0)) == 0.0

    def test_half_constant(self):
        # direct measure oracle: uniform mass of [0,1) inside [0,2) is 1/2
        got = constant_mass(half_constant(), uniform_pdf(0.0, 2.0), (0.0, 2.0))
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            constant_mass(half_constant(), uniform_pdf(0.0, 4.0), (0.0, 2.0))

    def test_in_unit_interval(self):
        got = constant_mass(half_constant(), uniform_pdf(0.5, 2.5), (0.5, 2.5))
        assert 0.0 <= got <= 1.0
        assert got == pytest.approx(0.25, abs=1e-9)

    def test_zero_when_constant_piece_carries_no_mass(self):
        got = constant_mass(half_constant(), uniform_pdf(1.0, 2.0), (1.0, 2.0))
        assert got == 0.0


class TestBuilders:
    def test_shift_mod_bad_period(self):
        with pytest.raises(BadParameterError):
            shift_mod(3.0, lo=0.0, hi=4.0)

    def test_quantizer_bad_edges(self):
        with pytest.raises(BadParameterError):
            quantizer([1.0, 1.0])

    def test_scale_zero(self):
        with pytest.raises(BadParameterError):
            scale(0.0)

    def test_square_splits_at_zero(self):
        f = square(-2.0, 2.0)
        assert len(f.branches) == 2
        assert f.branch_index(-1.0) == 1
        assert f.eval(-1.5) == pytest.approx(2.25)

    def test_magnitude_positive_domain_single_branch(self):
        assert len(magnitude(0.0, 5.0).branches) == 1
