"""Quadrature and estimator primitives against independent oracles."""

import math
import re

import numpy as np
import pytest

from inforate import (
    PiecewiseFunction,
    QuadratureConfig,
    constant_branch,
    diff_entropy_hist,
    magnitude,
    make_ar1,
    make_cyclic_walk,
    make_iid_gaussian,
    make_iid_uniform,
    make_tightness_example,
    markov_block_entropy_W,
    mutual_information_hist,
    pushforward_process,
    quad,
    quad_batch,
    sample_path,
    scale,
    shift_mod,
    square,
)
from inforate.errors import (
    BadParameterError,
    ConstantBranchError,
    NoConvergenceError,
    TooFewSamplesError,
)
from inforate.estimate import (
    branch_integrals,
    cond_entropy_W_given_X,
    cond_entropy_output_given_input,
    cond_entropy_rate_quad,
    entropy_bits,
    expected_log_abs_derivative,
    expected_log_abs_derivative_mc,
    marginal_entropy_quad,
    xlog2x,
)
from inforate._rng import make_rng


def gauss_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


def cyclic_hw2x1(M, a):
    """Closed form for H(W2|X1) of the wrapped walk split at zero."""
    if M > 2 * a:
        return a / (M * math.log(2.0))
    return (M - a) / (M * math.log(2.0)) + math.log2(2.0 * a / M)


class TestQuad:
    def test_constant(self):
        assert quad(lambda x: np.ones_like(x), 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_gaussian_normalization(self):
        assert quad(gauss_pdf, -10.0, 10.0) == pytest.approx(1.0, abs=1e-9)

    def test_half_gaussian_first_moment(self):
        # oracle: E|X| = sqrt(2/pi) for standard normal, so the one-sided
        # integral of x*phi(x) is half of that
        oracle = 0.5 * math.sqrt(2.0 / math.pi)
        got = quad(lambda x: x * gauss_pdf(x), 0.0, 10.0)
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_split_points_make_steps_exact(self):
        f = lambda x: np.where(x < 0.3, 1.0, 2.0)
        got = quad(f, 0.0, 1.0, points=(0.3,))
        assert got == pytest.approx(0.3 + 1.4, abs=1e-12)

    def test_no_convergence(self):
        cfg = QuadratureConfig(abs_tol=1e-13, max_depth=3)
        with pytest.raises(NoConvergenceError):
            quad(lambda x: np.abs(np.sin(50.0 / (np.abs(x) + 1e-3))), 0.0, 1.0, cfg)

    def test_bad_bounds(self):
        with pytest.raises(BadParameterError):
            quad(lambda x: x, 1.0, 0.0)
        with pytest.raises(BadParameterError):
            quad(lambda x: x, 0.0, np.inf)

    def test_density_normalization_all_builtins(self):
        procs = [
            make_ar1(0.5, 1.0),
            make_cyclic_walk(1.0, 0.4),
            make_tightness_example(),
            make_iid_gaussian(1.0),
            make_iid_uniform(0.0, 4.0),
        ]
        for p in procs:
            lo, hi = p.quad_support
            total = quad(p.marginal_pdf, lo, hi, points=p.marginal_split_points)
            assert abs(total - 1.0) <= 1e-6


class TestQuadBatch:
    def test_columns_keep_their_own_windows_and_split_points(self):
        got = quad_batch(
            lambda x, col: np.where(x < 0.3, 1.0, 2.0) * (col + 1),
            [0.0, 0.0, 0.5, 1.0],
            [1.0, 1.0, 2.0, 1.0],
            points=[(0.3, np.nan), (0.3, 5.0), (np.nan, np.nan), (np.nan, np.nan)],
        )
        np.testing.assert_allclose(got, [1.7, 3.4, 9.0, 0.0], atol=1e-12)

    def test_stalled_column_names_its_panel(self):
        # column 0 converges at once; column 1 oscillates without end on [2, 3]
        def f(x, col):
            wild = np.abs(np.sin(50.0 / (np.abs(x - 2.0) + 1e-3)))
            return np.where(col == 0, gauss_pdf(x), wild)

        cfg = QuadratureConfig(abs_tol=1e-13, max_depth=3)
        with pytest.raises(NoConvergenceError) as info:
            quad_batch(f, [-1.0, 2.0], [1.0, 3.0], cfg)
        a, b = map(float, re.search(r"\[(.+), (.+)\]", str(info.value)).groups())
        assert 2.0 <= a < b <= 3.0
        assert 0.0 < info.value.partial < 1.0

    def test_panel_budget_covers_the_whole_batch(self):
        # one |x - c| bisects one panel a step; thirty of them in one
        # batch evaluate 60 new panels a step, over a budget of 40
        centres = np.linspace(0.1, 0.9, 30)
        cfg = QuadratureConfig(abs_tol=1e-12, max_intervals=40)
        alone = quad_batch(lambda x, col: np.abs(x - 0.3), 0.0, 1.0, cfg)
        assert alone[0] == pytest.approx(0.29, abs=1e-12)
        with pytest.raises(NoConvergenceError, match="would pass 40 panels"):
            quad_batch(lambda x, col: np.abs(x - centres[col]), 0.0, np.ones(30), cfg)
        with pytest.raises(NoConvergenceError, match="starts with 120 panels"):
            quad_batch(
                lambda x, col: x, np.zeros(30), np.ones(30), cfg,
                np.tile([0.25, 0.5, 0.75], (30, 1)),
            )

    def test_walk_spike_is_refused_before_it_outgrows_memory(self):
        # at a/M = 1e-8 the inner y-integrals are 2e-8-wide spikes: each
        # outer step hands hundreds of thousands of panels to one batch
        with pytest.raises(NoConvergenceError, match="panels"):
            cond_entropy_output_given_input(
                magnitude(-1.0, 1.0), make_cyclic_walk(1.0, 1e-8)
            )

    def test_one_row_of_split_points_per_integral(self):
        with pytest.raises(BadParameterError):
            quad_batch(lambda x, col: x, [0.0, 0.0], [1.0, 1.0], points=[(0.5,)])


class TestBranchIntegrals:
    def test_each_tile_cut_to_the_window(self):
        f = shift_mod(1.0, lo=0.0, hi=3.0)
        got = branch_integrals(
            f, lambda x, col, b: b.index * np.ones_like(x), [0.5, 1.0], [2.25, 1.5]
        )
        np.testing.assert_allclose(got, [[0.5, 2.0, 0.75], [0.0, 1.0, 0.0]], atol=1e-14)

    def test_other_kinds_and_outside_tiles_give_zero(self):
        # constant on the left half, |x| on the right
        f = PiecewiseFunction(
            (constant_branch(1, -10.0, 0.0, 0.0), magnitude(-10.0, 10.0).branches[1])
        )
        got = branch_integrals(
            f, lambda x, col, b: gauss_pdf(x), -10.0, 10.0, kind="constant"
        )[0]
        assert got[1] == 0.0
        assert got[0] == pytest.approx(0.5, abs=1e-12)
        got = branch_integrals(f, lambda x, col, b: gauss_pdf(x), 1.0, 2.0)
        assert got[0, 0] == 0.0


class TestDiffEntropyHist:
    def test_gaussian(self):
        rng = make_rng(21)
        h = diff_entropy_hist(rng.normal(0.0, 1.0, 10**6))
        assert h == pytest.approx(0.5 * math.log2(2 * math.pi * math.e), abs=0.02)

    def test_unit_uniform(self):
        rng = make_rng(22)
        h = diff_entropy_hist(rng.uniform(0.0, 1.0, 10**6))
        assert h == pytest.approx(0.0, abs=0.02)

    def test_uniform_width_four(self):
        rng = make_rng(23)
        h = diff_entropy_hist(rng.uniform(0.0, 4.0, 10**6))
        assert h == pytest.approx(2.0, abs=0.02)

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            diff_entropy_hist(np.zeros(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_samples(self, bad):
        x = make_rng(24).normal(0.0, 1.0, 5000)
        x[1234] = bad
        with pytest.raises(BadParameterError, match="finite"):
            diff_entropy_hist(x)

    def test_refuses_overflowing_range(self):
        # finite samples whose max - min exceeds the largest float
        x = 1.7e308 * make_rng(25).uniform(-1.0, 1.0, 5000)
        with pytest.raises(BadParameterError, match="overflows"):
            diff_entropy_hist(x)


class TestMutualInformationHist:
    def test_independent_pairs(self):
        rng = make_rng(31)
        mi = mutual_information_hist(
            rng.normal(0, 1, 10**6), rng.normal(0, 1, 10**6)
        )
        assert -0.005 <= mi <= 0.02

    def test_ar1_pairs(self):
        a = 0.9
        x = sample_path(make_ar1(a, 1.0), 10**6, seed=32).values
        mi = mutual_information_hist(x[:-1], x[1:])
        assert mi == pytest.approx(-0.5 * math.log2(1 - a * a), abs=0.03)

    def test_nonnegative_on_magnitude_pairs(self):
        rng = make_rng(33)
        x = rng.normal(0, 1, 10**5)
        mi = mutual_information_hist(x, np.abs(x))
        assert mi >= -0.005

    def test_data_processing_ordering(self):
        # the chain Y2 -- X1 -- Y1 forces I(X1;Y2) >= I(Y1;Y2); plug-in
        # bias stays inside the 0.02 slack at the standard sample size
        cases = [
            (make_ar1(0.7, 1.0), magnitude()),
            (make_cyclic_walk(1.0, 0.4), magnitude(-1.0, 1.0)),
            (make_tightness_example(), shift_mod(2.0, lo=0.0, hi=4.0)),
        ]
        for proc, f in cases:
            x = sample_path(proc, 10**6, seed=34).values
            y = f.eval_array(x)
            mi_xy = mutual_information_hist(x[:-1], y[1:], 100)
            mi_yy = mutual_information_hist(y[:-1], y[1:], 100)
            assert mi_xy >= mi_yy - 0.02

    def test_length_mismatch(self):
        with pytest.raises(BadParameterError):
            mutual_information_hist(np.zeros(2000), np.zeros(2001))

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            mutual_information_hist(np.zeros(10), np.zeros(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_samples(self, bad):
        # one bad sample used to give a small, plausible MI with no warning
        x = make_rng(35).normal(0.0, 1.0, 5000)
        y = np.abs(x)
        x_bad, y_bad = x.copy(), y.copy()
        x_bad[2500], y_bad[0] = bad, bad
        for xs, ys in ((x_bad, y), (x, y_bad)):
            with pytest.raises(BadParameterError, match="finite"):
                mutual_information_hist(xs, ys)

    @pytest.mark.parametrize("bins", [0, -2, 2.5, True, "10"])
    def test_refuses_bins_that_are_not_a_positive_int(self, bins):
        x = make_rng(36).normal(0.0, 1.0, 5000)
        with pytest.raises(BadParameterError, match="bins"):
            mutual_information_hist(x, np.abs(x), bins)
        with pytest.raises(BadParameterError, match="bins"):
            diff_entropy_hist(x, bins)

    def test_takes_numpy_integer_bins(self):
        x = make_rng(37).normal(0.0, 1.0, 5000)
        y = np.abs(x)
        assert mutual_information_hist(x, y, np.int64(20)) == (
            mutual_information_hist(x, y, 20)
        )

    def test_refuses_samples_whose_quantile_edges_overflow(self):
        # np.quantile between -1e308 and 1e308 gives NaN and inf edges
        x = np.repeat([-1e308, 1e308], 1000)
        with pytest.raises(BadParameterError, match="overflow"):
            mutual_information_hist(x, x, 10)


class TestCondEntropyWGivenX:
    def test_cyclic_narrow_regime(self):
        for ratio in (0.1, 0.25, 0.45):
            p = make_cyclic_walk(1.0, ratio)
            got = cond_entropy_W_given_X(magnitude(-1.0, 1.0), p)
            assert got == pytest.approx(cyclic_hw2x1(1.0, ratio), abs=1e-6)

    def test_cyclic_wide_regime(self):
        for ratio in (0.55, 0.8, 1.0):
            p = make_cyclic_walk(1.0, ratio)
            got = cond_entropy_W_given_X(magnitude(-1.0, 1.0), p)
            assert got == pytest.approx(cyclic_hw2x1(1.0, ratio), abs=1e-6)

    def test_tightness_exact_one(self):
        p = make_tightness_example()
        got = cond_entropy_W_given_X(shift_mod(2.0, lo=0.0, hi=4.0), p)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_bounded_by_log_branch_count(self):
        cases = [
            (make_ar1(0.4, 1.0), magnitude()),
            (make_cyclic_walk(1.0, 0.7), magnitude(-1.0, 1.0)),
            (make_tightness_example(), shift_mod(1.0, lo=0.0, hi=4.0)),
        ]
        for proc, f in cases:
            got = cond_entropy_W_given_X(f, proc)
            assert got <= math.log2(len(f.branches)) + 1e-9


class TestExpectedLogAbsDerivative:
    def test_magnitude_is_zero(self):
        for proc in (make_iid_gaussian(1.0), make_cyclic_walk(1.0, 0.5)):
            f = magnitude(*proc.support)
            assert expected_log_abs_derivative(f, proc) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_scale_two_is_one_bit(self):
        assert expected_log_abs_derivative(
            scale(2.0), make_iid_gaussian(1.0)
        ) == pytest.approx(1.0, abs=1e-9)

    def test_square_on_uniform_against_oracles(self):
        # calculus oracle: int_1^2 log2(2x) dx = 3 - 1/ln 2
        oracle = 3.0 - 1.0 / math.log(2.0)
        p = make_iid_uniform(1.0, 2.0)
        f = square(1.0, 2.0)
        got = expected_log_abs_derivative(f, p)
        assert got == pytest.approx(oracle, abs=1e-9)
        # independent Monte Carlo oracle at N = 1e7
        rng = make_rng(44)
        mc = expected_log_abs_derivative_mc(f, rng.uniform(1.0, 2.0, 10**7))
        assert got == pytest.approx(mc, abs=4e-4)

    def test_constant_branch_refused(self):
        from inforate import quantizer

        with pytest.raises(ConstantBranchError):
            expected_log_abs_derivative(
                quantizer([0.0, 1.0]), make_iid_uniform(0.0, 1.0)
            )


class TestBlockEntropy:
    def test_iid_two_branches_one_bit(self):
        p = make_iid_uniform(-1.0, 1.0)
        est = markov_block_entropy_W(
            magnitude(-1.0, 1.0), p, k=3, n_samples=200_000, seed=51
        )
        for level in est.levels:
            assert level == pytest.approx(1.0, abs=0.01)

    def test_tightness_one_bit(self):
        # oracle: the kernel gives Pr(W2|X1) = 1/2 identically, so the
        # index process is an iid fair coin
        p = make_tightness_example()
        est = markov_block_entropy_W(
            shift_mod(2.0, lo=0.0, hi=4.0), p, k=3, n_samples=200_000, seed=52
        )
        assert est.value == pytest.approx(1.0, abs=0.01)

    def test_full_wrap_one_bit(self):
        p = make_cyclic_walk(1.0, 1.0)
        est = markov_block_entropy_W(
            magnitude(-1.0, 1.0), p, k=3, n_samples=200_000, seed=53
        )
        assert est.value == pytest.approx(1.0, abs=0.01)

    def test_monotone_in_order(self):
        p = make_ar1(0.8, 1.0)
        est = markov_block_entropy_W(magnitude(), p, k=5, n_samples=500_000, seed=54)
        for lo_k, hi_k in zip(est.levels[:-1], est.levels[1:]):
            assert hi_k <= lo_k + 0.01

    def test_levels_match_blocks_rebuilt_per_order(self):
        f, p = magnitude(), make_ar1(0.7, 1.0)
        est = markov_block_entropy_W(f, p, k=4, n_samples=100_000, seed=55)
        w = f.branch_index_array(sample_path(p, 100_000, seed=55).values) - 1
        joint = [0.0]
        for width in range(1, 6):
            codes = np.zeros(w.size - width + 1, dtype=np.int64)
            for t in range(width):
                codes = codes * 2 + w[t : w.size - width + 1 + t]
            counts = np.bincount(codes)
            joint.append(entropy_bits(counts[counts > 0] / counts.sum()))
        assert est.levels == tuple(hi - lo for lo, hi in zip(joint, joint[1:]))

    def test_preconditions(self):
        p = make_iid_uniform(-1.0, 1.0)
        with pytest.raises(BadParameterError):
            markov_block_entropy_W(magnitude(-1.0, 1.0), p, k=7)
        with pytest.raises(TooFewSamplesError):
            markov_block_entropy_W(
                magnitude(-1.0, 1.0), p, k=5, n_samples=1000, seed=0
            )


class TestMarginalEntropyQuad:
    def test_gaussian(self):
        got = marginal_entropy_quad(make_iid_gaussian(1.0))
        assert got == pytest.approx(0.5 * math.log2(2 * math.pi * math.e), abs=1e-9)

    def test_uniform_four(self):
        got = marginal_entropy_quad(make_iid_uniform(0.0, 4.0))
        assert got == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# the per-x1 loops that the batched nested quadrature replaced, one quad
# call per inner integral, kept as the reference


def _scalar_outer(process, value, f=None):
    lo, hi = process.quad_support
    points = list(process.marginal_split_points) + list(f.tile_edges if f else ())
    return quad(
        lambda x1s: process.marginal_pdf(x1s) * np.array([value(x) for x in x1s]),
        lo,
        hi,
        points=points,
    )


def _scalar_kernel(process, x1):
    """x2 -> f(x2|x1), the x2 window and the kernel's split points at x1,
    from the kernel's lookups on a one-element array."""
    kern = process.kernel
    x1s = np.array([x1])
    window = kern.quad_range(x1s) if kern.quad_range else process.quad_support
    window = tuple(float(np.ravel(end)[0]) for end in window)
    return (lambda x2: kern.cond_pdf(x2, x1)), window, kern.split_points(x1s)[0]


def scalar_h_x2_given_x1(process):
    lo, hi = process.quad_support

    def value(x1):
        cond, (wlo, whi), splits = _scalar_kernel(process, x1)
        return -quad(
            lambda x2: xlog2x(cond(x2)), max(wlo, lo), min(whi, hi), points=splits
        )

    return _scalar_outer(process, value)


def scalar_h_y2_given_x1(f, process):
    lo, hi = process.quad_support

    def value(x1):
        cond, (wlo, whi), splits = _scalar_kernel(process, x1)
        ylo, yhi, edges = f.image_window(np.array([max(wlo, lo)]), min(whi, hi))
        if not yhi[0] > ylo[0]:
            return 0.0
        return -quad(
            lambda ys: xlog2x(f.preimage_sum(cond, ys)),
            ylo[0],
            yhi[0],
            points=np.concatenate([edges[0], f.image_points(splits)]),
        )

    return _scalar_outer(process, value, f)


def scalar_hw2_given_x1(f, process):
    inner = QuadratureConfig(abs_tol=1e-12)

    def value(x1):
        cond, (wlo, whi), splits = _scalar_kernel(process, x1)
        probs = []
        for b in f.branches:
            a, c = max(b.domain_lo, wlo), min(b.domain_hi, whi)
            probs.append(quad(cond, a, c, inner, points=splits) if c > a else 0.0)
        total = sum(probs)
        return entropy_bits(np.array(probs) / total) if total > 0 else 0.0

    return _scalar_outer(process, value, f)


NESTED_CASES = {
    "ar1+magnitude": lambda: (magnitude(), make_ar1(0.5, 1.0)),
    "walk+magnitude": lambda: (magnitude(-1.0, 1.0), make_cyclic_walk(1.0, 0.35)),
    "tightness": lambda: (shift_mod(2.0, lo=0.0, hi=4.0), make_tightness_example()),
    "ar1+square": lambda: (square(), make_ar1(0.5, 1.0)),
    "pushforward+magnitude": lambda: (
        magnitude(),
        pushforward_process(scale(2.0), make_ar1(0.5, 1.0)),
    ),
}


@pytest.mark.parametrize("case", sorted(NESTED_CASES))
def test_batched_nested_quadrature_matches_the_per_x1_loop(case):
    f, proc = NESTED_CASES[case]()
    assert cond_entropy_rate_quad(proc) == pytest.approx(
        scalar_h_x2_given_x1(proc), abs=1e-9
    )
    assert cond_entropy_output_given_input(f, proc) == pytest.approx(
        scalar_h_y2_given_x1(f, proc), abs=1e-9
    )
    assert cond_entropy_W_given_X(f, proc) == pytest.approx(
        scalar_hw2_given_x1(f, proc), abs=1e-9
    )
