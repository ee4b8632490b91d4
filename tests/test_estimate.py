"""Quadrature and estimator primitives against independent oracles."""

import math

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
    quad,
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
    expected_log_abs_derivative,
    expected_log_abs_derivative_mc,
    marginal_entropy_quad,
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


class TestBranchIntegrals:
    def test_each_tile_cut_to_the_window(self):
        f = shift_mod(1.0, lo=0.0, hi=3.0)
        got = branch_integrals(f, lambda x, b: b.index * np.ones_like(x), 0.5, 2.25)
        np.testing.assert_allclose(got, [0.5, 2.0, 0.75], atol=1e-14)

    def test_other_kinds_and_outside_tiles_give_zero(self):
        # constant on the left half, |x| on the right
        f = PiecewiseFunction(
            (constant_branch(1, -10.0, 0.0, 0.0), magnitude(-10.0, 10.0).branches[1])
        )
        got = branch_integrals(
            f, lambda x, b: gauss_pdf(x), -10.0, 10.0, kind="constant"
        )
        assert got[1] == 0.0
        assert got[0] == pytest.approx(0.5, abs=1e-12)
        assert branch_integrals(f, lambda x, b: gauss_pdf(x), 1.0, 2.0)[0] == 0.0


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
