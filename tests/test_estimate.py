"""Quadrature and estimator primitives against independent oracles."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from inforate import (
    PiecewiseFunction,
    QuadratureConfig,
    StationaryProcess,
    compose,
    constant_branch,
    diff_entropy_hist,
    identity,
    injective_branch,
    loss_rv,
    magnitude,
    make_ar1,
    make_cyclic_walk,
    make_iid,
    make_iid_gaussian,
    make_iid_uniform,
    make_tightness_example,
    markov_block_entropy_W,
    mutual_information_hist,
    pushforward_process,
    quad,
    quad_batch,
    quantizer,
    relative_loss_rate_constant_pieces,
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
    DEFAULT_QUAD,
    cond_entropy_W_given_X,
    cond_entropy_X2_given_Y2_X1,
    cond_entropy_input_given_output,
    cond_entropy_output_given_input,
    cond_entropy_rate_quad,
    entropy_bits,
    marginal_entropy_quad,
    xlog2x,
)
from inforate._rng import make_rng
from inforate import estimate
from oracles import branch_integrals, expected_log_abs_derivative


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

    def test_no_convergence(self, monkeypatch):
        monkeypatch.setattr(estimate, "_MAX_DEPTH", 3)
        cfg = QuadratureConfig(abs_tol=1e-13)
        with pytest.raises(NoConvergenceError):
            quad(lambda x: np.abs(np.sin(50.0 / (np.abs(x) + 1e-3))), 0.0, 1.0, cfg)

    def test_bad_bounds(self):
        with pytest.raises(BadParameterError):
            quad(lambda x: x, 1.0, 0.0)
        with pytest.raises(BadParameterError):
            quad(lambda x: x, 0.0, np.inf)

    def test_panels_start_at_the_rules_given_or_are_refused(self):
        # two panels, the second under P63 from the start; a rule outside
        # 1-3 or a count that misses a panel is refused
        assert quad(np.exp, 0.0, 2.0, points=(1.0,), levels=[1, 3]) == pytest.approx(
            math.e**2 - 1.0, abs=1e-12
        )
        for levels in ([1, 4], [0, 1], [1]):
            with pytest.raises(BadParameterError, match="rule 1-3"):
                quad(np.exp, 0.0, 2.0, points=(1.0,), levels=levels)

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


class TestRuleTables:
    # G7 is exact to degree 13 and its Kronrod extension K15 to 22; each
    # Patterson extension of an n-point rule by n + 1 nodes is exact to
    # degree 3n + 1
    @pytest.mark.parametrize(
        "level, degree", [(0, 13), (1, 22), (2, 46), (3, 94)],
        ids=["G7", "GK15", "P31", "P63"],
    )
    def test_degrees_symmetry_and_positive_weights(self, level, degree):
        x, w = estimate._LEVELS[level]
        assert x.size == w.size == 2 ** (level + 3) - 1
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ x**k - exact) <= 1e-15, k
        assert np.all(x == -x[::-1]) and np.all(np.diff(x) > 0) and -1.0 < x[0]
        assert np.all(w == w[::-1]) and np.all(w > 0)

    @pytest.mark.parametrize("level", [1, 2, 3], ids=["GK15", "P31", "P63"])
    def test_each_rule_holds_the_nodes_of_the_one_below_bit_for_bit(self, level):
        # the loop reads a panel's values at the rule below off its
        # odd-indexed nodes, so the new nodes must interlace with the old
        x, _ = estimate._LEVELS[level]
        assert np.array_equal(x[1::2], estimate._LEVELS[level - 1][0])

    def test_k15_is_quadpacks_dqk15(self):
        # xgk, wgk and wg as published in dqk15, from the outermost node in
        xgk = [
            0.991455371120812639206854697526329,
            0.949107912342758524526189684047851,
            0.864864423359769072789712788640926,
            0.741531185599394439863864773280788,
            0.586087235467691130294144838258730,
            0.405845151377397166906606412076961,
            0.207784955007898467600689403773245,
            0.000000000000000000000000000000000,
        ]
        wgk = [
            0.022935322010529224963732008058970,
            0.063092092629978553290700663189204,
            0.104790010322250183839876322541518,
            0.140653259715525918745189590510238,
            0.169004726639267902826583426598550,
            0.190350578064785409913256402421014,
            0.204432940075298892414161999234649,
            0.209482141084727828012999174891714,
        ]
        wg = [
            0.129484966168869693270611432679082,
            0.279705391489276667901467771423780,
            0.381830050505118944950369775488975,
            0.417959183673469387755102040816327,
        ]
        (x, wk), (_, gauss) = estimate._LEVELS[1], estimate._LEVELS[0]
        assert x[:6:-1].tolist() == xgk and (-x[:8]).tolist() == xgk
        assert wk[:8].tolist() == wgk and wk[:6:-1].tolist() == wgk
        assert gauss[:4].tolist() == wg and gauss[:2:-1].tolist() == wg


class TestQuadratureConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("abs_tol", math.inf),
            ("abs_tol", math.nan),
            ("abs_tol", "x"),
            ("abs_tol", True),
        ],
    )
    def test_refuses_a_bad_value(self, field, value):
        with pytest.raises(BadParameterError, match=field):
            QuadratureConfig(**{field: value})

    def test_takes_numpy_values(self):
        assert QuadratureConfig(np.float64(1e-6)).abs_tol == 1e-6


class TestQuadBatch:
    def test_columns_keep_their_own_windows_and_split_points(self):
        got = quad_batch(
            lambda x, col: np.where(x < 0.3, 1.0, 2.0) * (col + 1),
            [0.0, 0.0, 0.5, 1.0],
            [1.0, 1.0, 2.0, 1.0],
            points=[(0.3, np.nan), (0.3, 5.0), (np.nan, np.nan), (np.nan, np.nan)],
        )
        np.testing.assert_allclose(got, [1.7, 3.4, 9.0, 0.0], atol=1e-12)

    def test_stalled_column_names_its_panel(self, monkeypatch):
        # column 0 converges at once; column 1 oscillates without end on [2, 3]
        def f(x, col):
            wild = np.abs(np.sin(50.0 / (np.abs(x - 2.0) + 1e-3)))
            return np.where(col == 0, gauss_pdf(x), wild)

        monkeypatch.setattr(estimate, "_MAX_DEPTH", 3)
        cfg = QuadratureConfig(abs_tol=1e-13)
        with pytest.raises(NoConvergenceError) as info:
            quad_batch(f, [-1.0, 2.0], [1.0, 3.0], cfg)
        a, b = map(float, re.search(r"\[(.+), (.+)\]", str(info.value)).groups())
        assert 2.0 <= a < b <= 3.0
        assert 0.0 < info.value.partial < 1.0

    def test_panel_budget_covers_the_whole_batch(self, monkeypatch):
        # one |x - c| refines at least one panel a step; thirty of them in
        # one batch raise 30 panels from 31 to 63 nodes, 960 new nodes,
        # over a budget of 40 panels of 15 nodes, 600 nodes
        centres = np.linspace(0.1, 0.9, 30)
        monkeypatch.setattr(estimate, "_MAX_NODES", 40 * 15)
        cfg = QuadratureConfig(abs_tol=1e-12)
        alone = quad_batch(lambda x, col: np.abs(x - 0.3), 0.0, 1.0, cfg)
        assert alone[0] == pytest.approx(0.29, abs=1e-12)
        with pytest.raises(NoConvergenceError, match="would pass 600 nodes"):
            quad_batch(lambda x, col: np.abs(x - centres[col]), 0.0, np.ones(30), cfg)
        with pytest.raises(NoConvergenceError, match=r"starts with 120 panels \(1800"):
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

    def test_a_minus_inf_integral_is_refused(self):
        # x^2 + 5: where a node's y rounds to the critical image 5, its
        # preimage is the tile end where g' = 0 and the log term is -inf;
        # the float warnings on the way are not what this test checks
        f = compose(shift_mod(4.0, offset=5.0, lo=0.0, hi=4.0), square(-1.0, 1.0))
        with np.errstate(all="ignore"):
            with pytest.raises(NoConvergenceError, match=r"\[5\.0, 6\.0\] gave -inf"):
                cond_entropy_output_given_input(f, make_cyclic_walk(1.0, 0.35))

    def test_a_stalled_graded_y_window_is_named_in_y(self):
        # x^2 + 5 at 1e-11: the graded y window [5, 6] runs in place, so
        # the panel it stalls on is a panel of y
        f = compose(shift_mod(4.0, offset=5.0, lo=0.0, hi=4.0), square(-1.0, 1.0))
        with np.errstate(all="ignore"):
            with pytest.raises(NoConvergenceError, match="stalled on") as info:
                cond_entropy_X2_given_Y2_X1(
                    f, make_cyclic_walk(1.0, 0.35), QuadratureConfig(abs_tol=1e-11)
                )
        panel = re.search(r"stalled on \[(\S+), (\S+)\]", str(info.value))
        a, b = map(float, panel.groups())
        assert 5.0 <= a < b <= 6.0

    def test_a_nan_integral_is_refused(self):
        def pdf(x):
            x = np.asarray(x, dtype=float)
            return np.where((x > 0.5) & (x < 1.0), np.nan, 1.0)

        def cdf(x):
            return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

        def sampler(rng, n):
            return rng.uniform(0.0, 1.0, n)

        # abs(nan - 1.0) > 1e-6 is False: the normalization check let it by
        with pytest.raises(NoConvergenceError, match=r"\[0.0, 1.0\] gave nan"):
            make_iid(pdf, cdf, sampler, (0.0, 1.0))
        proc = StationaryProcess(
            marginal_pdf=pdf,
            marginal_cdf=cdf,
            path_sampler=sampler,
            kernel=None,
            support=(0.0, 1.0),
            quad_support=(0.0, 1.0),
        )
        with pytest.raises(NoConvergenceError, match="gave nan"):
            relative_loss_rate_constant_pieces(quantizer([0.0, 0.5, 1.0]), proc)

    def test_a_nan_component_is_refused_and_its_window_named(self):
        def f(x, col):
            return np.array([np.ones_like(x), np.where(col == 1, np.nan, x)])

        # component 1 of integral 1 is NaN; the message names [2, 3]
        with pytest.raises(NoConvergenceError, match=r"\[2.0, 3.0\] gave \[ *1\. +nan"):
            quad_batch(f, [0.0, 2.0], [1.0, 3.0])

    def test_a_stalled_integral_keeps_a_partial_sum_per_component(self, monkeypatch):
        def wild(x):
            return np.abs(np.sin(50.0 / (np.abs(x - 2.0) + 1e-3)))

        monkeypatch.setattr(estimate, "_MAX_DEPTH", 3)
        cfg = QuadratureConfig(abs_tol=1e-13)
        partials = []
        for f in (
            lambda x, col: wild(x),
            lambda x, col: np.array([wild(x), 2.0 * wild(x)]),
        ):
            with pytest.raises(NoConvergenceError) as info:
                quad_batch(f, 2.0, 3.0, cfg)
            partials.append(info.value.partial)
        one, both = partials
        # a number for one value per node; the pair's panels follow the
        # larger error, so they need not be the single integral's
        assert isinstance(one, float) and 0.0 < one < 1.0
        assert both.shape == (2,) and 0.0 < both[0] < 1.0
        assert both[1] == 2.0 * both[0]

    def test_zero_width_windows_give_zeros_of_the_integrand_shape(self):
        calls = []

        def pair(x, col):
            calls.append(x.size)
            return np.array([x, 2.0 * x])

        assert quad(lambda x: x, 1.5, 1.5) == 0.0
        one = quad_batch(lambda x, col: x, [0.0, 2.0], [0.0, 2.0])
        assert one.shape == (2,) and not one.any()
        both = quad_batch(pair, [0.0, 2.0], [0.0, 2.0])
        assert both.shape == (2, 2) and not both.any()
        # the integrand is called once, on no nodes, to learn its shape
        assert calls == [0]

    def test_quad_refuses_an_integrand_with_components(self):
        with pytest.raises(BadParameterError, match="one value per node"):
            quad(lambda x: np.array([x, x]), 0.0, 1.0)
        with pytest.raises(BadParameterError, match=r"\(m, N\) values"):
            quad_batch(lambda x, col: np.zeros((2, 2, x.size)), 0.0, 1.0)

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

    def test_every_kind_integrates_and_outside_tiles_give_zero(self):
        # constant on the left half, |x| on the right
        f = PiecewiseFunction(
            (constant_branch(1, -10.0, 0.0, 0.0), magnitude(-10.0, 10.0).branches[1])
        )
        got = branch_integrals(f, lambda x, col, b: gauss_pdf(x), -10.0, 10.0)[0]
        np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-12)
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

    @pytest.mark.parametrize("offset", [0.0, 1e300])
    def test_refuses_a_range_too_narrow_for_the_bins(self, offset):
        # three subnormal steps, or one value whose unit span rounds away,
        # cannot hold 18 equal-width bins
        x = offset + 5e-324 * make_rng(26).integers(0, 4, 5000)
        with pytest.raises(BadParameterError, match="equal bins"):
            diff_entropy_hist(x)

    def test_takes_a_constant_sample_on_a_unit_span(self):
        # as np.histogram does: 18 bins of width 1/18, all mass in one
        assert diff_entropy_hist(np.full(5000, 2.0)) == pytest.approx(math.log2(1 / 18))


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

    def test_a_pair_table_past_the_cap_is_refused_before_any_sort(self, monkeypatch):
        # 10**6 bins a side would be 10**12 counters
        def refuse(*args):
            raise AssertionError("samples sorted before the bins were checked")

        monkeypatch.setattr(estimate, "_sorted_finite", refuse)
        x = np.linspace(0.0, 1.0, 1000)
        with pytest.raises(BadParameterError, match=r"bins .* in 1\.\.4096"):
            mutual_information_hist(x, x, bins=10**6)

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

    def test_constant_branch_refused(self):
        from inforate import quantizer

        with pytest.raises(ConstantBranchError):
            expected_log_abs_derivative(
                quantizer([0.0, 1.0]), make_iid_uniform(0.0, 1.0)
            )


def per_order_block_entropy(f, values, k):
    """markov_block_entropy_W's levels, order and convergence as first
    written: the codes of each order extend those of the order below by
    one index, and each order has its own count."""
    n_branches = len(f.branches)
    w = f.branch_index_array(values) - 1
    levels = []
    prev_joint = 0.0
    codes = w.astype(np.int64)
    for order in range(k + 1):
        if order:
            codes = codes[:-1] * n_branches
            codes += w[order:]
        counts = np.bincount(codes)
        h_joint = entropy_bits(counts[counts > 0] / counts.sum())
        levels.append(h_joint - prev_joint)
        prev_joint = h_joint
    order = 0
    converged = False
    for j in range(1, len(levels)):
        if abs(levels[j] - levels[j - 1]) < 0.01:
            order = j
            converged = True
    if not converged:
        order = len(levels) - 1
    return tuple(levels), order, converged


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
        assert float(est) == est.value

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

    @pytest.mark.parametrize("k", [-1, 2.5, True, "4", None])
    def test_refuses_an_order_that_is_not_an_int_in_0_to_6(self, k):
        p = make_iid_uniform(-1.0, 1.0)
        with pytest.raises(BadParameterError, match="block order"):
            markov_block_entropy_W(magnitude(-1.0, 1.0), p, k=k, n_samples=10**4)

    def test_takes_a_numpy_int_order(self):
        f, p = magnitude(-1.0, 1.0), make_iid_uniform(-1.0, 1.0)
        est = markov_block_entropy_W(f, p, k=np.int64(2), n_samples=10**4, seed=3)
        assert est == markov_block_entropy_W(f, p, k=2, n_samples=10**4, seed=3)

    # 2, 3 and 4 branches on a Markov path, and 4 on the block-alternating
    # chain, whose index never repeats its parity: half the codes of every
    # order >= 1 never occur
    @pytest.mark.parametrize(
        "f, p",
        [
            (magnitude(-1.0, 1.0), make_cyclic_walk(1.0, 0.4)),
            (shift_mod(2.0 / 3.0, lo=-1.0, hi=1.0), make_cyclic_walk(1.0, 0.4)),
            (shift_mod(0.5, lo=-1.0, hi=1.0), make_cyclic_walk(1.0, 0.4)),
            (shift_mod(1.0, lo=0.0, hi=4.0), make_tightness_example()),
        ],
        ids=["two", "three", "four", "four-alternating"],
    )
    @pytest.mark.parametrize("k", range(7))
    def test_one_count_of_the_top_order_is_the_per_order_counts(self, f, p, k):
        shortest = len(f.branches) ** (k + 1) * 30
        # at the shortest allowed path the k - j late blocks of order j
        # are a larger share of its counts
        for n in (shortest, shortest + 3, 2 * shortest + 1):
            est = markov_block_entropy_W(f, p, k=k, n_samples=n, seed=k + n)
            levels, order, converged = per_order_block_entropy(
                f, sample_path(p, n, seed=k + n).values, k
            )
            assert est.levels == levels
            assert (est.order, est.converged) == (order, converged)
            assert est.value == levels[order]

    def test_the_count_holds_no_path_sized_array(self):
        # the path is indexed and coded block by block: an intp index and
        # int64 codes of its size would take 15.3 MiB at 10^6 samples
        f, p = magnitude(), make_ar1(0.6, 1.0)
        sample_path(p, 10**6, seed=3)  # in the slot: the count draws no path
        tracemalloc.start()
        try:
            markov_block_entropy_W(f, p, 4, 10**6, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestSupportImage:
    def test_a_window_that_no_injective_tile_meets_is_refused(self):
        # constant on [0, 1), identity on [1, 2): on uniform(0, 1) only the
        # constant piece meets the window, so Y has no density part
        f = PiecewiseFunction(
            (
                constant_branch(1, 0.0, 1.0, 0.0),
                injective_branch(2, 1.0, 2.0, np.positive, np.positive, np.ones_like),
            )
        )
        with pytest.raises(BadParameterError, match="range is empty"):
            estimate._support_image(f, make_iid_uniform(0.0, 1.0))


PINNED_CASES = {
    "ar1": lambda: (magnitude(), make_ar1(0.5, 1.0)),
    "walk": lambda: (magnitude(-1.0, 1.0), make_cyclic_walk(1.0, 0.35)),
    "tightness": lambda: (shift_mod(2.0, lo=0.0, hi=4.0), make_tightness_example()),
    "iid gaussian": lambda: (magnitude(), make_iid_gaussian(1.0)),
    "iid uniform": lambda: (magnitude(-1.0, 3.0), make_iid_uniform(-1.0, 3.0)),
}

# the values of the five cases in PINNED_CASES' order, to the bit
PINNED_VALUES = {
    "marginal_entropy_quad": (
        lambda f, proc: marginal_entropy_quad(proc),
        (2.2546143348200633, 1.0, 2.0, 2.0470955851806414, 2.0),
    ),
    "cond_entropy_rate_quad": (
        lambda f, proc: cond_entropy_rate_quad(proc),
        (2.047095585180641, -0.5145731728297582, 1.0, 2.0470955851806414, 2.0),
    ),
    "loss_rv": (loss_rv, (1.0, 1.0, 1.0, 1.0, 0.5)),
    "cond_entropy_W_given_X": (
        cond_entropy_W_given_X,
        (0.8748045658111533, 0.5049432643111371, 1.0, 1.0, 0.8112781244591328),
    ),
}


@pytest.mark.parametrize("quantity", sorted(PINNED_VALUES))
def test_the_marginal_and_the_rate_keep_their_bits(quantity):
    # h(X) and L run through h(Y2|X1)'s route on the law without its kernel
    call, want = PINNED_VALUES[quantity]
    got = tuple(call(*make()) for make in PINNED_CASES.values())
    assert repr(got) == repr(want)


@pytest.mark.parametrize("process", [make_ar1(0.5, 1.0), make_iid_gaussian(1.0)])
def test_the_square_loses_one_bit_to_the_bit(process):
    assert repr(loss_rv(square(), process)) == "1.0"


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
            lambda ys: xlog2x(f.preimage_table(ys).weights(cond).sum(axis=0)),
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


@pytest.mark.parametrize("case", sorted(NESTED_CASES))
def test_branch_probabilities_are_cdf_differences_not_quadratures(case, monkeypatch):
    # against the quadrature of f(x2|x1) over each tile cut to the x2
    # window, which the distribution functions replace
    f, proc = NESTED_CASES[case]()
    lo, hi = proc.quad_support
    xs = np.linspace(lo, hi, 41)[1:-1] + 1e-9
    kern = proc.kernel
    wlo, whi = estimate._cond_windows(proc, xs)
    want = branch_integrals(
        f,
        lambda x2, col, b: kern.cond_pdf(x2, xs[col]),
        wlo,
        whi,
        QuadratureConfig(abs_tol=1e-12),
        kern.split_points(xs),
    )

    def no_quadrature(*args, **kwargs):
        raise AssertionError("branch probabilities ran a quadrature")

    monkeypatch.setattr(estimate, "_adapt", no_quadrature)
    probs, total = estimate._branch_probabilities(f, proc, xs)
    np.testing.assert_allclose(total, want.sum(axis=1), rtol=0, atol=1e-11)
    np.testing.assert_allclose(probs * total[:, None], want, rtol=0, atol=1e-11)


def test_the_x2_window_stays_inside_the_quadrature_window():
    # a * x1 -+ 10 sigma reaches past +-10 sd_x at the ends of quad_support
    proc = make_ar1(0.5, 1.0)
    lo, hi = proc.quad_support
    wlo, whi = estimate._cond_windows(proc, np.array([lo, 0.0, hi]))
    assert np.all(wlo >= lo) and np.all(whi <= hi)
    np.testing.assert_array_equal([wlo[0], whi[2]], [lo, hi])
    np.testing.assert_array_equal([wlo[1], whi[1]], [-10.0, 10.0])


def jump_iid():
    """iid law on [0, 1) whose density steps from 2 to 4/7 at 0.3, its
    declared split point."""

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x < 1.0), np.where(x < 0.3, 2.0, 4.0 / 7.0), 0.0)

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return np.where(x < 0.3, 2.0 * x, 0.6 + (x - 0.3) * (4.0 / 7.0))

    return make_iid(pdf, cdf, None, (0.0, 1.0), split_points=(0.3,))


class TestIidJumps:
    # the x2 split points of an iid input are its marginal's at every x1,
    # so the inner y integrals are cut at the jump and need no bisection

    def test_h_y2_given_x1_at_the_identity_is_h_x(self):
        proc = jump_iid()
        got = cond_entropy_output_given_input(identity(0.0, 1.0), proc)
        assert got == pytest.approx(marginal_entropy_quad(proc), rel=0, abs=1e-12)

    def test_the_rate_is_the_marginal_loss(self):
        proc = jump_iid()
        g = compose(shift_mod(0.5, lo=0.0, hi=1.0), identity(0.0, 1.0))
        want = cond_entropy_input_given_output(g, proc)
        assert cond_entropy_X2_given_Y2_X1(g, proc) == pytest.approx(
            want, rel=0, abs=1e-12
        )


def shifted_ar1():
    """AR(1) 0.5 moved by +0.5: stationary, and not lumpable under |.|."""
    shift = injective_branch(
        1,
        -math.inf,
        math.inf,
        lambda x: x + 0.5,
        lambda y: y - 0.5,
        lambda x: np.ones_like(x),
    )
    return magnitude(), pushforward_process(
        PiecewiseFunction((shift,)), make_ar1(0.5, 1.0)
    )


SETTLED_CASES = {
    **NESTED_CASES,
    "shifted ar1+magnitude": shifted_ar1,
    "4-branch walk": lambda: (
        compose(shift_mod(0.5, lo=0.0, hi=1.0), magnitude(-1.0, 1.0)),
        make_cyclic_walk(1.0, 0.35),
    ),
}


def nested_values(f, proc):
    return (
        cond_entropy_X2_given_Y2_X1(f, proc),
        cond_entropy_output_given_input(f, proc),
        cond_entropy_rate_quad(proc),
        cond_entropy_W_given_X(f, proc),
    )


def split_points_only(process, cfg, x1_of, points):  # the pass adds no edge
    return points, None


@pytest.mark.parametrize("case", sorted(SETTLED_CASES))
def test_settling_the_marginal_first_changes_only_the_work(case, monkeypatch):
    f, proc = SETTLED_CASES[case]()
    settled = nested_values(f, proc)
    monkeypatch.setattr(estimate, "_marginal_edges", split_points_only)
    assert settled == pytest.approx(nested_values(f, proc), abs=DEFAULT_QUAD.abs_tol)


def test_the_index_entropy_of_a_singular_marginal_keeps_its_value(monkeypatch):
    # the x**2 pushforward's marginal goes as 1/sqrt(y) at 0; the tiles
    # of this function meet at y = 1
    f = shift_mod(133.0, lo=-132.0, hi=134.0)
    proc = pushforward_process(square(), make_ar1(0.5, 1.0))
    settled = cond_entropy_W_given_X(f, proc)
    monkeypatch.setattr(estimate, "_marginal_edges", split_points_only)
    assert settled == pytest.approx(
        cond_entropy_W_given_X(f, proc), abs=DEFAULT_QUAD.abs_tol
    )


def inner_x1_nodes(case, monkeypatch):
    """x1 nodes whose inner y integrals the rate H(X2|Y2,X1) runs."""
    f, proc = SETTLED_CASES[case]()
    nodes = []
    y_integrals = estimate._y_integrals

    def counted(value, ylo, *args):
        nodes.append(np.size(ylo))
        return y_integrals(value, ylo, *args)

    monkeypatch.setattr(estimate, "_y_integrals", counted)
    cond_entropy_X2_given_Y2_X1(f, proc)
    return sum(nodes)


@pytest.mark.parametrize("case", ["ar1+magnitude", "shifted ar1+magnitude"])
def test_the_outer_integral_keeps_the_inner_integrals_it_runs(case, monkeypatch):
    # bisecting from the split points alone runs them at 270 nodes
    assert inner_x1_nodes(case, monkeypatch) <= 180


def index_entropy_calls(f, proc, monkeypatch):
    """x1 nodes of each call of H(W2|X1)'s outer integrand."""
    nodes = []
    probabilities = estimate._branch_probabilities

    def counted(f, process, x1s):
        nodes.append(np.size(x1s))
        return probabilities(f, process, x1s)

    monkeypatch.setattr(estimate, "_branch_probabilities", counted)
    cond_entropy_W_given_X(f, proc)
    return nodes


def test_the_index_entropy_evaluates_its_outer_integrand_at_fewer_nodes(monkeypatch):
    # bisecting from the split points alone takes 270 x1 nodes
    f, proc = SETTLED_CASES["ar1+magnitude"]()
    assert sum(index_entropy_calls(f, proc, monkeypatch)) <= 180


# ---------------------------------------------------------------------------
# H(W2|X1) graded where a branch probability reaches 0


@pytest.mark.parametrize("ratio", [round(0.05 * i, 2) for i in range(2, 21)])
def test_the_walk_index_entropy_lands_on_its_closed_form(ratio):
    # below a/M = 0.5 a branch probability reaches 0 at x1 = +-a and
    # +-(M - a), where p log2 p has an unbounded slope; bisecting towards
    # those x1 ended 1.1-2.2e-11 off at the default abs_tol
    got = cond_entropy_W_given_X(magnitude(-1.0, 1.0), make_cyclic_walk(1.0, ratio))
    assert abs(got - cyclic_hw2x1(1.0, ratio)) <= 1e-13


def test_the_walk_index_entropy_needs_two_outer_integrand_calls(monkeypatch):
    # bisecting towards x1 = +-0.35 and +-0.65 took 9 calls (843 x1 nodes)
    f, proc = SETTLED_CASES["walk+magnitude"]()
    assert len(index_entropy_calls(f, proc, monkeypatch)) <= 2


def test_the_four_branch_walk_index_entropy_is_its_value_at_a_tighter_tolerance():
    # bisection alone left the default abs_tol 1.1e-11 from the 1e-13 value
    f, proc = SETTLED_CASES["4-branch walk"]()
    tight = cond_entropy_W_given_X(f, proc, QuadratureConfig(abs_tol=1e-13))
    assert abs(cond_entropy_W_given_X(f, proc) - tight) <= 1e-13


@pytest.mark.xfail(
    strict=True,
    reason="near a unit root the AR(1) integrand lives within ~10 sigma/a of "
    "the tile edge 0, which no node of the outer panels sees",
)
def test_a_pole_near_1_keeps_the_index_entropy_and_the_rate():
    # at a = 0.999999 both collapse towards 0 and report convergence:
    # H(W2|X1) 0.0 and the rate 3.4e-90; the reference is a scipy integral
    # of the even integrand E[h_b(Phi(a X1))], split where it turns
    from scipy import integrate
    from scipy.special import ndtr

    a = 0.999999
    sd = 1.0 / math.sqrt(1.0 - a * a)

    def integrand(x):
        p = ndtr(a * x)
        return gauss_pdf(x / sd) / sd * -(xlog2x(p) + xlog2x(1.0 - p))

    ends = [0.0, 2.0, 5.0, 10.0, 20.0, 40.0, 12.0 * sd]
    want = 2.0 * sum(
        integrate.quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(ends[:-1], ends[1:])
    )
    f, proc = magnitude(), make_ar1(a, 1.0)
    assert abs(cond_entropy_W_given_X(f, proc) - want) <= 1e-9
    assert cond_entropy_X2_given_Y2_X1(f, proc) > 1e-4


def ungraded_x1_integral(process, value, cfg, f, graded=()):
    """``_x1_integral`` with no window graded: f_X value in x1 itself,
    from the panels on which f_X alone settles from the x1 split points."""
    lo, hi = process.quad_support
    fx = process.marginal_pdf
    points = estimate._x1_split_points(process, f)[None]
    _, edges, levels = estimate._adapt(lambda x1s, col: fx(x1s), lo, hi, cfg, points)
    order = np.argsort(edges)
    points, levels = edges[order], levels[order]
    return quad(lambda x1s: fx(x1s) * value(x1s), lo, hi, cfg, points, levels=levels)


UNGRADED_CASES = {
    **{
        f"ar1 {a}+magnitude": lambda a=a: (magnitude(), make_ar1(a, 1.0))
        for a in (0.2, 0.4, 0.6, 0.8, 0.9)
    },
    "tightness": NESTED_CASES["tightness"],
    "shifted ar1+magnitude": shifted_ar1,
    "ar1+square": NESTED_CASES["ar1+square"],
}


@pytest.mark.parametrize("case", sorted(UNGRADED_CASES))
def test_an_input_with_no_landing_keeps_the_ungraded_route_bit_for_bit(
    case, monkeypatch
):
    # no kernel discontinuity lands on a tile edge, so no x1 window is
    # graded and s = x1 with a factor of 1 gives the same floats
    f, proc = UNGRADED_CASES[case]()
    assert not estimate._x1_landings(proc, f).size
    got = cond_entropy_W_given_X(f, proc), cond_entropy_X2_given_Y2_X1(f, proc)
    monkeypatch.setattr(estimate, "_x1_integral", ungraded_x1_integral)
    want = cond_entropy_W_given_X(f, proc), cond_entropy_X2_given_Y2_X1(f, proc)
    assert repr(got) == repr(want)


IID_CASES = {
    "iid gaussian+magnitude": lambda: (magnitude(), make_iid_gaussian(1.0)),
    "iid uniform+magnitude": lambda: (
        magnitude(-1.0, 3.0),
        make_iid_uniform(-1.0, 3.0),
    ),
}

X1_QUANTITIES = {
    "H(W2|X1)": cond_entropy_W_given_X,
    "h(Y2|X1)": cond_entropy_output_given_input,
    "H(X2|Y2,X1)": cond_entropy_X2_given_Y2_X1,
    "h(X2|X1)": lambda f, proc: cond_entropy_rate_quad(proc),
}


@pytest.mark.parametrize("quantity", sorted(X1_QUANTITIES))
@pytest.mark.parametrize("case", sorted(IID_CASES))
def test_an_iid_input_takes_its_x1_quantities_at_one_node(case, quantity, monkeypatch):
    # X2 does not depend on X1: no f_X pass and no outer integral runs
    def refuse(*args, **kwargs):
        raise AssertionError("an iid input ran an x1 integral")

    monkeypatch.setattr(estimate, "_marginal_edges", refuse)
    monkeypatch.setattr(estimate, "quad", refuse)
    calls = []
    x1_integral = estimate._x1_integral

    def recorded(process, value, *args):
        def recorded_value(x1s):
            calls.append((np.size(x1s), value(x1s)))
            return calls[-1][1]

        return x1_integral(process, recorded_value, *args)

    monkeypatch.setattr(estimate, "_x1_integral", recorded)
    got = X1_QUANTITIES[quantity](*IID_CASES[case]())
    [(nodes, want)] = calls
    assert type(got) is float
    assert nodes == 1 and got == want[0]


@pytest.mark.parametrize("ratio", (0.15, 0.35, 0.65, 0.85))
def test_the_walk_rate_keeps_the_ungraded_route_bit_for_bit(ratio, monkeypatch):
    # only H(W2|X1) grades its x1 windows; the rate grades none
    f, proc = magnitude(-1.0, 1.0), make_cyclic_walk(1.0, ratio)
    got = cond_entropy_X2_given_Y2_X1(f, proc)
    monkeypatch.setattr(estimate, "_x1_integral", ungraded_x1_integral)
    assert repr(got) == repr(cond_entropy_X2_given_Y2_X1(f, proc))


def test_the_walk_runs_as_many_inner_integrals_as_without_the_panels(monkeypatch):
    # its split points already settle its uniform marginal, so the pass
    # adds no edge: 7 panels of 15 nodes either way
    settled = inner_x1_nodes("walk+magnitude", monkeypatch)
    monkeypatch.setattr(estimate, "_marginal_edges", split_points_only)
    assert settled == inner_x1_nodes("walk+magnitude", monkeypatch)


def test_the_walk_rate_runs_its_inner_integrals_at_the_15_nodes_of_7_panels(
    monkeypatch,
):
    # under a 31-point rule on every x1 panel it ran them at 217 nodes
    assert inner_x1_nodes("walk+magnitude", monkeypatch) == 105


def test_the_ar1_rate_keeps_the_y_nodes_of_a_panel_that_rises(monkeypatch):
    # y nodes of the inner integrals of H(X2|Y2,X1); 15-node panels that
    # bisect instead of rising to 31 and 63 nodes took 14,100
    f, proc = SETTLED_CASES["ar1+magnitude"]()
    nodes = []
    y_integrals = estimate._y_integrals

    def counted(value, *args):
        def counted_value(ys, col):
            nodes.append(ys.size)
            return value(ys, col)

        return y_integrals(counted_value, *args)

    monkeypatch.setattr(estimate, "_y_integrals", counted)
    cond_entropy_X2_given_Y2_X1(f, proc)
    assert sum(nodes) <= 9000


def test_a_marginal_the_outer_panels_cannot_settle_is_refused():
    # the x^4 pushforward's marginal goes as y**(-3/4) at 0
    x4 = compose(square(0, math.inf), square())
    with pytest.raises(NoConvergenceError, match="outer x1 panels.*stalled") as info:
        cond_entropy_rate_quad(pushforward_process(x4, make_ar1(0.5, 1.0)))
    # f_X's mass so far is no partial sum of the entropy asked for
    assert info.value.partial is None
    # H(W2|X1) starts from the same panels, so the pass refuses it too
    proc = pushforward_process(x4, make_ar1(0.5, 1.0))
    hi = proc.quad_support[1]
    with pytest.raises(NoConvergenceError, match="outer x1 panels.*stalled") as info:
        cond_entropy_W_given_X(shift_mod(hi / 2, lo=0.0, hi=hi), proc)
    assert info.value.partial is None


@pytest.mark.parametrize(
    "f, process, value, two_column_nodes",
    [
        (magnitude(), make_ar1(0.5, 1.0), 1.0, 210),
        (magnitude(), make_iid_uniform(-1.0, 3.0), 0.5, 60),
    ],
)
def test_the_marginal_loss_integrates_loss_and_mass_at_the_same_nodes(
    f, process, value, two_column_nodes, monkeypatch
):
    # as two columns of one batch, each of which evaluated both integrands
    # at every node, the loss and the output mass took two_column_nodes
    nodes = []
    table = PiecewiseFunction.preimage_table

    def counted(self, ys):
        nodes.append(np.size(ys))
        return table(self, ys)

    monkeypatch.setattr(PiecewiseFunction, "preimage_table", counted)
    got = estimate.cond_entropy_input_given_output(f, process)
    assert got == pytest.approx(value, abs=DEFAULT_QUAD.abs_tol)
    assert sum(nodes) <= two_column_nodes // 2
