"""Loss-rate values, bound chain, sandwich bracket, cascades."""

import collections
import math

import numpy as np
import pytest

from inforate import (
    QuadratureConfig,
    analyze_loss_rate,
    bound_index_given_input,
    cascade_loss_rate,
    empirical_constant_frequency,
    identity,
    loss_rate_analytic,
    loss_rate_bounds_mc,
    loss_rv,
    magnitude,
    make_ar1,
    make_cyclic_walk,
    make_iid,
    make_iid_gaussian,
    make_iid_uniform,
    make_tightness_example,
    markov_block_entropy_W,
    quantizer,
    sample_path,
    scale,
    shift_mod,
    square,
)
from inforate.errors import (
    BadParameterError,
    ConstantBranchError,
    NotLumpableError,
    TooFewSamplesError,
)
import inforate.lossrate
from inforate._rng import make_rng
from inforate.lossrate import _sandwich

from conftest import shifted_kernel_process


@pytest.fixture
def calls(monkeypatch):
    """Calls of the exact rate's gate, the two loss quadratures and the
    pushforward, counted where the loss-rate module looks them up."""
    counts = collections.Counter()
    for name in (
        "check_lumpable",
        "cond_entropy_X2_given_Y2_X1",
        "cond_entropy_input_given_output",
        "pushforward_process",
    ):

        def counted(*args, _real=getattr(inforate.lossrate, name), _name=name, **kw):
            counts[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(inforate.lossrate, name, counted)
    return counts


class TestLossRV:
    def test_gaussian_magnitude_one_bit(self):
        assert loss_rv(magnitude(), make_iid_gaussian(1.0)) == 1.0
        assert loss_rv(magnitude(), make_ar1(0.5, 1.0)) == 1.0

    def test_identity_lossless(self):
        assert loss_rv(identity(), make_iid_gaussian(1.0)) == 0.0

    def test_shift_on_uniform_one_bit(self):
        p = make_iid_uniform(0.0, 4.0)
        assert loss_rv(shift_mod(2.0, lo=0.0, hi=4.0), p) == 1.0

    def test_constant_branch_refused(self):
        with pytest.raises(ConstantBranchError):
            loss_rv(quantizer([0.0, 1.0]), make_iid_uniform(0.0, 1.0))

    def test_uniform_fold_against_hand_entropy(self):
        # |X| on uniform[-1, 3): h(X) = 2; output density is 1/2 on [0,1)
        # and 1/4 on [1,3), so h(Y) = 3/2 and the loss is 1/2 bit
        p = make_iid_uniform(-1.0, 3.0)
        f = magnitude(-1.0, 3.0)
        assert loss_rv(f, p) == pytest.approx(0.5, abs=1e-12)


class TestLossRateAnalytic:
    def test_cyclic_ratio(self):
        for ratio in (0.25, 0.6):
            p = make_cyclic_walk(1.0, ratio)
            got = loss_rate_analytic(magnitude(-1.0, 1.0), p)
            assert got == pytest.approx(ratio, abs=1e-3)

    def test_tightness_one_bit(self):
        p = make_tightness_example()
        got = loss_rate_analytic(shift_mod(2.0, lo=0.0, hi=4.0), p)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_iid_gaussian_magnitude(self):
        got = loss_rate_analytic(magnitude(), make_iid_gaussian(1.0))
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_not_lumpable_refused(self):
        # asymmetric step kernel breaks the fold symmetry
        # the gate runs at check_lumpable's default tol
        with pytest.raises(NotLumpableError, match=r"exceeds 1e-06$"):
            loss_rate_analytic(magnitude(), shifted_kernel_process())

    def test_mod_map_on_wrapped_walk_is_lumpable_and_rate_free(self):
        # translation invariance makes the quotient walk Markov, so the
        # exact route accepts the mod map; with step width 2a < M the two
        # preimages are never both reachable from the previous sample, so
        # the per-sample loss rate vanishes even though L(X->Y) = 1 bit
        p = make_cyclic_walk(1.0, 0.3)
        f = shift_mod(1.0, lo=-1.0, hi=1.0)
        assert loss_rv(f, p) == 1.0
        assert loss_rate_analytic(f, p) == pytest.approx(0.0, abs=1e-9)

    def test_bijective_zero(self):
        assert loss_rate_analytic(scale(3.0), make_ar1(0.5, 1.0)) == 0.0

    def test_one_branch_needs_no_gate_and_no_quadrature(self, calls):
        p = make_ar1(0.5, 1.0)
        assert loss_rate_analytic(scale(2.0), p) == 0.0
        assert sum(calls.values()) == 0
        # the grid is still refused where the gate would refuse it
        with pytest.raises(BadParameterError, match="grid"):
            loss_rate_analytic(scale(2.0), p, grid=50)

    def test_constant_refused(self):
        with pytest.raises(ConstantBranchError):
            loss_rate_analytic(quantizer([0.0, 1.0]), make_iid_uniform(0.0, 1.0))


class TestSandwich:
    def test_ar1_gap_small(self):
        sw = loss_rate_bounds_mc(
            magnitude(), make_ar1(0.5, 1.0), n_samples=10**5, seed=5
        )
        assert sw.upper - sw.lower <= 0.05
        assert sw.lower <= sw.upper

    def test_iid_recovers_marginal_loss(self):
        sw = loss_rate_bounds_mc(
            magnitude(), make_iid_gaussian(1.0), n_samples=10**5, seed=6
        )
        assert abs(sw.lower - 1.0) <= 0.03
        assert abs(sw.upper - 1.0) <= 0.03

    def test_endpoint_ordering(self):
        # I(Y1;Y2) <= I(X1;Y2) makes the output-conditioned endpoint lower
        cases = [
            (make_ar1(0.8, 1.0), magnitude()),
            (make_cyclic_walk(1.0, 0.4), magnitude(-1.0, 1.0)),
            (make_tightness_example(), shift_mod(2.0, lo=0.0, hi=4.0)),
        ]
        for proc, f in cases:
            sw = loss_rate_bounds_mc(f, proc, n_samples=10**6, seed=8)
            assert sw.endpoint_y1 <= sw.endpoint_x1 + 0.02

    def test_marginal_loss_ignores_the_bins(self):
        f, p = magnitude(), shifted_kernel_process()
        sw = loss_rate_bounds_mc(f, p, 10**5, 1, bins=20)
        assert sw.loss_rv_value == loss_rv(f, p)

    @pytest.mark.parametrize("bins", [0, -2, 2.5, False])
    def test_refuses_bins_that_are_not_a_positive_int(self, bins):
        f, p = magnitude(), make_ar1(0.5, 1.0)
        with pytest.raises(BadParameterError, match="bins"):
            loss_rate_bounds_mc(f, p, 10**4, 1, bins=bins)
        with pytest.raises(BadParameterError, match="bins"):
            analyze_loss_rate(f, p, 10**4, 1, bins=bins)

    def test_marginal_loss_uses_the_given_quadrature_config(self):
        # off-centre, so the fold's preimages weigh differently and L
        # depends on the tolerance
        norm = 1.0 / math.sqrt(2.0 * math.pi)
        p = make_iid(
            lambda x: norm * np.exp(-0.5 * (np.asarray(x, dtype=float) - 0.5) ** 2),
            lambda rng, n: rng.normal(0.5, 1.0, n),
            support=(-np.inf, np.inf),
            quad_support=(-9.5, 10.5),
        )
        f, coarse = magnitude(), QuadratureConfig(abs_tol=1e-2)
        sw = loss_rate_bounds_mc(f, p, 10**4, 1, cfg=coarse)
        assert sw.loss_rv_value == loss_rv(f, p, coarse) != loss_rv(f, p)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            loss_rate_bounds_mc(magnitude(), make_ar1(0.5, 1.0), 1000, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_paths(self, bad):
        xs = make_rng(7).normal(0.0, 1.0, 5000)
        for i in (0, 2500, 4999):
            path = xs.copy()
            path[i] = bad
            with pytest.raises(BadParameterError, match="finite"):
                _sandwich(magnitude(), path, 1.0, None, 7)

    def test_brackets_analytic_value(self):
        p = make_cyclic_walk(1.0, 0.5)
        f = magnitude(-1.0, 1.0)
        value = loss_rate_analytic(f, p)
        sw = loss_rate_bounds_mc(f, p, n_samples=10**6, seed=9)
        assert sw.lower - 0.05 <= value <= sw.upper + 0.05


class TestBoundChain:
    @pytest.mark.parametrize("ratio", [0.3, 0.7])
    def test_cyclic_chain(self, ratio):
        p = make_cyclic_walk(1.0, ratio)
        f = magnitude(-1.0, 1.0)
        value = loss_rate_analytic(f, p)
        hwx = bound_index_given_input(f, p)
        hw_rate = markov_block_entropy_W(f, p, k=4, n_samples=300_000, seed=11).value
        marginal = loss_rv(f, p)
        assert value <= hwx + 1e-6
        assert hwx <= hw_rate + 0.02
        assert value <= marginal + 1e-6

    def test_tightness_chain_is_tight(self):
        p = make_tightness_example()
        f = shift_mod(2.0, lo=0.0, hi=4.0)
        value = loss_rate_analytic(f, p)
        hwx = bound_index_given_input(f, p)
        marginal = loss_rv(f, p)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert hwx == pytest.approx(1.0, abs=1e-9)
        assert marginal == 1.0

    def test_index_bound_sharper_than_entropy_rate_ar1(self):
        p = make_ar1(0.6, 1.0)
        f = magnitude()
        hwx = bound_index_given_input(f, p)
        hw_rate = markov_block_entropy_W(f, p, k=4, n_samples=300_000, seed=12).value
        assert hwx <= hw_rate + 0.02

    def test_index_bound_below_one_for_large_pole(self):
        # quadrature oracle: H2(Phi(-a x / sigma)) < 1 strictly for x != 0
        hwx = bound_index_given_input(magnitude(), make_ar1(0.9, 1.0))
        assert hwx < 1.0 - 0.3

    def test_marginal_loss_bounds_rate_cyclic(self):
        p = make_cyclic_walk(1.0, 0.5)
        f = magnitude(-1.0, 1.0)
        assert loss_rv(f, p) == 1.0
        assert loss_rate_analytic(f, p) == pytest.approx(0.5, abs=1e-3)

    def test_index_bound_refused_on_constant(self):
        with pytest.raises(ConstantBranchError):
            bound_index_given_input(quantizer([0.0, 1.0]), make_iid_uniform(0.0, 1.0))

    def test_bijective_everything_zero(self):
        p = make_ar1(0.5, 1.0)
        f = scale(2.5)
        assert loss_rv(f, p) == 0.0
        assert abs(bound_index_given_input(f, p)) <= 1e-9
        assert abs(loss_rate_analytic(f, p)) <= 1e-9
        est = markov_block_entropy_W(f, p, k=2, n_samples=100_000, seed=13)
        assert est.value == 0.0
        sw = loss_rate_bounds_mc(f, p, n_samples=10**5, seed=13)
        assert abs(sw.lower) <= 0.03 and abs(sw.upper) <= 0.03


class TestCascade:
    def test_magnitude_then_identity(self):
        res = cascade_loss_rate(
            [magnitude(), identity(0.0, np.inf)], make_iid_gaussian(1.0)
        )
        assert res.stages == (1.0, 0.0)
        assert res.total == 1.0

    def test_scale_then_magnitude(self):
        res = cascade_loss_rate([scale(2.0), magnitude()], make_iid_gaussian(1.0))
        assert res.stages == (0.0, 1.0)
        assert res.total == 1.0
        assert res.additivity_gap == 0.0

    def test_magnitude_twice(self):
        # the second fold sees only the nonnegative half, where it is
        # injective and lossless
        res = cascade_loss_rate(
            [magnitude(), magnitude(0.0, np.inf)], make_iid_gaussian(1.0)
        )
        assert res.stages == (1.0, 0.0)
        assert res.total == 1.0

    def test_markov_analytic_additivity(self):
        res = cascade_loss_rate(
            [magnitude(-1.0, 1.0), scale(2.0, 0.0, 1.0)],
            make_cyclic_walk(1.0, 0.4),
        )
        assert res.method == "analytic"
        assert res.total == pytest.approx(0.4, abs=1e-3)
        assert res.additivity_gap <= 2e-3

    def test_ar1_scale_then_fold_additivity(self):
        res = cascade_loss_rate([scale(-1.5), magnitude()], make_ar1(0.6, 1.0))
        assert res.additivity_gap <= 2e-3

    def test_bijections_run_neither_gate_nor_quadrature(self, calls):
        # the leading scale is composed into the fold, which runs on AR(1)
        # itself; only the trailing scale sees a pushforward
        res = cascade_loss_rate(
            [scale(0.5), magnitude(), scale(2.0)], make_ar1(0.5, 1.0)
        )
        assert res.stages[0] == res.stages[2] == 0.0
        # once for the fold stage and once for the total
        assert calls["check_lumpable"] == 2
        assert calls["cond_entropy_X2_given_Y2_X1"] == 2
        assert calls["pushforward_process"] == 1

    @pytest.mark.parametrize(
        "stages, method",
        [([], "auto"), ([magnitude()], "exact"), ([magnitude()], "RV")],
        ids=["empty chain", "unknown method", "method in capitals"],
    )
    def test_bad_chain_or_method_refused_before_any_quadrature(
        self, calls, stages, method
    ):
        with pytest.raises(BadParameterError):
            cascade_loss_rate(stages, make_ar1(0.5, 1.0), method=method)
        assert sum(calls.values()) == 0


class TestSampleCount:
    # a float count, a negative one, zero, a bool and a string
    @pytest.mark.parametrize("n", [2.5e4, -5, 0, True, "1000"])
    def test_every_monte_carlo_entry_point_refuses_it(self, n):
        f, p = magnitude(), make_ar1(0.5, 1.0)
        calls = [
            lambda: sample_path(p, n, 1),
            lambda: loss_rate_bounds_mc(f, p, n, 1),
            lambda: analyze_loss_rate(f, p, n, 1),
            lambda: markov_block_entropy_W(f, p, n_samples=n),
            lambda: empirical_constant_frequency(f, p, n_samples=n),
        ]
        for call in calls:
            with pytest.raises(BadParameterError, match="sample count"):
                call()

    def test_takes_a_numpy_int_count(self):
        f, p = magnitude(), make_ar1(0.5, 1.0)
        got = loss_rate_bounds_mc(f, p, np.int64(10**4), 1)
        assert got == loss_rate_bounds_mc(f, p, 10**4, 1)


class TestSeedAndStream:
    # negative, a float, None, a bool and a string
    @pytest.mark.parametrize("seed", [-1, 2.5, None, True, "7"])
    def test_every_monte_carlo_entry_point_refuses_a_bad_seed(self, seed):
        f, p = magnitude(), make_ar1(0.5, 1.0)
        calls = [
            lambda: sample_path(p, 10**4, seed),
            lambda: loss_rate_bounds_mc(f, p, 10**4, seed),
            lambda: analyze_loss_rate(f, p, 10**4, seed),
            lambda: markov_block_entropy_W(f, p, n_samples=10**4, seed=seed),
            lambda: empirical_constant_frequency(f, p, n_samples=10**4, seed=seed),
        ]
        for call in calls:
            with pytest.raises(BadParameterError, match="seed"):
                call()

    # the sandwich and the report always draw stream 0
    @pytest.mark.parametrize("stream", [-1, 2.5, None, True])
    def test_every_entry_point_with_a_stream_refuses_a_bad_one(self, stream):
        f, p = magnitude(), make_ar1(0.5, 1.0)
        calls = [
            lambda: sample_path(p, 10**4, 1, stream),
            lambda: markov_block_entropy_W(f, p, n_samples=10**4, stream=stream),
            lambda: empirical_constant_frequency(
                f, p, n_samples=10**4, stream=stream
            ),
        ]
        for call in calls:
            with pytest.raises(BadParameterError, match="stream"):
                call()

    def test_takes_a_numpy_int_seed(self):
        f = magnitude()
        got = loss_rate_bounds_mc(f, make_ar1(0.5, 1.0), 10**4, np.int64(1))
        assert got == loss_rate_bounds_mc(f, make_ar1(0.5, 1.0), 10**4, 1)


class TestReport:
    def test_assembles_all_fields(self):
        rep = analyze_loss_rate(
            magnitude(),
            make_ar1(0.5, 1.0),
            n_samples=10**5,
            seed=3,
            grid=101,
        )
        assert rep.bound_L == 1.0
        assert rep.value is not None
        assert rep.lower_bound - 0.05 <= rep.value <= rep.upper_bound_sandwich + 0.05
        assert rep.value <= rep.bound_HW2X1 + 1e-6
        assert rep.bound_HW2X1 <= rep.bound_HW + 0.02
        assert rep.method["bound_L"] == "quadrature H(X|Y)"

    def test_one_path_serves_the_index_entropy_and_the_sandwich(self, monkeypatch):
        import inforate.lossrate
        import inforate.process

        f, p = magnitude(), make_ar1(0.5, 1.0)
        draws = []

        def counted(*args, **kwargs):
            draws.append(args)
            return sample_path(*args, **kwargs)

        # wherever the path is looked up: the importing module or its home
        for module in (inforate.lossrate, inforate.process):
            monkeypatch.setattr(module, "sample_path", counted)
        rep = analyze_loss_rate(f, p, n_samples=10**5, seed=3, grid=101)
        assert len(draws) == 1
        sw = loss_rate_bounds_mc(f, p, n_samples=10**5, seed=3)
        hw = markov_block_entropy_W(f, p, n_samples=10**5, seed=3)
        assert (rep.lower_bound, rep.upper_bound_sandwich) == (sw.lower, sw.upper)
        assert rep.bound_HW == hw.value

    def test_the_sandwich_then_the_index_entropy_draw_one_path(self, monkeypatch):
        import inforate.process

        f = magnitude()
        draws = []
        draw = inforate.process._draw_path

        def counted(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(inforate.process, "_draw_path", counted)
        p = make_ar1(0.5, 1.0)
        sw = loss_rate_bounds_mc(f, p, n_samples=10**5, seed=3)
        hw = markov_block_entropy_W(f, p, n_samples=10**5, seed=3)
        assert len(draws) == 1
        # the same calls on fresh equal processes draw their own paths
        fresh = [make_ar1(0.5, 1.0), make_ar1(0.5, 1.0)]
        assert sw == loss_rate_bounds_mc(f, fresh[0], n_samples=10**5, seed=3)
        assert hw == markov_block_entropy_W(f, fresh[1], n_samples=10**5, seed=3)
        assert len(draws) == 3

    def test_vanishing_derivative_at_a_tile_edge_needs_no_retry(self):
        # g'(0) = 0 where the branches of x**2 meet; one pass of the depth
        # budget reaches the endpoint singularity.  x**2 is |x| followed
        # by a bijection, which loses nothing, so the rates agree.
        p = make_ar1(0.5, 1.0)
        rep = analyze_loss_rate(square(), p, n_samples=10**4, seed=5, grid=101)
        assert rep.method["value"] == "quadrature (lumpable)"
        assert rep.value == pytest.approx(
            loss_rate_analytic(magnitude(), p, grid=101), abs=1e-9
        )

    def test_value_absent_when_not_lumpable(self):
        rep = analyze_loss_rate(
            magnitude(),
            shifted_kernel_process(),
            n_samples=10**5,
            seed=4,
            grid=101,
        )
        assert rep.value is None
        assert "unavailable" in rep.method["value"]
        assert rep.lower_bound is not None
