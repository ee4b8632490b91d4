"""Loss-rate values, bound chain, sandwich bracket, cascades."""

import collections
import dataclasses
import math

import numpy as np
import pytest
from scipy.special import ndtr

from inforate import (
    QuadratureConfig,
    analyze_loss_rate,
    cascade_loss_rate,
    check_lumpable,
    check_tightness,
    cond_entropy_W_given_X,
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
    pushforward_process,
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
    IncompatibleSpecError,
    NotLumpableError,
    TooFewSamplesError,
)
import inforate.lossrate
from inforate._rng import make_rng
from inforate.lossrate import _sandwich
from inforate.pbf import compose

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


# folds whose g' vanishes at the tile edge 0: |x| followed by a bijection
# on each side, so they lose what |x| loses
X4 = compose(square(0.0, np.inf), square())
NEG_SQUARE = compose(scale(-1.0), square())


def _counted_kernel(process, points):
    """``process`` with a kernel density that adds the size of each of
    its outputs to ``points[0]``."""
    cond = process.kernel.cond_pdf

    def counted(x2, x1):
        out = cond(x2, x1)
        points[0] += np.size(out)
        return out

    kernel = dataclasses.replace(process.kernel, cond_pdf=counted)
    return dataclasses.replace(process, kernel=kernel)


class TestVanishingDerivative:
    @pytest.mark.parametrize("a", [0.5, 0.9])
    @pytest.mark.parametrize(
        "f", [square(), X4, NEG_SQUARE], ids=["x^2", "x^4", "-x^2"]
    )
    def test_rate_is_the_magnitude_rate(self, f, a):
        p = make_ar1(a, 1.0)
        want = loss_rate_analytic(magnitude(), p)
        assert loss_rate_analytic(f, p) == pytest.approx(want, abs=1e-12)

    def test_walk_rate(self):
        got = loss_rate_analytic(square(-1.0, 1.0), make_cyclic_walk(1.0, 0.35))
        assert got == pytest.approx(0.35, abs=1e-12)

    def test_square_costs_at_most_twice_the_kernel_points_of_magnitude(self):
        # the rate's quadrature alone, without the lumpability gate
        rate = inforate.lossrate.cond_entropy_X2_given_Y2_X1
        points = {}
        for name, f in (("magnitude", magnitude()), ("square", square())):
            count = [0]
            rate(f, _counted_kernel(make_ar1(0.5, 1.0), count))
            points[name] = count[0]
        assert 0 < points["square"] <= 2 * points["magnitude"]

    def test_marginal_losses(self):
        assert loss_rv(X4, make_iid_gaussian(1.0)) == 1.0
        got = loss_rv(square(), make_iid_uniform(-1.0, 3.0))
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_analyze_reports_the_x4_rate(self):
        p = make_ar1(0.5, 1.0)
        rep = analyze_loss_rate(X4, p, n_samples=10**4, seed=5, grid=101)
        assert rep.method["value"] == "quadrature (lumpable)"
        want = loss_rate_analytic(magnitude(), p, grid=101)
        assert rep.value == pytest.approx(want, abs=1e-12)


class TestRefusedBeforeAnyWork:
    @pytest.fixture
    def draws(self, monkeypatch):
        import inforate.process

        draws = []
        draw = inforate.process._draw_path

        def counted(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(inforate.process, "_draw_path", counted)
        return draws

    def test_a_function_that_misses_the_window(self, calls, draws):
        f, p = shift_mod(1.0, lo=20.0, hi=22.0), make_iid_gaussian(1.0)
        for call in (
            lambda: loss_rv(f, p),
            lambda: loss_rate_bounds_mc(f, p, 10**4, 1),
        ):
            with pytest.raises(IncompatibleSpecError, match="does not cover"):
                call()
        assert draws == []
        assert sum(calls.values()) == 0

    def test_a_function_that_covers_part_of_the_window(self, monkeypatch, draws):
        # AR(1)'s window is +-11.55; each pair misses most of it
        import inforate.estimate

        # every quadrature, either rule, runs the one adaptive loop
        quads = []
        real = inforate.estimate._adapt

        def counted(*args, **kwargs):
            quads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(inforate.estimate, "_adapt", counted)
        p, fold = make_ar1(0.5, 1.0), magnitude(-1.0, 1.0)
        cells = quantizer([10.0, 11.0])
        entry_points = [
            lambda f: loss_rv(f, p),
            lambda f: loss_rate_analytic(f, p),
            lambda f: loss_rate_bounds_mc(f, p, 10**4, 1),
            lambda f: analyze_loss_rate(f, p, 10**4, 1),
            lambda f: cascade_loss_rate([f], p),
            lambda f: cond_entropy_W_given_X(f, p),
            lambda f: markov_block_entropy_W(f, p, n_samples=10**4),
            lambda f: check_lumpable(f, p),
            lambda f: check_tightness(f, p),
            lambda f: pushforward_process(f, p),
        ]
        relloss = [
            lambda f: relative_loss_rate_constant_pieces(f, p),
            lambda f: empirical_constant_frequency(f, p, 10**4, 1),
        ]
        pairs = [(call, fold) for call in entry_points + relloss]
        pairs += [(call, cells) for call in relloss]
        for call, f in pairs:
            with pytest.raises(IncompatibleSpecError, match="does not cover"):
                call(f)
        assert draws == []
        assert quads == []

    def test_a_pair_table_past_the_bin_cap(self, calls, draws, small_bincounts):
        # 10**6 bins a side would ask np.bincount for 10**12 counters, 8 TB
        f, p = magnitude(), make_ar1(0.5, 1.0)
        for call in (
            lambda: analyze_loss_rate(f, p, n_samples=20000, bins=10**6),
            lambda: loss_rate_bounds_mc(f, p, 20000, 1, bins=10**6),
        ):
            with pytest.raises(BadParameterError, match=r"bins .* in 1\.\.4096"):
                call()
        assert draws == []
        assert sum(calls.values()) == 0

    def test_too_few_samples(self, calls, draws):
        f, p = magnitude(), make_ar1(0.5, 1.0)
        for call in (
            lambda: analyze_loss_rate(f, p, n_samples=1000),
            lambda: loss_rate_bounds_mc(f, p, 1000, 1),
        ):
            with pytest.raises(TooFewSamplesError, match="1001 samples"):
                call()
        assert draws == []
        assert sum(calls.values()) == 0


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
            lambda x: ndtr(np.asarray(x, dtype=float) - 0.5),
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
        hwx = cond_entropy_W_given_X(f, p)
        hw_rate = markov_block_entropy_W(f, p, k=4, n_samples=300_000, seed=11).value
        marginal = loss_rv(f, p)
        assert value <= hwx + 1e-6
        assert hwx <= hw_rate + 0.02
        assert value <= marginal + 1e-6

    def test_tightness_chain_is_tight(self):
        p = make_tightness_example()
        f = shift_mod(2.0, lo=0.0, hi=4.0)
        value = loss_rate_analytic(f, p)
        hwx = cond_entropy_W_given_X(f, p)
        marginal = loss_rv(f, p)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert hwx == pytest.approx(1.0, abs=1e-9)
        assert marginal == 1.0

    def test_index_bound_sharper_than_entropy_rate_ar1(self):
        p = make_ar1(0.6, 1.0)
        f = magnitude()
        hwx = cond_entropy_W_given_X(f, p)
        hw_rate = markov_block_entropy_W(f, p, k=4, n_samples=300_000, seed=12).value
        assert hwx <= hw_rate + 0.02

    def test_index_bound_below_one_for_large_pole(self):
        # quadrature oracle: H2(Phi(-a x / sigma)) < 1 strictly for x != 0
        hwx = cond_entropy_W_given_X(magnitude(), make_ar1(0.9, 1.0))
        assert hwx < 1.0 - 0.3

    def test_marginal_loss_bounds_rate_cyclic(self):
        p = make_cyclic_walk(1.0, 0.5)
        f = magnitude(-1.0, 1.0)
        assert loss_rv(f, p) == 1.0
        assert loss_rate_analytic(f, p) == pytest.approx(0.5, abs=1e-3)

    def test_bijective_everything_zero(self):
        p = make_ar1(0.5, 1.0)
        f = scale(2.5)
        assert loss_rv(f, p) == 0.0
        assert abs(cond_entropy_W_given_X(f, p)) <= 1e-9
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

    def test_every_later_stage_reads_the_input_pushed_through_its_prefix(
        self, monkeypatch
    ):
        # no stage is pushed forward from another stage's pushforward
        proc, inputs = make_ar1(0.55, 1.0), []
        real = inforate.lossrate.pushforward_process

        def recorded(f, process):
            inputs.append(process)
            return real(f, process)

        monkeypatch.setattr(inforate.lossrate, "pushforward_process", recorded)
        chain = [scale(0.5), magnitude(), scale(2.0), scale(0.5)]
        res = cascade_loss_rate(chain, proc)
        assert len(inputs) == 2 and all(p is proc for p in inputs)
        assert res.stages == (0.0, 0.7937017031194797, 0.0, 0.0)
        assert res.total == 0.7937017031194797

    def test_a_last_lossy_stage_gives_the_total(self, calls):
        # the fold stage already runs the whole chain on AR(1) itself
        res = cascade_loss_rate([scale(1.5), magnitude()], make_ar1(0.5, 1.0))
        assert calls["check_lumpable"] == 1
        assert calls["cond_entropy_X2_given_Y2_X1"] == 1
        assert res.stages[0] == 0.0
        assert res.total == res.stages[1]
        assert res.additivity_gap == 0.0

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


class TestGridRefusedFirst:
    ENTRY_POINTS = {
        "loss_rate_analytic": lambda p: loss_rate_analytic(magnitude(), p, grid=50),
        "cascade_loss_rate": lambda p: cascade_loss_rate([magnitude()], p, grid=50),
        "analyze_loss_rate": lambda p: analyze_loss_rate(
            magnitude(), p, n_samples=10**5, grid=50
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "process",
        [make_ar1(0.5, 1.0), make_iid_gaussian(1.0)],
        ids=["ar1", "iid gaussian"],
    )
    def test_before_any_sampling_or_quadrature(
        self, calls, monkeypatch, entry, process
    ):
        import inforate.process

        draws = []

        def counted(*args, **kwargs):
            draws.append(args)
            return sample_path(*args, **kwargs)

        for module in (inforate.lossrate, inforate.process):
            monkeypatch.setattr(module, "sample_path", counted)
        with pytest.raises(BadParameterError, match="grid"):
            self.ENTRY_POINTS[entry](process)
        assert draws == []
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
        import inforate.process

        f, p = magnitude(), make_ar1(0.5, 1.0)
        draws = []
        draw = inforate.process._draw_path

        def counted(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(inforate.process, "_draw_path", counted)
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
        # g'(0) = 0 where the branches of x**2 meet; the windows that end
        # at the singularity are graded, not retried.  x**2 is |x| followed
        # by a bijection, which loses nothing, so the rates agree.
        p = make_ar1(0.5, 1.0)
        rep = analyze_loss_rate(square(), p, n_samples=10**4, seed=5, grid=101)
        assert rep.method["value"] == "quadrature (lumpable)"
        assert rep.value == pytest.approx(
            loss_rate_analytic(magnitude(), p, grid=101), abs=1e-9
        )

    @pytest.mark.parametrize(
        "f, process, value, route",
        [
            (scale(2.0), make_ar1(0.5, 1.0), 0.0, "bijective"),
            (magnitude(), make_iid_uniform(-1.0, 3.0), 0.5, "iid marginal loss"),
        ],
    )
    def test_the_value_names_the_route_that_gave_it(self, f, process, value, route):
        # one injective branch and an iid input never pass the lumpability gate
        rep = analyze_loss_rate(f, process, n_samples=10**4, seed=2)
        assert rep.value == pytest.approx(value, abs=1e-12)
        assert rep.method["value"].startswith(route)
        assert "lumpable" not in rep.method["value"]

    def test_an_iid_report_computes_the_marginal_loss_once(self, calls):
        # the iid route's value is L itself, the bound the report holds
        f, p = magnitude(), make_iid_uniform(-1.0, 3.0)
        rep = analyze_loss_rate(f, p, n_samples=10**4)
        assert calls["cond_entropy_input_given_output"] == 1
        assert rep.value == rep.bound_L == 0.5
        assert rep.method["bound_L"] == "quadrature H(X|Y)"
        assert rep.method["value"] == "iid marginal loss, quadrature H(X|Y)"

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
