"""Process models: entropies against closed forms, samplers, stationarity."""

import math
import sys
import threading
import weakref

import numpy as np
import pytest

from inforate import (
    PiecewiseFunction,
    magnitude,
    scale,
    shift_mod,
    make_ar1,
    make_cyclic_walk,
    make_iid,
    make_iid_gaussian,
    make_iid_uniform,
    make_tightness_example,
    mutual_information_hist,
    pushforward_process,
    sample_path,
    stationarity_residual,
)
from inforate.errors import BadParameterError, NotNormalizedError
from inforate.estimate import cond_entropy_rate_quad, marginal_entropy_quad
from inforate._rng import make_rng
from inforate import process
from inforate.process import circular_distance, wrap_interval

from conftest import shifted_kernel_process


class TestAR1:
    def test_marginal_variance(self):
        p = make_ar1(0.5, 1.0)
        assert p.params["a"] == 0.5
        # sigma_X^2 = sigma^2 / (1 - a^2), and the innovation has sigma^2 = 1
        var = 1.0 / (1.0 - 0.25)
        assert marginal_entropy_quad(p) == pytest.approx(
            0.5 * math.log2(2 * math.pi * math.e * var), abs=1e-9
        )
        assert cond_entropy_rate_quad(p) == pytest.approx(
            0.5 * math.log2(2 * math.pi * math.e), abs=1e-9
        )

    def test_small_pole_mi_vanishes(self):
        # I(X1;X2) = h(X) - h(X2|X1), each to the default abs_tol 1e-9
        p = make_ar1(1e-6, 1.0)
        assert abs(marginal_entropy_quad(p) - cond_entropy_rate_quad(p)) < 2e-9

    def test_mi_formula_and_histogram_cross_check(self):
        a = 0.9
        p = make_ar1(a, 1.0)
        expected = -0.5 * math.log2(1.0 - a * a)
        mi = marginal_entropy_quad(p) - cond_entropy_rate_quad(p)
        assert mi == pytest.approx(expected, abs=2e-9)
        path = sample_path(p, 10**6, seed=101)
        est = mutual_information_hist(path.values[:-1], path.values[1:], 100)
        assert est == pytest.approx(expected, abs=0.03)

    def test_bad_parameters(self):
        for a, s in [(0.0, 1.0), (1.0, 1.0), (-0.2, 1.0), (0.5, 0.0)]:
            with pytest.raises(BadParameterError):
                make_ar1(a, s)

    def test_kernel_is_gaussian_step(self):
        p = make_ar1(0.5, 2.0)
        x1 = 1.3
        got = float(p.kernel.cond_pdf(2.0, x1))
        expected = math.exp(-((2.0 - 0.5 * x1) ** 2) / (2 * 4.0)) / math.sqrt(
            2 * math.pi * 4.0
        )
        assert got == pytest.approx(expected, rel=1e-12)


class TestCyclicWalk:
    def test_full_wrap_is_iid_uniform(self):
        p = make_cyclic_walk(1.0, 1.0)
        xs = np.linspace(-0.99, 0.99, 41)
        vals = p.kernel.cond_pdf(xs, 0.37)
        np.testing.assert_allclose(vals, 0.5)

    def test_circular_distance_by_hand(self):
        # oracle: explicit minimum over shifts k in {-1, 0, 1}
        M, x1, x2 = 3.0, 2.5, -2.9
        by_hand = min(abs(x2 - x1 - 2 * k * M) for k in (-1, 0, 1))
        assert by_hand == pytest.approx(0.6)
        assert circular_distance(x2, x1, M) == pytest.approx(by_hand, abs=1e-12)
        p = make_cyclic_walk(M, 1.0)
        assert float(p.kernel.cond_pdf(x2, x1)) == pytest.approx(0.5)

    def test_stationarity(self):
        p = make_cyclic_walk(2.0, 0.7)
        assert stationarity_residual(p) <= 1e-4

    def test_bad_parameters(self):
        with pytest.raises(BadParameterError):
            make_cyclic_walk(1.0, 1.5)
        with pytest.raises(BadParameterError):
            make_cyclic_walk(1.0, 0.0)

    def test_wrap_convention(self):
        assert wrap_interval(1.0, 1.0) == -1.0  # left-closed [-M, M)
        assert wrap_interval(-1.0, 1.0) == -1.0


class TestTightnessExample:
    def test_analytic_entropies(self):
        p = make_tightness_example()
        assert marginal_entropy_quad(p) == pytest.approx(2.0, abs=1e-9)
        assert cond_entropy_rate_quad(p) == pytest.approx(1.0, abs=1e-9)

    def test_stationarity_quadrature(self):
        assert stationarity_residual(make_tightness_example()) <= 1e-4

    def test_block_alternation_exact(self):
        p = make_tightness_example()
        x = sample_path(p, 20_000, seed=9).values
        even = (np.floor(x).astype(int) % 2) == 0
        # whenever X_k is in an even block, X_{k+1} is in an odd block
        assert np.all(even[:-1] != even[1:])
        assert np.all((x >= 0.0) & (x < 4.0))


class TestIid:
    def test_gaussian_mi_zero(self):
        p = make_iid_gaussian(1.0)
        assert p.kernel is None
        h = marginal_entropy_quad(p)
        assert h == pytest.approx(0.5 * math.log2(2 * math.pi * math.e), abs=1e-9)
        assert cond_entropy_rate_quad(p) == h

    def test_uniform_unit_entropy(self):
        p = make_iid_uniform(0.0, 1.0)
        assert marginal_entropy_quad(p) == pytest.approx(0.0, abs=1e-9)

    def test_stationarity_trivially_exact(self):
        assert stationarity_residual(make_iid_uniform(0.0, 1.0)) == 0.0

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalizedError):
            make_iid(
                marginal_pdf=lambda x: np.full_like(np.asarray(x, float), 0.7),
                marginal_sampler=lambda rng, n: rng.uniform(0, 1, n),
                support=(0.0, 1.0),
            )

    def test_custom_normalized_accepted(self):
        p = make_iid(
            marginal_pdf=lambda x: 2.0 * np.asarray(x, float),
            marginal_sampler=lambda rng, n: np.sqrt(rng.uniform(0, 1, n)),
            support=(0.0, 1.0),
        )
        assert p.kernel is None


class TestSamplePath:
    def test_ar1_empirical_variance(self):
        p = make_ar1(0.5, 1.0)
        x = sample_path(p, 10**6, seed=42).values
        var_x = 1.0 / (1.0 - 0.25)
        assert abs(x.var() - var_x) / var_x < 0.01

    def test_ar1_lag1_correlation(self):
        a = 0.8
        x = sample_path(make_ar1(a, 1.0), 10**6, seed=42).values
        r = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r - a) < 0.01

    def test_cyclic_support(self):
        x = sample_path(make_cyclic_walk(2.0, 0.5), 100_000, seed=1).values
        assert np.all((x >= -2.0) & (x < 2.0))

    def test_cyclic_marginal_histogram(self):
        # thin the chain so the per-bin binomial standard error applies
        x = sample_path(make_cyclic_walk(1.0, 0.3), 10**6, seed=12).values[::50]
        n = x.size
        counts, _ = np.histogram(x, bins=64, range=(-1.0, 1.0))
        p = 1.0 / 64
        se = math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * se)

    def test_reproducible(self):
        p = make_cyclic_walk(1.0, 0.4)
        a = sample_path(p, 5000, seed=7)
        b = sample_path(p, 5000, seed=7)
        assert np.array_equal(a.values, b.values)
        c = sample_path(p, 5000, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_streams_differ(self):
        p = make_iid_gaussian(1.0)
        a = sample_path(p, 1000, seed=7, stream=0)
        b = sample_path(p, 1000, seed=7, stream=1)
        assert not np.array_equal(a.values, b.values)

    def test_path_immutable(self):
        path = sample_path(make_iid_gaussian(1.0), 100, seed=0)
        with pytest.raises(ValueError):
            path.values[0] = 0.0

    def test_generic_kernel_fallback(self):
        # force the scalar loop by removing the path sampler
        from dataclasses import replace

        p = replace(make_ar1(0.6, 1.0), path_sampler=None)
        x = sample_path(p, 2000, seed=3).values
        assert x.shape == (2000,)
        assert abs(np.corrcoef(x[:-1], x[1:])[0, 1] - 0.6) < 0.1


class TestPathMemo:
    # each test starts from a process object of its own, so that what an
    # earlier test left in the slot cannot be a hit

    def test_a_repeated_call_returns_the_same_path(self):
        p = make_ar1(0.5, 1.0)
        path = sample_path(p, 5000, seed=7, stream=2)
        assert sample_path(p, 5000, seed=7, stream=2) is path

    def test_another_process_count_seed_or_stream_misses(self):
        p = make_ar1(0.5, 1.0)
        path = sample_path(p, 5000, seed=7)
        # an equal process that is another object misses too
        assert sample_path(make_ar1(0.5, 1.0), 5000, seed=7) is not path
        for args in [(p, 5001, 7, 0), (p, 5000, 8, 0), (p, 5000, 7, 1)]:
            got = sample_path(*args)
            assert got is not path
            assert (got.length, got.seed, got.stream) == args[1:]

    def test_a_fresh_equal_process_draws_equal_values(self):
        a = sample_path(make_cyclic_walk(1.0, 0.4), 5000, seed=7)
        b = sample_path(make_cyclic_walk(1.0, 0.4), 5000, seed=7)
        assert a is not b
        assert np.array_equal(a.values, b.values)

    def test_takes_numpy_int_seeds_and_streams(self):
        a = sample_path(make_iid_gaussian(1.0), 100, np.int64(7), np.uint8(1))
        b = sample_path(make_iid_gaussian(1.0), 100, 7, 1)
        assert np.array_equal(a.values, b.values)

    def test_the_old_path_is_gone_before_the_next_draw(self, monkeypatch):
        p = make_ar1(0.5, 1.0)
        old = weakref.ref(sample_path(p, 1000, seed=1).values)
        # the slot holds it until another path is asked for
        assert old() is not None
        draw = process._draw_path
        alive = []

        def checked(*args):
            alive.append(old() is not None)
            return draw(*args)

        monkeypatch.setattr(process, "_draw_path", checked)
        sample_path(p, 1000, seed=2)
        assert alive == [False]

    def test_threads_sharing_the_slot_get_their_own_paths(self):
        # eight threads on two keys, switching often: a hit must never
        # return the other key's path
        p = make_iid_gaussian(1.0)
        want = {s: sample_path(make_iid_gaussian(1.0), 500, s).values for s in (1, 2)}
        wrong = []

        def work(seed):
            for _ in range(200):
                if not np.array_equal(sample_path(p, 500, seed).values, want[seed]):
                    wrong.append(seed)

        threads = [threading.Thread(target=work, args=(1 + i % 2,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestStationarityResidualAll:
    @pytest.mark.parametrize(
        "proc",
        [
            make_ar1(0.3, 1.0),
            make_ar1(0.9, 0.5),
            make_cyclic_walk(1.0, 0.4),
            make_cyclic_walk(3.0, 2.0),
            make_tightness_example(),
            make_iid_gaussian(2.0),
            make_iid_uniform(-1.0, 1.0),
        ],
        ids=["ar1-03", "ar1-09", "cyc-04", "cyc-2", "tight", "gauss", "unif"],
    )
    def test_residual_small(self, proc):
        assert stationarity_residual(proc) <= 1e-4


class TestPushforward:
    def test_magnitude_of_gaussian_density(self):
        p = make_iid_gaussian(1.0)
        push = pushforward_process(magnitude(), p)
        ys = np.linspace(0.1, 3.0, 7)
        expected = 2.0 * np.exp(-(ys**2) / 2) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(push.marginal_pdf(ys), expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "proc, f",
        [
            (make_ar1(0.5, 1.0), scale(2.0)),
            (make_ar1(0.7, 1.0), magnitude()),
            (make_cyclic_walk(1.0, 0.4), magnitude(-1.0, 1.0)),
            (make_tightness_example(), shift_mod(2.0, lo=0.0, hi=4.0)),
            (make_iid_gaussian(1.0), magnitude()),
        ],
        ids=["ar1-scale", "ar1-abs", "cyc-abs", "tight-shift", "gauss-abs"],
    )
    def test_sampled_path_is_the_mapped_input_path(self, proc, f):
        push = pushforward_process(f, proc)
        for seed, stream in [(1, 0), (42, 3)]:
            got = sample_path(push, 1000, seed, stream).values
            want = f.eval_array(sample_path(proc, 1000, seed, stream).values)
            np.testing.assert_array_equal(got, want)
        assert sample_path(push, 1, 5).values.shape == (1,)

    def test_sampled_pushforward_feeds_the_simulation_bounds(self):
        from inforate import analyze_loss_rate, loss_rate_bounds_mc

        push = pushforward_process(scale(2.0), make_ar1(0.5, 1.0))
        sw = loss_rate_bounds_mc(magnitude(), push, n_samples=10**4, seed=1)
        assert sw.loss_rv_value == 1.0
        assert 0.0 < sw.lower <= sw.upper < 1.0
        rep = analyze_loss_rate(magnitude(), push, n_samples=10**4, seed=1, grid=101)
        assert rep.bound_L == 1.0
        assert rep.lower_bound == sw.lower
        assert rep.value is not None and 0.0 < rep.value < 1.0

    @pytest.mark.parametrize(
        "proc, f",
        [
            (make_ar1(0.5, 1.0), magnitude()),
            (make_cyclic_walk(1.0, 0.3), magnitude(-1.0, 1.0)),
            (make_tightness_example(), shift_mod(2.0, lo=0.0, hi=4.0)),
        ],
        ids=["ar1-abs", "cyc-abs", "tight-shift"],
    )
    def test_kernel_broadcasts_like_column_by_column_calls(self, proc, f):
        push = pushforward_process(f, proc)
        lo, hi = push.quad_support
        twice = pushforward_process(scale(2.0, lo, hi), push)
        for kern, k in ((push.kernel, 1.0), (twice.kernel, 2.0)):
            # y1 runs past both ends of the output range
            y1 = k * (np.linspace(lo - 0.5, hi + 0.5, 17) + 1e-7)
            y2 = k * (np.linspace(lo, hi, 29) + 3e-7)
            got = kern.cond_pdf(y2[:, None], y1[None, :])
            want = np.stack([kern.cond_pdf(y2, v) for v in y1], axis=1)
            assert np.any(want > 0.0)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "proc, f",
        [
            (make_ar1(0.5, 1.0), magnitude()),
            (make_ar1(0.5, 1.0), scale(-2.0)),
            (make_cyclic_walk(1.0, 0.4), magnitude(-1.0, 1.0)),
            (make_cyclic_walk(1.0, 0.4), scale(-2.0, -1.0, 1.0)),
            (make_tightness_example(), shift_mod(4 / 3, lo=0.0, hi=4.0)),
        ],
        ids=["ar1-abs", "ar1-scale", "cyc-abs", "cyc-scale", "tight-mod"],
    )
    def test_kernel_is_the_mixture_over_the_preimages_of_y1(self, proc, f):
        push = pushforward_process(f, proc)
        lo, hi = push.quad_support
        rng = make_rng(17)

        def mixture(y2, y1):
            # one output density given x1 per preimage x1 of y1, weighed
            # by f_X(x1)/|g'(x1)| normalised first
            y2 = np.broadcast_to(y2, np.broadcast_shapes(y2.shape, y1.shape))
            t1 = f.preimage_table(y1)
            w = t1.weights(proc.marginal_pdf)
            total = w.sum(axis=0)
            out = np.zeros(y2.shape)
            for x1, wa in zip(t1.x, w / np.where(total > 0.0, total, 1.0)):
                out += wa * f.preimage_sum(lambda x2: proc.kernel.cond_pdf(x2, x1), y2)
            return out

        for y2, y1 in [
            (rng.uniform(lo, hi, (6, 2)), rng.uniform(lo, hi, (5, 1, 1))),
            (rng.uniform(lo, hi, 40), rng.uniform(lo, hi, 40)),
        ]:
            want = mixture(y2, y1)
            assert np.any(want > 0.0)
            np.testing.assert_array_equal(push.kernel.cond_pdf(y2, y1), want)

    def test_kernel_inverts_each_output_array_once(self, monkeypatch):
        push = pushforward_process(magnitude(), make_ar1(0.5, 1.0))
        inverted = []
        terms = PiecewiseFunction.preimage_terms

        def counted(f, ys):
            inverted.append(np.size(ys))
            return terms(f, ys)

        monkeypatch.setattr(PiecewiseFunction, "preimage_terms", counted)
        k, m = 7, 11
        y2, y1 = np.linspace(0.1, 3.0, m), np.linspace(0.2, 2.0, k)[:, None]
        push.kernel.cond_pdf(y2, y1)
        assert sum(inverted) <= k + m

    def test_uniform_inherited_through_shifts(self):
        from inforate import shift_mod

        p = make_iid_uniform(0.0, 4.0)
        push = pushforward_process(shift_mod(2.0, lo=0.0, hi=4.0), p)
        ys = np.linspace(0.01, 1.99, 11)
        np.testing.assert_allclose(push.marginal_pdf(ys), 0.5, rtol=1e-12)


KERNELS = {
    "ar1": lambda: make_ar1(0.5, 1.0),
    "walk": lambda: make_cyclic_walk(1.0, 0.35),
    "tightness": make_tightness_example,
    "pushforward-ar1": lambda: pushforward_process(scale(2.0), make_ar1(0.5, 1.0)),
    "pushforward-walk": lambda: pushforward_process(
        scale(1.5, -1.0, 1.0), make_cyclic_walk(1.0, 0.35)
    ),
    "shifted": shifted_kernel_process,
}


@pytest.mark.parametrize("name", sorted(KERNELS))
class TestKernelContract:
    """The kernel lookups take arrays and answer one row per entry."""

    def test_split_points_give_one_row_per_x1(self, name):
        kern = KERNELS[name]().kernel
        x1s = np.linspace(-13.0, 13.0, 13) + 1e-7
        rows = kern.split_points(x1s)
        assert rows.ndim == 2 and rows.shape[0] == x1s.size
        for j in range(x1s.size):
            np.testing.assert_array_equal(rows[j], kern.split_points(x1s[j : j + 1])[0])

    def test_x2_window_broadcasts_to_the_x1s(self, name):
        proc = KERNELS[name]()
        x1s = np.linspace(-2.0, 2.0, 7)
        if proc.kernel.quad_range is None:
            ends = proc.quad_support
        else:
            ends = proc.kernel.quad_range(x1s)
        assert np.broadcast_shapes(*map(np.shape, ends), x1s.shape) == x1s.shape

    def test_x1_split_points_put_a_jump_on_the_given_x2(self, name):
        proc = KERNELS[name]()
        lo, hi = proc.quad_support
        for e in np.linspace(lo, hi, 23)[1:-1] + 1e-7:
            for x1 in proc.kernel.x1_split_points(np.array([e]))[0]:
                if np.isnan(x1):
                    continue
                jumps = proc.kernel.split_points(np.array([x1]))[0]
                assert np.nanmin(np.abs(jumps - e)) <= 1e-12
