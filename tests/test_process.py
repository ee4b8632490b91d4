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
    quantizer,
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
)
from inforate.errors import BadParameterError, NotNormalizedError
from inforate.estimate import cond_entropy_rate_quad, marginal_entropy_quad
from inforate._rng import make_rng
from inforate import process
from inforate.process import wrap_interval

from conftest import shifted_kernel_process
from oracles import circular_distance, stationarity_residual


class TestAR1:
    def test_marginal_variance(self):
        p = make_ar1(0.5, 1.0)
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


@pytest.mark.parametrize(
    "make, args",
    [
        (make_ar1, (0.5, math.nan)),
        (make_ar1, (0.5, math.inf)),
        (make_ar1, (math.nan, 1.0)),
        (make_cyclic_walk, (math.inf, 0.5)),
        (make_cyclic_walk, (math.nan, 0.5)),
        (make_cyclic_walk, (1.0, math.nan)),
        (make_iid_gaussian, (math.nan,)),
        (make_iid_gaussian, (math.inf,)),
        (make_iid_uniform, (0.0, math.inf)),
        (make_iid_uniform, (-math.inf, 0.0)),
        (make_iid_uniform, (math.nan, 1.0)),
        (make_iid_uniform, (0.0, math.nan)),
        (make_iid_uniform, (-1e308, 1e308)),  # hi - lo overflows
    ],
)
def test_builders_refuse_non_finite_parameters(make, args):
    with pytest.raises(BadParameterError):
        make(*args)


# each builds a constant that is 0 or past the float range
OVERFLOWING = {
    "ar1-sigma-underflows": (make_ar1, (0.5, 1e-320)),
    "ar1-sigma-overflows": (make_ar1, (0.5, 1e200)),
    "gaussian-sigma-underflows": (make_iid_gaussian, (1e-300,)),
    "gaussian-sigma-overflows": (make_iid_gaussian, (1e200,)),
    "walk-2M-overflows": (make_cyclic_walk, (1e308, 0.5)),
    "walk-kernel-overflows": (make_cyclic_walk, (1.0, 5e-324)),
    "uniform-density-overflows": (make_iid_uniform, (0.0, 5e-324)),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_builders_refuse_constants_that_overflow_or_underflow(case):
    make, args = OVERFLOWING[case]
    with pytest.raises(BadParameterError, match="overflows or underflows"):
        make(*args)


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

    def test_kernel_is_zero_off_the_circle(self):
        # cond_cdf and the marginal put no mass off [-M, M): x2 = 2 is a
        # whole turn from x1 = 0, and x2 = M is 0.1 from x1 = 0.9 across
        # the wrap, where the left-closed end -M is on the circle; a given
        # x1 off the circle has no mass either
        p = make_cyclic_walk(1.0, 0.35)
        assert float(p.kernel.cond_pdf(2.0, 0.0)) == 0.0
        assert float(p.kernel.cond_pdf(1.0, 0.9)) == 0.0
        assert float(p.kernel.cond_pdf(-1.0, 0.9)) == pytest.approx(1.0 / 0.7)
        assert float(p.kernel.cond_pdf(0.0, 2.0)) == 0.0
        assert float(p.kernel.cond_pdf(0.9, 1.0)) == 0.0
        assert float(p.kernel.cond_cdf(2.0, 0.0)) == float(p.kernel.cond_cdf(1.0, 0.0))

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
                marginal_cdf=lambda x: 0.7 * np.clip(np.asarray(x, float), 0.0, 1.0),
                marginal_sampler=lambda rng, n: rng.uniform(0, 1, n),
                support=(0.0, 1.0),
            )

    def test_custom_normalized_accepted(self):
        p = make_iid(
            marginal_pdf=lambda x: 2.0 * np.asarray(x, float),
            marginal_cdf=lambda x: np.clip(np.asarray(x, float), 0.0, 1.0) ** 2,
            marginal_sampler=lambda rng, n: np.sqrt(rng.uniform(0, 1, n)),
            support=(0.0, 1.0),
        )
        assert p.kernel is None

    def test_normalization_is_always_checked(self):
        with pytest.raises(TypeError, match="check_normalization"):
            make_iid(
                marginal_pdf=lambda x: np.full_like(np.asarray(x, float), 0.7),
                marginal_cdf=lambda x: 0.7 * np.clip(np.asarray(x, float), 0.0, 1.0),
                marginal_sampler=lambda rng, n: rng.uniform(0, 1, n),
                support=(0.0, 1.0),
                check_normalization=False,
            )

    def test_distribution_functions_are_required(self):
        def pdf(x):
            return np.ones_like(np.asarray(x, float))

        with pytest.raises(TypeError, match="marginal_cdf"):
            make_iid(
                marginal_pdf=pdf,
                marginal_sampler=lambda rng, n: rng.uniform(0, 1, n),
                support=(0.0, 1.0),
            )
        with pytest.raises(TypeError, match="marginal_cdf"):
            process.StationaryProcess(
                marginal_pdf=pdf,
                path_sampler=None,
                kernel=None,
                support=(0.0, 1.0),
                quad_support=(0.0, 1.0),
            )
        with pytest.raises(TypeError, match="cond_cdf"):
            process.MarkovKernel(cond_pdf=lambda x2, x1: pdf(x2))


# the uniform marginals as their constructors wrote them out, and their ends
UNIFORM_MARGINALS = {
    "walk": (lambda: make_cyclic_walk(0.7, 0.3), 1.0 / (2.0 * 0.7), -0.7, 0.7),
    "tightness": (make_tightness_example, 0.25, 0.0, 4.0),
    "iid uniform": (lambda: make_iid_uniform(-1.0, 3.0), 1.0 / 4.0, -1.0, 3.0),
}


@pytest.mark.parametrize("name", sorted(UNIFORM_MARGINALS))
def test_uniform_marginals_keep_their_floats(name):
    make, dens, lo, hi = UNIFORM_MARGINALS[name]
    proc = make()
    ends = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, -np.inf)]
    xs = np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 1001), ends])
    np.testing.assert_array_equal(
        proc.marginal_pdf(xs), np.where((xs >= lo) & (xs < hi), dens, 0.0)
    )
    np.testing.assert_array_equal(
        proc.marginal_cdf(xs), np.clip((xs - lo) / (hi - lo), 0.0, 1.0)
    )


def _iterate(x0, innovations, step):
    """x[0] = x0 and x[k] = step(x[k-1], innovations[k-1]), as floats."""
    x = [float(x0)]
    for d in innovations:
        x.append(float(step(x[-1], d)))
    return np.array(x)


def _ar1_draws(a, sigma, shift=0.0):
    def expected(rng, n):
        x0 = rng.normal(0.0, math.sqrt(sigma**2 / (1.0 - a**2)), 1)[0]
        z = rng.normal(0.0, sigma, n - 1)
        return _iterate(x0, z, lambda x, d: a * x + shift + d)

    return expected


def _walk_draws(m, a):
    def expected(rng, n):
        x0 = rng.uniform(-m, m, 1)[0]
        steps = rng.uniform(-a, a, n - 1)
        return _iterate(x0, steps, lambda x, d: (x + d + m) % (2.0 * m) - m)

    return expected


def _tightness_draws(rng, n):
    # the next block is 2 * b plus the parity the last value's block lacks
    x0 = rng.uniform(0.0, 4.0, 1)[0]
    blocks = rng.integers(0, 2, n - 1)
    offsets = rng.uniform(0.0, 1.0, n - 1)
    step = lambda x, d: 2.0 * d[0] + (math.floor(x) + 1) % 2 + d[1]
    return _iterate(x0, zip(blocks, offsets), step)


# name: (process, the path rebuilt from make_rng draws in their order);
# an iid path is n draws from the marginal, a pushforward maps its input
DRAW_ORDER = {
    "ar1": (lambda: make_ar1(0.5, 1.0), _ar1_draws(0.5, 1.0)),
    "walk": (lambda: make_cyclic_walk(1.0, 0.35), _walk_draws(1.0, 0.35)),
    "tightness": (make_tightness_example, _tightness_draws),
    "iid_gaussian": (
        lambda: make_iid_gaussian(1.3),
        lambda rng, n: rng.normal(0.0, 1.3, n),
    ),
    "iid_uniform": (
        lambda: make_iid_uniform(-1.0, 3.0),
        lambda rng, n: rng.uniform(-1.0, 3.0, n),
    ),
    "pushforward-ar1": (
        lambda: pushforward_process(magnitude(), make_ar1(0.5, 1.0)),
        lambda rng, n: np.abs(_ar1_draws(0.5, 1.0)(rng, n)),
    ),
    "pushforward-walk": (
        lambda: pushforward_process(scale(1.5, -1.0, 1.0), make_cyclic_walk(1.0, 0.35)),
        lambda rng, n: 1.5 * _walk_draws(1.0, 0.35)(rng, n),
    ),
    "shifted": (shifted_kernel_process, _ar1_draws(0.5, 1.0, shift=0.5)),
}


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

    def test_path_immutable(self):
        path = sample_path(make_iid_gaussian(1.0), 100, seed=0)
        with pytest.raises(ValueError):
            path.values[0] = 0.0

    @pytest.mark.parametrize("name", sorted(DRAW_ORDER))
    @pytest.mark.parametrize("n, seed, earlier", [(1, 0, 0), (2, 3, 1), (500, 41, 2)])
    def test_draw_order(self, name, n, seed, earlier):
        # the path is its recurrence, one step at a time, over draws taken
        # from make_rng(seed) in the documented order: x0 from the
        # marginal, then the n - 1 innovations; the paths drawn earlier,
        # at other seeds, leave no state behind
        make, expected = DRAW_ORDER[name]
        proc = make()
        for other in range(earlier):
            sample_path(proc, n + 1, seed + 1 + other)
        got = sample_path(proc, n, seed).values
        want = expected(make_rng(seed), n)
        assert got.shape == (n,)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


class TestPathMemo:
    # each test starts from a process object of its own, so that what an
    # earlier test left in the slot cannot be a hit

    def test_a_repeated_call_returns_the_same_path(self):
        p = make_ar1(0.5, 1.0)
        path = sample_path(p, 5000, seed=7)
        assert sample_path(p, 5000, seed=7) is path

    def test_another_process_count_or_seed_misses(self):
        p = make_ar1(0.5, 1.0)
        path = sample_path(p, 5000, seed=7)
        # an equal process that is another object misses too
        assert sample_path(make_ar1(0.5, 1.0), 5000, seed=7) is not path
        for args in [(p, 5001, 7), (p, 5000, 8)]:
            got = sample_path(*args)
            assert got is not path
            assert (got.values.size, got.seed) == args[1:]

    def test_a_fresh_equal_process_draws_equal_values(self):
        a = sample_path(make_cyclic_walk(1.0, 0.4), 5000, seed=7)
        b = sample_path(make_cyclic_walk(1.0, 0.4), 5000, seed=7)
        assert a is not b
        assert np.array_equal(a.values, b.values)

    def test_takes_numpy_int_counts_and_seeds(self):
        a = sample_path(make_iid_gaussian(1.0), np.int32(100), np.uint8(7))
        b = sample_path(make_iid_gaussian(1.0), 100, 7)
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
        for seed in (1, 42):
            got = sample_path(push, 1000, seed).values
            want = f.eval_array(sample_path(proc, 1000, seed).values)
            np.testing.assert_array_equal(got, want)
        assert sample_path(push, 1, 5).values.shape == (1,)

    def test_a_constant_piece_is_refused(self):
        with pytest.raises(BadParameterError, match="all-injective"):
            pushforward_process(quantizer([-12.0, 0.0, 12.0]), make_ar1(0.5, 1.0))

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
            t2 = f.preimage_table(y2)
            for x1, wa in zip(t1.x, w / np.where(total > 0.0, total, 1.0)):
                given_x1 = t2.weights(lambda x2: proc.kernel.cond_pdf(x2, x1))
                out += wa * given_x1.sum(axis=0)
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
