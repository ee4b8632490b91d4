"""Properties on generated inputs: quadrature against scipy, batches
against their columns and their components, the depth budget, preimage
round trips of every built-in branch, the wrapped walk's kernel against
the circular distance and its closed forms at every step, the bound
chain on random lumpable systems, their exact
rate against h(X2|X1) - h(Y2|X1) + E log2|g'(X)|, the marginal loss against
h(X) - h(Y) + E log2|g'(X)|, the one-sort binning of the
mutual-information estimators against the estimator as first written,
the quantile edges read off the sort against np.quantile, the
labeller's edge table against a binary search, eval_array's value
table against the masked loop it replaced, the scalar lookups against
the array forms, the stages of random cascades against their
evaluation on the explicit chain of pushforwards, the process
builders over the whole float range, each process's distribution
functions against quadrature of its densities, the grading map of graded
windows against its inverse and its factor, and the rate and the
marginal loss under output bijections at every tolerance."""

import functools
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.special import ndtr

from inforate import (
    QuadratureConfig,
    cascade_loss_rate,
    compose,
    cond_entropy_W_given_X,
    identity,
    loss_rate_analytic,
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
    scale,
    shift_mod,
    square,
)
from inforate import estimate
from inforate.config import parse_config
from inforate.errors import (
    BadParameterError,
    NoConvergenceError,
    OutOfDomainError,
    ParseError,
)
from inforate.estimate import (
    DEFAULT_QUAD,
    _bin_labels,
    _lagged_labels,
    _quantile_edges,
    cond_entropy_X2_given_Y2_X1,
    cond_entropy_input_given_output,
    cond_entropy_output_given_input,
    cond_entropy_rate_quad,
    entropy_bits,
    marginal_entropy_quad,
)
from inforate.lossrate import _sandwich
from conftest import shifted_kernel_process
from oracles import circular_distance, expected_log_abs_derivative
from test_acceptance import hw2x1_closed
from test_estimate import shifted_ar1
from test_pbf import half_constant

# derandomized so the suite is repeatable; no example database on disk
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def smooth_integrands(draw):
    """A few damped cosines on a random interval."""
    n = draw(st.integers(1, 4))
    amps = draw(st.lists(reals(-3.0, 3.0), min_size=n, max_size=n))
    freqs = draw(st.lists(reals(0.0, 8.0), min_size=n, max_size=n))
    phases = draw(st.lists(reals(-np.pi, np.pi), min_size=n, max_size=n))
    damping = draw(reals(0.0, 1.0))
    lo = draw(reals(-5.0, 5.0))
    hi = lo + draw(reals(1e-3, 10.0))

    def fn(x):
        x = np.asarray(x, dtype=float)
        wave = sum(a * np.cos(w * x + p) for a, w, p in zip(amps, freqs, phases))
        return wave * np.exp(-damping * x * x)

    return fn, lo, hi


@st.composite
def step_integrands(draw):
    """Piecewise-constant integrand with its jumps strictly inside [lo, hi]."""
    lo = draw(reals(-5.0, 5.0))
    hi = lo + draw(reals(0.1, 10.0))
    fracs = draw(st.lists(reals(0.01, 0.99), min_size=1, max_size=6, unique=True))
    jumps = sorted(lo + t * (hi - lo) for t in fracs)
    n = len(jumps) + 1
    heights = np.array(draw(st.lists(reals(-4.0, 4.0), min_size=n, max_size=n)))

    def fn(x):
        return heights[np.searchsorted(jumps, np.asarray(x, dtype=float), side="right")]

    return fn, lo, hi, jumps


@PROPERTY
@given(smooth_integrands())
def test_quad_agrees_with_scipy_on_smooth_integrands(case):
    fn, lo, hi = case
    ref, ref_err = integrate.quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=500)
    assert abs(quad(fn, lo, hi) - ref) <= 1e-9 + ref_err


@PROPERTY
@given(step_integrands())
def test_quad_agrees_with_scipy_on_steps_split_at_their_jumps(case):
    fn, lo, hi, jumps = case
    ref, ref_err = integrate.quad(
        fn, lo, hi, points=jumps, epsabs=1e-12, epsrel=1e-12, limit=500
    )
    assert abs(quad(fn, lo, hi, points=jumps) - ref) <= 1e-10 + ref_err


@st.composite
def batches(draw):
    """One to five columns, each a smooth integrand or a step integrand
    with its jumps as split points, on its own window."""
    smooth = smooth_integrands().map(lambda case: (*case, []))
    return draw(st.lists(st.one_of(smooth, step_integrands()), min_size=1, max_size=5))


def column_integrand(fns):
    """The batch integrand f(x, col) that evaluates column j with fns[j]."""

    def f(x, col):
        out = np.empty_like(x)
        for j, fn in enumerate(fns):
            at = col == j
            out[at] = fn(x[at])
        return out

    return f


@PROPERTY
@given(batches())
def test_quad_batch_agrees_with_scipy_and_with_one_column_calls(columns):
    fns, los, his, points = zip(*columns)
    width = max(map(len, points))
    padded = [list(p) + [np.nan] * (width - len(p)) for p in points]
    got = quad_batch(column_integrand(fns), los, his, points=padded)
    assert got.shape == (len(columns),)
    for j, (fn, lo, hi, jumps) in enumerate(columns):
        ref, ref_err = integrate.quad(
            fn, lo, hi, points=jumps or None, epsabs=1e-12, epsrel=1e-12, limit=500
        )
        assert abs(got[j] - ref) <= 1e-9 + ref_err
        assert abs(got[j] - quad(fn, lo, hi, points=jumps)) <= DEFAULT_QUAD.abs_tol


@st.composite
def component_batches(draw):
    """One to three smooth components over one to three windows, each
    cut at up to three points, padded with NaN (at an end: dropped)."""
    components = draw(st.lists(smooth_integrands(), min_size=1, max_size=3))
    cuts = st.lists(reals(0.0, 1.0), max_size=3)
    window = st.tuples(reals(-5.0, 5.0), reals(1e-3, 10.0), cuts)
    windows = draw(st.lists(window, min_size=1, max_size=3))
    fns = [fn for fn, _, _ in components]
    los = np.array([lo for lo, _, _ in windows])
    his = np.array([lo + width for lo, width, _ in windows])
    points = [
        [lo + t * width for t in cuts] + [np.nan] * (3 - len(cuts))
        for lo, width, cuts in windows
    ]
    return fns, los, his, points


@PROPERTY
@given(component_batches())
def test_a_batch_of_components_equals_one_call_per_component(case):
    fns, los, his, points = case

    def stacked(x, col):
        return np.array([fn(x) for fn in fns])

    got = quad_batch(stacked, los, his, points=points)
    assert got.shape == (len(fns), len(los))
    for fn, row in zip(fns, got):
        alone = quad_batch(lambda x, col: fn(x), los, his, points=points)
        assert np.all(np.abs(row - alone) <= DEFAULT_QUAD.abs_tol)
    # one component as (1, N) takes the bits of the (N,) call
    first = quad_batch(lambda x, col: fns[0](x)[None], los, his, points=points)
    alone = quad_batch(lambda x, col: fns[0](x), los, his, points=points)
    assert first.shape == (1, len(los))
    assert first[0].tolist() == alone.tolist()


@PROPERTY
@given(
    st.lists(
        st.tuples(reals(-2.0, 2.0), reals(0.1, 4.0), reals(0.01, 1.5)),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([1e-6, 1e-9, 1e-12, 1e-13]),
    st.integers(4, 40),
)
def test_depth_budget_only_decides_when_to_give_up(cusps, tol, depth):
    """A batch that converges at a shallow depth returns the same bits at
    120: the panels bisected at each step do not depend on the limit."""
    centre, width, power = (np.array(v) for v in zip(*cusps))
    lo, hi = centre - 0.3 * width, centre + 0.7 * width

    def cusp(x, col):
        return np.abs(x - centre[col]) ** power[col]

    try:
        with mock.patch.object(estimate, "_MAX_DEPTH", depth):
            shallow = quad_batch(cusp, lo, hi, QuadratureConfig(tol))
    except NoConvergenceError:
        return
    deep = quad_batch(cusp, lo, hi, QuadratureConfig(tol))
    assert estimate._MAX_DEPTH == 120
    assert deep.tolist() == shallow.tolist()


@st.composite
def graded_windows(draw):
    """One to five windows, some repeated and some of zero or one-ulp
    width, and the ends among theirs that are graded."""
    windows = []
    for _ in range(draw(st.integers(1, 5))):
        if windows and draw(st.booleans()):
            windows.append(draw(st.sampled_from(windows)))
            continue
        lo = draw(reals(-10.0, 10.0))
        kind = draw(st.sampled_from(["wide", "zero", "ulp"]))
        if kind == "wide":
            hi = lo + draw(reals(1e-12, 10.0))
        else:
            hi = lo if kind == "zero" else np.nextafter(lo, np.inf)
        windows.append((lo, hi))
    ends = sorted({e for w in windows for e in w})
    points = draw(st.lists(st.sampled_from(ends), max_size=len(ends), unique=True))
    lo, hi = (np.array(v) for v in zip(*windows))
    return lo, hi, np.array(points)


@PROPERTY
@given(graded_windows(), st.lists(reals(0.0, 1.0), min_size=3, max_size=3))
def test_grading_maps_each_window_onto_itself(case, fracs):
    lo, hi, points = case
    mids, cut, x_of = estimate._grading(lo, hi, points)
    every = np.arange(lo.size)
    size = np.maximum(np.abs(lo), np.abs(hi))  # the digits a window carries

    def at(s, w):  # x and the factor at nodes s of windows w, both (N,)
        x, jac = x_of(s, w)
        return x, np.broadcast_to(jac, s.shape)

    # halved exactly where both ends are graded and the window has room
    mid = 0.5 * (lo + hi)
    both = np.isin(lo, points) & np.isin(hi, points) & (lo < mid) & (mid < hi)
    assert np.array_equal(np.isnan(mids), ~both)
    assert np.all(mids[both] == mid[both])
    # each end, and the midpoint where it is halved, maps onto itself
    for e in (lo, hi, np.where(both, mids, lo)):
        assert np.all(np.abs(at(e, every)[0] - e) <= 2 * np.spacing(size))
    # the factor vanishes at the graded ends only: a window too narrow to
    # halve is graded from its low end
    at_lo = np.isin(lo, points) & (hi > lo)
    at_hi = np.isin(hi, points) & (hi > lo) & (both | ~at_lo)
    assert np.array_equal(at(lo, every)[1] == 0, at_lo)
    assert np.array_equal(at(hi, every)[1] == 0, at_hi)
    # x is nondecreasing in s inside a window, across its midpoint too
    for j in every:
        s = np.linspace(lo[j], hi[j], 257)
        if both[j]:
            s = np.append(s, [np.nextafter(mids[j], -np.inf), mids[j]])
            s = np.append(s, np.nextafter(mids[j], np.inf))
        x, jac = at(np.sort(s), np.full(s.size, j))
        assert np.all(np.diff(x) >= 0) and np.all(jac >= 0)
    # cut inverts the map on points inside their window
    rows = lo[:, None] + np.array(fracs) * (hi - lo)[:, None]
    rows = np.clip(rows, lo[:, None], hi[:, None])
    x, _ = at(cut(rows).ravel(), np.repeat(every, len(fracs)))
    assert np.all(np.abs(x - rows.ravel()) <= 1e-12 * np.repeat(size, len(fracs)))
    # the factor integrates to each window's width, cut at the midpoints
    got = quad_batch(lambda s, col: at(s, col)[1], lo, hi, points=mids[:, None])
    assert np.all(np.abs(got - (hi - lo)) <= 1e-12)


BUILTINS = {
    "identity": identity(),
    "scale": scale(-2.5),
    "magnitude": magnitude(),
    "square": square(),
    "shift_mod": shift_mod(0.5, offset=0.25, lo=-1.0, hi=1.0),
    "scale_after_magnitude": compose(scale(3.0, 0.0, np.inf), magnitude()),
    "magnitude_after_scale": compose(magnitude(), scale(-0.5)),
    "square_after_magnitude": compose(square(0.0, np.inf), magnitude()),
}


@pytest.mark.parametrize("name", sorted(BUILTINS))
@PROPERTY
@given(t=reals(0.0, 1.0))
def test_every_branch_inverts_what_it_maps(name, t):
    f = BUILTINS[name]
    lo, hi = max(f.domain_lo, -1e3), min(f.domain_hi, 1e3)
    x = min(lo + t * (hi - lo), np.nextafter(hi, -np.inf))
    y = f.eval_array(np.array([x]))
    home = f.branch_index(x)
    found = False
    for b, xs, dabs, valid in f.preimage_terms(y):
        if not valid[0]:
            continue
        # every preimage maps back onto y, through its own branch
        back = f.eval_array(xs)
        assert abs(back[0] - y[0]) <= 1e-9 * max(1.0, abs(y[0]))
        assert f.branch_index(xs[0]) == b.index
        assert dabs[0] == abs(float(b.derivative(xs[0])))
        if b.index == home:
            found = True
            assert abs(xs[0] - x) <= 1e-9 * max(1.0, abs(x))
    assert found


# ---------------------------------------------------------------------------
# the wrapped walk with |.|: closed forms a/M and H(W2|X1) at every step

# exact quantities by nested quadrature, each integral to DEFAULT_QUAD.abs_tol
EXACT_TOL = 10 * DEFAULT_QUAD.abs_tol
# Monte Carlo estimates at 10^6 samples, as in the acceptance criteria
MC_TOL = 0.03

# Steps below 1e-3 are left out: at a/M = 1e-8 the inner h(Y2|X1) batch
# grows past 2e7 nodes before it converges.
walk_ratios = reals(1e-3, 1.0)


@PROPERTY
@given(walk_ratios)
@example(0.997349)
@example(0.937341)
@example(0.511544)
def test_walk_rate_and_index_bound_match_their_closed_forms(ratio):
    walk, f = make_cyclic_walk(1.0, ratio), magnitude(-1.0, 1.0)
    assert abs(loss_rate_analytic(f, walk) - ratio) <= EXACT_TOL
    assert abs(cond_entropy_W_given_X(f, walk) - hw2x1_closed(1.0, ratio)) <= EXACT_TOL


@st.composite
def walk_points(draw):
    """(M, a, x1, x2) with 0 < a <= M and x1, x2 on [-M, M): half of them
    multiples of M/64 with x2 - x1 at an end of the step's arc, every
    sum exact; the others any floats."""
    M = 2.0 ** draw(st.integers(-4, 4))
    if draw(st.booleans()):
        a = M * draw(st.integers(1, 64)) / 64
        x1 = M * draw(st.integers(-64, 63)) / 64
        x2 = x1 + draw(st.sampled_from([a, -a, 2 * M - a, a - 2 * M]))
        x2 += 2 * M * ((x2 < -M) - (x2 >= M))  # back onto [-M, M)
        return M, a, x1, x2
    M *= draw(reals(1.0, 2.0))
    a = M * draw(reals(1e-3, 1.0))
    x1, x2 = (draw(st.floats(-M, M, exclude_max=True)) for _ in range(2))
    return M, a, x1, x2


@PROPERTY
@given(walk_points())
@example((1.0, 0.25, -0.5, -0.25))  # x2 - x1 = a
@example((1.0, 0.25, 0.5, 0.25))  # -a
@example((1.0, 0.25, -0.875, 0.875))  # 2M - a
@example((1.0, 0.25, 0.875, -0.875))  # -(2M - a)
@example((0.5, 0.5, -0.5, 0.25))  # a = M: the whole circle
# x2 - x1 = fl(2M - a), which rounds 2M - a down (a = 0.35) and up (0.15)
@example((1.0, 0.35, -1.0, 0.6499999999999999))
@example((1.0, 0.15, -1.0, 0.8500000000000001))
def test_walk_kernel_is_the_circular_distance_test(point):
    M, a, x1, x2 = point
    got = float(make_cyclic_walk(M, a).kernel.cond_pdf(x2, x1))
    # the float x2 - x1 within a of 0 on the circle, in exact arithmetic
    d = Fraction(abs(x2 - x1))
    exact = min(d, 2 * Fraction(M) - d)
    assert got == (1.0 / (2.0 * a) if exact <= a else 0.0)
    # the float-modulo oracle agrees wherever its rounding of x2 - x1 + M
    # cannot move it across an end of the arc
    dist = float(circular_distance(x2, x1, M))
    if Fraction(dist) == exact or abs(dist - a) > 4 * np.spacing(2 * M):
        assert got == float(np.where(dist <= a, 1.0 / (2.0 * a), 0.0))


@settings(PROPERTY, max_examples=30)
@given(walk_ratios)
@example(0.997349)
def test_walk_cascade_total_is_its_stage_sum_and_its_closed_form(ratio):
    stages = [scale(1.5, -1.0, 1.0), magnitude(-1.5, 1.5)]
    res = cascade_loss_rate(stages, make_cyclic_walk(1.0, ratio), method="analytic")
    assert abs(res.total - sum(res.stages)) <= EXACT_TOL
    assert abs(res.total - ratio) <= EXACT_TOL


@st.composite
def cascades(draw):
    """A chain on a built-in process as in criterion 7: scales from
    (-2, 0.5, 1.5) before a fold and (0.5, 2) after it, around at most
    one fold."""
    kind = draw(st.sampled_from(["ar1", "walk", "iid_gauss", "iid_uniform"]))
    if kind == "ar1":
        process = make_ar1(draw(reals(0.1, 0.9)), 1.0)
    elif kind == "walk":
        process = make_cyclic_walk(1.0, draw(reals(0.05, 1.0)))
    elif kind == "iid_gauss":
        process = make_iid_gaussian(draw(reals(0.5, 2.0)))
    else:
        process = make_iid_uniform(-1.0, 3.0)
    n_stages = draw(st.integers(2, 3))
    fold_at = draw(st.sampled_from([None, *range(n_stages)]))
    lo, hi = process.support
    stages = []
    for i in range(n_stages):
        if i == fold_at:
            g = magnitude(lo, hi)
        else:
            folded = fold_at is not None and i > fold_at
            ks = [0.5, 2.0] if folded else [-2.0, 0.5, 1.5]
            g = scale(draw(st.sampled_from(ks)), lo, hi)
        stages.append(g)
        lo, hi = g.range_hull()
    return stages, process


def pushforward_route(stages, process):
    """Every stage on the explicit chain of pushforwards of the input,
    and the rate of the full composition."""
    loss = loss_rate_analytic if process.kernel is not None else loss_rv
    values, current = [], process
    for i, g in enumerate(stages):
        values.append(loss(g, current))
        if i + 1 < len(stages):
            current = pushforward_process(g, current)
    composed = stages[0]
    for g in stages[1:]:
        composed = compose(g, composed)
    return values, loss(composed, process)


@settings(PROPERTY, max_examples=30)
@given(cascades())
# one-branch stages before the first lossy one, each with a domain that
# covers its own input's window but not the chain input's
@example(
    (
        [scale(0.5, -1.0, 1.0), scale(2.0, -0.5, 0.5), magnitude(-1.0, 1.0)],
        make_cyclic_walk(1.0, 0.35),
    )
)
@example(
    (
        [scale(-2.0, -1.0, 3.0), scale(-2.0, -6.0, 2.0), scale(-2.0, -4.0, 12.0)],
        make_iid_uniform(-1.0, 3.0),
    )
)
def test_cascade_stages_agree_with_the_pushforward_route(chain):
    stages, process = chain
    res = cascade_loss_rate(stages, process)
    values, total = pushforward_route(stages, process)
    for g, got, want in zip(stages, res.stages, values):
        assert abs(got - want) <= EXACT_TOL
        if len(g.branches) == 1:
            assert got == 0.0
    assert res.total == total


# ---------------------------------------------------------------------------
# the bound chain 0 <= rate <= H(W2|X1) <= Hbar(W) and rate <= L(X -> Y)


@st.composite
def lumpable_systems(draw):
    """A built-in process and a chain of built-in functions whose output
    process is Markov: scales with at most one effective fold at zero on
    the symmetric processes and the uniform one, and the block shift on
    the tightness chain."""
    kind = draw(st.sampled_from(["ar1", "walk", "iid_gauss", "iid_uniform", "tight"]))
    if kind == "tight":
        return shift_mod(2.0, lo=0.0, hi=4.0), make_tightness_example()
    if kind == "ar1":
        process = make_ar1(draw(reals(0.1, 0.9)), 1.0)
    elif kind == "walk":
        process = make_cyclic_walk(1.0, draw(reals(0.05, 1.0)))
    elif kind == "iid_gauss":
        process = make_iid_gaussian(draw(reals(0.5, 2.0)))
    else:
        process = make_iid_uniform(-1.0, 3.0)
    lo, hi = process.support
    f = None
    for stage in draw(st.lists(st.sampled_from([-2.0, -0.5, 1.5, 0.0]), max_size=3)):
        # 0.0 marks a fold; once folded the range stays on one side of 0
        g = magnitude(lo, hi) if stage == 0.0 else scale(stage, lo, hi)
        f = g if f is None else compose(g, f)
        lo, hi = g.range_hull()
    return (magnitude(lo, hi) if f is None else f), process


@settings(PROPERTY, max_examples=25)
@given(lumpable_systems(), st.integers(0, 2**31 - 1))
def test_random_lumpable_systems_obey_the_bound_chain(system, seed):
    f, process = system
    rate = loss_rate_analytic(f, process)
    hw2x1 = cond_entropy_W_given_X(f, process)
    assert 0.0 <= rate <= hw2x1 + EXACT_TOL
    hbar = markov_block_entropy_W(f, process, n_samples=10**6, seed=seed).value
    assert hw2x1 <= hbar + MC_TOL
    assert rate <= loss_rv(f, process) + EXACT_TOL


@settings(PROPERTY, max_examples=40)
@given(lumpable_systems())
def test_rate_matches_the_entropy_difference(system):
    # H(X2 | Y2, X1) against h(X2|X1) - h(Y2|X1) + E log2|g'(X)|
    f, process = system
    oracle = (
        cond_entropy_rate_quad(process)
        - cond_entropy_output_given_input(f, process)
        + expected_log_abs_derivative(f, process)
    )
    assert abs(loss_rate_analytic(f, process) - oracle) <= EXACT_TOL


# ---------------------------------------------------------------------------
# the marginal loss L(X -> Y) = H(X|Y) against h(X) - h(Y) + E log2|g'(X)|


@st.composite
def off_centre_gaussians(draw):
    """|.| on an iid Gaussian whose mean is off zero, so the fold's two
    preimages carry unequal weights."""
    mean, sigma = draw(reals(-2.0, 2.0)), draw(reals(0.5, 2.0))
    norm = 1.0 / np.sqrt(2.0 * np.pi) / sigma

    def pdf(x):
        return norm * np.exp(-0.5 * ((np.asarray(x, dtype=float) - mean) / sigma) ** 2)

    process = make_iid(
        pdf,
        lambda x: ndtr((np.asarray(x, dtype=float) - mean) / sigma),
        lambda rng, n: rng.normal(mean, sigma, n),
        support=(-np.inf, np.inf),
        quad_support=(mean - 10.0 * sigma, mean + 10.0 * sigma),
    )
    return magnitude(), process


@settings(PROPERTY, max_examples=40)
@given(st.one_of(lumpable_systems(), off_centre_gaussians()))
# a preimage of y in [0, 1] leaves the window at x = 1: a split point
@example((magnitude(-1.0, 3.0), make_iid_uniform(-1.0, 3.0)))
def test_marginal_loss_matches_the_entropy_difference(system):
    f, process = system
    oracle = (
        marginal_entropy_quad(process)
        - marginal_entropy_quad(pushforward_process(f, process))
        + expected_log_abs_derivative(f, process)
    )
    assert abs(loss_rv(f, process) - oracle) <= EXACT_TOL


# ---------------------------------------------------------------------------
# quantile binning: one sort per series gives the reference's bits


def reference_mi(xs, ys, bins):
    """The plug-in MI as first written: np.quantile edges of each series,
    labels by searchsorted on the unsorted samples, joint counts."""
    qs = np.linspace(0.0, 1.0, bins + 1)
    ix, iy = (
        np.clip(np.searchsorted(np.quantile(v, qs)[1:-1], v, side="right"), 0, bins - 1)
        for v in (xs, ys)
    )
    pij = np.bincount(ix * bins + iy, minlength=bins * bins).reshape(bins, bins)
    pij = pij / xs.size
    h_x = entropy_bits(pij.sum(axis=1))
    h_y = entropy_bits(pij.sum(axis=0))
    return h_x + h_y - entropy_bits(pij.ravel())


def series(kind, seed, n):
    """Untied draws, draws with ties of several kinds, or draws whose span
    the edge table cannot lay a grid over."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "huge":  # the span, about 3.4e308, overflows
        return 1.7e308 * rng.uniform(-1.0, 1.0, n)
    if kind == "subnormal":  # k * 5e-324: the grid's scale overflows
        return rng.integers(0, 8, n) * 5e-324
    if kind == "integers":
        return rng.integers(-3, 4, n).astype(float)
    if kind == "runs":  # long constant runs
        return np.repeat(rng.normal(size=n // 40 + 1), 40)[:n]
    if kind == "fine_steps":  # 1e8 + k * 1e-8: neighbours one or two ulps apart
        return 1e8 + rng.integers(0, 500, n) * 1e-8
    x = rng.normal(size=n)  # zeros of both signs among untied draws
    x[rng.random(n) < 0.3] = 0.0
    x[rng.random(n) < 0.3] = -0.0
    return x


@PROPERTY
@given(
    kind=st.sampled_from(["normal", "integers", "runs", "fine_steps", "signed_zeros"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1001, 4000),
    bins=st.integers(1, 300),
)
# 256 bins is the last with one-byte labels
@example(kind="integers", seed=1, n=1500, bins=1)
@example(kind="runs", seed=2, n=3000, bins=255)
@example(kind="normal", seed=3, n=3000, bins=256)
@example(kind="fine_steps", seed=4, n=3000, bins=257)
def test_one_sort_binning_gives_the_reference_mutual_information(kind, seed, n, bins):
    xs = series(kind, seed, n)
    ys = np.abs(xs)
    sw = _sandwich(magnitude(), xs, 0.0, bins, seed)
    assert (sw.mi_xx, sw.mi_xy, sw.mi_yy) == (
        reference_mi(xs[:-1], xs[1:], bins),
        reference_mi(xs[:-1], ys[1:], bins),
        reference_mi(ys[:-1], ys[1:], bins),
    )
    assert mutual_information_hist(xs, ys[::-1], bins) == reference_mi(
        xs, ys[::-1], bins
    )
    assert _lagged_labels(xs, bins)[0].itemsize == (1 if bins <= 256 else 2)


@PROPERTY
@given(
    kind=st.sampled_from(
        ["normal", "integers", "runs", "fine_steps", "signed_zeros"]
        + ["constant", "huge", "subnormal"]
    ),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4000),
    bins=st.one_of(st.integers(1, 20), st.integers(1, 300)),
)
# one, just under, at and past a block of the labeller (2^16 samples)
@example(kind="normal", seed=5, n=2**16 - 1, bins=100)
@example(kind="signed_zeros", seed=6, n=2**16, bins=41)
@example(kind="normal", seed=7, n=2**16 + 7, bins=300)
@example(kind="huge", seed=8, n=2**16 + 7, bins=17)
@example(kind="subnormal", seed=9, n=2**16 + 7, bins=5)
@example(kind="constant", seed=10, n=2**16 + 7, bins=3)
def test_table_labels_are_the_binary_search(kind, seed, n, bins):
    v = series(kind, seed, n)
    edges = _quantile_edges(np.sort(v), bins)
    inner = edges[1:-1]
    # the edges themselves and their float neighbours, where a cell's
    # compares decide
    near = np.concatenate(
        [np.nextafter(inner, -np.inf), inner, np.nextafter(inner, np.inf)]
    )
    for values in (v, near):
        labels = _bin_labels(edges, values)
        assert labels.dtype == np.min_scalar_type(bins - 1)
        np.testing.assert_array_equal(
            labels, np.searchsorted(inner, values, side="right")
        )


def drops(n):
    """No drop, then the first, a middle and the last sorted sample."""
    return (None, 0, n // 2, n - 1)


def numpy_edges(s, bins, drop):
    reduced = s if drop is None else np.delete(s, drop)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.quantile(reduced, np.linspace(0.0, 1.0, bins + 1))


# pins numpy's linear-method formula: a numpy whose np.quantile computes
# its edges differently fails here
@PROPERTY
@given(
    kind=st.sampled_from(["normal", "integers", "fine_steps", "signed_zeros"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4000),
    bins=st.integers(1, 300),
)
@example(kind="normal", seed=11, n=2, bins=1)
@example(kind="signed_zeros", seed=12, n=3, bins=300)
def test_edges_read_off_the_sort_are_numpys_quantiles(kind, seed, n, bins):
    s = np.sort(series(kind, seed, n))
    for drop in drops(n):
        # == on values: a zero edge may differ from numpy's in its sign
        got = _quantile_edges(s, bins, drop)
        assert np.array_equal(got, numpy_edges(s, bins, drop))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), bins=st.integers(1, 300))
@example(seed=8, n=2, bins=2)  # two samples 2.2e308 apart: numpy's middle edge is inf
def test_edges_are_refused_where_numpys_overflow(seed, n, bins):
    s = np.sort(series("huge", seed, n))
    for drop in drops(n):
        ref = numpy_edges(s, bins, drop)
        if np.all(np.isfinite(ref)):
            assert np.array_equal(_quantile_edges(s, bins, drop), ref)
        else:
            with pytest.raises(BadParameterError, match="overflow"):
                _quantile_edges(s, bins, drop)


# ---------------------------------------------------------------------------
# eval_array: the value table gives the masked loop's bits


def masked_eval(f, xs):
    """eval_array as first written: a boolean mask, a gather and a
    scatter per branch."""
    xs = np.asarray(xs, dtype=float)
    idx = f.branch_index_array(xs) - 1
    out = np.empty_like(xs)
    for i, b in enumerate(f.branches):
        mask = idx == i
        if not np.any(mask):
            continue
        if b.kind == "constant":
            out[mask] = b.constant_value
        else:
            out[mask] = b.forward(xs[mask])
    return out


EVAL_FUNCTIONS = {
    "magnitude": magnitude(),
    "magnitude_unit": magnitude(-1.0, 1.0),
    "scale_negative": scale(-2.0, lo=0.0),
    "square": square(),
    "shift_mod_ten": shift_mod(0.3, lo=-1.5, hi=1.5),
    "half_constant": half_constant(),
    "square_after_magnitude": compose(square(0.0, np.inf), magnitude()),
}
# empty, one point, and one under, at and past a block of eval_array
# (2^14 points), and past three
EVAL_SIZES = (0, 1, 2**14 - 1, 2**14, 2**14 + 7, 3 * 2**14 + 1)


def domain_points(f, seed, size):
    """``size`` points of f's domain: random ones, with the tile edges,
    their float neighbours, the domain's finite ends and zeros of both
    signs spread among them."""
    lo, hi = f.domain_lo, f.domain_hi
    inner = f._edges[1:-1]
    special = np.concatenate(
        [
            np.nextafter(inner, -np.inf),
            inner,
            np.nextafter(inner, np.inf),
            [0.0, -0.0, lo, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)],
        ]
    )
    a, b = max(lo, -4.0), min(hi, 4.0)
    special = special[(special >= a) & (special <= b) & (special < hi)]
    rng = np.random.default_rng(seed)
    xs = a + (b - a) * rng.random(size)
    xs[rng.integers(0, size, min(size, 2 * special.size))] = np.resize(
        special, min(size, 2 * special.size)
    )
    return xs


@PROPERTY
@given(
    name=st.sampled_from(sorted(EVAL_FUNCTIONS)),
    size=st.sampled_from(EVAL_SIZES),
    ndim=st.sampled_from((0, 1, 2)),
    seed=st.integers(0, 2**32 - 1),
)
@example(name="shift_mod_ten", size=3 * 2**14 + 1, ndim=2, seed=1)
@example(name="scale_negative", size=2**14 + 7, ndim=1, seed=2)
@example(name="half_constant", size=0, ndim=2, seed=3)
def test_eval_array_is_the_masked_loop_bit_for_bit(name, size, ndim, seed):
    f = EVAL_FUNCTIONS[name]
    if ndim == 0:
        xs = domain_points(f, seed, 1).reshape(())
    elif ndim == 1:
        xs = domain_points(f, seed, size)
    else:
        xs = domain_points(f, seed, 3 * size).reshape(3, size)
    got, want = f.eval_array(xs), masked_eval(f, xs)
    assert got.shape == want.shape and got.dtype == want.dtype
    # as integers, so that the sign of a zero counts
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    below = [np.nextafter(f.domain_lo, -np.inf)] if np.isfinite(f.domain_lo) else []
    for bad in [np.nan, f.domain_hi] + below:
        with pytest.raises(OutOfDomainError):
            f.eval_array(np.append(xs, bad))


# ---------------------------------------------------------------------------
# scalar lookups: branch_index, branch_at and eval give the array forms' bits


@st.composite
def lookup_cases(draw):
    """A function with points of its domain, off it, and NaN: the tile
    edges and their float neighbours, zeros of both signs, and random
    points, in the domain and anywhere on the line."""
    f = draw(
        st.one_of(
            lumpable_systems().map(lambda system: system[0]),
            st.sampled_from(
                [
                    magnitude(),
                    magnitude(-3.0, 0.0),
                    magnitude(0.0, 2.0),
                    magnitude(-1.0, 1.0),
                    magnitude(-np.inf, 1.5),
                    magnitude(-0.5, np.inf),
                    shift_mod(0.3, lo=-1.5, hi=1.5),
                ]
            ),
        )
    )
    edges = f._edges
    lo, hi = max(f.domain_lo, -1e300), min(f.domain_hi, 1e300)
    points = np.concatenate(
        [
            np.nextafter(edges, -np.inf),
            edges,
            np.nextafter(edges, np.inf),
            [0.0, -0.0, np.nan],
            draw(st.lists(st.floats(lo, hi), max_size=8)),
            draw(st.lists(st.floats(allow_nan=False), max_size=4)),
        ]
    )
    return f, points


@PROPERTY
@given(lookup_cases())
def test_scalar_lookups_are_the_array_forms_bit_for_bit(case):
    f, points = case
    for x in points:
        if f.domain_lo <= x < f.domain_hi:
            index = int(f.branch_index_array(np.array([x]))[0])
            assert f.branch_index(x) == index
            assert f.branch_at(x) is f.branches[index - 1]
            # a scale of a huge point overflows to inf in both forms
            with np.errstate(over="ignore"):
                got, want = np.array([f.eval(x), f.eval_array(np.array([x]))[0]])
            # as integers, so that the sign of a zero counts
            assert got.view(np.int64) == want.view(np.int64)
            continue
        for lookup in (f.branch_index, f.branch_at, f.eval):
            with pytest.raises(OutOfDomainError):
                lookup(x)
        for lookup in (f.branch_index_array, f.eval_array):
            with pytest.raises(OutOfDomainError):
                lookup(np.array([x]))


def log_uniform(signed=False):
    """Floats spread evenly in log scale from 5e-324 to 1.8e308."""
    size = st.floats(-1074.0, 1023.99).map(lambda e: 2.0**e)
    if not signed:
        return size
    return st.tuples(size, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


PROCESS_PARAMETERS = {
    "ar1": {
        "a": st.floats(-1074.0, -1e-9).map(lambda e: 2.0**e),
        "sigma": log_uniform(),
    },
    "cyclic_walk": {"M": log_uniform(), "a": log_uniform()},
    "iid_gaussian": {"sigma": log_uniform()},
    "iid_uniform": {"lo": log_uniform(signed=True), "hi": log_uniform(signed=True)},
}


@settings(PROPERTY, max_examples=400)
@given(
    st.sampled_from(sorted(PROCESS_PARAMETERS)).flatmap(
        lambda kind: st.fixed_dictionaries(
            {"kind": st.just(kind), **PROCESS_PARAMETERS[kind]}
        )
    )
)
@example({"kind": "iid_uniform", "lo": 0.0, "hi": 5e-324})
@example({"kind": "cyclic_walk", "M": 1.0, "a": 5e-324})
@example({"kind": "iid_gaussian", "sigma": 5e153})  # (10 sigma)^2 overflows
def test_a_built_process_has_a_finite_window_and_density(process):
    """A config either is refused with ParseError or builds a process
    whose window is finite and whose marginal is finite and >= 0 on it."""
    spec = {"process": process, "function": {"kind": "identity"}}
    try:
        built = parse_config(json.dumps(spec)).process
    except ParseError:
        return
    lo, hi = built.quad_support
    assert math.isfinite(lo) and math.isfinite(hi)
    density = built.marginal_pdf(np.linspace(lo, hi, 101))
    assert np.all(np.isfinite(density)) and np.all(density >= 0.0)


def _pushforward(draw, process, whole):
    """process through |.| or a scale of either sign, on the domain whole."""
    if draw(st.booleans()):
        return pushforward_process(magnitude(*whole), process)
    k = draw(reals(0.3, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return pushforward_process(scale(k, *whole), process)


@st.composite
def processes_with_cdfs(draw):
    """A built-in, pushforward or fixture process; each carries its
    distribution functions."""
    kind = draw(
        st.sampled_from(
            ["ar1", "walk", "tightness", "gauss", "uniform", "ar1 g", "walk g", "shifted"]
        )
    )
    if kind == "ar1":
        return make_ar1(draw(reals(0.05, 0.95)), draw(reals(0.5, 2.0)))
    if kind == "walk":
        return make_cyclic_walk(1.0, draw(reals(0.05, 1.0)))
    if kind == "tightness":
        return make_tightness_example()
    if kind == "gauss":
        return make_iid_gaussian(draw(reals(0.5, 2.0)))
    if kind == "uniform":
        lo = draw(reals(-3.0, 3.0))
        return make_iid_uniform(lo, lo + draw(reals(0.1, 5.0)))
    if kind == "ar1 g":
        return _pushforward(draw, make_ar1(draw(reals(0.05, 0.95)), 1.0), ())
    if kind == "walk g":
        return _pushforward(draw, make_cyclic_walk(1.0, draw(reals(0.05, 1.0))), (-1, 1))
    return shifted_kernel_process(draw(reals(0.1, 0.9)), 1.0, draw(reals(-1.0, 1.0)))


def _check_cdf(cdf, pdf, lo, hi, x, points):
    """cdf(x) - cdf(lo) is the integral of pdf over [lo, x] within 1e-10,
    and cdf is nondecreasing and within [0, 1] on a grid past [lo, hi]."""
    want = quad(pdf, lo, x, QuadratureConfig(abs_tol=1e-12), points=points)
    assert float(cdf(x) - cdf(lo)) == pytest.approx(want, abs=1e-10)
    span = hi - lo
    grid = cdf(np.linspace(lo - 0.1 * span, hi + 0.1 * span, 401))
    assert np.all(np.diff(grid) >= 0.0)
    assert np.all((grid >= 0.0) & (grid <= 1.0))


@PROPERTY
@given(processes_with_cdfs(), reals(0.0, 1.0), reals(0.0, 1.0))
def test_distribution_functions_match_their_densities(process, s, t):
    lo, hi = process.quad_support
    x1, x2 = lo + s * (hi - lo), lo + t * (hi - lo)
    points = process.marginal_split_points
    _check_cdf(process.marginal_cdf, process.marginal_pdf, lo, hi, x2, points)
    kern = process.kernel
    if kern is None or not process.marginal_pdf(x1) > 0.0:
        return
    _check_cdf(
        lambda x: kern.cond_cdf(x, x1),
        lambda x: kern.cond_pdf(x, x1),
        lo,
        hi,
        x2,
        np.append(kern.split_points(np.array([x1]))[0], points),
    )


# ---------------------------------------------------------------------------
# output bijections: Y and h(Y) leave the same conditional entropies of X


BIJECTION_SYSTEMS = {
    "ar1 0.5": lambda: (magnitude(), make_ar1(0.5, 1.0)),
    "ar1 0.9": lambda: (magnitude(), make_ar1(0.9, 1.0)),
    "shifted ar1 0.5": shifted_ar1,
    "walk 0.35": lambda: (magnitude(-1.0, 1.0), make_cyclic_walk(1.0, 0.35)),
}


@st.composite
def bijection_cases(draw):
    """A system of BIJECTION_SYSTEMS and up to three steps of h on its
    output: each a scale of either sign; or, on a range that is still
    nonnegative, square(0, inf); or, on a finite range and before any
    square step, a shift_mod whose one period spans the range, by a drawn
    offset.  A shift after a square is x**2 + c, whose critical image c
    loses digits (ROADMAP item 6)."""
    name = draw(st.sampled_from(sorted(BIJECTION_SYSTEMS)))
    f, _ = BIJECTION_SYSTEMS[name]()
    steps, squared = [], False
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = f.range_hull()
        kinds = ["scale"]
        kinds += ["square"] if lo >= 0.0 else []
        kinds += ["shift_mod"] if hi - lo < math.inf and not squared else []
        kind = draw(st.sampled_from(kinds))
        if kind == "square":
            h, squared = square(0.0, math.inf), True
        elif kind == "shift_mod":
            h = shift_mod(hi - lo, offset=draw(st.floats(-8.0, 8.0)), lo=lo, hi=hi)
        else:
            h = scale(draw(st.floats(0.125, 8.0)) * draw(st.sampled_from([-1.0, 1.0])))
        steps.append(h)
        f = compose(h, f)
    return name, steps


def rate_and_loss(f, proc, tol):
    """H(X2|Y2,X1) and H(X|Y), or None where either refuses."""
    cfg = QuadratureConfig(tol)
    try:
        # a node that rounds onto a critical point may divide by zero; the
        # values, not the float warnings, are what is checked
        with np.errstate(all="ignore"):
            return (
                cond_entropy_X2_given_Y2_X1(f, proc, cfg),
                cond_entropy_input_given_output(f, proc, cfg),
            )
    except NoConvergenceError:
        return None


@functools.lru_cache(maxsize=None)
def under_magnitude(name, tol):
    """rate_and_loss of a system of BIJECTION_SYSTEMS as it is, under |.|."""
    return rate_and_loss(*BIJECTION_SYSTEMS[name](), tol)


@settings(PROPERTY, max_examples=40)
@given(bijection_cases(), st.sampled_from([1e-6, 1e-9, 1e-11, 1e-12]))
@example(("walk 0.35", [square(0.0, math.inf)]), 1e-12)
@example(("shifted ar1 0.5", [square(0.0, math.inf), scale(-2.0)]), 1e-12)
@example(("walk 0.35", [shift_mod(1.0, offset=5.0, lo=0.0, hi=1.0)]), 1e-12)
@example(
    ("walk 0.35", [shift_mod(1.0, offset=-2.5, lo=0.0, hi=1.0), scale(-0.5)]), 1e-9
)
def test_an_output_bijection_keeps_the_rate_and_the_marginal_loss(case, tol):
    # the graded y windows at square's critical image must keep their
    # digits at every tolerance, or refuse
    name, steps = case
    f, proc = BIJECTION_SYSTEMS[name]()
    want = under_magnitude(name, tol)
    for h in steps:
        f = compose(h, f)
    got = rate_and_loss(f, proc, tol)
    if want is not None and got is not None:
        assert got == pytest.approx(want, rel=0, abs=2 * tol)


def test_x2_plus_5_on_the_walk_keeps_to_its_recorded_error():
    # the graded nodes carry y, not y - 5, so digits of y - 5 below half
    # an ulp of 5 are lost (ROADMAP item 6); this bounds the open defect
    # at its recorded error, 2.03e-9 off the exact 0.35 at abs_tol 1e-9
    f = compose(shift_mod(4.0, offset=5.0, lo=0.0, hi=4.0), square(-1.0, 1.0))
    got = rate_and_loss(f, make_cyclic_walk(1.0, 0.35), 1e-9)
    assert got is None or abs(got[0] - 0.35) <= 2.04e-9
