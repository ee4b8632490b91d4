"""Properties on generated inputs: quadrature against scipy, batches
against their columns, the depth budget, preimage round trips of every
built-in branch, the wrapped walk's closed forms at every step, the
bound chain on random lumpable systems, their exact rate against
h(X2|X1) - h(Y2|X1) + E log2|g'(X)|, the marginal loss against
h(X) - h(Y) + E log2|g'(X)|, the one-sort binning of the
mutual-information estimators against the estimator as first written,
the quantile edges read off the sort against np.quantile, the
labeller's edge table against a binary search, and eval_array's value
table against the masked loop it replaced, and the stages of random
cascades against their evaluation on the explicit chain of
pushforwards."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

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
from inforate.errors import BadParameterError, NoConvergenceError, OutOfDomainError
from inforate.estimate import (
    DEFAULT_QUAD,
    _bin_labels,
    _lagged_labels,
    _quantile_edges,
    cond_entropy_output_given_input,
    cond_entropy_rate_quad,
    entropy_bits,
    expected_log_abs_derivative,
    marginal_entropy_quad,
)
from inforate.lossrate import _sandwich
from test_acceptance import hw2x1_closed
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
        shallow = quad_batch(cusp, lo, hi, QuadratureConfig(tol, max_depth=depth))
    except NoConvergenceError:
        return
    deep = quad_batch(cusp, lo, hi, QuadratureConfig(tol, max_depth=120))
    assert deep.tolist() == shallow.tolist()


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
    loss = loss_rate_analytic if process.is_markov else loss_rv
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
