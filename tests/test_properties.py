"""Properties on generated inputs: quadrature against scipy, batches
against their columns, the depth budget, and preimage round trips of
every built-in branch."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from inforate import (
    QuadratureConfig,
    compose,
    identity,
    magnitude,
    quad,
    quad_batch,
    scale,
    shift_mod,
    square,
)
from inforate.errors import NoConvergenceError
from inforate.estimate import DEFAULT_QUAD

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
    got = quad_batch(column_integrand(fns), los, his, points=points)
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
