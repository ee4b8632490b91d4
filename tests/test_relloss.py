"""Relative loss rate: constant pieces and the downsampler pattern."""

import math
from fractions import Fraction

import numpy as np
import pytest

from inforate import (
    downsampler_relative_loss,
    empirical_constant_frequency,
    loss_rv,
    magnitude,
    make_ar1,
    make_cyclic_walk,
    make_iid_uniform,
    make_tightness_example,
    quantizer,
    relative_loss_rate_constant_pieces,
)
from inforate.errors import BadParameterError, ConstantBranchError, TooFewSamplesError
from inforate.pbf import PiecewiseFunction, constant_branch, injective_branch


def _identity_branch(index, lo, hi):
    return injective_branch(
        index,
        lo,
        hi,
        lambda x: np.asarray(x, float) + 0.0,
        lambda y: np.asarray(y, float) + 0.0,
        lambda x: np.ones_like(np.asarray(x, float)),
    )


def half_constant():
    return PiecewiseFunction(
        (constant_branch(1, 0.0, 1.0, 0.0), _identity_branch(2, 1.0, 2.0))
    )


def constant_on(lo, c_lo, c_hi, hi):
    """The identity on [lo, hi), but constant on [c_lo, c_hi)."""
    tiles = [t for t in [(lo, c_lo), (c_lo, c_hi), (c_hi, hi)] if t[0] < t[1]]
    return PiecewiseFunction(
        tuple(
            constant_branch(i, a, b, a) if a == c_lo else _identity_branch(i, a, b)
            for i, (a, b) in enumerate(tiles, 1)
        )
    )


# name: (process, function, the marginal mass of its constant piece)
MARKOV_INPUTS = {
    # the truncated window [-10 sd, 10 sd] of a Gaussian; mass 1/2
    "ar1": (
        lambda: make_ar1(0.5, 1.0),
        constant_on(-math.inf, 0.0, math.inf, math.inf),
        0.5,
    ),
    # uniform marginal 1/2 on [-1, 1): [0, 0.5) carries 1/4
    "walk": (
        lambda: make_cyclic_walk(1.0, 0.35),
        constant_on(-1.0, 0.0, 0.5, 1.0),
        0.25,
    ),
    # uniform marginal 1/4 on [0, 4), split at the block edges 1, 2, 3
    "tightness": (make_tightness_example, constant_on(0.0, 0.0, 1.0, 4.0), 0.25),
}


class TestConstantPieces:
    def test_quantizer_loses_everything(self):
        p = make_iid_uniform(0.0, 1.0)
        q = quantizer([0.0, 0.25, 0.5, 0.75, 1.0])
        assert relative_loss_rate_constant_pieces(q, p) == 1.0

    def test_all_injective_loses_nothing(self):
        p = make_iid_uniform(-1.0, 1.0)
        assert relative_loss_rate_constant_pieces(magnitude(-1.0, 1.0), p) == 0.0

    def test_half_constant_is_half(self):
        # measure oracle: the uniform density 1/2 over [0,1) carries mass 1/2
        p = make_iid_uniform(0.0, 2.0)
        got = relative_loss_rate_constant_pieces(half_constant(), p)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_result_in_unit_interval(self):
        p = make_iid_uniform(0.0, 2.0)
        assert 0.0 <= relative_loss_rate_constant_pieces(half_constant(), p) <= 1.0

    @pytest.mark.parametrize("name", sorted(MARKOV_INPUTS))
    def test_markov_input_loses_the_constant_mass(self, name):
        # the claim holds for processes: the quadrature mass and the time
        # average of the constant-piece indicator along a path agree
        make, f, mass = MARKOV_INPUTS[name]
        p = make()
        assert relative_loss_rate_constant_pieces(f, p) == pytest.approx(mass, abs=1e-9)
        got = empirical_constant_frequency(f, p, 10**6, seed=17)
        assert got == pytest.approx(mass, abs=0.01)


class TestDownsampler:
    def test_limit_halves_at_two(self):
        assert downsampler_relative_loss(2) == Fraction(1, 2)

    def test_no_drop_at_one(self):
        for n in (None, 1, 17, 1000):
            assert downsampler_relative_loss(1, n) == 0

    def test_block_seven_of_three(self):
        # floor oracle: floor(7/3) = 2 kept coordinates out of 7
        kept = 7 // 3
        assert kept == 2
        assert downsampler_relative_loss(3, 7) == Fraction(5, 7)

    def test_exact_rationals(self):
        for m in range(1, 17):
            assert downsampler_relative_loss(m) == Fraction(m - 1, m)

    def test_finite_block_error_bound(self):
        for m in (2, 3, 5, 8):
            limit = downsampler_relative_loss(m)
            for n in range(1, 300):
                gap = abs(downsampler_relative_loss(m, n) - limit)
                assert gap <= Fraction(1, n)

    def test_bad_parameters(self):
        with pytest.raises(BadParameterError):
            downsampler_relative_loss(0)
        with pytest.raises(BadParameterError):
            downsampler_relative_loss(2, 0)
        with pytest.raises(BadParameterError):
            downsampler_relative_loss(2.5)

    @pytest.mark.parametrize(
        "args", [(True,), (True, True), (2, False), (np.float64(2),)]
    )
    def test_refuses_bools_and_non_integers(self, args):
        with pytest.raises(BadParameterError, match="integer"):
            downsampler_relative_loss(*args)

    def test_takes_numpy_ints(self):
        assert downsampler_relative_loss(np.int64(3)) == Fraction(2, 3)
        assert downsampler_relative_loss(np.int64(3), np.int32(7)) == Fraction(5, 7)


class TestEmpiricalFrequency:
    def test_half_constant_binomial_window(self):
        p = make_iid_uniform(0.0, 2.0)
        n = 10**6
        got = empirical_constant_frequency(half_constant(), p, n, seed=61)
        se = math.sqrt(0.5 * 0.5 / n)
        assert abs(got - 0.5) <= 4 * se

    def test_magnitude_exactly_zero(self):
        p = make_iid_uniform(-1.0, 1.0)
        assert empirical_constant_frequency(magnitude(-1.0, 1.0), p, 10**4, 1) == 0.0

    def test_quantizer_exactly_one(self):
        p = make_iid_uniform(0.0, 1.0)
        q = quantizer([0.0, 0.5, 1.0])
        assert empirical_constant_frequency(q, p, 10**4, 1) == 1.0

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            empirical_constant_frequency(
                half_constant(), make_iid_uniform(0.0, 2.0), 100, 1
            )


class TestModuleGate:
    def test_loss_refuses_what_relloss_accepts(self):
        # functions with positive constant mass belong to this module only
        p = make_iid_uniform(0.0, 2.0)
        f = half_constant()
        assert relative_loss_rate_constant_pieces(f, p) > 0.0
        with pytest.raises(ConstantBranchError):
            loss_rv(f, p)

    def test_all_injective_coexists(self):
        p = make_iid_uniform(-1.0, 1.0)
        f = magnitude(-1.0, 1.0)
        assert relative_loss_rate_constant_pieces(f, p) == 0.0
        assert np.isfinite(loss_rv(f, p))
