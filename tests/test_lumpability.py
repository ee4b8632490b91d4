"""Markovity-of-the-output checks and bound-tightness conditions."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from inforate import (
    check_lumpable,
    check_tightness,
    magnitude,
    make_ar1,
    make_cyclic_walk,
    make_iid_gaussian,
    make_iid_uniform,
    make_tightness_example,
    pushforward_process,
    shift_mod,
)
from inforate.errors import BadParameterError
from inforate.estimate import (
    cond_entropy_output_given_input,
    cond_entropy_rate_quad,
)
from inforate.lumpability import full_report

from conftest import shifted_kernel_process


class TestCheckLumpable:
    def test_ar1_magnitude_holds(self):
        rep = check_lumpable(magnitude(), make_ar1(0.5, 1.0))
        assert rep.condition_holds
        assert rep.max_deviation <= 1e-9

    def test_cyclic_magnitude_holds(self):
        rep = check_lumpable(magnitude(-1.0, 1.0), make_cyclic_walk(1.0, 0.4))
        assert rep.condition_holds
        assert rep.max_deviation <= 1e-9

    def test_shifted_kernel_fails(self):
        proc = shifted_kernel_process()
        # brute-force oracle at y1 = 2, y2 = 2: the preimage sums
        # phi(a*x + s; +-2) for x = +-2 differ by more than half
        a, s, sig = 0.5, 0.5, 1.0
        phi = lambda mu, x: math.exp(-((x - mu) ** 2) / (2 * sig**2)) / math.sqrt(
            2 * math.pi
        )
        s_plus = phi(a * 2 + s, 2.0) + phi(a * 2 + s, -2.0)
        s_minus = phi(-a * 2 + s, 2.0) + phi(-a * 2 + s, -2.0)
        oracle_dev = abs(s_plus - s_minus) / max(s_plus, s_minus)
        assert oracle_dev > 0.5
        rep = check_lumpable(magnitude(), proc)
        assert not rep.condition_holds
        assert rep.max_deviation > 1e-3
        assert rep.witnesses

    def test_iid_always_holds(self):
        rep = check_lumpable(magnitude(), make_iid_gaussian(1.0))
        assert rep.condition_holds and rep.max_deviation <= 1e-9
        rep2 = check_lumpable(
            shift_mod(1.0, lo=0.0, hi=4.0), make_iid_uniform(0.0, 4.0)
        )
        assert rep2.condition_holds and rep2.max_deviation <= 1e-9

    def test_grid_minimum(self):
        with pytest.raises(BadParameterError):
            check_lumpable(magnitude(), make_ar1(0.5, 1.0), grid=50)


class TestCheckTightness:
    def test_tightness_example_both_hold(self):
        proc = make_tightness_example()
        f = shift_mod(2.0, lo=0.0, hi=4.0)
        res = check_tightness(f, proc)
        assert res.a_holds and res.b_holds
        assert res.a_deviation <= 1e-9 and res.b_deviation <= 1e-9

    def test_cyclic_partial_support_fails_b(self):
        res = check_tightness(magnitude(-1.0, 1.0), make_cyclic_walk(1.0, 0.3))
        assert not res.b_holds

    def test_ar1_magnitude_fails_b(self):
        # oracle: Gaussian mass below zero at x = 1 differs from the mass
        # above, so the two branch probabilities cannot be equal
        a, sig = 0.5, 1.0
        p_neg = 0.5 * (1.0 + math.erf((0.0 - a * 1.0) / (sig * math.sqrt(2))))
        assert abs(p_neg - 0.5) > 0.1
        res = check_tightness(magnitude(), make_ar1(a, sig))
        assert not res.b_holds


class TestConsequences:
    def test_conditional_entropies_agree_when_lumpable(self):
        # h(Y2|Y1) = h(Y2|X1) is the content of the Markov-output claim
        cases = [
            (make_ar1(0.5, 1.0), magnitude()),
            (make_cyclic_walk(1.0, 0.4), magnitude(-1.0, 1.0)),
        ]
        for proc, f in cases:
            rep = check_lumpable(f, proc, tol=1e-6)
            assert rep.condition_holds
            h_y2_x1 = cond_entropy_output_given_input(f, proc)
            h_y2_y1 = cond_entropy_rate_quad(pushforward_process(f, proc))
            assert abs(h_y2_y1 - h_y2_x1) <= 10 * rep.tol

    def test_full_report_shape(self):
        rep = full_report(shift_mod(2.0, lo=0.0, hi=4.0), make_tightness_example())
        d = asdict(rep)
        assert d["condition_holds"] and d["tightness_a_holds"] and d["tightness_b_holds"]
