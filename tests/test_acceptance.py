"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; tolerances are
pinned here and nowhere else.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from inforate import (
    cascade_loss_rate,
    cond_entropy_W_given_X,
    diff_entropy_hist,
    downsampler_relative_loss,
    loss_rate_analytic,
    loss_rate_bounds_mc,
    loss_rv,
    magnitude,
    make_ar1,
    make_cyclic_walk,
    make_iid_gaussian,
    make_iid_uniform,
    make_tightness_example,
    mutual_information_hist,
    quantizer,
    relative_loss_rate_constant_pieces,
    empirical_constant_frequency,
    scale,
    shift_mod,
    check_lumpable,
)
from inforate.estimate import cond_entropy_rate_quad, marginal_entropy_quad
from inforate.lumpability import full_report
from inforate.pbf import PiecewiseFunction, constant_branch, injective_branch
from inforate.process import pushforward_process
from inforate._rng import make_rng


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def hw2x1_closed(M, a):
    if M > 2 * a:
        return a / (M * math.log(2.0))
    return (M - a) / (M * math.log(2.0)) + math.log2(2.0 * a / M)


RATIOS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]


def test_criterion_1_cyclic_loss_rate_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for r in RATIOS:
        p = make_cyclic_walk(1.0, r)
        got = loss_rate_analytic(magnitude(-1.0, 1.0), p)
        worst = max(worst, abs(got - r))
        assert abs(got - r) <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(1, f"wrapped-walk rate matches a/M, max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_cyclic_branch_entropy_closed_form():
    worst = 0.0
    for r in RATIOS:
        p = make_cyclic_walk(1.0, r)
        got = cond_entropy_W_given_X(magnitude(-1.0, 1.0), p)
        worst = max(worst, abs(got - hw2x1_closed(1.0, r)))
        assert abs(got - hw2x1_closed(1.0, r)) <= 1e-6
    # the two regime formulas agree at the crossover M = 2a
    narrow = 0.5 / math.log(2.0)
    wide = (1.0 - 0.5) / math.log(2.0) + math.log2(2.0 * 0.5)
    assert abs(narrow - wide) <= 1e-12
    _report(2, f"H(W2|X1) matches both regime formulas, max err {worst:.2e}")


def test_criterion_3_tightness_chain():
    p = make_tightness_example()
    f = shift_mod(2.0, lo=0.0, hi=4.0)
    values = {
        "L": loss_rv(f, p),
        "rate": loss_rate_analytic(f, p),
        "HW2X1": cond_entropy_W_given_X(f, p),
        "hX": marginal_entropy_quad(p),
        "h_rate": cond_entropy_rate_quad(p),
    }
    targets = {"L": 1.0, "rate": 1.0, "HW2X1": 1.0, "hX": 2.0, "h_rate": 1.0}
    for key, val in values.items():
        assert abs(val - targets[key]) <= 1e-6, (key, val)
    rep = full_report(f, p, grid=201)
    assert rep.condition_holds
    assert rep.tightness_a_holds and rep.tightness_b_holds
    _report(3, "all five chain values exact to 1e-6; conditions hold on 201^2 grid")


def test_criterion_4_ar1_magnitude_sweep():
    t0 = time.perf_counter()
    n, bins = 10**6, 100
    prev_hwx = math.inf
    max_gap = 0.0
    for i, a in enumerate([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]):
        p = make_ar1(a, 1.0)
        f = magnitude()
        sw = loss_rate_bounds_mc(f, p, n_samples=n, seed=42 + i, bins=bins)
        hwx = cond_entropy_W_given_X(f, p)
        lump = check_lumpable(f, p, grid=201)
        gap = sw.upper - sw.lower
        max_gap = max(max_gap, gap)
        assert gap <= 0.05, ("(i) endpoints differ", a, gap)
        assert sw.upper <= hwx + 0.03, ("(ii) estimate above H(W2|X1)", a)
        assert hwx <= 1.0 + 0.03, ("(ii) bound above one bit", a)
        assert hwx < prev_hwx, ("(iii) not strictly decreasing", a)
        assert lump.max_deviation <= 1e-9, ("(iv) lumpability deviation", a)
        prev_hwx = hwx
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        4,
        f"nine-pole sweep: max endpoint gap {max_gap:.3f}, bounds ordered, "
        f"monotone, lumpable; {elapsed:.0f}s",
    )


def test_criterion_5_downsampler_rationals():
    for m in range(1, 17):
        assert downsampler_relative_loss(m) == Fraction(m - 1, m)
    for m in range(1, 17):
        limit = downsampler_relative_loss(m)
        for n in range(1, 1001):
            gap = abs(downsampler_relative_loss(m, n) - limit)
            assert gap <= Fraction(1, n)
    _report(5, "limit exact for M=1..16; finite-block error <= 1/n up to n=1000")


def test_criterion_6_iid_marginal_loss_is_tight():
    sw = loss_rate_bounds_mc(
        magnitude(), make_iid_gaussian(1.0), n_samples=10**6, seed=606, bins=100
    )
    assert abs(sw.lower - 1.0) <= 0.03
    assert abs(sw.upper - 1.0) <= 0.03
    _report(
        6,
        f"iid fold: endpoints ({sw.lower:.4f}, {sw.upper:.4f}) within 0.03 of 1 bit",
    )


def _random_stage(rng, lo, hi, allow_fold):
    """Pick a composable stage for the current interval [lo, hi)."""
    choices = ["scale", "scale"]
    if allow_fold:
        choices.append("magnitude")
    if np.isfinite(lo) and np.isfinite(hi):
        choices.append("shift")
    kind = choices[rng.integers(0, len(choices))]
    if kind == "scale":
        k = float(rng.choice([-2.0, -1.5, 0.5, 2.0, 3.0]))
        return scale(k, lo, hi)
    if kind == "magnitude":
        return magnitude(lo, hi)
    m = int(rng.choice([2, 4]))
    return shift_mod((hi - lo) / m, lo=lo, hi=hi)


def _random_iid_chain(rng, process, max_stages=3):
    lo, hi = process.support
    stages = []
    for _ in range(int(rng.integers(2, max_stages + 1))):
        f = _random_stage(rng, lo, hi, allow_fold=True)
        stages.append(f)
        lo, hi = f.range_hull()
    return stages


def _random_markov_chain(rng, process):
    """Scales around one optional fold; every stage stays lumpable."""
    lo, hi = process.support
    stages = []
    n_stages = int(rng.integers(2, 4))
    fold_at = int(rng.integers(0, n_stages))
    folded = False
    for i in range(n_stages):
        if i == fold_at:
            f = magnitude(lo, hi)
            folded = True
        else:
            k = float(rng.choice([-2.0, 0.5, 1.5] if not folded else [0.5, 2.0]))
            f = scale(k, lo, hi)
        stages.append(f)
        lo, hi = f.range_hull()
    return stages


def test_criterion_7_cascade_additivity():
    rng = make_rng(2024)
    n_cases = 0
    for trial in range(20):
        pick = trial % 4
        if pick == 0:
            proc = make_iid_gaussian(1.0)
            stages = _random_iid_chain(rng, proc)
            tol = 2 * 0.03
            method = "rv"
        elif pick == 1:
            proc = make_iid_uniform(-1.0, 3.0)
            stages = _random_iid_chain(rng, proc)
            tol = 2 * 0.03
            method = "rv"
        elif pick == 2:
            proc = make_ar1(0.55, 1.0)
            stages = _random_markov_chain(rng, proc)
            tol = 2 * 1e-3
            method = "analytic"
        else:
            proc = make_cyclic_walk(1.0, 0.45)
            stages = _random_markov_chain(rng, proc)
            tol = 2 * 1e-3
            method = "analytic"
        res = cascade_loss_rate(stages, proc, method=method)
        assert res.additivity_gap <= tol, (trial, res)
        n_cases += 1
    assert n_cases == 20
    _report(7, "20 randomized chains: stage sums match composed totals")


def test_criterion_8_estimator_calibration():
    rng = make_rng(808)
    n = 10**6
    worst = 0.0
    for a in (0.3, 0.6, 0.9):
        x = rng.normal(0.0, 1.0, n)
        y = a * x + math.sqrt(1.0 - a * a) * rng.normal(0.0, 1.0, n)
        mi = mutual_information_hist(x, y, 100)
        truth = -0.5 * math.log2(1.0 - a * a)
        worst = max(worst, abs(mi - truth))
        assert abs(mi - truth) <= 0.03
    h = diff_entropy_hist(rng.uniform(0.0, 4.0, n), 100)
    assert abs(h - 2.0) <= 0.02
    _report(
        8,
        f"MI within {worst:.3f} of the Gaussian law; uniform entropy within "
        f"{abs(h - 2.0):.4f} of 2 bits",
    )


def test_criterion_9_constant_piece_consistency():
    half = PiecewiseFunction(
        (
            constant_branch(1, 0.0, 1.0, 0.0),
            injective_branch(
                2,
                1.0,
                2.0,
                lambda x: np.asarray(x, float) + 0.0,
                lambda y: np.asarray(y, float) + 0.0,
                lambda x: np.ones_like(np.asarray(x, float)),
            ),
        )
    )
    p = make_iid_uniform(0.0, 2.0)
    n = 10**6
    analytic = relative_loss_rate_constant_pieces(half, p)
    empirical = empirical_constant_frequency(half, p, n_samples=n, seed=909)
    assert analytic == pytest.approx(0.5, abs=1e-9)
    se = math.sqrt(analytic * (1.0 - analytic) / n)
    assert abs(empirical - analytic) <= 4 * se
    q = quantizer([0.0, 0.5, 1.0, 1.5, 2.0])
    assert relative_loss_rate_constant_pieces(q, p) == 1.0
    _report(
        9,
        f"half-constant: analytic 0.5 vs empirical {empirical:.4f} within 4 SE; "
        f"quantizer exactly 1",
    )
