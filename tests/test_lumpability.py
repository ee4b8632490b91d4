"""Markovity-of-the-output checks and bound-tightness conditions."""

import math
import types
from dataclasses import asdict

import numpy as np
import pytest

from inforate import (
    check_lumpable,
    check_tightness,
    compose,
    lumpability,
    magnitude,
    make_ar1,
    make_cyclic_walk,
    make_iid_gaussian,
    make_iid_uniform,
    make_tightness_example,
    pushforward_process,
    scale,
    shift_mod,
    square,
)
from inforate.errors import BadParameterError
from inforate.estimate import (
    _branch_probabilities,
    cond_entropy_output_given_input,
    cond_entropy_rate_quad,
)
from inforate.lumpability import LumpabilityReport, _nudged_grid, full_report
from inforate.pbf import PreimageTable

from conftest import shifted_kernel_process
from test_estimate import shifted_ar1


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


@pytest.mark.parametrize(
    "check, grid, tol",
    [
        # a grid of 0 divided by zero, and one of 1 or 2 passed both
        # conditions that grid 201 finds false
        (check_tightness, 0, 1e-6),
        (check_tightness, 1, 1e-6),
        (check_tightness, 2, 1e-6),
        (check_tightness, True, 1e-6),
        (check_tightness, 101.5, 1e-6),
        (check_lumpable, 101.5, 1e-6),
        (check_lumpable, 201, -1.0),
        (check_lumpable, 201, math.nan),
        (check_lumpable, 201, math.inf),
        (check_tightness, 201, -1.0),
        (check_tightness, 201, math.nan),
        (check_tightness, 201, math.inf),
        # a bool is no tolerance, though True == 1
        (check_lumpable, 201, True),
        (check_tightness, 201, False),
    ],
)
def test_bad_grid_or_tol_is_refused(check, grid, tol):
    with pytest.raises(BadParameterError):
        check(magnitude(), make_ar1(0.5, 1.0), grid=grid, tol=tol)


def test_a_function_whose_image_of_the_window_is_not_finite_is_refused():
    # 1e308 * |2x| maps the walk's window [-1, 1] onto [0, inf]: a grid
    # there is all NaN, and a NaN deviation would pass as no deviation
    f = compose(scale(1e308), compose(magnitude(), scale(2.0)))
    with pytest.raises(BadParameterError, match="not finite"):
        check_lumpable(f, make_cyclic_walk(1.0, 0.35))


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


# ---------------------------------------------------------------------------
# plain per-point references for both grid checks


def _cond(proc):
    if proc.kernel is None:
        return lambda x2, x1: proc.marginal_pdf(x2)
    return proc.kernel.cond_pdf


def _rel_dev(s, t):
    return abs(s - t) / max(abs(s), abs(t), 1e-300)


def reference_lumpable(f, proc, grid, tol=1e-6):
    """check_lumpable as one sum of preimage weights per live preimage x1
    of each y1, and a scalar loop over the y2 grid per pair of them."""
    cond = _cond(proc)
    y_lo, y_hi, _ = f.image_window(*proc.quad_support)
    ys = _nudged_grid(y_lo, y_hi, grid, avoid=f.tile_edges)
    table = f.preimage_table(ys)
    worst = 0.0
    witnesses = []
    for y1 in ys:
        xs = [p.x for p in f.preimage(y1) if proc.marginal_pdf(p.x) > 0.0]
        sums = [
            table.weights(lambda x2, x1=x1: cond(x2, x1)).sum(axis=0) for x1 in xs
        ]
        for a in range(len(xs)):
            for b in range(a + 1, len(xs)):
                devs = [_rel_dev(u, v) for u, v in zip(sums[a], sums[b])]
                k = int(np.argmax(devs))
                if devs[k] > worst:
                    worst = devs[k]
                if devs[k] > tol and len(witnesses) < 10:
                    witnesses.append((float(y1), float(ys[k]), xs[a], xs[b]))
    return LumpabilityReport(
        condition_holds=worst <= tol,
        max_deviation=float(worst),
        grid=f"{grid}x{grid} on [{y_lo:.6g}, {y_hi:.6g}]^2",
        tol=tol,
        witnesses=tuple(witnesses),
    )


def reference_tightness_a(f, proc, grid, tol=1e-6):
    """Condition (a) of check_tightness as one table of preimage weights
    per x, and a scalar loop over the y2 grid."""
    cond = _cond(proc)
    xs = _nudged_grid(*proc.quad_support, grid, avoid=f.tile_edges)
    xs = xs[proc.marginal_pdf(xs) > 0.0]
    probs, totals = _branch_probabilities(f, proc, xs)
    y_lo, y_hi, _ = f.image_window(*proc.quad_support)
    y2s = _nudged_grid(y_lo, y_hi, grid, avoid=f.tile_edges)
    valid = [v for *_, v in f.preimage_terms(y2s)]
    worst = 0.0
    for x, p, total in zip(xs, probs, totals):
        live = [total > 0 and q > tol for q in p]
        if sum(live) < 2:
            continue
        w = f.preimage_table(y2s).weights(lambda x2: cond(x2, x))
        for k in range(y2s.size):
            terms = [
                w[b, k]
                for b in range(len(live))
                if live[b] and valid[b][k] and np.isfinite(w[b, k])
            ]
            if len(terms) >= 2:
                worst = max(worst, _rel_dev(max(terms), min(terms)))
    return worst


REFERENCE_SYSTEMS = {
    "ar1 |.|": (magnitude(), make_ar1(0.5, 1.0)),
    "shifted |.|": (magnitude(), shifted_kernel_process()),
    "shifted x^2": (square(), shifted_kernel_process()),
    "tightness mod 4/3": (shift_mod(4 / 3, lo=0.0, hi=4.0), make_tightness_example()),
    "iid uniform mod 1": (shift_mod(1.0, lo=0.0, hi=4.0), make_iid_uniform(0.0, 4.0)),
    # above y = 1 only the right branch has a preimage: whole blocks of
    # y1 values hold no pair to compare
    "iid uniform(-1, 3) |.|": (magnitude(), make_iid_uniform(-1.0, 3.0)),
    # ten branches over AR(1)'s whole window: the longest preimage sums
    # of these systems
    "ar1 mod 2.4": (shift_mod(2.4, lo=-12.0, hi=12.0), make_ar1(0.5, 1.0)),
    # the walk's step kernel, lumpable under |.| and not once the
    # quarter turns are folded too
    "walk 0.35 |.|": (magnitude(-1.0, 1.0), make_cyclic_walk(1.0, 0.35)),
    "4-branch walk": (
        compose(shift_mod(0.5, lo=0.0, hi=1.0), magnitude(-1.0, 1.0)),
        make_cyclic_walk(1.0, 0.35),
    ),
}


@pytest.mark.parametrize("name", REFERENCE_SYSTEMS)
def test_checks_equal_plain_references(name):
    f, proc = REFERENCE_SYSTEMS[name]
    rep = check_lumpable(f, proc, grid=101)
    assert asdict(rep) == asdict(reference_lumpable(f, proc, 101))
    tight = check_tightness(f, proc, grid=101)
    assert tight.a_deviation == reference_tightness_a(f, proc, 101)


def test_three_branch_witnesses_are_pinned():
    # three preimages per output value: the pairs of each y1 come in
    # branch order, and the witness list stops at ten
    f, proc = REFERENCE_SYSTEMS["tightness mod 4/3"]
    rep = check_lumpable(f, proc, grid=101)
    assert len(f.preimage(0.5)) == 3
    assert rep.max_deviation == 0.5
    assert len(rep.witnesses) == 10


# ---------------------------------------------------------------------------
# the gate's identity passes


def plain_weights(self, density):  # the divide and the mask everywhere
    return np.where(self.valid, density(self.x) / self.dabs, 0.0)


class BuiltinSum:
    """numpy, except that add.reduce over the branches is Python's sum."""

    add = types.SimpleNamespace(reduce=lambda terms, axis: sum(terms))

    def __getattr__(self, name):
        return getattr(np, name)


GATE_FIXTURES = {
    "ar1 |.|": lambda: (magnitude(), make_ar1(0.5, 1.0)),
    "walk 0.35 |.|": lambda: (magnitude(-1.0, 1.0), make_cyclic_walk(1.0, 0.35)),
    "tightness": lambda: (shift_mod(2.0, lo=0.0, hi=4.0), make_tightness_example()),
    "shifted ar1 |.|": shifted_ar1,
    "4-branch walk": lambda: REFERENCE_SYSTEMS["4-branch walk"],
}


@pytest.mark.parametrize("name", sorted(GATE_FIXTURES))
def test_the_gate_keeps_its_bits_without_the_identity_passes(name, monkeypatch):
    # weights skips dividing by |g'| = 1 and masking where every preimage
    # exists, and the branch sum runs in numpy: against the route that
    # divides, masks and sums in Python, every bit of the report stays
    f, proc = GATE_FIXTURES[name]()
    fast = check_lumpable(f, proc)
    monkeypatch.setattr(PreimageTable, "weights", plain_weights)
    monkeypatch.setattr(lumpability, "np", BuiltinSum())
    slow = check_lumpable(f, proc)
    assert fast.max_deviation.hex() == slow.max_deviation.hex()
    assert fast.witnesses == slow.witnesses
    assert (fast.max_deviation > 1e-3) == (name in ("shifted ar1 |.|", "4-branch walk"))


# ---------------------------------------------------------------------------
# the gate against its per-block gather


def per_block_gate(f, proc, grid, tol):
    """check_lumpable with the preimage rows lifted and the live pairs
    found per block, and the peak of every row gathered at its argmax."""
    ys, table, label = lumpability._preimage_table(f, proc, grid, tol)
    cond, _, _ = lumpability._cond_fns(proc)
    x1 = table.x.T
    live = (table.valid & (proc.marginal_pdf(table.x) > 0.0)).T
    bi, bj = np.triu_indices(live.shape[1], 1)
    worst = 0.0
    witnesses = []
    for blk in lumpability._blocks(grid, live.shape[1] * table.valid.size):
        cols, pair = np.nonzero(live[blk, bi] & live[blk, bj])
        if not cols.size:
            continue
        i, j, xs = bi[pair], bj[pair], x1[blk]
        rows = lumpability._lifted(table, xs.ndim)
        sums = np.add.reduce(lumpability._kernel_terms(cond, rows, xs), axis=0)
        dev = lumpability._relative_deviation(sums[cols, i], sums[cols, j])
        k = np.argmax(dev, axis=1)
        peak = dev[np.arange(k.size), k]
        worst = max(worst, float(np.nanmax(peak, initial=0.0)))
        hit = np.nonzero(peak > tol)[0][: 10 - len(witnesses)]
        witnesses += [
            (float(ys[blk][c]), float(ys[kk]), float(xs[c, a]), float(xs[c, b]))
            for c, kk, a, b in zip(cols[hit], k[hit], i[hit], j[hit])
        ]
    return LumpabilityReport(
        condition_holds=worst <= tol,
        max_deviation=worst,
        grid=label,
        tol=tol,
        witnesses=tuple(witnesses),
    )


GATE_SYSTEMS = {
    **{
        f"walk {r} |.|": (lambda r=r: (magnitude(-1.0, 1.0), make_cyclic_walk(1.0, r)))
        for r in (0.15, 0.35, 0.5, 0.65, 0.85)
    },
    **{
        f"ar1 {a} |.|": (lambda a=a: (magnitude(), make_ar1(a, 1.0)))
        for a in (0.2, 0.5, 0.9)
    },
    "ar1 x^2": lambda: (square(), make_ar1(0.5, 1.0)),
    "tightness": GATE_FIXTURES["tightness"],
    "4-branch walk": GATE_FIXTURES["4-branch walk"],
    "shifted ar1 |.|": shifted_ar1,
    "iid gaussian |.|": lambda: (magnitude(), make_iid_gaussian(1.0)),
    "iid uniform(-1, 3) |.|": lambda: REFERENCE_SYSTEMS["iid uniform(-1, 3) |.|"],
    "scaled pushforward |.|": lambda: (
        magnitude(),
        pushforward_process(scale(2.0), make_ar1(0.5, 1.0)),
    ),
}


@pytest.mark.parametrize("grid, tol", [(201, 1e-6), (101, 0), (333, 1e-3)])
@pytest.mark.parametrize("name", sorted(GATE_SYSTEMS))
def test_the_gate_gives_the_report_of_its_per_block_gather(name, grid, tol):
    # the live pairs and the lifted rows once per call, the peaks by max
    # and the argmax only on the rows that become witnesses
    f, proc = GATE_SYSTEMS[name]()
    rep = check_lumpable(f, proc, grid=grid, tol=tol)
    assert repr(rep) == repr(per_block_gate(f, proc, grid, tol))
    if name in ("shifted ar1 |.|", "4-branch walk"):
        assert rep.witnesses
