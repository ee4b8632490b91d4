"""Operation lists of the benchmark workloads, made from a seed.

A workload is a list of cases.  Each case is one operation: a call into
the public inforate API whose outputs are checked against reference
values (see references.py) or against properties the method must have.
``plan`` draws a round's cases from the seed, ``build`` makes their
processes and functions, ``run`` performs the operation and ``check``
judges it.

The seed sets the order of the operations in every workload, and in
mc_bounds also the AR(1) poles, the walk's step, the Gaussian scale and
the sample streams.  The quadrature workloads keep their parameters fixed: the
adaptive quadrature's cost jumps between neighbouring parameters
(the walk at a/M = 0.640664 takes 0.26 s for the rate, at 0.65609
0.76 s), so jittered parameters would make the spread between seeds a
property of the inputs rather than of the code.
"""

import math
from dataclasses import dataclass, field

import numpy as np

import inforate as ir

WORKLOADS = ("exact_rate", "mc_bounds", "cascade")

# The calibration loop (calibrate.py) whose speed rescales each workload's
# operation times: the quadrature workloads are made of small numpy calls
# from Python, mc_bounds of passes over 10^6-element arrays.
CALIBRATION = {
    "exact_rate": "small_calls",
    "mc_bounds": "large_arrays",
    "cascade": "small_calls",
}

# Monte Carlo sample count: the CLI's default --samples
MC_SAMPLES = 10**6

# Tolerances, with the acceptance criterion (tests/test_acceptance.py)
# each one comes from.
TOL_CYCLIC_RATE = 1e-3  # criterion 1
TOL_EXACT = 1e-6  # criteria 2 and 3: quadrature against a closed form
TOL_MC = 0.03  # criteria 4 (ii) and 6: histogram estimators at 1e6 samples
TOL_SANDWICH_GAP = 0.05  # criterion 4 (i): endpoints of a lumpable system
TOL_ADDITIVITY = 2e-3  # criterion 7: stage sum against the composed total
ECF_SE_WINDOW = 4.0  # criterion 9: empirical mass within 4 standard errors

# cascade chains as in criterion 7's Markov chains: scales around one fold,
# taken from its sets (-2, 0.5, 1.5) before the fold and (0.5, 2) after
CASCADE_AR1_POLE = 0.55
CASCADE_WALK_STEP = 0.45


@dataclass
class Case:
    label: str
    kind: str
    params: dict
    inputs: dict = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# plans


def _jitter(rng, base, width):
    return [round(float(b + rng.uniform(-width, width)), 6) for b in base]


def plan(workload, seed, tiny=False):
    """The seed's cases of one round, in the order they run."""
    rng = np.random.default_rng(seed)
    if workload == "exact_rate":
        cases = _plan_exact(rng, tiny)
    elif workload == "mc_bounds":
        cases = _plan_mc(rng, tiny)
    elif workload == "cascade":
        cases = _plan_cascade(rng, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def _plan_exact(rng, tiny):
    # ratios a/M on both sides of the regime change at M = 2a, away from
    # the dyadic ratios where the walk's split points meet the fold's
    ratios = (0.35,) if tiny else (0.15, 0.35, 0.65, 0.85)
    poles = (0.3, 0.7) if tiny else (0.2, 0.4, 0.6, 0.8)
    cases = [Case(f"cyclic r={r}", "cyclic", {"ratio": r}) for r in ratios]
    cases += [Case(f"ar1 a={a}", "ar1", {"a": a}) for a in poles]
    cases.append(Case("tightness", "tightness", {}))
    return cases


def _mc_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _plan_mc(rng, tiny):
    poles = _jitter(rng, (0.6,) if tiny else (0.3, 0.6, 0.9), 0.03)
    cases = [
        Case(f"ar1 a={a}", "ar1_mc", {"a": a, "seed": _mc_seed(rng)}) for a in poles
    ]
    # the wrapped walk drives the cyclic path sampler; at a/M near 0.6 the
    # histogram estimators resolve its steps well
    (ratio,) = _jitter(rng, (0.6,), 0.03)
    cases.append(
        Case(f"walk r={ratio}", "walk_mc", {"ratio": ratio, "seed": _mc_seed(rng)})
    )
    sigma = round(float(rng.uniform(0.8, 1.25)), 6)
    cases.append(
        Case(f"iid gauss s={sigma}", "iid_fold", {"sigma": sigma, "seed": _mc_seed(rng)})
    )
    cases.append(Case("iid uniform(-1,3)", "uniform_fold", {"seed": _mc_seed(rng)}))
    cases.append(Case("half constant", "half_constant", {"seed": _mc_seed(rng)}))
    return cases


def _plan_cascade(rng, tiny):
    # (input, stages) with None marking the fold: two- and three-stage
    # chains, the fold first, second and in the middle.  A three-stage
    # chain on the walk costs ~11 s and is left out.
    slots = [("ar1", [None, 2.0])]
    if not tiny:
        slots += [
            ("ar1", [-2.0, None]),
            ("ar1", [0.5, None, 2.0]),
            ("walk", [1.5, None]),
        ]
    cases = []
    for proc, stages in slots:
        text = ",".join("fold" if k is None else f"{k:g}" for k in stages)
        cases.append(
            Case(f"{proc} [{text}]", "cascade", {"process": proc, "stages": stages})
        )
    return cases


# ---------------------------------------------------------------------------
# inputs


def _half_constant():
    """Constant on [0, 1), identity on [1, 2)."""
    pbf = ir.pbf
    return ir.PiecewiseFunction(
        (
            pbf.constant_branch(1, 0.0, 1.0, 0.0),
            pbf.injective_branch(
                2,
                1.0,
                2.0,
                lambda x: np.asarray(x, float) + 0.0,
                lambda y: np.asarray(y, float) + 0.0,
                lambda x: np.ones_like(np.asarray(x, float)),
            ),
        )
    )


def _chain(process, stages):
    lo, hi = process.support
    out = []
    for k in stages:
        g = ir.magnitude(lo, hi) if k is None else ir.scale(k, lo, hi)
        out.append(g)
        lo, hi = g.range_hull()
    return out


def build(case):
    """Make the case's processes and functions; returns its inputs."""
    kind, p = case.kind, case.params
    if kind in ("cyclic", "walk_mc"):
        inputs = {
            "process": ir.make_cyclic_walk(1.0, p["ratio"]),
            "f": ir.magnitude(-1.0, 1.0),
        }
    elif kind in ("ar1", "ar1_mc"):
        inputs = {"process": ir.make_ar1(p["a"], 1.0), "f": ir.magnitude()}
    elif kind == "tightness":
        inputs = {
            "process": ir.make_tightness_example(),
            "f": ir.shift_mod(2.0, lo=0.0, hi=4.0),
        }
    elif kind == "iid_fold":
        inputs = {"process": ir.make_iid_gaussian(p["sigma"]), "f": ir.magnitude()}
    elif kind == "uniform_fold":
        inputs = {"process": ir.make_iid_uniform(-1.0, 3.0), "f": ir.magnitude()}
    elif kind == "half_constant":
        inputs = {"process": ir.make_iid_uniform(0.0, 2.0), "f": _half_constant()}
    elif kind == "cascade":
        if p["process"] == "ar1":
            process = ir.make_ar1(CASCADE_AR1_POLE, 1.0)
        else:
            process = ir.make_cyclic_walk(1.0, CASCADE_WALK_STEP)
        inputs = {"process": process, "stages": _chain(process, p["stages"])}
    else:
        raise ValueError(f"unknown case kind {kind!r}")
    case.inputs = inputs
    return inputs


# ---------------------------------------------------------------------------
# operations: library calls only, looked up on the package at call time


def run(case):
    kind, p, x = case.kind, case.params, case.inputs
    if kind in ("cyclic", "ar1", "tightness"):
        out = {
            "rate": float(ir.loss_rate_analytic(x["f"], x["process"])),
            "hw2x1": float(ir.cond_entropy_W_given_X(x["f"], x["process"])),
        }
        if kind == "tightness":
            tight = ir.check_tightness(x["f"], x["process"])
            out["tight_a"] = bool(tight.a_holds)
            out["tight_b"] = bool(tight.b_holds)
        return out
    if kind == "half_constant":
        return {
            "mass": float(
                ir.empirical_constant_frequency(
                    x["f"], x["process"], n_samples=MC_SAMPLES, seed=p["seed"]
                )
            )
        }
    if kind == "cascade":
        res = ir.cascade_loss_rate(x["stages"], x["process"], method="analytic")
        return {"total": float(res.total), "stages": tuple(map(float, res.stages))}
    sw = ir.loss_rate_bounds_mc(
        x["f"], x["process"], n_samples=MC_SAMPLES, seed=p["seed"]
    )
    hbar = ir.markov_block_entropy_W(
        x["f"], x["process"], n_samples=MC_SAMPLES, seed=p["seed"]
    )
    return {
        "lower": float(sw.lower),
        "upper": float(sw.upper),
        "loss_rv": float(sw.loss_rv_value),
        "hbar_w": float(hbar.value),
    }


# ---------------------------------------------------------------------------
# references and checks


def reference(case):
    """Reference values of a case, from references.py (scipy, closed forms)."""
    # imported here: the set-up probe times building cases, and the
    # references are no part of set-up
    import references as ref

    kind, p = case.kind, case.params
    if kind == "cyclic":
        return {
            "rate": ref.cyclic_rate(1.0, p["ratio"]),
            "hw2x1": ref.cyclic_hw2x1(1.0, p["ratio"]),
        }
    if kind == "walk_mc":
        return {
            "rate": ref.cyclic_rate(1.0, p["ratio"]),
            "hw2x1": ref.cyclic_hw2x1(1.0, p["ratio"]),
            "hw2w1": ref.cyclic_hw2w1(1.0, p["ratio"]),
            "loss_rv": 1.0,
        }
    if kind in ("ar1", "ar1_mc"):
        return {
            "rate": ref.ar1_rate(p["a"]),
            "hw2x1": ref.ar1_hw2x1(p["a"]),
            "hw2w1": ref.ar1_hw2w1(p["a"]),
            "loss_rv": 1.0,
        }
    if kind == "tightness":
        return {"rate": ref.TIGHTNESS_RATE, "hw2x1": ref.TIGHTNESS_HW2X1}
    if kind == "iid_fold":
        return {"rate": ref.IID_FOLD_RATE, "loss_rv": 1.0, "hbar_w": ref.IID_FOLD_HW}
    if kind == "uniform_fold":
        return {
            "rate": ref.UNIFORM_FOLD_RATE,
            "loss_rv": ref.UNIFORM_FOLD_RATE,
            "hbar_w": ref.UNIFORM_FOLD_HW,
        }
    if kind == "half_constant":
        return {"mass": ref.HALF_CONSTANT_MASS}
    if kind == "cascade":
        if p["process"] == "ar1":
            return {"total": ref.ar1_rate(CASCADE_AR1_POLE), "tol": TOL_EXACT}
        return {
            "total": ref.cyclic_rate(1.0, CASCADE_WALK_STEP),
            "tol": TOL_CYCLIC_RATE,
        }
    raise ValueError(f"unknown case kind {kind!r}")


def _near(errors, name, got, want, tol):
    if not abs(got - want) <= tol:
        errors.append(f"{name}={got!r} differs from {want!r} by more than {tol:g}")


def _at_most(errors, name_lo, lo, name_hi, hi, tol):
    if not lo <= hi + tol:
        errors.append(f"{name_lo}={lo!r} exceeds {name_hi}={hi!r} by more than {tol:g}")


def check(case, out, ref):
    """Errors of one operation's outputs; empty when all checks pass."""
    kind, errors = case.kind, []
    if kind in ("cyclic", "ar1", "tightness"):
        rate_tol = TOL_CYCLIC_RATE if kind == "cyclic" else TOL_EXACT
        _near(errors, "rate", out["rate"], ref["rate"], rate_tol)
        _near(errors, "H(W2|X1)", out["hw2x1"], ref["hw2x1"], TOL_EXACT)
        # the chain 0 <= rate <= H(W2|X1) <= 1
        _at_most(errors, "0", 0.0, "rate", out["rate"], TOL_EXACT)
        _at_most(errors, "rate", out["rate"], "H(W2|X1)", out["hw2x1"], TOL_EXACT)
        _at_most(errors, "H(W2|X1)", out["hw2x1"], "1", 1.0, TOL_EXACT)
        if kind == "tightness" and not (out["tight_a"] and out["tight_b"]):
            errors.append("tightness conditions (a) and (b) do not both hold")
    elif kind in ("ar1_mc", "walk_mc", "iid_fold", "uniform_fold"):
        lo, up = out["lower"], out["upper"]
        _near(errors, "sandwich lower", lo, ref["rate"], TOL_MC)
        _near(errors, "sandwich upper", up, ref["rate"], TOL_MC)
        _near(errors, "L", out["loss_rv"], ref["loss_rv"], TOL_MC)
        _at_most(errors, "sandwich upper", up, "L", out["loss_rv"], TOL_MC)
        _at_most(errors, "sandwich upper", up, "Hbar(W)", out["hbar_w"], TOL_MC)
        if kind in ("ar1_mc", "walk_mc"):
            _at_most(errors, "sandwich gap", up - lo, "bound", TOL_SANDWICH_GAP, 0.0)
            _at_most(errors, "sandwich upper", up, "H(W2|X1)", ref["hw2x1"], TOL_MC)
            # H(W2|X1) <= Hbar(W) <= H(W2|W1)
            _at_most(errors, "H(W2|X1)", ref["hw2x1"], "Hbar(W)", out["hbar_w"], TOL_MC)
            _at_most(errors, "Hbar(W)", out["hbar_w"], "H(W2|W1)", ref["hw2w1"], TOL_MC)
        else:
            _near(errors, "Hbar(W)", out["hbar_w"], ref["hbar_w"], TOL_MC)
    elif kind == "half_constant":
        m = ref["mass"]
        se = math.sqrt(m * (1.0 - m) / MC_SAMPLES)
        _near(errors, "constant mass", out["mass"], m, ECF_SE_WINDOW * se)
    elif kind == "cascade":
        stages = out["stages"]
        _near(errors, "stage sum", sum(stages), out["total"], TOL_ADDITIVITY)
        _near(errors, "total", out["total"], ref["total"], ref["tol"])
        for i, k in enumerate(case.params["stages"]):
            if k is not None:
                _near(errors, f"bijective stage {i + 1}", stages[i], 0.0, TOL_EXACT)
    else:
        raise ValueError(f"unknown case kind {kind!r}")
    return errors


def check_round(cases, outs):
    """Errors of properties that span a round's operations."""
    errors = []
    ar = sorted(
        (c.params["a"], o["hw2x1"])
        for c, o in zip(cases, outs)
        if c.kind == "ar1" and o is not None
    )
    for (a0, h0), (a1, h1) in zip(ar, ar[1:]):
        if not h1 < h0:
            errors.append(f"H(W2|X1) not decreasing in the pole: {a0}->{h0}, {a1}->{h1}")
    return errors
