"""Self-test of the benchmark; asserts no timing.

Run from the root of the checkout:

    python3 -m pytest perfbench/selftest.py -q

It runs each workload's round at a tiny size and requires every check to
pass, shows that every check rejects a perturbed value, that a traced
round repeats its counts exactly and returns the untraced outputs, that
the printed metric names are the ones BENCHMARK.json lists, and that the
benchmark refuses to run without the library source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _built(workload, seed=SEED):
    cases = workloads.plan(workload, seed, tiny=True)
    for case in cases:
        workloads.build(case)
    return cases


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def tiny_round(request):
    cases = _built(request.param)
    refs = [workloads.reference(c) for c in cases]
    outs = [workloads.run(c) for c in cases]
    return cases, refs, outs


def test_plan_repeats_for_a_seed_and_varies_across_seeds():
    for workload in workloads.WORKLOADS:
        a = [c.label for c in workloads.plan(workload, 11)]
        assert a == [c.label for c in workloads.plan(workload, 11)]
        assert any(a != [c.label for c in workloads.plan(workload, s)] for s in (12, 13))


def test_tiny_round_passes_every_check(tiny_round):
    cases, refs, outs = tiny_round
    for case, ref, out in zip(cases, refs, outs):
        assert workloads.check(case, out, ref) == [], case.label
    assert workloads.check_round(cases, outs) == []


# field -> offsets, each beyond that field's tolerance in some check
PERTURBATIONS = {
    "cyclic": {"rate": (2e-3, -2e-3), "hw2x1": (1e-5, -1e-5)},
    "ar1": {"rate": (1e-5, -1e-5), "hw2x1": (1e-5, -1e-5)},
    "tightness": {"rate": (1e-5, -1e-5), "hw2x1": (1e-5, -1e-5)},
    "ar1_mc": {
        "lower": (-0.05,),
        "upper": (0.05,),
        "loss_rv": (0.05, -0.05),
        "hbar_w": (0.1, -0.15),
    },
    "walk_mc": {
        "lower": (-0.05,),
        "upper": (0.05,),
        "loss_rv": (0.05, -0.05),
        "hbar_w": (0.1, -0.1),
    },
    "iid_fold": {
        "lower": (-0.05,),
        "upper": (0.05,),
        "loss_rv": (-0.05,),
        "hbar_w": (-0.05,),
    },
    "uniform_fold": {
        "lower": (-0.05,),
        "upper": (0.05,),
        "loss_rv": (0.05, -0.05),
        "hbar_w": (0.05, -0.05),
    },
    "half_constant": {"mass": (0.003, -0.003)},
    "cascade": {"total": (0.01, -0.01)},
}


def test_every_check_rejects_a_perturbed_value(tiny_round):
    cases, refs, outs = tiny_round
    for case, ref, out in zip(cases, refs, outs):
        for key, offsets in PERTURBATIONS[case.kind].items():
            for off in offsets:
                bad = dict(out, **{key: out[key] + off})
                assert workloads.check(case, bad, ref), (case.label, key, off)
        if case.kind == "tightness":
            for key in ("tight_a", "tight_b"):
                assert workloads.check(case, dict(out, **{key: False}), ref)
        if case.kind == "cascade":
            for i in range(len(out["stages"])):
                stages = list(out["stages"])
                stages[i] += 1e-5 if case.params["stages"][i] is not None else 0.01
                bad = dict(out, stages=tuple(stages))
                assert workloads.check(case, bad, ref), (case.label, i)


def test_round_check_rejects_h_increasing_in_the_pole():
    cases = [c for c in _built("exact_rate") if c.kind == "ar1"]
    assert len(cases) >= 2
    lo, hi = sorted(cases, key=lambda c: c.params["a"])[:2]
    assert workloads.check_round([lo, hi], [{"hw2x1": 0.8}, {"hw2x1": 0.9}])
    assert not workloads.check_round([lo, hi], [{"hw2x1": 0.9}, {"hw2x1": 0.8}])


def _traced(case):
    tracer = tracer_mod.Tracer()
    traced_case = workloads.Case(
        case.label, case.kind, case.params, tracer.wrap_inputs(case.inputs)
    )
    uninstall = tracer.install()
    try:
        out = workloads.run(traced_case)
    finally:
        uninstall()
    return tracer, out


COUNTS = (
    "estimate.quad.calls",
    "estimate.quad.panels",
    "estimate.quad.points",
    "process.cond_pdf.calls",
    "pbf.preimage_terms.calls",
    "pbf.preimage.calls",
    "estimate.mutual_information_hist.calls",
    "lumpability.check_lumpable.calls",
    "lossrate.loss_rate_analytic.calls",
)


@pytest.mark.parametrize(
    "workload,kind",
    [("exact_rate", "tightness"), ("mc_bounds", "half_constant"), ("cascade", "cascade")],
)
def test_traced_counts_repeat_and_outputs_match(workload, kind):
    case = next(c for c in _built(workload) if c.kind == kind)
    plain = workloads.run(case)
    first, out1 = _traced(case)
    second, out2 = _traced(case)
    assert out1 == plain and out2 == plain
    m1, m2 = tracer_mod.layer_metrics(first), tracer_mod.layer_metrics(second)
    assert [m1[k] for k in COUNTS] == [m2[k] for k in COUNTS]
    assert first.calls == second.calls
    assert m1["estimate.quad.panels"][0] > 0 or kind == "half_constant"
    if kind == "cascade":
        assert m1["process.cond_pdf.calls"][0] > 0
        assert m1["pbf.compose.self_s"][0] > 0
    if kind == "half_constant":
        assert first.samples == workloads.MC_SAMPLES
    # the tracer leaves no wrapper behind
    assert not hasattr(workloads.ir.estimate.quad, "__wrapped__")
    assert not hasattr(workloads.ir.loss_rate_analytic, "__wrapped__")


def test_printed_metrics_are_the_listed_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    log = bench_run.RoundLog(times=[1.0, 2.0])
    e2e = bench_run.end_to_end_metrics(log, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in e2e.items()
    }
    layer = tracer_mod.layer_metrics(tracer_mod.Tracer())
    layer_names = set(layer) | {"setup.import_s", "setup.inputs_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    for m in spec["per_layer"]:
        if m["name"] in layer:
            assert layer[m["name"]][1] == m["unit"], m["name"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_rate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
