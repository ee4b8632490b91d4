#!/usr/bin/env python3
"""Benchmark of inforate through its public library API.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {exact_rate,mc_bounds,cascade} \
        --seed N --seconds S --trace {0,1}

Imports inforate from ``src``, makes the workload's cases from the seed,
computes their reference values, measures set-up in fresh interpreters,
then runs whole rounds of the cases until S seconds of operations have
passed, checking every output.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it follows the untraced rounds
with one traced round and reports the per-layer metrics.  The last line
of standard output is one JSON object; a summary goes to standard error
and a record of the run to ``perfbench/out/``.  Exits 0 when every
output checked out, 1 when one did not, 2 when it cannot run.
"""

import os

# one thread for every numeric thread pool; set before numpy loads
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

# fresh interpreters per run whose median is setup_s
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60


def _die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "inforate" / "__init__.py").is_file():
        _die(f"no inforate source under {SRC}")
    sys.path.insert(0, str(SRC))
    import inforate

    if Path(inforate.__file__).resolve().parent != (SRC / "inforate").resolve():
        _die(f"imported inforate from {inforate.__file__}, not from {SRC}")
    return inforate


def measure_setup(workload, seed):
    """Medians over fresh interpreters, in reference seconds, of the time
    from start to exit, of the import of inforate and of building the
    inputs.  The rescaling uses the large-array loop, run by this process
    before and after each interpreter."""
    sampler = calibrate.SpeedSampler("large_arrays")
    setups, imports, inputs = [], [], []
    cmd = [
        sys.executable,
        str(BENCH / "setup_probe.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    for _ in range(SETUP_REPEATS):
        proc, wall, ref_s = sampler.measure(
            lambda: subprocess.run(
                cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False
            )
        )
        if proc.returncode != 0:
            _die(f"set-up probe failed:\n{proc.stderr}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = ref_s / wall
        setups.append(ref_s)
        imports.append(rec["import_s"] * scale)
        inputs.append(rec["inputs_s"] * scale)
    return (
        statistics.median(setups),
        statistics.median(imports),
        statistics.median(inputs),
    )


@dataclasses.dataclass
class RoundLog:
    """Operations of a run; ``times`` in reference seconds, ``walls`` raw."""

    labels: list = dataclasses.field(default_factory=list)
    times: list = dataclasses.field(default_factory=list)
    walls: list = dataclasses.field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)


def run_round(workloads, cases, refs, log, sampler):
    """One pass over the cases; times only the library calls."""
    outs = []
    for case, ref in zip(cases, refs):
        log.attempted += 1
        t0 = time.perf_counter()
        try:
            out, wall, ref_s = sampler.measure(lambda: workloads.run(case))
        except Exception:  # a refused or crashed operation counts as failed
            log.busy_s += time.perf_counter() - t0
            log.failed += 1
            outs.append(None)
            print(f"perfbench: {case.label} failed\n{traceback.format_exc()}", file=sys.stderr)
            continue
        log.busy_s += wall
        log.walls.append(wall)
        log.times.append(ref_s)
        log.labels.append(case.label)
        outs.append(out)
        log.errors += [f"{case.label}: {e}" for e in workloads.check(case, out, ref)]
    log.errors += workloads.check_round(cases, outs)


def run_for(workloads, cases, refs, seconds, sampler):
    """Whole rounds until the operations have taken ``seconds`` of wall time."""
    log = RoundLog()
    rounds = 0
    while rounds == 0 or log.busy_s < seconds:
        run_round(workloads, cases, refs, log, sampler)
        rounds += 1
    return log, rounds


def end_to_end_metrics(log, setup_s):
    if not log.times:
        _die("every operation failed")
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(log.times) / sum(log.times), "1/s"),
        "op_p50_s": (statistics.median(log.times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def traced_round(workloads, tracer_mod, cases, refs, log, sampler):
    tracer = tracer_mod.Tracer()
    traced_cases = [
        dataclasses.replace(c, inputs=tracer.wrap_inputs(c.inputs)) for c in cases
    ]
    uninstall = tracer.install()
    try:
        run_round(workloads, traced_cases, refs, log, sampler)
    finally:
        uninstall()
    return tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("exact_rate", "mc_bounds", "cascade"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    import workloads

    cases = workloads.plan(args.workload, args.seed)
    for case in cases:
        workloads.build(case)
    refs = [workloads.reference(case) for case in cases]
    setup_s, import_s, inputs_s = measure_setup(args.workload, args.seed)

    sampler = calibrate.SpeedSampler(workloads.CALIBRATION[args.workload])
    with sampler:
        log, rounds = run_for(workloads, cases, refs, args.seconds, sampler)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "ops": list(zip(log.labels, log.times, log.walls)),
    }
    if args.trace:
        import tracer as tracer_mod

        untraced_round_s = sum(log.times) / rounds
        traced_log = RoundLog()
        # no alarms in the traced round, so spans hold no sampling time;
        # its times are rescaled by the loops before and after each call
        tracer = traced_round(workloads, tracer_mod, cases, refs, traced_log, sampler)
        scale = sum(traced_log.times) / sum(traced_log.walls)
        metrics = tracer_mod.layer_metrics(tracer, scale)
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.inputs_s"] = (inputs_s, "s")
        metrics["trace.overhead_s"] = (sum(traced_log.times) - untraced_round_s, "s")
        log.attempted += traced_log.attempted
        log.failed += traced_log.failed
        log.errors += traced_log.errors
        record["traced_ops"] = list(
            zip(traced_log.labels, traced_log.times, traced_log.walls)
        )
        record["raised"] = tracer.raised_counts()
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = end_to_end_metrics(log, setup_s)

    correct = not log.errors
    record["errors"] = log.errors
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for err in log.errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds, "
        f"{log.attempted} operations attempted, {log.failed} failed, "
        f"outputs {'correct' if correct else 'WRONG'}",
        file=sys.stderr,
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
