"""One set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py --workload NAME --seed N

Imports inforate from the checkout's ``src`` and builds every process and
function of the workload's round, then prints the two phases' seconds as
one JSON line.  run.py times this whole process from outside for
``setup_s``.
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    t_import = time.perf_counter()
    import inforate  # noqa: F401

    t_inputs = time.perf_counter()
    import workloads

    for case in workloads.plan(args.workload, args.seed):
        workloads.build(case)
    t_end = time.perf_counter()
    print(json.dumps({"import_s": t_inputs - t_import, "inputs_s": t_end - t_inputs}))


if __name__ == "__main__":
    main()
