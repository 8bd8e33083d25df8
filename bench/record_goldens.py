"""Record the golden outputs the benchmark checks every pass against.

Run from the repository root, on the commit whose outputs define correct:

    python3 bench/record_goldens.py [workload ...]

For each workload and each input set it sets the workload up once, runs one
untraced pass and writes the outputs to bench/goldens/<workload>.json.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run  # pins BLAS threads before numpy loads
from harness import Calibrator, Tracer


def main(argv: list[str]) -> int:
    workloads = run.load_program()
    run.verify_fixtures(workloads.FIXTURES)
    os.makedirs(run.GOLDENS, exist_ok=True)
    for name in argv or run.WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]
        sets = {}
        for input_set in range(workloads.N_INPUT_SETS):
            work = tempfile.mkdtemp(prefix=".work-", dir=run.BENCH)
            try:
                inputs = wl.setup(work, input_set, {})
            finally:
                shutil.rmtree(work)
            res, *_ = run.one_pass(wl, inputs, Tracer(False), Calibrator(None))
            sets[str(input_set)] = res.outputs
            print(f"{name} input set {input_set}: {len(res.op_s)} {wl.op_name}",
                  flush=True)
        doc = {"environment": run.environment(), "input_sets": sets}
        with open(os.path.join(run.GOLDENS, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
