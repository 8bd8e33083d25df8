"""The benchmark's own tests run with the suite: they check the call sites
the benchmark patches (``sweep.simulate_sentence``, ``sweep.evaluate_run``,
``policy.psfuture_divergence``, the model's ``next_dist``), which a change
to ``src/`` could move. ``testpaths`` covers ``tests/`` only, so this runs
``bench/test_bench.py`` in a subprocess of its own."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftests_pass():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "bench")),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/test_bench.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
