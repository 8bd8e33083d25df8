"""The benchmark's own tests run with the suite: they check the call sites
the benchmark patches (``sweep.simulate_sentence``, ``sweep.evaluate_run``,
``policy.psfuture_divergence``, the model's ``next_dist``), which a change
to ``src/`` could move. ``testpaths`` covers ``tests/`` only, so this runs
``bench/test_bench.py`` in a subprocess of its own, and the span and golden
checks below likewise, with ``bench/`` on the path."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_with_bench(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / d) for d in ("src", "bench")),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)


def test_bench_selftests_pass():
    proc = _run_with_bench("-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/test_bench.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


# Three tiny traced runs on a d=8 model, with no fixtures: each prints the
# spans of bench/run.py::install_traces that recorded at least one call.
SPANS_SCRIPT = """
import json
import run
from harness import CountingModel, Tracer, span_stats
from simtkit import policy, sweep, training
from simtkit.micro import UNIDIRECTIONAL, MicroModel
from simtkit.synthetic import SyntheticSpec, generate_corpus

vocab, pairs, _ = generate_corpus(SyntheticSpec("copy", 10, (4, 6), 4, seed=0))
eos = policy.suffix_from_name("eos", vocab)


def recorded(job):
    model = CountingModel(MicroModel(vocab, d=8, max_len=16, mode=UNIDIRECTIONAL, seed=1))
    tracer = Tracer()
    run.install_traces(tracer, model, "micro", [])
    try:
        job(model)
    finally:
        tracer.restore()
    return sorted(name for name, stats in span_stats(tracer.take()).items() if stats.calls)


def micro_sweep(model):
    for spec in (sweep.SweepSpec("psfuture", lambdas=(0.2,), suffixes=("eos",),
                                 max_target_len=16),
                 sweep.SweepSpec("waitk", ks=(1, 3), max_target_len=16)):
        sweep.run_sweep(model, vocab, pairs, spec)


print(json.dumps({
    "sweep": recorded(micro_sweep),
    "matrix": recorded(lambda model: policy.divergence_matrix(model, vocab, pairs[0], eos)),
    "epoch": recorded(lambda model: training.train(
        model, pairs, training.TrainConfig(epochs=1, batch_size=2))),
}))
"""


def test_every_bench_span_a_run_reaches_records_calls():
    """A change to ``src/`` that moves a call away from a site the benchmark
    spans makes that span read 0; this names the spans each kind of run must
    keep live. ``policy.psfuture_divergence`` reads 0 in a sweep: the sweep's
    decision loop computes its divergence inline. The benchmark repair in
    ROADMAP.md ("bounded memory and live spans") drops or moves that span;
    until then the sweep set leaves it out."""
    proc = _run_with_bench("-c", SPANS_SCRIPT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    recorded = json.loads(proc.stdout.splitlines()[-1])
    answers = {"micro.next_dist", "core.distribution_init"}
    assert set(recorded["sweep"]) == answers | {
        "policy.simulate_sentence", "policy.simulate_waitk", "metrics.evaluate_run",
        "policy.cosine_divergence", "policy.make_suffix"}
    assert set(recorded["matrix"]) == answers | {
        "policy.psfuture_divergence", "policy.cosine_divergence", "policy.make_suffix"}
    assert set(recorded["epoch"]) == {"micro.loss_and_grads", "micro.sgd_step"}


# One untraced pass of each workload on input set 0, checked as bench/run.py
# checks every pass; prints {workload: [attempted, failed]}.
GOLDENS_SCRIPT = """
import json
import tempfile
import run
import workloads
from harness import Calibrator, Tracer

checked = {}
for name, wl in workloads.WORKLOADS.items():
    with tempfile.TemporaryDirectory() as work:
        inputs = wl.setup(work, 0, {})
    res, *_ = run.one_pass(wl, inputs, Tracer(enabled=False), Calibrator(None))
    checked[name] = wl.check(res.outputs, run.load_golden(name, 0))
print(json.dumps(checked))
"""


def test_one_pass_of_each_workload_matches_its_golden():
    """A change to ``src/`` that moves a benchmark output (a sweep row, a
    sentence's hypothesis or g-record, a divergence matrix, a training loss)
    fails here, not only in a benchmark run."""
    proc = _run_with_bench("-c", GOLDENS_SCRIPT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    checked = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(checked) == ["divergence-micro", "sweep-micro", "sweep-table", "train-micro"]
    assert all(attempted > 0 and failed == 0 for attempted, failed in checked.values()), checked
