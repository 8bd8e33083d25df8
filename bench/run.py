"""simtkit benchmark: closed-loop workloads measured end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload sweep-micro --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One process runs one workload with one caller and one thread; BLAS and
OpenMP are pinned to one thread before numpy loads. The process sets the
workload up several times, then repeats passes over the same inputs until
``--seconds`` is spent, checking every pass against the recorded goldens.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs untraced passes, then traced ones, and reports the per-module metrics
and the tracing overhead. ``--workload all`` runs each workload in a fresh
process. The last line of standard output is one JSON object; every line
before it names a metric with its unit and sample count.

Exit codes: 0 after a measurement (``correct`` says whether outputs matched),
2 when the program, its fixtures or the goldens cannot be loaded.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from harness import REFERENCE_KERNEL_S, Calibrator, CountingModel, SpanStats, \
    Tracer, percentile, scaled, span_stats, tail_percentile  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(BENCH, "goldens")
WORKLOAD_NAMES = ("sweep-micro", "sweep-table", "divergence-micro", "train-micro")
# one warm-up set-up, then at least MIN_SETUPS timed ones, more while they
# take under SETUP_BUDGET_S together
MIN_SETUPS, SETUP_BUDGET_S = 3, 2.0
SETUP_CALIBRATIONS = 3  # kernel runs right before and right after each set-up
MIN_PASSES = 3
CALIBRATION_INTERVAL_S = 0.5
CALIBRATIONS_BETWEEN_PASSES = 5


class BenchError(Exception):
    """The benchmark cannot run: program, fixtures or goldens missing."""


def load_program():
    """Import simtkit from this checkout's src/ and the workloads built on it."""
    sys.path.insert(0, SRC)
    try:
        import simtkit
    except ImportError as exc:
        raise BenchError(f"cannot import simtkit from {SRC}: {exc}") from exc
    if not os.path.abspath(simtkit.__file__).startswith(SRC + os.sep):
        raise BenchError(f"simtkit was imported from {simtkit.__file__}, not {SRC}")
    import workloads
    return workloads


def verify_fixtures(fixtures: str) -> None:
    sums = os.path.join(fixtures, "SHA256SUMS")
    try:
        with open(sums, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        for line in lines:
            want, name = line.split()
            with open(os.path.join(fixtures, name), "rb") as fh:
                got = hashlib.sha256(fh.read()).hexdigest()
            if got != want:
                raise BenchError(f"fixture {name} has sha256 {got}, expected {want}")
    except OSError as exc:
        raise BenchError(f"cannot read fixtures: {exc}") from exc


def load_definition() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def load_golden(name: str, input_set: int) -> dict:
    path = os.path.join(GOLDENS, f"{name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            sets = json.load(fh)["input_sets"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read goldens {path}: {exc}") from exc
    if str(input_set) not in sets:
        raise BenchError(f"no golden for input set {input_set} of {name}")
    return sets[str(input_set)]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def install_traces(tracer, model, layer, queries):
    """Spans at every public call site the workloads reach, plus a log of
    model queries (request id, source prefix, target prefix)."""
    from simtkit import core, policy, sweep, training

    def log_queries(next_dist):
        def call(source_prefix, target_prefix):
            queries.append((tracer.request, source_prefix, target_prefix))
            return next_dist(source_prefix, target_prefix)
        return call

    tracer.patcher.patch(model, "next_dist", log_queries)
    for owner, attr, name in (
            (sweep, "simulate_sentence", "policy.simulate_sentence"),
            (sweep, "simulate_waitk", "policy.simulate_waitk"),
            (sweep, "evaluate_run", "metrics.evaluate_run"),
            (policy, "psfuture_divergence", "policy.psfuture_divergence"),
            (policy, "cosine_divergence", "policy.cosine_divergence"),
            (policy, "make_suffix", "policy.make_suffix"),
            (training, "sgd_step", "micro.sgd_step"),
            (model, "next_dist", f"{layer}.next_dist"),
            (model, "loss_and_grads", "micro.loss_and_grads"),
            (core.Distribution, "__init__", "core.distribution_init")):
        tracer.trace(owner, attr, name)


def one_pass(wl, inputs, tracer, calib):
    model = CountingModel(inputs.model)
    queries = []
    if tracer.enabled:
        install_traces(tracer, model, wl.model_layer, queries)
    spent = calib.spent
    try:
        res = wl.run_pass(inputs, model, tracer, calib)
    finally:
        tracer.restore()
    res.wall_s -= calib.spent - spent
    return res, model, tracer.take(), queries


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(wl, inputs, res, model, spans, queries) -> dict[str, float]:
    """Per-module metrics of one traced pass."""
    from simtkit.tables import backoff_probes
    from workloads import DECISION_COUNTS
    stats = span_stats(spans)

    def get(name):
        return stats.get(name, SpanStats())

    m: dict[str, float] = {
        "sweep.run_sweep.s": get("sweep.run_sweep").total_s,
        "sweep.cells": get("metrics.evaluate_run").calls,
        "sweep.self_s": get("sweep.run_sweep").self_s,
    }
    for fn in ("simulate_sentence", "simulate_waitk", "psfuture_divergence",
               "divergence_matrix"):
        m[f"policy.{fn}.calls"] = get(f"policy.{fn}").calls
        m[f"policy.{fn}.self_s"] = get(f"policy.{fn}").self_s
    for fn in ("cosine_divergence", "make_suffix"):
        m[f"policy.{fn}.calls"] = get(f"policy.{fn}").calls
        m[f"policy.{fn}.s"] = get(f"policy.{fn}").total_s
    for key in DECISION_COUNTS:
        m[f"policy.{key}"] = res.counts.get(key, 0)

    seen_call, seen_sentence = set(), set()
    repeats_call = repeats_sentence = 0
    for request, src, tgt in queries:
        key = (tuple(src), tuple(tgt))
        repeats_call += (request, key) in seen_call
        repeats_sentence += (request[1], key) in seen_sentence
        seen_call.add((request, key))
        seen_sentence.add((request[1], key))
    m["policy.repeat_query_ratio.in_sentence"] = _ratio(repeats_call, len(queries))
    m["policy.repeat_query_ratio.in_sweep"] = _ratio(repeats_sentence, len(queries))

    for layer in ("micro", "tables"):
        calls = [s.duration for s in spans if s.name == f"{layer}.next_dist"]
        m[f"{layer}.next_dist.calls"] = len(calls)
        m[f"{layer}.next_dist.s"] = float(sum(calls))
        m[f"{layer}.next_dist.us_p50"] = percentile(calls, 50) * 1e6 if calls else 0.0
    micro_queries = queries if wl.model_layer == "micro" else []
    m["micro.src_len_mean"] = _ratio(sum(len(q[1]) for q in micro_queries), len(micro_queries))
    m["micro.tgt_len_mean"] = _ratio(sum(len(q[2]) for q in micro_queries), len(micro_queries))
    lag = get("micro.loss_and_grads")
    m["micro.loss_and_grads.calls"] = lag.calls
    m["micro.loss_and_grads.s"] = lag.total_s
    m["micro.loss_and_grads.us_per_token"] = _ratio(lag.total_s * 1e6, model.train_tokens)
    m["micro.sgd_step.calls"] = get("micro.sgd_step").calls
    m["micro.sgd_step.s"] = get("micro.sgd_step").total_s

    first_hits = defaults = 0
    if wl.model_layer == "tables":
        entries = inputs.model.entries
        for _, src, tgt in queries:
            probes = backoff_probes(src, tgt)
            first_hits += probes[0] in entries
            defaults += not any(p in entries for p in probes)
    m["tables.first_probe_hit_ratio"] = _ratio(first_hits, len(queries))
    m["tables.default_ratio"] = _ratio(defaults, len(queries))

    m["core.distributions_built"] = get("core.distribution_init").calls
    m["core.distribution_init.s"] = get("core.distribution_init").total_s
    m["metrics.evaluate_run.calls"] = get("metrics.evaluate_run").calls
    m["metrics.evaluate_run.s"] = get("metrics.evaluate_run").total_s
    m["training.train.s"] = get("training.train").total_s
    m["training.steps"] = get("micro.sgd_step").calls
    m["training.self_s"] = get("training.train").self_s
    return m


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def measure(workloads, definition: dict, name: str, seed: int, seconds: float,
            trace: bool) -> dict:
    wl = workloads.WORKLOADS[name]
    input_set = seed % workloads.N_INPUT_SETS
    golden = load_golden(name, input_set)
    verify_fixtures(workloads.FIXTURES)
    print(f"# workload={name} seed={seed} input_set={input_set} seconds={seconds} "
          f"trace={int(trace)}")
    print(f"# env {json.dumps(environment(), sort_keys=True)}")

    # traced passes calibrate only between passes, so no span contains it
    calib = Calibrator(interval=None if trace else CALIBRATION_INTERVAL_S)
    try:
        inputs, setup_s, setup_parts = set_up(wl, input_set, calib)
    except Exception:  # a program failure is reported as failed operations
        traceback.print_exc()
        ops = wl.ops_per_pass(golden)
        return {"correct": False, "attempted": ops, "failed": ops, "metrics": {}}

    attempted = failed = 0
    untraced, traced = [], []
    begin = time.perf_counter()
    try:
        # trace mode spends about a third of the time untraced, for the
        # overhead reference and the output comparison
        phases = [(False, seconds / 3, 1), (True, seconds, 1)] if trace \
            else [(False, seconds, MIN_PASSES)]
        for enabled, until, min_passes in phases:
            runs = traced if enabled else untraced
            while True:
                since = len(calib.samples)
                res, model, spans, queries = one_pass(wl, inputs, Tracer(enabled), calib)
                ok_ops, bad_ops = wl.check(res.outputs, golden)
                attempted += ok_ops
                failed += bad_ops
                runs.append((res, model, spans, queries))
                for _ in range(CALIBRATIONS_BETWEEN_PASSES):
                    calib.run()
                res.scale = calib.scale(since)
                if len(runs) >= min_passes and \
                        time.perf_counter() - begin + res.wall_s > until:
                    break
    except Exception:  # a program failure is reported as failed operations
        traceback.print_exc()
        ops = wl.ops_per_pass(golden)
        return {"correct": False, "attempted": attempted + ops,
                "failed": failed + ops, "metrics": {}}

    reference = untraced[0][0].outputs
    mismatched = sum(r[0].outputs != reference for r in untraced + traced)
    if mismatched:
        print(f"# {mismatched} passes differ from the first untraced pass", file=sys.stderr)
        failed += mismatched * wl.ops_per_pass(golden)
    print(f"# error_rate {_ratio(failed, attempted)!r} ({failed} failed of "
          f"{attempted} attempted operations)")
    scales = " ".join(f"{res.scale:.3f}" for res, *_ in untraced + traced)
    print(f"# calibration kernel: median {statistics.median(calib.samples) * 1e3:.3f} ms "
          f"over {len(calib.samples)} samples; reference {REFERENCE_KERNEL_S * 1e3:g} ms; "
          f"scale per pass {scales}")
    print(f"# set-ups at the reference speed: {' '.join(f'{t:.4f}' for t in setup_s)} s")

    if trace:
        units = {m["name"]: m["unit"] for m in definition["per_layer"]}
        values = traced_metrics(wl, inputs, untraced, traced, setup_parts, units)
        metrics = report(definition["per_layer"], values)
    else:
        values = end_to_end_metrics(wl, golden, untraced, setup_s)
        metrics = report(definition["end_to_end"], values)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def set_up(wl, input_set: int, calib) -> tuple:
    """The workload's inputs, and the times of its timed set-ups.

    The first set-up warms caches and is not timed. Each later one starts
    from a collected heap without the previous inputs, and is scaled to the
    reference speed by the calibration kernel runs right before and right
    after it, as passes are.
    """
    setup_s, setup_parts = [], []
    work = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        inputs = wl.setup(work, input_set, {})
        while len(setup_s) < MIN_SETUPS or sum(setup_s) < SETUP_BUDGET_S:
            inputs = None
            gc.collect()
            since = len(calib.samples)
            for _ in range(SETUP_CALIBRATIONS):
                calib.run()
            parts: dict[str, float] = {}
            t0 = time.perf_counter()
            inputs = wl.setup(work, input_set, parts)
            took = time.perf_counter() - t0
            for _ in range(SETUP_CALIBRATIONS):
                calib.run()
            scale = calib.scale(since)
            setup_s.append(took * scale)
            setup_parts.append({name: t * scale for name, t in parts.items()})
    finally:
        shutil.rmtree(work)
    return inputs, setup_s, setup_parts


def report(defined: list[dict], values: dict[str, tuple[float, str]]) -> dict:
    """Print and return every metric BENCHMARK.json defines, in its order;
    print the other values as comments."""
    out = {}
    for metric in defined:
        name, unit = metric["name"], metric["unit"]
        value, note = values.pop(name)
        print(f"{name:<22} {value!r:>24} {unit:<6} {note}")
        out[name] = {"value": value, "unit": unit}
    for name, (value, note) in values.items():
        print(f"# {name} {value!r} {note}")
    return out


def end_to_end_metrics(wl, golden, passes, setup_s) -> dict[str, tuple[float, str]]:
    """Times at the reference speed, each pass scaled by its own calibration.

    The tail is taken per pass, where every run has the same operations, and
    its median over the passes is reported, so a burst of machine noise in
    one pass does not set it.
    """
    n = len(passes)
    walls = [res.wall_s * res.scale for res, *_ in passes]
    op_s = [t * res.scale for res, *_ in passes for t in res.op_s]
    first, model = passes[0][0], passes[0][1]
    tail = tail_percentile(wl.ops_per_pass(golden))
    tails = [percentile([t * res.scale for t in res.op_s], tail) for res, *_ in passes]
    items = sum(res.items for res, *_ in passes)
    return {
        "setup_s": (statistics.median(setup_s), f"median of {len(setup_s)} set-ups"),
        # input sets differ in work per pass, so this is not a metric
        "wall_s": (statistics.median(walls), f"s, median of {n} passes"),
        "op_ms_p50": (percentile(op_s, 50) * 1e3, f"p50 of {len(op_s)} {wl.op_name}"),
        "op_ms_tail": (statistics.median(tails) * 1e3,
                       f"median over {n} passes of the p{tail:g} of "
                       f"{wl.ops_per_pass(golden)} {wl.op_name}"),
        "items_per_s": (items / sum(walls),
                        f"{wl.item_name} per second over {n} passes ({items} {wl.item_name})"),
        "forwards_per_item": (model.forwards() / first.items,
                              f"model forwards per {wl.item_name}, exact "
                              f"({model.forwards()} / {first.items})"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "peak resident set of this process"),
    }


def traced_metrics(wl, inputs, untraced, traced, setup_parts,
                   units) -> dict[str, tuple[float, str]]:
    """Per-module values at the reference speed, median over traced passes."""
    per_pass = [{name: scaled(value, units[name], run[0].scale)
                 for name, value in layer_metrics(wl, inputs, *run).items()}
                for run in traced]
    out = {name: (statistics.median(m[name] for m in per_pass),
                  f"median of {len(per_pass)} traced passes") for name in per_pass[0]}
    for name in ("modelio.load_model.s", "synthetic.generate_corpus.s"):
        out[name] = (statistics.median(parts.get(name, 0.0) for parts in setup_parts),
                     f"median of {len(setup_parts)} set-ups")
    # raw walls: a traced pass calibrates only after it ends, which is too
    # coarse for a ratio of two neighbouring passes
    plain = statistics.median(res.wall_s for res, *_ in untraced)
    with_spans = statistics.median(res.wall_s for res, *_ in traced)
    out["trace.overhead_ratio"] = (
        with_spans / plain - 1.0,
        f"traced pass {with_spans:.4f} s vs untraced {plain:.4f} s "
        f"({len(traced)} and {len(untraced)} passes)")
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """Run one workload in a fresh process: its result and the lines printed
    before it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def run_all(args) -> dict:
    """Each workload in a fresh process; metrics are prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="seconds to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        definition = load_definition()
        if args.seconds is None:
            args.seconds = definition["run_seconds"]
        if args.workload == "all":
            result = run_all(args)
        else:
            result = measure(load_program(), definition, args.workload,
                             args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
