"""Self-tests of the benchmark's own plumbing (not part of the tier-1 suite).

    PYTHONPATH=bench python3 -m pytest -q -p no:cacheprovider bench/test_bench.py
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import run
from harness import REFERENCE_KERNEL_S, Calibrator, CountingModel, Patcher, Tracer, \
    span_stats, tail_percentile

workloads = run.load_program()

from simtkit import core, modelio, policy, sweep, training  # noqa: E402
from simtkit.micro import BIDIRECTIONAL, MicroModel  # noqa: E402
from simtkit.synthetic import SyntheticSpec, generate_corpus  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    assert n * (100 - expected) / 100 >= 10 - 1e-9


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.request = ("cell", 3)
    with tracer.span("outer"):          # 0 .. 10
        with tracer.span("a"):          # 1 .. 4
            pass
        with tracer.span("b"):          # 5 .. 9
            with tracer.span("c"):      # 6 .. 7
                pass
    spans = tracer.take()
    stats = span_stats(spans)
    assert (stats["outer"].total_s, stats["outer"].self_s) == (10.0, 3.0)
    assert (stats["b"].total_s, stats["b"].self_s) == (4.0, 3.0)
    assert (stats["a"].self_s, stats["c"].self_s) == (3.0, 1.0)
    assert [s.parent for s in spans] == [None, 0, 0, 2]
    assert all(s.request == ("cell", 3) for s in spans)
    assert tracer.take() == []


def test_wrapped_calls_nest_and_survive_exceptions():
    tracer = Tracer(clock=itertools.count().__next__)

    def fail():
        raise KeyError("boom")

    inner = tracer.wrap("inner", fail)
    outer = tracer.wrap("outer", lambda: inner())
    with pytest.raises(KeyError):
        outer()
    spans = tracer.take()
    assert [(s.name, s.parent) for s in spans] == [("outer", None), ("inner", 0)]


def test_calibrator_keeps_its_interval_and_scales_by_the_median():
    ticks = iter([0.0, 1.0, 1.1, 1.3, 2.0, 2.2, 2.5])
    calib = Calibrator(interval=0.5, clock=lambda: next(ticks))
    calib.maybe()   # due: runs from 1.0 to 1.1
    calib.maybe()   # 1.3 is 0.2 s after the last run: skipped
    calib.maybe()   # 2.0 is due: runs from 2.2 to 2.5
    assert calib.samples == pytest.approx([0.1, 0.3])
    assert calib.spent == pytest.approx(0.4)
    assert calib.scale() == pytest.approx(REFERENCE_KERNEL_S / 0.2)
    idle = Calibrator(interval=None, clock=lambda: 1 / 0)
    idle.maybe()
    assert idle.samples == []


TRACED_SHARED = [(sweep, "simulate_sentence"), (sweep, "simulate_waitk"),
                 (sweep, "evaluate_run"), (policy, "psfuture_divergence"),
                 (policy, "cosine_divergence"), (policy, "make_suffix"),
                 (training, "sgd_step"), (core.Distribution, "__init__")]


def test_tracer_restores_every_patched_attribute():
    model = CountingModel(MicroModel(_vocab(), d=8, max_len=16))
    before = {(id(owner), attr): vars(owner)[attr] for owner, attr in TRACED_SHARED}
    tracer = Tracer()
    run.install_traces(tracer, model, "micro", [])
    for owner, attr in TRACED_SHARED:
        assert vars(owner)[attr] is not before[(id(owner), attr)]
    assert {"next_dist", "loss_and_grads"} <= set(vars(model))
    tracer.restore()
    for owner, attr in TRACED_SHARED:
        assert vars(owner)[attr] is before[(id(owner), attr)]
    assert "next_dist" not in vars(model) and "loss_and_grads" not in vars(model)
    assert vars(model).keys() == {"model", "next_dist_calls", "train_items", "train_tokens"}


def test_patcher_restores_in_reverse_order():
    class Owner:
        value = "class"

    owner = Owner()
    patcher = Patcher()
    patcher.patch(owner, "value", lambda old: old + "+1")
    patcher.patch(owner, "value", lambda old: old + "+2")
    assert owner.value == "class+1+2"
    patcher.restore()
    assert owner.value == "class" and "value" not in vars(owner)


def _vocab():
    vocab, _, _ = generate_corpus(SyntheticSpec("copy", 10, (5, 7), 5, seed=0))
    return vocab


def test_counting_proxy_leaves_simulations_unchanged():
    vocab, pairs, table = generate_corpus(SyntheticSpec("tail_first", 10, (5, 9), 12, seed=4))
    cfg = core.PolicyConfig(lam=0.2, r_max=3)
    suffix = policy.suffix_from_name("random", vocab, random_top_k=7)
    proxy = CountingModel(table)
    for i, pair in enumerate(pairs):
        direct = policy.simulate_sentence(table, vocab, cfg, suffix, pair.source,
                                          rng=np.random.default_rng(i))
        counted = policy.simulate_sentence(proxy, vocab, cfg, suffix, pair.source,
                                           rng=np.random.default_rng(i))
        assert (counted.hypothesis, counted.g_record, counted.trace, counted.truncated) == \
            (direct.hypothesis, direct.g_record, direct.trace, direct.truncated)
    assert proxy.next_dist_calls > 0 and proxy.forwards() == proxy.next_dist_calls


def test_counting_proxy_leaves_training_unchanged():
    vocab, pairs, _ = generate_corpus(SyntheticSpec("local_swap", 10, (5, 8), 24, seed=1))
    cfg = training.TrainConfig(regime="p2f", epochs=1, batch_size=8, seed=2)
    direct = MicroModel(vocab, d=8, max_len=16, mode=BIDIRECTIONAL, seed=3)
    proxy = CountingModel(MicroModel(vocab, d=8, max_len=16, mode=BIDIRECTIONAL, seed=3))
    want = training.train(direct, pairs, cfg)
    got = training.train(proxy, pairs, cfg)
    assert got.step_losses == want.step_losses
    for name, value in direct.params.items():
        assert np.array_equal(proxy.model.params[name], value)
    assert proxy.train_items == len(pairs)
    assert proxy.train_tokens == sum(len(p.target) for p in pairs)


def test_traced_pass_matches_untraced_pass():
    wl = workloads.WORKLOADS["sweep-table"]
    vocab, pairs, table = generate_corpus(SyntheticSpec("tail_first", 10, (6, 9), 6, seed=7))
    inputs = workloads.Inputs(table, vocab, pairs, input_set=7)
    plain = run.one_pass(wl, inputs, Tracer(False), Calibrator(None))
    traced = run.one_pass(wl, inputs, Tracer(True), Calibrator(None))
    assert traced[0].outputs == plain[0].outputs
    assert traced[1].next_dist_calls == plain[1].next_dist_calls
    assert plain[2] == [] and plain[3] == []
    metrics = run.layer_metrics(wl, inputs, *traced)
    assert metrics["tables.next_dist.calls"] == plain[1].next_dist_calls
    assert metrics["policy.decisions"] == plain[0].items
    assert metrics["sweep.cells"] == 14
    assert metrics["policy.simulate_sentence.calls"] == 10 * len(pairs)
    assert metrics["policy.swapped_eos"] == plain[0].counts["swapped_eos"]


def test_setup_failure_is_reported_as_failed_operations(monkeypatch, capsys):
    def broken(path):
        raise ValueError(f"cannot read {path}")

    monkeypatch.setattr(modelio, "load_model", broken)
    result = run.measure(workloads, run.load_definition(), "sweep-micro", seed=0,
                         seconds=1.0, trace=False)
    ops = workloads.WORKLOADS["sweep-micro"].ops_per_pass(run.load_golden("sweep-micro", 0))
    assert result == {"correct": False, "attempted": ops, "failed": ops, "metrics": {}}
    assert "ValueError" in capsys.readouterr().err
