"""The benchmark's four workloads: inputs, set-up, one pass, output checks.

Every workload is a closed loop with one caller: a pass runs its fixed set
of operations back to back, and the runner repeats passes until the run's
time is up. Inputs take the path the CLI takes: synthetic corpus, written as
text, read back by ``core.load_parallel_corpus`` with the model's vocabulary,
and models read by ``modelio.load_model``.

A pass returns its outputs in golden form (JSON-ready), so recording goldens,
checking them and comparing a traced pass with an untraced one all use the
same values.
"""

from __future__ import annotations

import base64
import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from simtkit import core, modelio, policy, sweep, synthetic, training
from simtkit.micro import BIDIRECTIONAL, UNIDIRECTIONAL, MicroModel

from harness import Patcher

BENCH = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(BENCH, "fixtures")

# Any --seed maps onto one of these recorded input sets (seed % N_INPUT_SETS).
N_INPUT_SETS = 10

MATRIX_ATOL = 1e-12      # divergence values, the tolerance ROADMAP item 3 states
LOSS_RTOL = 1e-9         # per-step training losses
VOCAB_SIZE = 10
RANDOM_TOP_K = 7         # every content token of a 10-token vocabulary


@dataclass
class Inputs:
    model: object | None
    vocab: core.Vocabulary
    pairs: list
    input_set: int


@dataclass
class PassResult:
    wall_s: float
    op_s: list[float]            # one duration per operation
    items: int                   # decisions, matrix cells or target tokens
    outputs: dict                # golden form
    counts: dict[str, int] = field(default_factory=dict)  # decision counts
    scale: float = 1.0           # to the reference speed, set after the pass


def _write_corpus(work, vocab, pairs):
    paths = tuple(os.path.join(work, name) for name in ("corpus.src", "corpus.tgt", "corpus.align"))
    core.write_parallel_corpus(pairs, vocab, *paths)
    return paths


def _timed(times: dict, key: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    times[key] = time.perf_counter() - t0
    return out


def _digest(*values) -> str:
    return hashlib.sha256(repr(values).encode("ascii")).hexdigest()[:16]


class Workload:
    name = ""
    model_layer = "micro"        # which layer answers next_dist
    op_name = ""
    item_name = ""
    kind = "local_swap"
    n_range = (6, 12)            # sentence lengths, EOS included
    per_length = 0               # sentences of each length
    checkpoint: str | None = None

    def corpus(self, input_set: int):
        """``per_length`` pairs of every length, interleaved by length.

        Equal lengths make every input set cost about the same, so runs on
        different seeds differ by the machine, not by how long the inputs are.
        """
        groups = []
        for length in range(self.n_range[0], self.n_range[1] + 1):
            spec = synthetic.SyntheticSpec(self.kind, VOCAB_SIZE, (length, length),
                                           self.per_length, seed=100 * input_set + length)
            vocab, pairs, _ = synthetic.generate_corpus(spec)
            groups.append(pairs)
        return vocab, [pair for row in zip(*groups) for pair in row], None

    def setup(self, work: str, input_set: int, times: dict) -> Inputs:
        vocab, pairs, table = _timed(times, "synthetic.generate_corpus.s",
                                     self.corpus, input_set)
        src, tgt, align = _write_corpus(work, vocab, pairs)
        model_path = self.model_file(work, table)
        model = _timed(times, "modelio.load_model.s", modelio.load_model, model_path)
        vocab, pairs = core.load_parallel_corpus(src, tgt, vocab=model.vocab, align_path=align)
        return Inputs(model, vocab, pairs, input_set)

    def model_file(self, work: str, table) -> str:
        return os.path.join(FIXTURES, self.checkpoint)

    def run_pass(self, inputs: Inputs, model, tracer, calib) -> PassResult:
        """One pass; ``calib.maybe()`` runs only between timed operations."""
        raise NotImplementedError

    def ops_per_pass(self, golden: dict) -> int:
        raise NotImplementedError

    def check(self, outputs: dict, golden: dict) -> tuple[int, int]:
        """(attempted, failed) operations of one pass against the golden."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _decision_counts(sims: list, waitk_flags: list[bool]) -> dict[str, int]:
    counts = dict.fromkeys(DECISION_COUNTS, 0)
    for sim, waitk in zip(sims, waitk_flags):
        counts["truncated"] += sim.truncated
        if waitk:
            counts["decisions"] += len(sim.hypothesis)
            counts["writes.waitk"] += len(sim.hypothesis)
            continue
        counts["decisions"] += len(sim.trace)
        for rec in sim.trace:
            if rec["kind"] == core.READ:
                counts["reads"] += 1
                counts["reads.eos_deferred"] += rec.get("reason") == policy.EOS_DEFERRED
            else:
                counts["writes." + rec["reason"].lower()] += 1
                counts["swapped_eos"] += rec.get("swapped_eos", False)
    return counts


DECISION_COUNTS = ("decisions", "reads", "reads.eos_deferred", "writes.threshold",
                   "writes.rmax", "writes.exhausted", "writes.waitk", "swapped_eos",
                   "truncated")


class SweepWorkload(Workload):
    op_name = "sentence simulations"
    item_name = "decisions"
    lambdas: tuple[float, ...] = ()
    suffixes: tuple[str, ...] = ()
    r_max: int | None = None
    ks = (1, 3, 5, 7)

    def specs(self, input_set: int) -> list[sweep.SweepSpec]:
        return [
            sweep.SweepSpec("psfuture", lambdas=self.lambdas, suffixes=self.suffixes,
                            r_max=self.r_max, seed=input_set, random_top_k=RANDOM_TOP_K),
            sweep.SweepSpec("waitk", ks=self.ks, seed=input_set),
        ]

    def run_pass(self, inputs, model, tracer, calib):
        sims, waitk, op_s = [], [], []
        n_pairs = len(inputs.pairs)

        def timed(is_waitk):
            def make(fn):
                def call(*args, **kwargs):
                    calib.maybe()
                    tracer.request = divmod(len(sims), n_pairs)  # (cell, sentence)
                    t0 = time.perf_counter()
                    sim = fn(*args, **kwargs)
                    op_s.append(time.perf_counter() - t0)
                    sims.append(sim)
                    waitk.append(is_waitk)
                    return sim
                return call
            return make

        patcher = Patcher()
        patcher.patch(sweep, "simulate_sentence", timed(False))
        patcher.patch(sweep, "simulate_waitk", timed(True))
        csv = []
        try:
            t0 = time.perf_counter()
            for spec in self.specs(inputs.input_set):
                with tracer.span("sweep.run_sweep"):
                    rows = sweep.run_sweep(model, inputs.vocab, inputs.pairs, spec)
                csv += sweep.sweep_csv_lines(rows, spec)
            wall = time.perf_counter() - t0
        finally:
            patcher.restore()
        counts = _decision_counts(sims, waitk)
        outputs = {"sentences": [_digest(s.hypothesis, s.g_record) for s in sims],
                   "csv": csv}
        return PassResult(wall, op_s, counts["decisions"], outputs, counts)

    def ops_per_pass(self, golden):
        return len(golden["sentences"])

    def check(self, outputs, golden):
        attempted = len(golden["sentences"]) + len(golden["csv"])
        failed = _mismatches(outputs["sentences"], golden["sentences"])
        failed += _mismatches(outputs["csv"], golden["csv"])
        return attempted, failed


def _mismatches(got: list, want: list) -> int:
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


class SweepMicro(SweepWorkload):
    name = "sweep-micro"
    per_length = 18
    checkpoint = "multipath_uni.json"
    lambdas = (0.01, 0.03, 0.1)
    suffixes = ("eos", "random")


class SweepTable(SweepWorkload):
    name = "sweep-table"
    model_layer = "tables"
    kind = "tail_first"
    n_range = (6, 14)
    per_length = 11
    lambdas = (0.05, 0.2, 0.5)
    suffixes = ("eos", "oracle", "random")
    r_max = 4

    def specs(self, input_set):
        """The sweep shape plus one psfuture cell at r_max=1 with the oracle
        suffix. At r_max=4 the exact table never predicts EOS when a write is
        forced, so without this cell the EOS swap of a forced write would go
        unmeasured."""
        return super().specs(input_set) + [
            sweep.SweepSpec("psfuture", lambdas=(0.2,), suffixes=("oracle",), r_max=1,
                            seed=input_set, random_top_k=RANDOM_TOP_K)]

    def corpus(self, input_set):
        """The exact table needs one corpus, so draw twice the pairs needed
        and keep the first ``per_length`` of every length."""
        lengths = range(self.n_range[0], self.n_range[1] + 1)
        spec = synthetic.SyntheticSpec(self.kind, VOCAB_SIZE, self.n_range,
                                       2 * self.per_length * len(lengths), seed=input_set)
        vocab, pairs, table = synthetic.generate_corpus(spec)
        groups = [[p for p in pairs if len(p.source) == n][:self.per_length] for n in lengths]
        if any(len(group) < self.per_length for group in groups):
            raise RuntimeError(f"input set {input_set} lacks {self.per_length} pairs of some length")
        return vocab, [pair for row in zip(*groups) for pair in row], table

    def model_file(self, work, table):
        path = os.path.join(work, "table.json")
        modelio.save_model(table, path)
        return path


# ---------------------------------------------------------------------------
# Divergence matrices
# ---------------------------------------------------------------------------

class DivergenceMicro(Workload):
    name = "divergence-micro"
    op_name = "matrices"
    item_name = "matrix cells"
    per_length = 24
    checkpoint = "p2f_bi.json"
    lam = 0.2

    def run_pass(self, inputs, model, tracer, calib):
        suffix = policy.suffix_from_name("eos", inputs.vocab)
        results, op_s = [], []
        t0 = time.perf_counter()
        for i, pair in enumerate(inputs.pairs):
            calib.maybe()
            tracer.request = (0, i)
            t_op = time.perf_counter()
            with tracer.span("policy.divergence_matrix"):
                matrix = policy.divergence_matrix(model, inputs.vocab, pair, suffix)
            path = policy.threshold_path(matrix, self.lam)
            op_s.append(time.perf_counter() - t_op)
            results.append((matrix.values, path))
        wall = time.perf_counter() - t0
        outputs = {
            "shapes": [list(values.shape) for values, _ in results],
            "values": [base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")
                       for values, _ in results],
            "paths": [[list(step) for step in path] for _, path in results],
        }
        cells = sum(values.size for values, _ in results)
        return PassResult(wall, op_s, cells, outputs)

    def ops_per_pass(self, golden):
        return len(golden["shapes"])

    def check(self, outputs, golden):
        failed = abs(len(outputs["shapes"]) - len(golden["shapes"]))
        for shape, b64, path, g_shape, g_b64, g_path in zip(
                outputs["shapes"], outputs["values"], outputs["paths"],
                golden["shapes"], golden["values"], golden["paths"]):
            ok = shape == g_shape and path == g_path
            if ok:
                diff = np.abs(_matrix(b64) - _matrix(g_b64))
                ok = bool(np.all(diff <= MATRIX_ATOL))
            failed += not ok
        return len(golden["shapes"]), failed


def _matrix(b64: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(b64), dtype="<f8")


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class TrainMicro(Workload):
    name = "train-micro"
    op_name = "SGD steps"
    item_name = "target tokens"
    per_length = 80
    regimes = (("offline", BIDIRECTIONAL), ("multipath", UNIDIRECTIONAL),
               ("p2f", BIDIRECTIONAL))

    def setup(self, work, input_set, times):
        vocab, pairs, _ = _timed(times, "synthetic.generate_corpus.s",
                                 self.corpus, input_set)
        src, tgt, _ = _write_corpus(work, vocab, pairs)
        vocab, pairs = core.load_parallel_corpus(src, tgt)  # as `simtkit train` does
        return Inputs(None, vocab, pairs, input_set)

    def run_pass(self, inputs, model, tracer, calib):
        # a step runs from the end of the previous one (or the start of
        # train) to the end of its sgd_step: batch assembly, forward and
        # backward, update
        op_s, step_start = [], [0.0]

        def timed(fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                op_s.append(time.perf_counter() - step_start[0])
                calib.maybe()
                tracer.request = (regime_index, len(op_s))
                step_start[0] = time.perf_counter()
                return out
            return call

        patcher = Patcher()
        patcher.patch(training, "sgd_step", timed)
        losses, finite = [], []
        try:
            t0 = time.perf_counter()
            for regime_index, (regime, mode) in enumerate(self.regimes):
                model.model = MicroModel(inputs.vocab, mode=mode, seed=0)
                cfg = training.TrainConfig(regime=regime, epochs=1, batch_size=16, seed=0)
                tracer.request = (regime_index, len(op_s))
                step_start[0] = time.perf_counter()
                with tracer.span("training.train"):
                    result = training.train(model, inputs.pairs, cfg)
                losses += result.step_losses
                finite.append(all(bool(np.isfinite(p).all())
                                  for p in model.model.params.values()))
            wall = time.perf_counter() - t0
        finally:
            patcher.restore()
        outputs = {"losses": losses, "finite": finite}
        return PassResult(wall, op_s, model.train_tokens, outputs)

    def ops_per_pass(self, golden):
        return len(golden["losses"])

    def check(self, outputs, golden):
        want = golden["losses"]
        got = outputs["losses"]
        failed = abs(len(got) - len(want))
        failed += sum(not abs(a - b) <= LOSS_RTOL * abs(b) for a, b in zip(got, want))
        failed += sum(not ok for ok in outputs["finite"])
        return len(want), failed


WORKLOADS = {w.name: w for w in (SweepMicro(), SweepTable(), DivergenceMicro(), TrainMicro())}
