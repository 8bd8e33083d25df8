"""Configuration-driven latency/quality sweeps and divergence reports.

A sweep evaluates one (lambda or k) x suffix cell at a time over a corpus,
one sentence after another, and emits one EvalResult row per cell, sorted
by AL. Each sentence's RNG is ``sentence_rng(seed, sentence index)``, so
a cell or a sentence re-run on its own agrees byte for byte with the full
sweep. Three things make a sweep cheaper without changing a result: the probe
memo answers each distinct query once; a suffix's psfuture cells run in
ascending lambda, each after the first giving ``simulate_sentence`` each
sentence's run at the previous lambda as ``after``, whose decision loop takes
the decisions that run shares with it instead of querying; and one store of
sentence scores has ``evaluate_run`` score each distinct run once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConfigError, PolicyConfig, SentencePair, Vocabulary, _at, validate_pair
from .metrics import EvalResult, evaluate_run
from .policy import (
    RandomSuffix,
    SimulationResult,
    _ProbeMemo,
    _check_lengths,
    _one_session,
    divergence_matrix,
    simulate_sentence,
    simulate_waitk,
    suffix_from_name,
    threshold_path,
    waitk_g,
)

DEFAULT_LAMBDA_GRID = (0.02, 0.05, 0.08, 0.1, 0.2, 0.4)
POLICIES = ("psfuture", "waitk")


@dataclass(frozen=True)
class SweepSpec:
    policy: str                                  # one of POLICIES
    lambdas: tuple[float, ...] = ()
    suffixes: tuple[str, ...] = ("eos",)
    suffix_tokens: tuple[str, ...] = ()          # for the "custom" suffix name
    ks: tuple[int, ...] = ()
    r_max: int | None = PolicyConfig.r_max
    initial_prefix: int = PolicyConfig.initial_prefix
    max_target_len: int = PolicyConfig.max_target_len
    seed: int = 0
    random_count: int = RandomSuffix.count
    random_top_k: int = RandomSuffix.top_k

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")
        for lam in (PolicyConfig.lam, *self.lambdas):  # the loop settings, for wait-k too
            self.policy_config(lam)
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")
        if self.policy == "psfuture":
            if not self.lambdas:
                raise ConfigError("psfuture sweep requires a non-empty lambda list")
            if not self.suffixes:
                raise ConfigError("psfuture sweep requires at least one suffix")
        else:
            if not self.ks:
                raise ConfigError("waitk sweep requires a non-empty k list")
            for k in self.ks:  # as wait-k checks k: "k=0 must be >= 1"
                waitk_g(1, k, 1)

    def policy_config(self, lam: float = PolicyConfig.lam) -> PolicyConfig:
        """The loop settings of a psfuture cell at ``lam``."""
        return PolicyConfig(lam=lam, r_max=self.r_max,
                            initial_prefix=self.initial_prefix,
                            max_target_len=self.max_target_len)


def sentence_rng(seed: int, index: int) -> np.random.Generator:
    """The generator a sweep with ``seed`` gives sentence ``index``: re-run
    alone with it, the sentence gives the same result as in the sweep."""
    if seed < 0:
        raise ConfigError(f"seed={seed} must be >= 0")
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def run_sweep(
    model,
    vocab: Vocabulary,
    pairs: Sequence[SentencePair],
    spec: SweepSpec,
) -> list[EvalResult]:
    """One EvalResult row per sweep cell, sorted by AL.

    Every pair is checked as ``validate_pair`` does (CorpusError naming the
    sentence) and against the model's ``max_len`` (when it has one) before
    the first cell runs. All cells send their queries through one probe
    memo, so a query asked again by a later decision, sentence or cell
    costs no forward, and inside one session of the model, so the
    parameters are folded once and each sentence's source is encoded once;
    both are dropped on return. A suffix's psfuture
    cells run in ascending lambda, and each sentence of a cell gets its run
    in the cell before as ``after=``, so its decision loop takes the
    decisions that lambda shares with it from that run instead of making
    them again. Every cell and sentence still goes through
    ``simulate_sentence``, in cell order, and returns its full trace.
    Each cell's row comes from one ``evaluate_run`` call, and all of them
    share one store of sentence scores, keyed on the whole run ``(source,
    reference, hypothesis, g_record)``, so a run that comes back in a later
    cell is scored once. The store serves this call's one vocabulary and
    is dropped with the memo.
    """
    if not pairs:
        raise ConfigError("sweep corpus is empty")
    suffixes = []
    if spec.policy == "psfuture":
        suffixes = [suffix_from_name(name, vocab, tokens=spec.suffix_tokens or None,
                                     random_count=spec.random_count,
                                     random_top_k=spec.random_top_k)
                    for name in spec.suffixes]
    for i, pair in enumerate(pairs):
        with _at(f"sentence {i}"):
            validate_pair(pair, vocab)
        _check_lengths(model, pair.source, suffixes, max_target_len=spec.max_target_len,
                       sentence=i)
    memo = _ProbeMemo(model)
    scores = {}
    with _one_session(memo):
        if spec.policy == "waitk":
            results = [_run_cell(memo, vocab, pairs, spec, scores, k=k)[0] for k in spec.ks]
        else:
            results = []
            for suffix in suffixes:
                sims = None
                for lam in sorted(spec.lambdas):
                    row, sims = _run_cell(memo, vocab, pairs, spec, scores, lam=lam,
                                          suffix=suffix, after=sims)
                    results.append(row)
    results.sort(key=lambda r: (r.al, r.lambda_or_k, r.suffix))
    return results


def _run_cell(model, vocab, pairs, spec, scores, k=None, lam=None, suffix=None,
              after=None) -> tuple[EvalResult, list[SimulationResult]]:
    """The row of one cell and its run of each sentence; ``scores`` is the
    sweep's store for ``evaluate_run``; ``after`` holds a psfuture cell's
    runs at the suffix's previous lambda, and sentence i's run is passed to
    ``simulate_sentence`` as its ``after``."""
    if k is not None:
        def one(_i, source):
            return simulate_waitk(model, vocab, k, source,
                                  max_target_len=spec.max_target_len)
        policy, value, suffix_id = "waitk", k, ""
    else:
        cfg = spec.policy_config(lam)
        draws = isinstance(suffix, RandomSuffix)

        def one(i, source):
            return simulate_sentence(model, vocab, cfg, suffix, source,
                                     rng=sentence_rng(spec.seed, i) if draws else None,
                                     after=None if after is None else after[i])
        policy, value, suffix_id = "psfuture", lam, suffix.name

    sims = []
    for i, pair in enumerate(pairs):
        try:
            sims.append(one(i, pair.source))
        except Exception as exc:
            raise RuntimeError(
                f"sweep cell failed (policy={policy}, value={value}, "
                f"suffix={suffix_id or '-'}) at sentence {i}: {exc}") from exc
    hyps = [sim.hypothesis for sim in sims]

    alignments = None
    if all(p.alignment is not None for p in pairs) and \
            all(h == p.target for h, p in zip(hyps, pairs)):
        # hypotheses match the references exactly, so the gold alignments apply
        alignments = [p.alignment for p in pairs]
    row = evaluate_run(
        vocab,
        [p.source for p in pairs],
        [p.target for p in pairs],
        hyps,
        [sim.g_record for sim in sims],
        alignments,
        policy=policy,
        lambda_or_k=value,
        suffix=suffix_id,
        r_max=spec.r_max if k is None else None,
        seed=spec.seed,
        store=scores,
    )
    return row, sims


def sweep_csv_lines(results: Sequence[EvalResult], spec: SweepSpec,
                    provenance: dict | None = None) -> list[str]:
    """CSV text for a sweep: effective-config header comments, then rows."""
    lines = ["# simtkit sweep"]
    echo = {
        "policy": spec.policy,
        "lambdas": ",".join(repr(v) for v in spec.lambdas),
        "suffixes": ",".join(spec.suffixes),
        "ks": ",".join(str(k) for k in spec.ks),
        "r_max": "unbounded" if spec.r_max is None else spec.r_max,
        "initial_prefix": spec.initial_prefix,
        "max_target_len": spec.max_target_len,
        "seed": spec.seed,
    }
    if provenance:
        echo.update(provenance)
    for key in sorted(echo):
        lines.append(f"# {key}={echo[key]}")
    lines.append(EvalResult.CSV_HEADER)
    lines += [r.csv_row() for r in results]
    return lines


def divergence_report_lines(model, vocab, pair, suffix_spec, lam,
                            rng=None) -> list[str]:
    """CSV text for the divergence matrix plus the lambda-thresholded path.

    Rows are labelled with the reference target tokens; columns are source
    prefix lengths 1..N. ``lam`` is checked before the first forward.
    """
    PolicyConfig(lam=lam)
    matrix = divergence_matrix(model, vocab, pair, suffix_spec, rng=rng)
    t_len, n = matrix.values.shape
    lines = ["# simtkit divergence matrix",
             f"# suffix={suffix_spec.name} lambda={lam!r}",
             "token," + ",".join(str(g) for g in range(1, n + 1))]
    for ti in range(t_len):
        label = vocab.token(pair.target[ti])
        row = ",".join(repr(float(v)) for v in matrix.values[ti])
        lines.append(f"{label},{row}")
    lines.append(f"# write path (t,g) at lambda={lam!r}")
    lines.append("t,token,g")
    for t, g in threshold_path(matrix, lam):
        lines.append(f"{t},{vocab.token(pair.target[t - 1])},{g}")
    return lines
