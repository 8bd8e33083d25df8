"""Latency and quality metrics: average lagging, corpus BLEU, hallucination rate.

Average lagging follows the standard token-level definition
    AL = (1/tau) * sum_{t=1..tau} [ g(t) - (t-1)/gamma ]
with gamma = T/N, T the *hypothesis* length, and tau the first step whose
write consumed the whole source (tau = T when none does). This is the single
source of truth for latency numbers in this repo.

BLEU is corpus-level BLEU-4 with brevity penalty, no smoothing, lowercased,
on pre-tokenized text with EOS stripped before scoring. Scores from external
tools that retokenize may differ; that delta is expected.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import Vocabulary, decode_sentence


class MetricError(ValueError):
    """Metric preconditions violated (empty inputs, mismatched sizes...)."""


def average_lagging(g_record: Sequence[int], n_source: int) -> float:
    """Average lagging of one sentence whose hypothesis has len(g_record) tokens."""
    if len(g_record) == 0:
        raise MetricError("average lagging is undefined for an empty hypothesis")
    t_len = len(g_record)
    prev = 0
    for g in g_record:
        if not (1 <= g <= n_source):
            raise MetricError(f"g value {g} outside [1, {n_source}]")
        if g < prev:
            raise MetricError("g_record is not monotone non-decreasing")
        prev = g
    tau = t_len
    for t, g in enumerate(g_record, start=1):
        if g == n_source:
            tau = t
            break
    gamma = t_len / n_source
    total = sum(g_record[t - 1] - (t - 1) / gamma for t in range(1, tau + 1))
    return total / tau


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _bleu_stats(hyp: Sequence[str], ref: Sequence[str]) -> tuple[int, ...]:
    """One sentence's BLEU statistics, on lowercased tokens: the hypothesis
    and reference lengths, then for n = 1..4 the hypothesis's n-gram total
    and its n-grams clipped by the reference's counts."""
    h = [t.lower() for t in hyp]
    r = [t.lower() for t in ref]
    stats = [len(h), len(r)]
    for n in range(1, 5):
        clipped = _ngram_counts(h, n) & _ngram_counts(r, n)
        stats += (max(len(h) - n + 1, 0), sum(clipped.values()))
    return tuple(stats)


_NO_STATS = (0,) * 10


def _bleu(per_sentence: Sequence[tuple[int, ...]]) -> float:
    """Corpus BLEU-4 in [0, 100] of per-sentence ``_bleu_stats``, summed; 0
    when every hypothesis is empty or any p_n is zero. Integer sums do not
    depend on how a corpus is cut, so neither does the score."""
    hyp_len, ref_len, *ngrams = (sum(col) for col in zip(_NO_STATS, *per_sentence))
    total, matched = ngrams[0::2], ngrams[1::2]
    if hyp_len == 0:
        return 0.0
    if any(t == 0 or m == 0 for t, m in zip(total, matched)):
        return 0.0
    log_precision = math.fsum(math.log(m / t) for t, m in zip(total, matched)) / 4.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision)


def corpus_bleu(hypotheses: Sequence[Sequence[str]],
                references: Sequence[Sequence[str]]) -> float:
    """Case-insensitive corpus BLEU-4 in [0, 100]; 0 when any p_n is zero."""
    if len(hypotheses) != len(references):
        raise MetricError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references")
    return _bleu([_bleu_stats(h, r) for h, r in zip(hypotheses, references)])


def hallucination_rate(hypotheses: Sequence[Sequence],
                       alignments: Sequence[frozenset | set | None]) -> float:
    """Fraction of hypothesis tokens (EOS already stripped) aligned to no
    source word; alignment links are 1-based (hyp_index, source_index)."""
    if len(hypotheses) != len(alignments):
        raise MetricError("need one alignment set per hypothesis")
    total = 0
    unaligned = 0
    for i, (hyp, links) in enumerate(zip(hypotheses, alignments)):
        if links is None:
            raise MetricError(f"missing alignment for sentence {i}")
        covered = {t for t, _ in links}
        total += len(hyp)
        unaligned += sum(1 for idx in range(1, len(hyp) + 1) if idx not in covered)
    return unaligned / total if total else 0.0


@dataclass(frozen=True)
class EvalResult:
    """One row of a latency/quality curve; a ``None`` field is written empty."""
    policy: str
    lambda_or_k: float | None
    suffix: str
    r_max: int | None
    al: float | None
    bleu: float
    hr: float | None
    n_sentences: int
    seed: int

    CSV_HEADER = "policy,lambda_or_k,suffix,r_max,al,bleu,hr,n_sentences,seed"

    def csv_row(self) -> str:
        lambda_or_k, al, hr = ("" if v is None else repr(v)
                               for v in (self.lambda_or_k, self.al, self.hr))
        r_max = "" if self.r_max is None else str(self.r_max)
        return (f"{self.policy},{lambda_or_k},{self.suffix},{r_max},"
                f"{al},{self.bleu!r},{hr},{self.n_sentences},{self.seed}")


class _Score(NamedTuple):
    """What one sentence adds to a row: its AL and its ``_bleu_stats``."""
    al: float
    bleu: tuple[int, ...]


def _score_sentence(vocab: Vocabulary, source: Sequence[int], reference: Sequence[int],
                    hypothesis: Sequence[int], g_record: Sequence[int]) -> _Score:
    if len(g_record) != len(hypothesis):
        raise MetricError(f"g-record length {len(g_record)} does not match the "
                          f"hypothesis's {len(hypothesis)} tokens")
    return _Score(average_lagging(g_record, len(source)),
                  _bleu_stats(decode_sentence(hypothesis, vocab),
                              decode_sentence(reference, vocab)))


def evaluate_run(
    vocab: Vocabulary,
    sources: Sequence[Sequence[int]],
    references: Sequence[Sequence[int]],
    hypotheses: Sequence[Sequence[int]],
    g_records: Sequence[Sequence[int]],
    alignments: Sequence[frozenset | None] | None = None,
    *,
    policy: str = "external",
    lambda_or_k: float = 0.0,
    suffix: str = "",
    r_max: int | None = None,
    seed: int = 0,
    store: dict | None = None,
) -> EvalResult:
    """Aggregate AL (sentence mean), corpus BLEU, and optional HR.

    Each sentence is scored alone, its AL and its BLEU statistics, and the
    row sums the scores in sentence order, so AL is the mean of the same
    floats and BLEU comes from the same integer counts as ``corpus_bleu``.
    ``store``, when given, keeps each score under its whole run,
    ``(source, reference, hypothesis, g_record)`` as tuples, and a run found
    there is not scored again. A score depends on ``vocab`` too, so one
    store serves one vocabulary; ``run_sweep`` keeps one for its call.

    A sentence whose average lagging is undefined (an empty hypothesis, a
    bad g-record, a g-record whose length is not the hypothesis's) raises
    MetricError naming its 0-based index, and stores nothing."""
    n = len(references)
    if not (len(sources) == len(hypotheses) == len(g_records) == n):
        raise MetricError("corpus size mismatch across inputs")
    if n == 0:
        raise MetricError("cannot evaluate an empty corpus")

    if store is None:
        store = {}
    scores = []
    for i, run in enumerate(zip(sources, references, hypotheses, g_records)):
        key = tuple(map(tuple, run))
        score = store.get(key)
        if score is None:
            try:
                score = store[key] = _score_sentence(vocab, *run)
            except MetricError as exc:
                raise MetricError(f"sentence {i}: {exc}") from None
        scores.append(score)

    hr = None
    if alignments is not None:
        hr = hallucination_rate([decode_sentence(h, vocab) for h in hypotheses], alignments)
    return EvalResult(
        policy=policy, lambda_or_k=lambda_or_k, suffix=suffix, r_max=r_max,
        al=sum(s.al for s in scores) / n, bleu=_bleu([s.bleu for s in scores]), hr=hr,
        n_sentences=n, seed=seed,
    )
