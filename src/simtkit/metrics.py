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
from typing import Sequence

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


def corpus_bleu(hypotheses: Sequence[Sequence[str]],
                references: Sequence[Sequence[str]]) -> float:
    """Case-insensitive corpus BLEU-4 in [0, 100]; 0 when any p_n is zero."""
    if len(hypotheses) != len(references):
        raise MetricError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references")
    matched = [0] * 5
    total = [0] * 5
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        h = [t.lower() for t in hyp]
        r = [t.lower() for t in ref]
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            total[n] += max(len(h) - n + 1, 0)
            clipped = _ngram_counts(h, n) & _ngram_counts(r, n)
            matched[n] += sum(clipped.values())
    if hyp_len == 0:
        return 0.0
    if any(total[n] == 0 or matched[n] == 0 for n in range(1, 5)):
        return 0.0
    log_precision = math.fsum(math.log(matched[n] / total[n]) for n in range(1, 5)) / 4.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision)


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
) -> EvalResult:
    """Aggregate AL (sentence mean), corpus BLEU, and optional HR.

    A sentence whose average lagging is undefined (an empty hypothesis, a
    bad g-record, a g-record whose length is not the hypothesis's) raises
    MetricError naming its 0-based index."""
    n = len(references)
    if not (len(sources) == len(hypotheses) == len(g_records) == n):
        raise MetricError("corpus size mismatch across inputs")
    if n == 0:
        raise MetricError("cannot evaluate an empty corpus")

    lags = []
    for i, (src, hyp, g_rec) in enumerate(zip(sources, hypotheses, g_records)):
        try:
            if len(g_rec) != len(hyp):
                raise MetricError(f"g-record length {len(g_rec)} does not match the "
                                  f"hypothesis's {len(hyp)} tokens")
            lags.append(average_lagging(g_rec, len(src)))
        except MetricError as exc:
            raise MetricError(f"sentence {i}: {exc}") from None

    hyp_tokens = [decode_sentence(h, vocab) for h in hypotheses]
    ref_tokens = [decode_sentence(r, vocab) for r in references]
    bleu = corpus_bleu(hyp_tokens, ref_tokens)
    hr = hallucination_rate(hyp_tokens, alignments) if alignments is not None else None
    return EvalResult(
        policy=policy, lambda_or_k=lambda_or_k, suffix=suffix, r_max=r_max,
        al=sum(lags) / len(lags), bleu=bleu, hr=hr, n_sentences=n, seed=seed,
    )
