"""Corpus BLEU with n-grams built one slice at a time, as the reference for
``metrics.corpus_bleu``.

Every count is an integer and the final arithmetic is the same, so the two
agree exactly, not to a tolerance.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence


def _ngrams(tokens: Sequence[str], n: int):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def corpus_bleu(hypotheses: Sequence[Sequence[str]],
                references: Sequence[Sequence[str]]) -> float:
    """Case-insensitive corpus BLEU-4 in [0, 100]; 0 when any p_n is zero."""
    assert len(hypotheses) == len(references)
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
            counts = Counter(_ngrams(h, n))
            ref_counts = Counter(_ngrams(r, n))
            total[n] += sum(counts.values())
            matched[n] += sum(min(c, ref_counts[g]) for g, c in counts.items())
    if hyp_len == 0:
        return 0.0
    if any(total[n] == 0 or matched[n] == 0 for n in range(1, 5)):
        return 0.0
    log_precision = math.fsum(math.log(matched[n] / total[n]) for n in range(1, 5)) / 4.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_precision)
