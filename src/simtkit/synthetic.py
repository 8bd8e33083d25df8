"""Synthetic parallel corpora with analytically known read/write structure.

Three toy languages over a shared content vocabulary:
  * copy       - target equals source; diagonal alignment
  * local_swap - content reordered inside fixed-size blocks (default 2:
    adjacent swaps); alignment crosses inside each block
  * tail_first - the final content token is fronted: nothing can be written
    confidently until all content has been read, the desk-scale analogue of
    long-distance reordering

Each generated corpus ships with an exact TableModel over the same language:
the entry for a context is a delta on the correct next token whenever the
seen source determines it, and uniform over the possible next tokens
otherwise ("possible" = achievable by some source completion consistent
with the corpus length bounds). Entries are materialized for every true
prefix context of every pair, plus every prefix-closed-with-EOS context so
that EOS-style pseudo-future probes also resolve exactly. Anything else
falls back to the default: uniform over the tokens the language can emit,
EOS and the content tokens (never BOS or UNK).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .core import (
    SPECIALS,
    ConfigError,
    SentencePair,
    Vocabulary,
    uniform_distribution,
)
from .tables import TableModel

KINDS = ("copy", "local_swap", "tail_first")


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str
    vocab_size: int = 10
    n_range: tuple[int, int] = (5, 9)  # sentence length incl. EOS
    n_pairs: int = 50
    seed: int = 0
    window: int = 2  # local_swap block size

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}")
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must be >= 4 (3 specials + content)")
        lo, hi = self.n_range
        if lo < 2 or hi < lo:
            raise ConfigError("length range must satisfy 2 <= lo <= hi")
        if self.n_pairs < 1:
            raise ConfigError("n_pairs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")
        if self.window < 2:
            raise ConfigError("swap window must be >= 2")


def _source_index(kind: str, window: int, m: int, t: int) -> int:
    """1-based source content position that supplies target position t
    (1 <= t <= m) in a sentence with m content tokens."""
    if kind == "copy":
        return t
    if kind == "tail_first":
        return m if t == 1 else t - 1
    # local_swap: reverse within blocks of `window`, last partial block too
    b0 = ((t - 1) // window) * window          # 0-based block start
    be = min(b0 + window, m)                   # 0-based exclusive block end
    return b0 + be - t + 1                     # 1-based reversed position


def _target_ids(kind: str, window: int, content: tuple[int, ...], eos: int) -> tuple[int, ...]:
    m = len(content)
    return tuple(content[_source_index(kind, window, m, t) - 1]
                 for t in range(1, m + 1)) + (eos,)


def _alignment(kind: str, window: int, m: int) -> frozenset[tuple[int, int]]:
    links = {(t, _source_index(kind, window, m, t)) for t in range(1, m + 1)}
    links.add((m + 1, m + 1))  # EOS to EOS
    return frozenset(links)


def possible_next_tokens(
    kind: str,
    window: int,
    m_bounds: tuple[int, int],
    content_ids: tuple[int, ...],
    eos: int,
    src_ctx: tuple[int, ...],
    t: int,
) -> set[int]:
    """Tokens that can appear at target position t given the source context.

    A complete context (ending in EOS) pins the sentence; an incomplete one
    of j content tokens ranges over every content length m consistent with
    the corpus bounds. Positions mapped to unseen source slots contribute
    the whole content alphabet.
    """
    if eos in src_ctx:
        if src_ctx[-1] != eos or src_ctx.count(eos) != 1:
            raise ConfigError("malformed source context")
        content = src_ctx[:-1]
        m = len(content)
        if t > m:
            return {eos}
        return {content[_source_index(kind, window, m, t) - 1]}

    j = len(src_ctx)
    lo = max(j, m_bounds[0])
    hi = m_bounds[1]
    if lo > hi:  # context longer than the language allows; treat as ending here
        lo = hi = j
    out: set[int] = set()
    full = len(content_ids) + 1  # short-circuit bound: all content + eos
    for m in range(lo, hi + 1):
        if t > m:
            out.add(eos)
        else:
            s = _source_index(kind, window, m, t)
            if s <= j:
                out.add(src_ctx[s - 1])
            else:
                out.update(content_ids)
        if len(out) >= full:
            break
    return out


def generate_corpus(spec: SyntheticSpec) -> tuple[Vocabulary, list[SentencePair], TableModel]:
    """Generate aligned pairs plus the exact table model of the language."""
    vocab, pairs = _generate_pairs(spec)
    return vocab, pairs, _exact_table(spec, vocab, pairs)


def _generate_pairs(spec: SyntheticSpec) -> tuple[Vocabulary, list[SentencePair]]:
    """The vocabulary and aligned pairs of ``generate_corpus``, with no table."""
    n_content = spec.vocab_size - 3
    tokens = SPECIALS + tuple(f"w{i}" for i in range(n_content))
    content_ids = tuple(range(3, spec.vocab_size))
    eos = 1

    rng = np.random.default_rng(spec.seed)
    m_lo, m_hi = spec.n_range[0] - 1, spec.n_range[1] - 1
    pairs = []
    for _ in range(spec.n_pairs):
        m = int(rng.integers(m_lo, m_hi + 1))
        content = tuple(int(content_ids[i]) for i in rng.integers(0, n_content, size=m))
        source = content + (eos,)
        pairs.append(SentencePair(
            source=source,
            target=_target_ids(spec.kind, spec.window, content, eos),
            alignment=_alignment(spec.kind, spec.window, m),
        ))

    counts = Counter(tok for p in pairs for tok in p.source if tok != eos)
    ranked = sorted(counts, key=lambda i: (-counts[i], i))
    freq_rank = {tokens[i]: r for r, i in enumerate(ranked, start=1)}
    return Vocabulary(tokens=tokens, bos=0, eos=1, unk=2, freq_rank=freq_rank), pairs


def _exact_table(spec: SyntheticSpec, vocab: Vocabulary,
                 pairs: list[SentencePair]) -> TableModel:
    """The exact table model of ``generate_corpus`` over its ``pairs``."""
    content_ids = tuple(range(3, spec.vocab_size))
    eos = vocab.eos
    bounds = (spec.n_range[0] - 1, spec.n_range[1] - 1)  # content lengths
    # one shared uniform Distribution per distinct support (a frozenset)
    dist = cache(partial(uniform_distribution, spec.vocab_size))
    entries = {}
    for pair in pairs:
        n = len(pair.source)
        contexts = [pair.source[:j] for j in range(1, n + 1)]
        contexts += [pair.source[:j] + (eos,) for j in range(1, n - 1)]
        # one tuple per target prefix, shared by the keys of every context
        prefixes = [pair.target[:t - 1] for t in range(1, len(pair.target) + 1)]
        for ctx in contexts:
            for t, prefix in enumerate(prefixes, start=1):
                key = (ctx, prefix)
                if key not in entries:
                    entries[key] = dist(frozenset(possible_next_tokens(
                        spec.kind, spec.window, bounds, content_ids, eos, ctx, t)))

    return TableModel(vocab, entries, dist(frozenset((eos,) + content_ids)))
