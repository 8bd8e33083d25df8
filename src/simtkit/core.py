"""Shared domain types: vocabulary, sentence pairs, distributions, policy settings.

Conventions used throughout the package:
  * token ids are dense integers 0..|V|-1; BOS/EOS/UNK are always present
  * every source/target sequence ends with exactly one EOS token
  * BOS is a decoder-side sentinel only; it is never counted in source or
    target lengths, cursors, or write records
  * probabilities are 64-bit floats everywhere
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

DIST_TOL = 1e-9

SPECIALS = ("<bos>", "<eos>", "<unk>")


class ConfigError(ValueError):
    """Invalid configuration or construction arguments."""


class CorpusError(ValueError):
    """Malformed corpus data (sentences, ids, alignments)."""


class CapacityError(ValueError):
    """Sequence exceeds a model's maximum supported length."""


class NumericError(RuntimeError):
    """Non-finite value encountered in a numeric computation."""


class ModelFileError(ValueError):
    """Unreadable, corrupt, or incompatible model file."""


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vocabulary:
    """Token/id bijection with special tokens and optional frequency ranks.

    ``freq_rank`` maps ranked tokens to 1-based ranks (1 = most frequent)
    and, when present, is a bijection onto 1..n_ranked. Special tokens are
    never ranked; ranks drive random-suffix sampling of real words.
    """

    tokens: tuple[str, ...]
    bos: int
    eos: int
    unk: int
    freq_rank: Mapping[str, int] | None = None
    id_of: Mapping[str, int] = field(init=False, repr=False)
    ranked_ids: tuple[int, ...] = field(init=False, repr=False)  # best rank first

    def __post_init__(self):
        object.__setattr__(self, "id_of", {t: i for i, t in enumerate(self.tokens)})
        if len(self.id_of) != len(self.tokens):
            raise ConfigError("duplicate tokens in vocabulary")
        for name, i in (("bos", self.bos), ("eos", self.eos), ("unk", self.unk)):
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise ConfigError(f"{name} id {i!r} is not an integer")
            if not (0 <= i < len(self.tokens)):
                raise ConfigError(f"{name} id {i} out of range")
        if len({self.bos, self.eos, self.unk}) != 3:
            raise ConfigError("BOS, EOS, UNK ids must be distinct")
        ranked: tuple[int, ...] = ()
        if self.freq_rank is not None:
            ranks = sorted(self.freq_rank.values())
            if ranks != list(range(1, len(ranks) + 1)):
                raise ConfigError("freq_rank is not a bijection onto 1..n_ranked")
            for tok in self.freq_rank:
                if tok not in self.id_of:
                    raise ConfigError(f"ranked token {tok!r} not in vocabulary")
                if self.id_of[tok] in (self.bos, self.eos, self.unk):
                    raise ConfigError(f"special token {tok!r} must not be ranked")
            ranked = tuple(self.id_of[tok]
                           for tok in sorted(self.freq_rank, key=self.freq_rank.__getitem__))
        object.__setattr__(self, "ranked_ids", ranked)

    def __len__(self) -> int:
        return len(self.tokens)

    def token(self, token_id: int) -> str:
        return self.tokens[token_id]

    def id(self, token: str) -> int:
        """Id of ``token``, falling back to UNK for out-of-vocabulary tokens."""
        return self.id_of.get(token, self.unk)

    def top_ranked_ids(self, top_k: int) -> tuple[int, ...]:
        """Ids of the ``top_k`` most frequent ranked tokens, best rank first."""
        if self.freq_rank is None:
            raise ConfigError("vocabulary has no frequency ranks")
        if top_k < 1:
            raise ConfigError(f"top_k={top_k} must be >= 1")
        if top_k > len(self.freq_rank):
            raise ConfigError(
                f"top_k={top_k} exceeds {len(self.freq_rank)} ranked tokens")
        return self.ranked_ids[:top_k]

    def hash_hex(self) -> str:
        """Stable fingerprint of the token list and special ids."""
        payload = "\x1f".join(self.tokens) + f"|{self.bos},{self.eos},{self.unk}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_vocabulary(corpus: Iterable[Sequence[str]]) -> Vocabulary:
    """Build a vocabulary from tokenized sentences.

    ``SPECIALS`` occupy ids 0..2; remaining tokens follow in first-occurrence
    order. Frequency ranks come from corpus counts with ties broken by first
    occurrence; special tokens are excluded from the ranking.
    """
    counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    n_sentences = 0
    for sent in corpus:
        n_sentences += 1
        for tok in sent:
            counts[tok] += 1
            first_seen.setdefault(tok, len(first_seen))
    if n_sentences == 0:
        raise ConfigError("cannot build a vocabulary from an empty corpus")

    tokens = list(SPECIALS)
    for tok in sorted(first_seen, key=first_seen.__getitem__):
        if tok not in SPECIALS:
            tokens.append(tok)

    ranked = [t for t in counts if t not in SPECIALS]
    ranked.sort(key=lambda t: (-counts[t], first_seen[t]))
    freq_rank = {tok: r for r, tok in enumerate(ranked, start=1)}
    return Vocabulary(tokens=tuple(tokens), bos=0, eos=1, unk=2, freq_rank=freq_rank)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

class Distribution:
    """A probability vector over the vocabulary.

    Construction rejects negative entries and vectors whose mass is not
    within 1e-9 of one (a NaN entry gives a NaN mass, which fails too). It
    keeps a read-only copy of the vector, so the argmax and the squared norm
    are computed on first use and kept: a table hands out the same object
    to many decisions.
    """

    __slots__ = ("probs", "_argmax", "_sq_norm")

    def __init__(self, probs):
        vec = np.array(probs, dtype=np.float64)  # a copy of its own
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("distribution must be a non-empty 1-d vector")
        # the reductions as ufunc calls: ndarray.min and .sum add a Python wrapper per call
        if np.minimum.reduce(vec) < 0.0:
            raise ValueError("distribution has negative entries")
        total = float(np.add.reduce(vec))
        if not abs(total - 1.0) <= DIST_TOL:  # NaN fails
            raise ValueError(f"distribution mass {total!r} not within {DIST_TOL} of 1")
        vec.setflags(write=False)
        self.probs = vec
        self._argmax: int | None = None
        self._sq_norm: float | None = None

    def __len__(self) -> int:
        return int(self.probs.size)

    def argmax(self) -> int:
        """Lowest index among maximal entries (deterministic tie-break)."""
        if self._argmax is None:
            self._argmax = int(np.argmax(self.probs))
        return self._argmax

    def _squared_norm(self) -> float:
        """dot(probs, probs), the term ``policy.cosine_divergence`` reads."""
        if self._sq_norm is None:
            self._sq_norm = float(np.dot(self.probs, self.probs))
        return self._sq_norm


def uniform_distribution(n_vocab: int, support: Iterable[int]) -> Distribution:
    """Uniform over the ``support`` ids of an ``n_vocab``-token vocabulary."""
    ids = sorted(set(support))
    if not ids:
        raise ValueError("empty support")
    vec = np.zeros(n_vocab)
    vec[ids] = 1.0 / len(ids)
    return Distribution(vec)


# ---------------------------------------------------------------------------
# Sentence pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SentencePair:
    """One parallel sentence: id sequences ending in EOS, optional alignment.

    Alignment links are 1-based (target_index, source_index) pairs.
    """

    source: tuple[int, ...]
    target: tuple[int, ...]
    alignment: frozenset[tuple[int, int]] | None = None


def _validate_sequence(side: str, seq: Sequence[int], vocab: Vocabulary) -> None:
    """Raise CorpusError unless ``seq`` is a valid side of a SentencePair."""
    n_vocab = len(vocab)
    if len(seq) == 0:
        raise CorpusError(f"{side} sequence is empty")
    if seq[-1] != vocab.eos:
        raise CorpusError(f"{side} sequence does not end with EOS")
    if seq.count(vocab.eos) != 1:
        raise CorpusError(f"{side} sequence contains more than one EOS")
    for tok in seq:
        if not (0 <= tok < n_vocab):
            raise CorpusError(f"{side} id {tok} out of range 0..{n_vocab - 1}")


def validate_pair(pair: SentencePair, vocab: Vocabulary) -> None:
    """Raise CorpusError unless all SentencePair invariants hold under vocab."""
    _validate_sequence("source", pair.source, vocab)
    _validate_sequence("target", pair.target, vocab)
    if pair.alignment is not None:
        n, t = len(pair.source), len(pair.target)
        for ti, si in pair.alignment:
            if not (1 <= ti <= t and 1 <= si <= n):
                raise CorpusError(f"alignment link ({ti},{si}) outside [1,{t}]x[1,{n}]")


# ---------------------------------------------------------------------------
# Policy configuration
# ---------------------------------------------------------------------------

READ = "R"
WRITE = "W"


@dataclass(frozen=True)
class PolicyConfig:
    """Knobs of the adaptive read/write loop.

    ``lam`` is the divergence threshold (negative values are allowed and
    degenerate to read-everything-first, infinite ones too; NaN is not,
    since no divergence is ``<=`` NaN). ``r_max=None`` means no cap on
    consecutive reads. ``initial_prefix`` counts real source tokens.
    """

    lam: float = 0.2
    r_max: int | None = None
    initial_prefix: int = 2
    max_target_len: int = 64

    def __post_init__(self):
        if math.isnan(self.lam):
            raise ConfigError(f"lam={self.lam} must not be NaN")
        if self.initial_prefix < 1:
            raise ConfigError(f"initial_prefix={self.initial_prefix} must be >= 1")
        if self.max_target_len < 1:
            raise ConfigError(f"max_target_len={self.max_target_len} must be >= 1")
        if self.r_max is not None and self.r_max < 1:
            raise ConfigError(f"r_max={self.r_max} must be >= 1 or None (unbounded)")


# ---------------------------------------------------------------------------
# Corpus file I/O
# ---------------------------------------------------------------------------
# Format: UTF-8 text, one sentence per line, single-space separated tokens.
# EOS is appended on load and never written. Alignment files carry 1-based
# `t-s` pairs per line, line-aligned with the corpus.

def read_token_lines(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh.read().splitlines()]


def _no_empty_sentence(*sides: Sequence[Sequence[str]]) -> None:
    """Raise CorpusError, naming the first 1-based line that holds one, if
    the line-aligned tokenized ``sides`` of a corpus hold an empty
    sentence."""
    for number, line in enumerate(zip(*sides), start=1):
        if not all(line):
            with _at(f"line {number}"):
                raise CorpusError("corpus contains an empty sentence")


def encode_sentence(tokens: Sequence[str], vocab: Vocabulary) -> tuple[int, ...]:
    """Map tokens to ids (OOV -> UNK) and append EOS."""
    return tuple(vocab.id(t) for t in tokens) + (vocab.eos,)


def decode_sentence(ids: Sequence[int], vocab: Vocabulary) -> list[str]:
    """Tokens of ``ids``, without a final EOS."""
    out = [vocab.token(i) for i in ids]
    if out and ids[-1] == vocab.eos:
        out = out[:-1]
    return out


def parse_alignment_line(line: str) -> frozenset[tuple[int, int]]:
    links = set()
    for chunk in line.split():
        try:
            t_str, s_str = chunk.split("-")
            links.add((int(t_str), int(s_str)))
        except ValueError as exc:
            raise CorpusError(f"bad alignment link {chunk!r}") from exc
    return frozenset(links)


@contextmanager
def _at(place: str):
    """Put ``place`` (``"line 3"`` of a corpus file, ``"sentence 2"`` of a
    list of pairs) in front of a CorpusError the block raises."""
    try:
        yield
    except CorpusError as exc:
        raise CorpusError(f"{place}: {exc}") from None


def load_parallel_corpus(
    src_path,
    tgt_path,
    vocab: Vocabulary | None = None,
    align_path=None,
) -> tuple[Vocabulary, list[SentencePair]]:
    """Load a line-aligned corpus, building a joint vocabulary if none given.

    A bad pair or alignment line fails naming its 1-based line."""
    src_lines = read_token_lines(src_path)
    tgt_lines = read_token_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            f"source/target line counts differ: {len(src_lines)} vs {len(tgt_lines)}")
    _no_empty_sentence(src_lines, tgt_lines)
    if vocab is None:
        vocab = build_vocabulary(src_lines + tgt_lines)

    if align_path is not None:
        with open(align_path, encoding="utf-8") as fh:
            align_lines = fh.read().splitlines()
        if len(align_lines) != len(src_lines):
            raise CorpusError("alignment file is not line-aligned with the corpus")
    else:
        align_lines = [None] * len(src_lines)

    pairs = []
    for number, (src, tgt, align) in enumerate(zip(src_lines, tgt_lines, align_lines), start=1):
        with _at(f"line {number}"):
            pair = SentencePair(
                source=encode_sentence(src, vocab),
                target=encode_sentence(tgt, vocab),
                alignment=None if align is None else parse_alignment_line(align),
            )
            validate_pair(pair, vocab)
        pairs.append(pair)
    return vocab, pairs


def write_parallel_corpus(pairs: Sequence[SentencePair], vocab: Vocabulary,
                          src_path, tgt_path, align_path=None) -> None:
    with open(src_path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(" ".join(decode_sentence(p.source, vocab)) + "\n")
    with open(tgt_path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(" ".join(decode_sentence(p.target, vocab)) + "\n")
    if align_path is not None:
        with open(align_path, "w", encoding="utf-8") as fh:
            for p in pairs:
                links = sorted(p.alignment or ())
                fh.write(" ".join(f"{t}-{s}" for t, s in links) + "\n")
