"""Exact conditional next-token tables with context backoff.

A TableModel stands in for a trained translation model when analyzing policy
behavior: lookups are total, deterministic, and cheap, so read/write traces
can be verified against hand derivations.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import Iterator, Mapping, Sequence

from .core import Distribution, Vocabulary

# Fixed truncation schedule: with the full source context, try the full
# target context, then target suffixes of length 2, 1, 0; then truncate the
# source context the same way. ``_probes`` yields the keys in this order and
# ``TableModel.next_dist`` stops at the first that hits, so most lookups build
# only a few keys; with no hit the default distribution applies.
BACKOFF_SCHEDULE = "t2,t1,t0,s*"

Context = tuple[int, ...]
Key = tuple[Context, Context]


@cache
def _levels(length: int) -> tuple[int, ...]:
    out = []
    for lvl in (length, 2, 1, 0):
        if lvl <= length and lvl not in out:
            out.append(lvl)
    return tuple(out)


def _probes(source_ctx: Sequence[int], target_ctx: Sequence[int]) -> Iterator[Key]:
    """The candidate keys of a query, most specific first, no two equal."""
    src = tuple(source_ctx)
    tgt = tuple(target_ctx)
    tgt_suffixes = [tgt[len(tgt) - tl:] for tl in _levels(len(tgt))]
    for sl in _levels(len(src)):
        src_suffix = src[len(src) - sl:]
        for tgt_suffix in tgt_suffixes:
            yield src_suffix, tgt_suffix


def backoff_probes(source_ctx: Sequence[int], target_ctx: Sequence[int]) -> list[Key]:
    """All candidate keys for a query, most specific first, no two equal."""
    return list(_probes(source_ctx, target_ctx))


class TableModel:
    """Next-token distribution table keyed by (source ctx, target ctx).

    ``entries`` and ``default`` hold ``Distribution``s over ``vocab``, kept as
    given: entries with equal rows may share one object, since its array is
    read-only.
    """

    def __init__(self, vocab: Vocabulary, entries: Mapping[Key, Distribution],
                 default: Distribution):
        for dist in chain([default], entries.values()):
            if not isinstance(dist, Distribution):
                raise ValueError(f"table value of type {type(dist).__name__} is not a Distribution")
            if len(dist) != len(vocab):
                raise ValueError(f"distribution length {len(dist)} != vocab size {len(vocab)}")
        self.vocab = vocab
        self.entries: dict[Key, Distribution] = dict(entries)
        self.default = default

    def next_dist(self, source_prefix: Sequence[int], target_prefix: Sequence[int]) -> Distribution:
        """Longest-match lookup over the backoff schedule; total by construction.

        The stored Distribution is returned itself, not a copy: its array is
        read-only, so callers cannot change the table through it.
        """
        for key in _probes(source_prefix, target_prefix):
            hit = self.entries.get(key)
            if hit is not None:
                return hit
        return self.default
