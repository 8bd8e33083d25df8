"""Exact conditional next-token tables with context backoff.

A TableModel stands in for a trained translation model when analyzing policy
behavior: lookups are total, deterministic, and cheap, so read/write traces
can be verified against hand derivations.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from types import MappingProxyType
from typing import Mapping, Sequence

from .core import Distribution, Vocabulary

# Fixed truncation schedule: with the full source context, try the full
# target context, then target suffixes of length 2, 1, 0; then truncate the
# source context the same way; with no hit the default distribution applies.
# ``backoff_probes`` lists the keys in this order. ``TableModel.next_dist``
# walks the same order over its index by source context: one get per source
# level, so each source suffix is hashed once, and one per target level only
# under a source that has entries.
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


def backoff_probes(source_ctx: Sequence[int], target_ctx: Sequence[int]) -> list[Key]:
    """All candidate keys for a query, most specific first, no two equal."""
    src = tuple(source_ctx)
    tgt = tuple(target_ctx)
    tgt_suffixes = [tgt[len(tgt) - tl:] for tl in _levels(len(tgt))]
    return [(src[len(src) - sl:], tgt_suffix)
            for sl in _levels(len(src)) for tgt_suffix in tgt_suffixes]


class TableModel:
    """Next-token distribution table keyed by (source ctx, target ctx).

    ``entries`` and ``default`` hold ``Distribution``s over ``vocab``, kept as
    given: entries with equal rows may share one object, since its array is
    read-only. The first lookup builds an index of ``entries`` by source
    context, ``{src_ctx: {tgt_ctx: Distribution}}``, and keeps it, so
    ``entries`` is a read-only view of a private copy of the mapping given:
    it cannot change under the index.
    """

    def __init__(self, vocab: Vocabulary, entries: Mapping[Key, Distribution],
                 default: Distribution):
        for dist in chain([default], entries.values()):
            if not isinstance(dist, Distribution):
                raise ValueError(f"table value of type {type(dist).__name__} is not a Distribution")
            if len(dist) != len(vocab):
                raise ValueError(f"distribution length {len(dist)} != vocab size {len(vocab)}")
        self.vocab = vocab
        self.entries: Mapping[Key, Distribution] = MappingProxyType(dict(entries))
        self.default = default
        self._by_source: dict[Context, dict[Context, Distribution]] | None = None

    def _build_index(self) -> dict[Context, dict[Context, Distribution]]:
        by_source: dict[Context, dict[Context, Distribution]] = {}
        for (src, tgt), dist in self.entries.items():
            by_source.setdefault(src, {})[tgt] = dist
        return by_source

    def next_dist(self, source_prefix: Sequence[int], target_prefix: Sequence[int]) -> Distribution:
        """Longest-match lookup over the backoff schedule; total by construction.

        Answers with the entry of the first ``backoff_probes`` key that hits,
        else the default. The stored Distribution is returned itself, not a
        copy: its array is read-only, so callers cannot change the table
        through it.
        """
        by_source = self._by_source
        if by_source is None:
            by_source = self._by_source = self._build_index()
        src = tuple(source_prefix)
        tgt = tuple(target_prefix)
        ns, nt = len(src), len(tgt)
        for sl in _levels(ns):
            by_target = by_source.get(src[ns - sl:])
            if by_target is not None:
                for tl in _levels(nt):
                    hit = by_target.get(tgt[nt - tl:])
                    if hit is not None:
                        return hit
        return self.default
