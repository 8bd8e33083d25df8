"""Read/write policies for streaming translation.

The adaptive policy appends a pseudo-future suffix to the consumed source
prefix and measures how much the predicted next-token distribution moves
(cosine distance). A small divergence means the model already knows enough
to commit a token; a large one means more source is needed. Wait-k is the
fixed-schedule baseline.

The decision loop mirrors the streaming inference procedure:
  * the source cursor starts at ``initial_prefix`` (clamped to the sentence)
  * a write fires when divergence <= lambda, when ``r_max`` consecutive
    reads have accumulated, or when the source is exhausted
  * a greedily decoded EOS is committed only once the whole source has been
    read; earlier EOS predictions turn the step into a read instead

One deliberate divergence from the literal decision procedure: when a write
is *forced* by the r_max cap and the greedy token is a premature EOS, the
best non-EOS token is committed instead of reading again. Reading there
would let runs of consecutive reads exceed r_max, defeating the cap's
purpose of guaranteeing progress.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import (
    ConfigError,
    Distribution,
    PolicyConfig,
    READ,
    WRITE,
    Vocabulary,
    _validate_sequence,
    validate_pair,
)

# force-reason codes carried by trace records
THRESHOLD = "THRESHOLD"
RMAX = "RMAX"
EXHAUSTED = "EXHAUSTED"
EOS_DEFERRED = "EOS_DEFERRED"  # write intent downgraded to a read by the EOS guard


def cosine_divergence(p: Distribution, q: Distribution) -> float:
    """1 - cos(p, q), clamped into [0, 1].

    Non-negative entries make the raw value lie in [0, 1] up to float
    round-off; the clamp removes the round-off. The denominator is computed
    as sqrt(dot(p,p) * dot(q,q)) so identical vectors give exactly 0 and the
    result is symmetric bit for bit; each Distribution keeps its dot(p,p).
    """
    num = float(np.dot(p.probs, q.probs))
    den = math.sqrt(p._squared_norm() * q._squared_norm())
    return min(max(1.0 - num / den, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Pseudo-future suffixes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedSuffix:
    """A constant token-id suffix; must end with EOS."""
    tokens: tuple[int, ...]
    name: str = "fixed"


@dataclass(frozen=True)
class RandomSuffix:
    """``count`` ids drawn uniformly from the ``top_k`` most frequent ranked
    tokens, resampled on every decision from the caller's rng."""
    count: int = 4
    top_k: int = 200
    name: str = "random"

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"random suffix count {self.count} must be >= 1")
        if self.top_k < 1:
            raise ConfigError(f"random suffix top_k={self.top_k} must be >= 1")


@dataclass(frozen=True)
class OracleSuffix:
    """The true source continuation; the upper-bound suffix."""
    name: str = "oracle"


SuffixSpec = Union[FixedSuffix, RandomSuffix, OracleSuffix]


def suffix_from_name(name: str, vocab: Vocabulary,
                     tokens: Sequence[str] | None = None,
                     random_count: int = RandomSuffix.count,
                     random_top_k: int = RandomSuffix.top_k) -> SuffixSpec:
    """Resolve a registry name into a suffix spec.

    Named fixed suffixes: ``eos``, ``unk-eos``, ``ellipsis-eos``; ``random``
    and ``oracle`` are keywords; ``custom`` uses ``tokens`` (OOV mapped to
    UNK, EOS appended when missing). ``random`` needs ``random_count`` >= 1
    and ``random_top_k`` within the vocabulary's ranked tokens.
    """
    if name == "eos":
        return FixedSuffix((vocab.eos,), name="eos")
    if name == "unk-eos":
        return FixedSuffix((vocab.unk, vocab.eos), name="unk-eos")
    if name == "ellipsis-eos":
        return FixedSuffix((vocab.id("..."), vocab.eos), name="ellipsis-eos")
    if name == "random":
        # checked here, so a sweep fails before its first cell, not at its
        # first random cell
        spec = RandomSuffix(count=random_count, top_k=random_top_k)
        vocab.top_ranked_ids(random_top_k)  # raises when top_k is out of range
        return spec
    if name == "oracle":
        return OracleSuffix()
    if name == "custom":
        if not tokens:
            raise ConfigError("custom suffix requires tokens")
        ids = [vocab.id(t) for t in tokens]
        if ids[-1] != vocab.eos:
            ids.append(vocab.eos)
        return FixedSuffix(tuple(ids), name="custom")
    raise ConfigError(f"unknown suffix name {name!r}")


def make_suffix(
    spec: SuffixSpec,
    vocab: Vocabulary,
    rng: np.random.Generator | None = None,
    full_source: Sequence[int] | None = None,
    j: int = 0,
) -> tuple[int, ...]:
    """Produce the pseudo-future token ids for one decision."""
    _check_suffix(spec, vocab, rng)
    if isinstance(spec, FixedSuffix):
        return spec.tokens
    if isinstance(spec, RandomSuffix):
        pool = vocab.top_ranked_ids(spec.top_k)
        return tuple(int(pool[i]) for i in _draw(spec, rng))
    if isinstance(spec, OracleSuffix):
        if full_source is None:
            raise ConfigError("oracle suffix requires the full source")
        if j >= len(full_source):
            raise ConfigError("oracle suffix undefined once the source is exhausted")
        return tuple(full_source[j:])
    raise ConfigError(f"unknown suffix spec {spec!r}")


def _check_suffix(spec: SuffixSpec, vocab: Vocabulary,
                  rng: np.random.Generator | None) -> None:
    """Raise ConfigError unless ``spec`` can make its suffixes under
    ``vocab`` and ``rng``: a fixed suffix ends with EOS, and a random one
    has a generator and a ``top_k`` within the ranked tokens. Takes no draw
    from ``rng``."""
    if isinstance(spec, FixedSuffix):
        if not spec.tokens or spec.tokens[-1] != vocab.eos:
            raise ConfigError("fixed suffix must end with EOS")
    elif isinstance(spec, RandomSuffix):
        if rng is None:
            raise ConfigError("random suffix requires a seeded rng")
        vocab.top_ranked_ids(spec.top_k)  # raises when top_k is out of range


def _draw(spec: RandomSuffix, rng: np.random.Generator) -> np.ndarray:
    """The ``spec.count`` ranks below ``spec.top_k`` that one random suffix
    takes from ``rng`` (checked by ``_check_suffix``): the only use a
    decision makes of the generator."""
    return rng.integers(0, spec.top_k, size=spec.count)


def _check_lengths(model, source, suffixes=(), max_target_len=None, target=None,
                   suffix_after_source=False, sentence=None) -> None:
    """Raise ConfigError if one sentence's run could ask the model for more
    than its ``max_len``; a model that declares no ``max_len`` is not checked.

    The decoder reads BOS plus at most ``max_target_len - 1`` tokens, or, when
    teacher-forced, ``len(target)`` rows. A source is read whole at most, and
    the oracle suffix restores it; a fixed or random suffix follows at most
    n - 1 read tokens, or all n with ``suffix_after_source`` (column N of
    ``divergence_matrix``). Messages name ``sentence`` when it is given.
    """
    max_len = getattr(model, "max_len", None)
    if max_len is None:
        return
    at = "" if sentence is None else f"sentence {sentence}: "
    if max_target_len is not None and max_target_len > max_len:
        raise ConfigError(f"max_target_len {max_target_len} exceeds "
                          f"the model's max_len {max_len}")
    for side, length in (("target", len(target or ())), ("source", len(source))):
        if length > max_len:
            raise ConfigError(f"{at}{side} length {length} exceeds max_len {max_len}")
    appended = [(len(s.tokens) if isinstance(s, FixedSuffix) else s.count, s.name)
                for s in suffixes if not isinstance(s, OracleSuffix)]
    added, name = max(appended, default=(0, ""))
    read = len(source) if suffix_after_source else len(source) - 1
    if read + added > max_len:
        raise ConfigError(f"{at}source length {read + added} ({read} tokens plus the "
                          f"{added}-token {name} suffix) exceeds max_len {max_len}")


# ---------------------------------------------------------------------------
# Divergence probes and decisions
# ---------------------------------------------------------------------------

class _ProbeMemo:
    """A model whose ``next_dist`` answers each distinct query once.

    While the parameters stay unchanged, a stored answer equals a fresh
    forward of the same query within 1e-12, and bit for bit in the sentence
    cache that computed it: a UNIDIRECTIONAL micro model reads a prefix's
    encoder rows from its sentence's encoding, so a memo that spans
    sentences may hand one sentence an answer computed in another's cache.
    An owner therefore keeps a memo no longer than one call that does not
    train (``run_sweep``, ``divergence_matrix``). ``run_sweep`` opens the
    model's session (``_one_session``) for as long: the memo's sentence
    caches then share one fold of the parameters, one stage-2 output per
    distinct target prefix, whatever source it is asked with, and one
    encoding of each sentence's full source, which the session makes when
    the first cache of that sentence opens and every later one opens on.
    All three are dropped when the call returns or raises. A divergence
    matrix's one sentence cache opens a session of its own.
    The stored ``Distribution`` is shared; its array is read-only. A query
    that raises stores nothing.
    """

    __slots__ = ("model", "answers")

    def __init__(self, model):
        self.model = model
        self.answers: dict[tuple[tuple[int, ...], tuple[int, ...]], Distribution] = {}

    def next_dist(self, source_prefix, target_prefix) -> Distribution:
        key = (tuple(source_prefix), tuple(target_prefix))
        dist = self.answers.get(key)
        if dist is None:
            dist = self.answers[key] = self.model.next_dist(*key)
        return dist

    def __getattr__(self, name):
        return getattr(self.model, name)  # e.g. the model's sentence cache


def _one_sentence(model, source):
    """The model's sentence cache opened on ``source``, or a block that does
    nothing when the model has none (``MicroModel._sentence_cache``; a
    wrapper that passes other attributes through reaches it too).

    The owner of one sentence's queries opens it around them and changes no
    parameter inside it; the cache is dropped when the block ends or raises.
    A UNIDIRECTIONAL micro model reads the encoder rows of every prefix of
    ``source`` from one encoding of it, within 1e-12 of encoding the prefix
    alone (see the ``micro`` module).
    """
    open_cache = getattr(model, "_sentence_cache", None)
    return open_cache(source) if open_cache is not None else contextlib.nullcontext()


def _one_session(model):
    """The model's frozen-parameter session, or a block that does nothing
    when the model has none (``MicroModel._session``, found as
    ``_one_sentence`` finds the sentence cache). Its owner changes no
    parameter inside it; the session is dropped when the block ends or
    raises."""
    open_session = getattr(model, "_session", None)
    return open_session() if open_session is not None else contextlib.nullcontext()


def psfuture_divergence(model, source_prefix, target_prefix, suffix) -> float:
    """Divergence between predictions with and without the pseudo future."""
    part = model.next_dist(tuple(source_prefix), tuple(target_prefix))
    pseudo = model.next_dist(tuple(source_prefix) + tuple(suffix), tuple(target_prefix))
    return cosine_divergence(part, pseudo)


@dataclass
class SimulationResult:
    hypothesis: tuple[int, ...]   # committed tokens, EOS last unless truncated
    g_record: tuple[int, ...]
    trace: list[dict]
    truncated: bool


def simulate_sentence(
    model,
    vocab: Vocabulary,
    cfg: PolicyConfig,
    suffix_spec: SuffixSpec,
    source: Sequence[int],
    rng: np.random.Generator | None = None,
    after: SimulationResult | None = None,
) -> SimulationResult:
    """Run the adaptive read/write loop over one source sentence.

    Each decision asks the model once for the plain next-token distribution,
    which both measures the divergence and supplies the written token. Only
    an unforced decision draws a suffix and asks the pseudo probe.

    ``after``, when given, is a run of this sentence with the same model,
    suffix and generator seed, under any settings (in a sweep, the previous
    lambda cell's); nothing checks this. A step takes the next record of
    ``after``, as a new dict, in place of a query when that record makes this
    step's decision: its cursor is the loop's, the force reason it carries
    (RMAX or EXHAUSTED, else none) is the one the loop's state sets, and,
    unforced, it has a reason exactly when its divergence is ``<= cfg.lam``.
    A random suffix's generator still takes the draw of an unforced record.
    The first record that fails ends the taking, and the loop queries from
    there, so the result equals a run without ``after`` and leaves ``rng`` in
    the same state.

    The trace holds one record per decision: kind R/W, the cursor at
    decision time, the divergence when one was computed, the force reason
    for writes, and the emitted token id for writes.

    The source must be a valid side of a SentencePair (CorpusError
    otherwise). The run must fit the model's ``max_len``, and the suffix must
    pass ``make_suffix``'s checks with ``rng`` (ConfigError otherwise). All
    of this is checked before the first forward.
    """
    source = tuple(source)
    _validate_sequence("source", source, vocab)
    _check_lengths(model, source, (suffix_spec,), max_target_len=cfg.max_target_len)
    _check_suffix(suffix_spec, vocab, rng)

    n = len(source)
    shared = () if after is None else after.trace
    j = min(cfg.initial_prefix, n)   # consumed source tokens
    r_c = 1  # consecutive reads; the initial prefix counts as one
    hyp: tuple[int, ...] = ()
    g_record: list[int] = []         # j at the time of each write
    trace: list[dict] = []
    truncated = False

    with _one_sentence(model, source):
        while not hyp or hyp[-1] != vocab.eos:
            if len(hyp) >= cfg.max_target_len:
                truncated = True
                break
            step = len(trace) + 1
            forced = EXHAUSTED if j >= n else \
                RMAX if cfg.r_max is not None and r_c >= cfg.r_max else None
            rec = shared[step - 1] if step <= len(shared) else {}
            reason = rec.get("reason")
            if rec.get("j") == j and (reason if reason in (RMAX, EXHAUSTED) else None) == forced \
                    and (forced or (rec["divergence"] <= cfg.lam) == (reason is not None)):
                record = dict(rec)
                if forced is None and isinstance(suffix_spec, RandomSuffix):
                    _draw(suffix_spec, rng)  # the draw the taken decision took
            else:
                shared = ()  # the first record that fails ends the taking
                plain = model.next_dist(source[:j], hyp)
                reason, divergence = forced, None
                if forced is None:
                    suffix = make_suffix(suffix_spec, vocab, rng, full_source=source, j=j)
                    pseudo = model.next_dist(source[:j] + tuple(suffix), hyp)
                    divergence = cosine_divergence(plain, pseudo)
                    reason = THRESHOLD if divergence <= cfg.lam else None
                token = plain.argmax()
                premature_eos = token == vocab.eos and j < n
                if reason is None or (reason == THRESHOLD and premature_eos):
                    # a read; the EOS guard turns a THRESHOLD write of a premature
                    # EOS into one
                    record = {"step": step, "kind": READ, "j": j}
                    if reason is not None:
                        record["reason"] = EOS_DEFERRED
                    record["divergence"] = divergence
                else:
                    record = {"step": step, "kind": WRITE, "j": j, "reason": reason}
                    if reason == THRESHOLD:
                        record["divergence"] = divergence
                    if premature_eos:
                        # an RMAX write: committing a premature EOS would truncate
                        # the sentence, and reading would breach the r_max cap, so
                        # emit the best non-EOS token instead
                        masked = plain.probs.copy()
                        masked[vocab.eos] = -1.0
                        record["token"] = int(np.argmax(masked))
                        record["swapped_eos"] = True
                    else:
                        record["token"] = token
            trace.append(record)
            if record["kind"] == READ:
                j += 1
                r_c += 1
            else:
                hyp += (record["token"],)
                g_record.append(j)
                r_c = 0

    return SimulationResult(
        hypothesis=hyp,
        g_record=tuple(g_record),
        trace=trace,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# Wait-k
# ---------------------------------------------------------------------------

def waitk_g(t: int, k: int, n: int) -> int:
    """Source tokens read before writing target token t: min(t+k-1, n)."""
    for name, value in (("t", t), ("k", k), ("n", n)):
        if value < 1:
            raise ConfigError(f"{name}={value} must be >= 1")
    return min(t + k - 1, n)


def simulate_waitk(
    model,
    vocab: Vocabulary,
    k: int,
    source: Sequence[int],
    max_target_len: int = PolicyConfig.max_target_len,
) -> SimulationResult:
    """Greedy decoding under the fixed wait-k schedule; the source and the
    lengths are checked as in ``simulate_sentence``."""
    source = tuple(source)
    _validate_sequence("source", source, vocab)
    _check_lengths(model, source, max_target_len=max_target_len)
    n = len(source)
    hyp: list[int] = []
    g_rec: list[int] = []
    with _one_sentence(model, source):
        while len(hyp) < max_target_len:
            t = len(hyp) + 1
            g = waitk_g(t, k, n)
            dist = model.next_dist(source[:g], tuple(hyp))
            token = dist.argmax()
            hyp.append(token)
            g_rec.append(g)
            if token == vocab.eos:
                break
    truncated = not hyp or hyp[-1] != vocab.eos
    return SimulationResult(tuple(hyp), tuple(g_rec), [], truncated)


# ---------------------------------------------------------------------------
# Divergence matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivergenceMatrix:
    """Teacher-forced divergences: rows are reference target steps, columns
    source prefix lengths."""
    values: np.ndarray  # (T, N)

    def __post_init__(self):
        if not np.logical_and(self.values >= 0.0, self.values <= 1.0).all():  # NaN fails too
            raise ValueError("divergence entries must lie in [0, 1]")


def divergence_matrix(
    model,
    vocab: Vocabulary,
    pair,
    suffix_spec: SuffixSpec,
    rng: np.random.Generator | None = None,
) -> DivergenceMatrix:
    """Entry (t, g) = divergence at reference prefix y_<t and source x_<=g.

    With the oracle suffix the g = N column is defined as zero: no future
    remains to append. Probes go through one memo per matrix: with the
    ``eos`` suffix the pseudo probe at g = N - 1 is the plain probe at g = N.
    The pair and the lengths are checked before the first probe.
    """
    validate_pair(pair, vocab)
    _check_lengths(model, pair.source, (suffix_spec,), target=pair.target,
                   suffix_after_source=True)
    model = _ProbeMemo(model)
    n = len(pair.source)
    t_len = len(pair.target)
    values = np.zeros((t_len, n))
    with _one_sentence(model, pair.source):
        for ti in range(t_len):
            tgt_prefix = pair.target[:ti]
            for g in range(1, n + 1):
                if isinstance(suffix_spec, OracleSuffix) and g == n:
                    values[ti, g - 1] = 0.0
                    continue
                suffix = make_suffix(suffix_spec, vocab, rng,
                                     full_source=pair.source, j=g)
                values[ti, g - 1] = psfuture_divergence(
                    model, pair.source[:g], tgt_prefix, suffix)
    return DivergenceMatrix(values=values)


def threshold_path(matrix: DivergenceMatrix, lam: float) -> list[tuple[int, int]]:
    """Greedy staircase through the matrix: write (t, g) when the cell clears
    the threshold or the source is spent, else read. 1-based coordinates.
    ``lam`` follows ``PolicyConfig.lam``: any value but NaN."""
    if math.isnan(lam):
        raise ConfigError(f"lam={lam} must not be NaN")
    t_len, n = matrix.values.shape
    path = []
    g = 1
    for t in range(1, t_len + 1):
        while g < n and matrix.values[t - 1, g - 1] > lam:
            g += 1
        path.append((t, g))
    return path
