"""Micro encoder-decoder translation model with exact manual backprop.

One single-head self-attention encoder layer, one decoder layer (causal
self-attention + cross-attention + feed-forward), learned position
embeddings, residual connections, no layer norm, no biases. Small enough
that every gradient path is checkable against finite differences.

Two encoder regimes:
  * BIDIRECTIONAL - offline-style encoder, every position sees the whole
    source prefix it was given.
  * UNIDIRECTIONAL - causal encoder; the state at source position p is
    invariant to tokens at positions > p, which is what makes masked
    cross-attention training and incremental decoding sound.

Cross-attention limits restrict how much of the encoded source each decoder
position may see; they are the engine for both streaming inference and
prefix-to-prefix training.

Every forward, training included, runs three stages: (1) ``_encode`` turns
the source into the cross-attention keys and values, (2) ``_decode_prefix``
runs the causal self-attention over BOS + target prefix, and (3) the rest of
``_forward`` applies cross-attention under the limits, the feed-forward
block and the output projection. Stage 1 reads only the source and stage 2
only the target prefix. Inside ``_sentence_cache``, which the policy code
opens around each sentence, ``next_dist`` runs each stage once per distinct
source or target prefix; the two probes of a PsFuture decision then share
stage 2, and the rows of a divergence matrix share stage 1. No parameter
changes inside one sentence, so a shared stage equals a fresh one bit for
bit. The cache spans a sentence, not a sweep: it then holds one sentence's
stages, while a sweep-wide cache grows the peak resident set with the
corpus.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .core import CapacityError, ConfigError, Distribution, NumericError, Vocabulary

BIDIRECTIONAL = "BIDIRECTIONAL"
UNIDIRECTIONAL = "UNIDIRECTIONAL"
MODES = (BIDIRECTIONAL, UNIDIRECTIONAL)

ATTN_BLOCKS = ("enc", "dec_self", "dec_cross")


def tensor_shapes(n_vocab: int, d: int, max_len: int) -> dict[str, tuple[int, ...]]:
    if d < 1 or max_len < 1:
        raise ConfigError(f"d={d} and max_len={max_len} must both be >= 1")
    shapes: dict[str, tuple[int, ...]] = {
        "embed": (n_vocab, d),
        "pos": (max_len, d),
        "ff_w1": (d, 4 * d),
        "ff_w2": (4 * d, d),
        "out_proj": (d, n_vocab),
    }
    for block in ATTN_BLOCKS:
        for proj in ("q", "k", "v", "o"):
            shapes[f"{block}_{proj}"] = (d, d)
    return shapes


class MicroModel:
    """Parameter container plus forward/backward passes."""

    def __init__(
        self,
        vocab: Vocabulary,
        d: int = 32,
        max_len: int = 64,
        mode: str = BIDIRECTIONAL,
        seed: int = 0,
        params: dict[str, np.ndarray] | None = None,
    ):
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        self.vocab = vocab
        self.d = d
        self.max_len = max_len
        self.mode = mode
        shapes = tensor_shapes(len(vocab), d, max_len)
        if params is None:
            rng = np.random.default_rng(seed)
            params = {name: rng.uniform(-0.1, 0.1, size=shape)
                      for name, shape in shapes.items()}
        else:
            for name, shape in shapes.items():
                if name not in params or params[name].shape != shape:
                    raise ConfigError(f"parameter {name!r} missing or wrong shape")
            params = {name: np.asarray(p, dtype=np.float64) for name, p in params.items()}
        self.params = params
        self._tri = np.tri(max_len, dtype=bool)  # sliced into every causal mask
        self._stages = None  # (stage 1, stage 2) stores while a sentence cache is open

    # -- forward: three stages (see the module docstring) -----------------

    def _encode(self, src: tuple[int, ...]):
        """Stage 1: the cross-attention keys and values of the encoded
        ``src``, then the encoder output and its backward cache."""
        s = len(src)
        causal = self._tri[:s, :s] if self.mode == UNIDIRECTIONAL else None
        henc, enc_cache = self._embed_and_attend(src, "enc", causal)
        if not np.isfinite(henc).all():
            raise NumericError("non-finite values in encoder output")
        p = self.params
        return (henc @ p["dec_cross_k"], henc @ p["dec_cross_v"]), (henc, enc_cache)

    def _decode_prefix(self, tgt_in: tuple[int, ...]):
        """Stage 2: the causal self-attention output of the decoder input
        ``tgt_in`` (BOS + target prefix), then its backward cache."""
        rows = len(tgt_in)
        return self._embed_and_attend(tgt_in, "dec_self", self._tri[:rows, :rows])

    def _embed_and_attend(self, ids: tuple[int, ...], block: str, allowed):
        """Self-attention ``block`` over the embedded ``ids``, with the
        backward cache of _attn_backward."""
        p = self.params
        x0 = p["embed"][list(ids)] + p["pos"][:len(ids)]
        k, v = x0 @ p[f"{block}_k"], x0 @ p[f"{block}_v"]
        out, parts = _attn_forward(x0, k, v, p, block, allowed)
        return out, (x0, x0, k, v, *parts)

    @contextmanager
    def _sentence_cache(self):
        """Share stages 1 and 2 among the ``next_dist`` queries of the block.

        Inside the block a stage runs once per distinct source (stage 1) or
        decoder input (stage 2). The parameters must not change meanwhile;
        then a stored stage equals a fresh one bit for bit. The owner of one
        sentence's queries opens it, so it holds one sentence's stages; a
        block opened inside an open one joins it. Exit drops every entry.
        """
        if self._stages is not None:
            yield
            return
        self._stages = ({}, {})
        try:
            yield
        finally:
            self._stages = None

    def _stage(self, which: int, key: tuple[int, ...], run):
        """``run(key)``'s first result, stored in the open sentence cache."""
        if self._stages is None:
            return run(key)[0]
        store = self._stages[which]
        out = store.get(key)
        if out is None:
            out = store[key] = run(key)[0]
        return out

    def _forward(self, source, target, limits="full", backward=False):
        """Logits at every row of the decoder input BOS + ``target``, and,
        with ``backward``, the cache for the backward pass (else None).

        This is the one place that checks a query. ``limits`` caps how many
        leading source positions each decoder row may attend to: ``"full"``
        (the whole source), one integer for every row, or one integer per
        row, each in [1, len(source)].
        """
        src = tuple(source)
        tgt_in = (self.vocab.bos,) + tuple(target)
        n, rows = len(src), len(tgt_in)
        if n == 0:
            raise ConfigError("source must be non-empty")
        for what, length in (("source", n), ("target", rows)):
            if length > self.max_len:
                raise CapacityError(f"{what} length {length} exceeds max_len {self.max_len}")
        if isinstance(limits, str) and limits == "full":
            cross_allowed = None  # masking with an all-true mask changes nothing
        else:
            lim = np.asarray(limits)
            if lim.dtype.kind not in "iu" or lim.shape not in ((), (rows,)):
                raise ConfigError(
                    f"cross-attention limit must be 'full', one integer or one integer "
                    f"per decoder row ({rows}), got {limits!r}")
            if lim.min() < 1 or lim.max() > n:
                raise ConfigError(f"cross-attention limit {limits!r} outside [1, {n}]")
            cross_limits = np.broadcast_to(lim.astype(np.intp), (rows,))
            cross_allowed = np.arange(n)[None, :] < cross_limits[:, None]

        if backward:
            (cross_kv, (henc, enc_cache)), (y1, self_cache) = \
                self._encode(src), self._decode_prefix(tgt_in)
        else:
            cross_kv = self._stage(0, src, self._encode)
            y1 = self._stage(1, tgt_in, self._decode_prefix)
        p = self.params
        y2, cross_parts = _attn_forward(y1, *cross_kv, p, "dec_cross", cross_allowed)
        h1 = y2 @ p["ff_w1"]
        relu = np.maximum(h1, 0.0)
        y3 = relu @ p["ff_w2"] + y2
        logits = y3 @ p["out_proj"]
        if not np.isfinite(logits).all():
            raise NumericError("non-finite values in logits")
        if not backward:
            return logits, None
        cache = {
            "src": list(src), "tgt_in": list(tgt_in), "enc": enc_cache, "self": self_cache,
            "cross": (y1, henc, *cross_kv, *cross_parts),
            "y2": y2, "h1": h1, "relu": relu, "y3": y3,
        }
        return logits, cache

    def _backward(self, cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        p = self.params
        grads = {name: np.zeros_like(val) for name, val in p.items()}

        y3 = cache["y3"]
        grads["out_proj"] += y3.T @ dlogits
        dy3 = dlogits @ p["out_proj"].T

        dy2 = dy3.copy()
        grads["ff_w2"] += cache["relu"].T @ dy3
        drelu = dy3 @ p["ff_w2"].T
        dh1 = drelu * (cache["h1"] > 0.0)
        grads["ff_w1"] += cache["y2"].T @ dh1
        dy2 += dh1 @ p["ff_w1"].T

        dy1, dhenc = _attn_backward(cache["cross"], dy2, p, "dec_cross", grads)
        dy0_q, dy0_kv = _attn_backward(cache["self"], dy1, p, "dec_self", grads)
        dy0 = dy0_q + dy0_kv

        tgt_in = cache["tgt_in"]
        np.add.at(grads["embed"], tgt_in, dy0)
        grads["pos"][:len(tgt_in)] += dy0

        dx0_q, dx0_kv = _attn_backward(cache["enc"], dhenc, p, "enc", grads)
        dx0 = dx0_q + dx0_kv
        src = cache["src"]
        np.add.at(grads["embed"], src, dx0)
        grads["pos"][:len(src)] += dx0
        return grads

    # -- public surface ---------------------------------------------------

    def next_dist(self, source_prefix, target_prefix, cross_limit="full") -> Distribution:
        """Distribution of the next target token.

        The decoder input is BOS followed by ``target_prefix``; only the last
        position's prediction is returned. ``cross_limit`` caps how many
        source positions the decoder sees (``"full"`` = the whole prefix).
        """
        logits, _ = self._forward(source_prefix, target_prefix, cross_limit)
        return Distribution(_softmax_row(logits[-1]))

    def loss_and_grads(self, batch) -> tuple[float, dict[str, np.ndarray]]:
        """Mean token NLL over a batch plus exact gradients.

        Batch items are (source, target, limits) with limits either "full",
        one cross-attention cap, or a per-target-position list of caps.
        """
        if not batch:
            raise ConfigError("batch must be non-empty")
        total_nll = 0.0
        total_tokens = 0
        acc: dict[str, np.ndarray] | None = None
        for item in batch:
            nll, grads, n_tok = self._pair_nll_and_grads(*item)
            total_nll += nll
            total_tokens += n_tok
            if acc is None:
                acc = grads
            else:
                for name in acc:
                    acc[name] += grads[name]
        assert acc is not None
        scale = 1.0 / total_tokens
        for name in acc:
            acc[name] *= scale
        return total_nll * scale, acc

    def _pair_nll_and_grads(self, source, target, limits="full"):
        """Summed NLL of ``target`` given ``source`` and its exact gradients."""
        nlls, logits, cache = self._teacher_forced(source, target, limits, backward=True)
        tgt = list(target)
        dlogits = _softmax_rows(logits)
        dlogits[np.arange(len(tgt)), tgt] -= 1.0
        grads = self._backward(cache, dlogits)
        return float(nlls.sum()), grads, len(tgt)

    def sentence_nlls(self, source, target, limits="full") -> np.ndarray:
        """Per-position -log p(y_t | ...), forward only."""
        return self._teacher_forced(source, target, limits)[0]

    def _teacher_forced(self, source, target, limits, backward=False):
        """Per-position NLLs of ``target`` given ``source``, with the logits
        and (with ``backward``) the cache of the forward pass; ``limits`` has
        one entry per target position when it is a list."""
        tgt = list(target)
        if not tgt:
            raise ConfigError("target must be non-empty")
        logits, cache = self._forward(source, tgt[:-1], limits, backward)
        return _log_softmax_nll(logits, tgt), logits, cache

    def clone_params(self) -> dict[str, np.ndarray]:
        return {name: val.copy() for name, val in self.params.items()}

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        for name, val in params.items():
            self.params[name][...] = val


def sgd_step(model: MicroModel, grads: dict[str, np.ndarray], lr: float) -> None:
    """In-place params -= lr * grads, re-checking finiteness afterwards."""
    if lr < 0:
        raise ConfigError("learning rate must be non-negative")
    for name, g in grads.items():
        model.params[name] -= lr * g
        if not np.isfinite(model.params[name]).all():
            raise NumericError(f"non-finite parameter tensor {name!r} after SGD step")


# ---------------------------------------------------------------------------
# Attention plumbing
# ---------------------------------------------------------------------------

def _softmax_row(row: np.ndarray) -> np.ndarray:
    e = np.exp(row - row.max())
    return e / e.sum()


def _softmax_rows(mat: np.ndarray) -> np.ndarray:
    e = np.exp(mat - mat.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax_nll(logits: np.ndarray, targets: list[int]) -> np.ndarray:
    """Per-row -log softmax(logits)[target]; stable even for extreme logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return lse - shifted[np.arange(len(targets)), targets]


def _attn_forward(q_in, k, v, params, block, allowed):
    """Single-head attention with residual: out = softmax(QK'/sqrt(d)) V Wo + q_in
    with Q = q_in Wq; returns out and (Q, attention weights, context).

    ``k`` and ``v`` are the projected keys and values. ``allowed`` is a
    boolean (queries x keys) visibility mask, or None when every key is
    visible; disallowed scores become -inf before the softmax, so their
    weights are exactly zero and masked positions cannot leak into the output.
    """
    q = q_in @ params[f"{block}_q"]
    scores = (q @ k.T) / np.sqrt(q_in.shape[1])
    if allowed is not None:
        scores = np.where(allowed, scores, -np.inf)
    attn = _softmax_rows(scores)
    ctx = attn @ v
    return ctx @ params[f"{block}_o"] + q_in, (q, attn, ctx)


def _attn_backward(cache, dout, params, block, grads):
    """Gradients of _attn_forward given its (q_in, kv_in, k, v, Q, attention
    weights, context); returns (d q_in, d kv_in)."""
    q_in, kv_in, k, v, q, attn, ctx = cache
    d = q_in.shape[1]
    wq, wk, wv, wo = (params[f"{block}_{p}"] for p in ("q", "k", "v", "o"))

    grads[f"{block}_o"] += ctx.T @ dout
    dctx = dout @ wo.T
    dattn = dctx @ v.T
    dv = attn.T @ dctx
    # softmax backward; masked cells have attn == 0 so their grads vanish
    dscores = attn * (dattn - (dattn * attn).sum(axis=1, keepdims=True))
    dq = (dscores @ k) / np.sqrt(d)
    dk = (dscores.T @ q) / np.sqrt(d)

    grads[f"{block}_q"] += q_in.T @ dq
    grads[f"{block}_k"] += kv_in.T @ dk
    grads[f"{block}_v"] += kv_in.T @ dv
    dq_in = dout + dq @ wq.T
    dkv_in = dk @ wk.T + dv @ wv.T
    return dq_in, dkv_in
