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
position may see; they are a training input only, the engine of
prefix-to-prefix (multipath wait-k) training. Inference reads the source
prefix it is given whole.

Every forward runs three stages: (1) the encoder turns the source into the
cross-attention keys and values, (2) the decoder's causal self-attention
runs over BOS + target prefix, and (3) the head applies cross-attention,
the feed-forward block and the output projection. Stage 1 reads only the
source and stage 2 only the target prefix. Training and inference share
the encoder-output step (``_cross_kv``, which checks the encoder output
finite) and the feed-forward block and output projection
(``_feed_forward``, which checks the logits finite); their attention
differs.

Training attends as written: Q, K and V projections, scores over sqrt(d),
the context times W_o (``_self_attend`` for the encoder and the decoder of
a batch, ``_attn_forward`` for all three blocks), since its backward needs
Q, K and V. Inference folds the weights instead. For each attention block
a session takes ``KQ = W_k W_q' / sqrt(d)`` and ``VO = W_v W_o`` once,
when it opens. A key row with input x0 then has the folded rows ``x0 KQ``
and ``x0 VO``; stage 1 keeps the encoder's, and the encoder output times the
cross-attention block's KQ and VO in place of the cross-attention keys and
values. A query row x then needs one product for its scores (``x kq'``)
and its output is ``softmax(x kq') vo + x``, with no Q projection, no
division by sqrt(d) and no product with W_o. One helper
(``_folded_attend``) serves an inference query's new encoder rows, its last
decoder row and the head's cross-attention.

Inference (``next_dist``) runs the stages incrementally, as STACL (Ma et
al. 2019) and efficient wait-k (Elbayad et al. 2020) do. Stage 2 keeps
only the self-attention output of the last decoder row, d floats. Its key
rows' folded rows depend on their tokens and positions alone, so a new
decoder input takes them all again, in one stacked (L, 1, d) product per
fold that rounds each row as a one-row product does. Stage 3 runs on the
last row only. Inside ``_sentence_cache(source)``, which the policy code
opens around each sentence, each distinct source runs stage 1 once, and the
rows of a divergence matrix share it. The cache opens with the stage-1 rows
of its sentence's full source in place. A UNIDIRECTIONAL source takes the
rows of the longest prefix it shares with the sentence from those: a
prefix of the sentence encodes nothing, and any other source (a prefix
plus a pseudo-future) encodes, in one call, only the rows after the shared
prefix. A BIDIRECTIONAL source other than the sentence is encoded whole.
So an answer depends on one thing besides the query and the parameters: a
UNIDIRECTIONAL prefix's encoder rows come from its sentence's full-source
encoding. Every cache has its sentence, checked against ``max_len`` when
it opens; a query outside a cache is its own sentence. A repeated query in
one cache gives identical bytes.

A session (``_session``) spans the caches of one frozen-parameter call: a
sweep opens one around its probe memo, and a cache opened outside any
session (a divergence matrix's) opens its own. Every cache in it takes the
session's folds. The session encodes each sentence's full source once, when
the first cache of that sentence opens, and every later cache of the
sentence opens on the same rows. A cache's other stage-1 rows (sources with
a pseudo-future) are its own and are dropped when it closes. Stage 2 runs
once per distinct decoder input in the whole session: the two probes of a
PsFuture decision share it, and so do the sentences and cells of a sweep
that reach the same hypothesis prefix. The session keeps 4 d floats per
sentence token and d floats per decoder input (1 KB and 256 bytes at
d = 32), dropped with the folds when it ends. Each of them is computed from
the same folds and the same tokens in any cache, so an answer keeps its
bytes.

Every answer is within 1e-12 (max abs per probability) of the from-scratch
per-query arithmetic, which runs every stage unfolded over all rows of the
whole query (``tests/pair_oracle.py``; at most 7.3e-15 measured on the bench
checkpoints). It is not bit for bit: the folded products associate the
weights in another order, and numpy may round a product over a slice or a
single row differently from the same rows of a product over the whole
block. No parameter may change inside one session, since everything it
keeps is taken from the parameters it opened on; a session opened after a
change folds the new parameters. Training opens none.

Training runs the same stages once per batch, on (B, len, d) arrays padded
to the batch's longest source and target, followed by one backward pass.
Masks keep every real row off the padding: a source key mask (position
j < the row's source length), the causal masks, and per-row cross-attention
limits (a padded row's limit is 1). Padded logit rows get a zero gradient.
``sentence_nlls`` is the one-item ``"full"`` batch, so scoring and training
share one teacher-forced path. The batch sums in another order than one
pair at a time would, so losses and gradients agree with the per-pair
arithmetic to rounding, not bit for bit.
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
        self._scope = None  # (folds, sentence rows, decoder outputs) in a session
        self._stages = None  # (stage-1 rows by source, sentence) of the open cache

    # -- forward: three stages (see the module docstring) -----------------

    def _self_attend(self, block: str, ids, allowed):
        """One training self-attention step of ``block``: embed the padded
        batch ``ids`` (B, L) at positions 0..L-1 and attend from every row
        under ``allowed``. Returns the output and its backward cache."""
        p = self.params
        x0 = p["embed"][ids] + p["pos"][:ids.shape[1]]
        k, v = x0 @ p[f"{block}_k"], x0 @ p[f"{block}_v"]
        out, parts = _attn_forward(x0, k, v, p, block, allowed)
        return out, (x0, x0, k, v, *parts)

    def _cross_kv(self, henc, weights):
        """Stage 1's last step: the encoder output ``henc`` times each of
        ``weights`` (the cross-attention key and value projections, or their
        folds), once it is checked finite."""
        if not np.logical_and.reduce(np.isfinite(henc), axis=None):
            raise NumericError("non-finite values in encoder output")
        return tuple(henc @ w for w in weights)

    def _feed_forward(self, y2):
        """Stage 3 after the cross-attention, of a training batch or of one
        inference row: the feed-forward block and the output projection.
        Returns the logits, checked finite, the ReLU output and y3."""
        p = self.params
        relu = y2 @ p["ff_w1"]
        np.maximum(relu, 0.0, out=relu)  # the backward reads its mask as relu > 0
        y3 = relu @ p["ff_w2"]
        y3 += y2
        logits = y3 @ p["out_proj"]
        if not np.logical_and.reduce(np.isfinite(logits), axis=None):
            raise NumericError("non-finite values in logits")
        return logits, relu, y3

    @contextmanager
    def _session(self):
        """A frozen-parameter scope for the sentence caches of the block.

        Opening it folds the current parameters once (``_folds``); every
        sentence cache inside takes those folds. The first cache of a
        sentence encodes the sentence's full source into the session, and
        every cache of that sentence opens on those rows (one sentence of n
        tokens keeps 4 n d floats). Stage 2 is the session's too: each
        distinct decoder input runs it once for every cache inside, which
        keeps its last row's output (d floats). The parameters must not
        change meanwhile. A session opened inside an open one is that one;
        exit of the outer one drops the folds, the sentence rows and the
        decoder outputs.
        """
        if self._scope is not None:
            yield
            return
        self._scope = self._folds(), {}, {}
        try:
            yield
        finally:
            self._scope = None

    def _folds(self):
        """Each attention block's folded weights under the current
        parameters: ``KQ = W_k W_q' / sqrt(d)`` and ``VO = W_v W_o``."""
        p = self.params
        scale = np.sqrt(self.d)
        return {block: (p[f"{block}_k"] @ p[f"{block}_q"].T / scale,
                        p[f"{block}_v"] @ p[f"{block}_o"])
                for block in ATTN_BLOCKS}

    @contextmanager
    def _sentence_cache(self, source):
        """Share stage 1 among the ``next_dist`` queries of the block.

        The cache opens with the stage-1 rows of the sentence ``source``
        itself, which the session encodes once, when a cache of that
        sentence first opens in it. Inside the block stage 1 runs once per
        other distinct source, and stage 2 once per distinct decoder input
        in the whole session. A source longer than ``max_len`` raises
        CapacityError here, before any encoding. The parameters must not
        change meanwhile. The owner of one sentence's queries opens it,
        inside the open session or else in a session of its own, whose
        folds it takes. Exit drops every stage-1 row the cache added; the
        sentence's own rows stay with the session.
        """
        sentence = tuple(source)
        self._check_query(sentence, 0)
        with self._session():
            folds, encoded, _ = self._scope
            rows = encoded.get(sentence)
            if rows is None:
                rows = encoded[sentence] = self._encode_rows(
                    folds, sentence, (np.empty((0, self.d)),) * 4)
            self._stages = {sentence: rows}, sentence
            try:
                yield
            finally:
                self._stages = None

    def _source_rows(self, src: tuple[int, ...]):
        """Stage 1 of a query in the open cache: the encoder's folded
        self-attention rows and the folded cross-attention rows of every
        position of ``src``. A UNIDIRECTIONAL source takes the rows of the
        positions it shares with the sentence from the sentence's rows; the
        rest are encoded in one call and kept for the cache."""
        sources, sentence = self._stages
        rows = sources.get(src)
        if rows is None:
            shared = 0
            if self.mode == UNIDIRECTIONAL:
                for mine, theirs in zip(src, sentence):
                    if mine != theirs:
                        break
                    shared += 1
            before = tuple(a[:shared] for a in sources[sentence])
            rows = before if shared == len(src) else self._encode_rows(self._scope[0], src, before)
            sources[src] = rows
        return rows

    def _encode_rows(self, folds, src: tuple[int, ...], before):
        """The (encoder kq, encoder vo, cross kq, cross vo) rows of every
        position of ``src``, given ``before``, those of its first positions:
        embed the later positions, append their folded rows (``x0 KQ`` and
        ``x0 VO``) to those of ``before``, and attend from each of them."""
        start, end = len(before[0]), len(src)
        p = self.params
        x0 = p["embed"][np.asarray(src[start:])] + p["pos"][start:end]
        kq, vo = (np.concatenate((mine, x0 @ w)) for mine, w in zip(before[:2], folds["enc"]))
        allowed = self._tri[start:end, :end] if self.mode == UNIDIRECTIONAL else None
        henc = _folded_attend(x0, kq, vo, allowed)
        cross_kq, cross_vo = self._cross_kv(henc, folds["dec_cross"])
        return kq, vo, np.concatenate((before[2], cross_kq)), np.concatenate((before[3], cross_vo))

    def _decoder_row(self, folds, tgt_in: tuple[int, ...]):
        """Stage 2 of a query on the session's ``folds``: the decoder
        self-attention output of the last row of ``tgt_in``, which depends
        on ``tgt_in`` and the parameters alone. Every row's folded rows are
        one stacked (L, 1, d) product per fold, which rounds each row as
        the one-row product does; a plain (L, d) product would not."""
        p = self.params
        x0 = p["embed"][np.asarray(tgt_in)] + p["pos"][:len(tgt_in)]
        kq, vo = ((x0[:, None] @ w).reshape(-1, self.d) for w in folds["dec_self"])
        return _folded_attend(x0[-1], kq, vo, None)

    def _check_query(self, src: tuple[int, ...], rows: int, limits="full"):
        """Check a query of source ``src`` and ``rows`` decoder rows, and
        return its cross-attention limits: None for ``"full"``, else one
        integer per row.

        This is the one place that checks a query, for inference and
        training alike. ``limits`` caps how many leading source positions
        each decoder row may attend to: ``"full"`` (the whole source, and
        the only form an inference query takes) or one integer per row,
        each in [1, len(source)].
        """
        n = len(src)
        if n == 0:
            raise ConfigError("source must be non-empty")
        for what, length in (("source", n), ("target", rows)):
            if length > self.max_len:
                raise CapacityError(f"{what} length {length} exceeds max_len {self.max_len}")
        if isinstance(limits, str) and limits == "full":
            return None
        lim = np.asarray(limits)
        if lim.dtype.kind not in "iu" or lim.shape != (rows,):
            raise ConfigError(
                f"cross-attention limit must be 'full' or one integer per decoder "
                f"row ({rows}), got {limits!r}")
        if lim.min() < 1 or lim.max() > n:
            raise ConfigError(f"cross-attention limit {limits!r} outside [1, {n}]")
        return lim.astype(np.intp)

    def _pad(self, batch):
        """The (source, target, limits) items of ``batch`` as padded arrays:
        source ids (B, S), decoder inputs BOS + target[:-1] (B, R), targets
        (B, R), source lengths (B,), target lengths (B,) and cross-attention
        limits (B, R). Padding holds id 0; a padded row's limit is 1, and a
        ``"full"`` row's is its source length."""
        items = []
        for source, target, limits in batch:
            src, tgt = tuple(source), tuple(target)
            if not tgt:
                raise ConfigError("target must be non-empty")
            items.append((src, tgt, self._check_query(src, len(tgt), limits)))
        n = np.array([len(src) for src, _, _ in items])
        t = np.array([len(tgt) for _, tgt, _ in items])
        src_ids = np.zeros((len(items), n.max()), dtype=np.intp)
        shifted = np.zeros((len(items), t.max() + 1), dtype=np.intp)  # BOS + target
        limit = np.ones((len(items), t.max()), dtype=np.intp)
        for b, (src, tgt, lim) in enumerate(items):
            src_ids[b, :len(src)] = src
            shifted[b, 1:len(tgt) + 1] = tgt
            limit[b, :len(tgt)] = len(src) if lim is None else lim
        shifted[:, 0] = self.vocab.bos
        return src_ids, shifted[:, :-1], shifted[:, 1:], n, t, limit

    def _batch_forward(self, batch):
        """One padded forward over the (source, target, limits) items of
        ``batch``: the logits (B, R, V), the targets (B, R), the target
        lengths (B,) and the backward cache.

        No real row reads a padded position: padded sources sit beyond every
        real row's limit, and causality keeps a decoder row off the padding
        after it. The finiteness checks cover the padding too, since a
        non-finite padded value would reach the real rows' gradients.
        """
        src_ids, tgt_in, targets, n, t, limit = self._pad(batch)
        s, r = src_ids.shape[1], tgt_in.shape[1]
        allowed = self._tri[:s, :s] if self.mode == UNIDIRECTIONAL else None
        if (n < s).any():  # no position attends to a padded source one
            keys = (np.arange(s) < n[:, None])[:, None, :]
            allowed = keys if allowed is None else keys & allowed
        p = self.params
        henc, enc_cache = self._self_attend("enc", src_ids, allowed)
        cross_kv = self._cross_kv(henc, (p["dec_cross_k"], p["dec_cross_v"]))
        y1, self_cache = self._self_attend("dec_self", tgt_in, self._tri[:r, :r])
        cross_allowed = None if (limit == s).all() else np.arange(s) < limit[..., None]
        y2, cross_parts = _attn_forward(y1, *cross_kv, p, "dec_cross", cross_allowed)
        logits, relu, y3 = self._feed_forward(y2)
        return logits, targets, t, [src_ids, tgt_in, enc_cache, self_cache,
                                    (y1, henc, *cross_kv, *cross_parts), y2, relu, y3]

    def _batch_backward(self, cache: list, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of every parameter given the cache of _batch_forward
        and the logits' gradient (zero on padded rows). The cache is used up
        from its end, so each activation is freed once its gradients are
        taken, and the feed-forward gradient reuses the ReLU buffer."""
        p = self.params
        grads = {"out_proj": _flat(cache.pop()).T @ _flat(dlogits)}
        relu = cache.pop()
        dy = dlogits @ p["out_proj"].T
        grads["ff_w2"] = _flat(relu).T @ _flat(dy)
        active = relu > 0.0
        dh = np.matmul(dy, p["ff_w2"].T, out=relu)
        dh *= active
        grads["ff_w1"] = _flat(cache.pop()).T @ _flat(dh)
        dy += dh @ p["ff_w1"].T
        del relu, active, dh

        dy, dhenc = _attn_backward(cache.pop(), dy, p, "dec_cross", grads)
        dy0, dy0_kv = _attn_backward(cache.pop(), dy, p, "dec_self", grads)
        dy0 += dy0_kv
        dx0, dx0_kv = _attn_backward(cache.pop(), dhenc, p, "enc", grads)
        dx0 += dx0_kv

        src_ids, tgt_in = cache
        grads["embed"] = embed = np.zeros_like(p["embed"])
        np.add.at(embed, tgt_in.ravel(), _flat(dy0))
        np.add.at(embed, src_ids.ravel(), _flat(dx0))
        grads["pos"] = pos = np.zeros_like(p["pos"])
        pos[:tgt_in.shape[1]] += dy0.sum(axis=0)
        pos[:src_ids.shape[1]] += dx0.sum(axis=0)
        return {name: grads[name] for name in p}

    # -- public surface ---------------------------------------------------

    def next_dist(self, source_prefix, target_prefix) -> Distribution:
        """Distribution of the next target token.

        The decoder input is BOS followed by ``target_prefix``, and its last
        row sees the whole ``source_prefix``; stage 3 runs for that row
        only. Stages 1 and 2 come from the open sentence cache, or from a
        cache opened on this query's source alone.
        """
        src = tuple(source_prefix)
        tgt_in = (self.vocab.bos,) + tuple(target_prefix)
        self._check_query(src, len(tgt_in))
        if self._stages is None:  # a query outside a cache is its own sentence
            with self._sentence_cache(src):
                return self.next_dist(src, target_prefix)
        cross = self._source_rows(src)[2:]
        folds, _, decoded = self._scope
        y1 = decoded.get(tgt_in)
        if y1 is None:
            y1 = decoded[tgt_in] = self._decoder_row(folds, tgt_in)
        logits = self._feed_forward(_folded_attend(y1, *cross, None))[0]
        return Distribution(_softmax_rows(logits))

    def loss_and_grads(self, batch) -> tuple[float, dict[str, np.ndarray]]:
        """Mean token NLL over a batch plus exact gradients, from one padded
        forward and one backward.

        Batch items are (source, target, limits) with limits either "full"
        or a per-target-position list of cross-attention caps.
        """
        if not batch:
            raise ConfigError("batch must be non-empty")
        logits, targets, t, cache = self._batch_forward(batch)
        scale = 1.0 / t.sum()
        real = np.arange(targets.shape[1]) < t[:, None]  # the rows that hold a target
        loss = float(_log_softmax_nll(logits, targets)[real].sum()) * scale
        dlogits = _softmax_rows(logits)
        dlogits[(*np.indices(targets.shape), targets)] -= 1.0
        dlogits *= (real * scale)[..., None]  # padded rows get no gradient
        return loss, self._batch_backward(cache, dlogits)

    def sentence_nlls(self, source, target) -> np.ndarray:
        """Per-position -log p(y_t | ...) given the whole ``source``, forward
        only: the one-item ``"full"`` batch of loss_and_grads, so scoring and
        training share one path."""
        logits, targets, _, _ = self._batch_forward([(source, target, "full")])
        return _log_softmax_nll(logits, targets)[0]

    def clone_params(self) -> dict[str, np.ndarray]:
        return {name: val.copy() for name, val in self.params.items()}

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        for name, val in params.items():
            self.params[name][...] = val


def _check_lr(lr: float) -> None:
    """Raise ConfigError unless the learning rate is finite and >= 0."""
    if not 0.0 <= lr < np.inf:  # NaN fails too
        raise ConfigError(f"lr={lr} must be finite and >= 0")


def sgd_step(model: MicroModel, grads: dict[str, np.ndarray], lr: float) -> None:
    """In-place params -= lr * grads, re-checking finiteness afterwards; the
    learning rate is checked before any tensor changes."""
    _check_lr(lr)
    for name, g in grads.items():
        model.params[name] -= lr * g
        if not np.isfinite(model.params[name]).all():
            raise NumericError(f"non-finite parameter tensor {name!r} after SGD step")


# ---------------------------------------------------------------------------
# Attention plumbing
# ---------------------------------------------------------------------------

def _flat(x: np.ndarray) -> np.ndarray:
    """``x`` as a matrix of its last axis, so that one product sums over
    every leading (batch and row) axis."""
    return x.reshape(-1, x.shape[-1])


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place: ``x`` is a fresh array that
    becomes the result."""
    # the reductions as ufunc calls: ndarray.max and .sum add a Python wrapper per call
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.add.reduce(x, axis=-1, keepdims=True)
    return x


def _log_softmax_nll(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """-log softmax(logits)[target] over the last axis, for every leading
    index of ``targets``; stable even for extreme logits."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    return lse - np.take_along_axis(shifted, targets[..., None], axis=-1)[..., 0]


def _attn_forward(q_in, k, v, params, block, allowed):
    """Single-head attention with residual: out = softmax(QK'/sqrt(d)) V Wo + q_in
    with Q = q_in Wq; returns out and (Q, attention weights, context).

    Inputs are (..., rows, d) with any leading batch axes. ``k`` and ``v``
    are the projected keys and values. ``allowed`` is a boolean (queries x
    keys) visibility mask that broadcasts against the scores, or None when
    every key is visible; disallowed scores become -inf before the softmax,
    so their weights are exactly zero and masked positions cannot leak into
    the output.
    """
    q = q_in @ params[f"{block}_q"]
    scores = (q @ k.swapaxes(-1, -2)) / np.sqrt(q_in.shape[-1])
    if allowed is not None:
        scores = np.where(allowed, scores, -np.inf)
    attn = _softmax_rows(scores)
    ctx = attn @ v
    return ctx @ params[f"{block}_o"] + q_in, (q, attn, ctx)


def _folded_attend(x, kq, vo, allowed):
    """Attention with residual on folded rows, for inference:
    ``softmax(x kq') vo + x``, where a key row's ``kq`` is its input times
    ``W_k W_q' / sqrt(d)`` and its ``vo`` its input times ``W_v W_o``. This
    is _attn_forward's output with the two weight products of each side
    taken once per sentence cache. ``x`` is one row (d,) or rows (L, d);
    ``allowed`` is as in _attn_forward."""
    scores = x @ kq.T
    if allowed is not None:
        scores = np.where(allowed, scores, -np.inf)
    out = _softmax_rows(scores) @ vo
    out += x
    return out


def _attn_backward(cache, dout, params, block, grads):
    """Gradients of _attn_forward given its (q_in, kv_in, k, v, Q, attention
    weights, context); stores the block's weight gradients, summed over the
    leading axes, in ``grads`` and returns (d q_in, d kv_in)."""
    q_in, kv_in, k, v, q, attn, ctx = cache
    scale = np.sqrt(q_in.shape[-1])
    wq, wk, wv, wo = (params[f"{block}_{p}"] for p in ("q", "k", "v", "o"))

    grads[f"{block}_o"] = _flat(ctx).T @ _flat(dout)
    dctx = dout @ wo.T
    dv = attn.swapaxes(-1, -2) @ dctx
    # softmax backward in place; masked cells have attn == 0 so their grads vanish
    dscores = dctx @ v.swapaxes(-1, -2)
    dscores -= (dscores * attn).sum(axis=-1, keepdims=True)
    dscores *= attn
    dq = (dscores @ k) / scale
    dk = (dscores.swapaxes(-1, -2) @ q) / scale

    grads[f"{block}_q"] = _flat(q_in).T @ _flat(dq)
    grads[f"{block}_k"] = _flat(kv_in).T @ _flat(dk)
    grads[f"{block}_v"] = _flat(kv_in).T @ _flat(dv)
    dq_in = dq @ wq.T
    dq_in += dout
    dkv_in = dk @ wk.T
    dkv_in += dv @ wv.T
    return dq_in, dkv_in
