"""The micro model's arithmetic one query and one pair at a time, from
scratch, as the reference for ``MicroModel``'s incremental inference and
padded batch paths.

Every array here is 2-D: one source, one decoder input. ``next_dist`` runs
every stage, unfolded, over all rows of the whole query;
``MicroModel.next_dist`` reuses stored rows, attends on folded weights and
runs its head on the last row only, so the two agree within 1e-12 per
probability, not bit for bit. ``loss_and_grads`` runs a
forward and a backward per pair and adds the pairs' gradients up in batch
order; the padded batch sums in another order, so the two agree to
rounding.
"""

from __future__ import annotations

import numpy as np

from simtkit import UNIDIRECTIONAL


def _softmax_row(row):
    e = np.exp(row - row.max())
    return e / e.sum()


def _softmax_rows(mat):
    e = np.exp(mat - mat.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _attn_forward(q_in, k, v, p, block, allowed):
    q = q_in @ p[f"{block}_q"]
    scores = (q @ k.T) / np.sqrt(q_in.shape[1])
    if allowed is not None:
        scores = np.where(allowed, scores, -np.inf)
    attn = _softmax_rows(scores)
    ctx = attn @ v
    return ctx @ p[f"{block}_o"] + q_in, (q_in, k, v, q, attn, ctx)


def _attn_backward(cache, kv_in, dout, p, block, grads):
    q_in, k, v, q, attn, ctx = cache
    d = q_in.shape[1]
    wq, wk, wv, wo = (p[f"{block}_{x}"] for x in ("q", "k", "v", "o"))
    grads[f"{block}_o"] += ctx.T @ dout
    dctx = dout @ wo.T
    dattn = dctx @ v.T
    dv = attn.T @ dctx
    dscores = attn * (dattn - (dattn * attn).sum(axis=1, keepdims=True))
    dq = (dscores @ k) / np.sqrt(d)
    dk = (dscores.T @ q) / np.sqrt(d)
    grads[f"{block}_q"] += q_in.T @ dq
    grads[f"{block}_k"] += kv_in.T @ dk
    grads[f"{block}_v"] += kv_in.T @ dv
    return dout + dq @ wq.T, dk @ wk.T + dv @ wv.T


def _self_attention(p, ids, block, allowed):
    x0 = p["embed"][list(ids)] + p["pos"][:len(ids)]
    out, cache = _attn_forward(x0, x0 @ p[f"{block}_k"], x0 @ p[f"{block}_v"], p, block,
                               allowed)
    return x0, out, cache


def _forward(model, src, tgt_in, limits):
    """Logits of every decoder row, and what the backward reads."""
    p = model.params
    n, rows = len(src), len(tgt_in)
    tri = np.tri(max(n, rows), dtype=bool)
    x0, henc, enc = _self_attention(
        p, src, "enc", tri[:n, :n] if model.mode == UNIDIRECTIONAL else None)
    y0, y1, dec_self = _self_attention(p, tgt_in, "dec_self", tri[:rows, :rows])
    allowed = None
    if not (isinstance(limits, str) and limits == "full"):
        allowed = np.arange(n)[None, :] < np.asarray(limits, dtype=np.intp)[:, None]
    y2, cross = _attn_forward(y1, henc @ p["dec_cross_k"], henc @ p["dec_cross_v"], p,
                              "dec_cross", allowed)
    h1 = y2 @ p["ff_w1"]
    relu = np.maximum(h1, 0.0)
    y3 = relu @ p["ff_w2"] + y2
    return y3 @ p["out_proj"], (x0, henc, enc, y0, dec_self, cross, y2, h1, relu, y3)


def next_dist(model, source, target) -> np.ndarray:
    """The next-token probabilities ``model.next_dist`` gives."""
    logits, _ = _forward(model, tuple(source), (model.vocab.bos,) + tuple(target), "full")
    return _softmax_row(logits[-1])


def _pair(model, source, target, limits):
    """Summed NLL of one pair and its gradients."""
    p = model.params
    src, tgt = list(source), list(target)
    tgt_in = [model.vocab.bos] + tgt[:-1]
    logits, (x0, henc, enc, y0, dec_self, cross, y2, h1, relu, y3) = \
        _forward(model, src, tgt_in, limits)
    rows = np.arange(len(tgt))
    shifted = logits - logits.max(axis=1, keepdims=True)
    nll = np.log(np.exp(shifted).sum(axis=1)) - shifted[rows, tgt]
    dlogits = _softmax_rows(logits)
    dlogits[rows, tgt] -= 1.0

    grads = {name: np.zeros_like(val) for name, val in p.items()}
    grads["out_proj"] += y3.T @ dlogits
    dy3 = dlogits @ p["out_proj"].T
    grads["ff_w2"] += relu.T @ dy3
    dh1 = (dy3 @ p["ff_w2"].T) * (h1 > 0.0)
    grads["ff_w1"] += y2.T @ dh1
    dy2 = dy3 + dh1 @ p["ff_w1"].T
    dy1, dhenc = _attn_backward(cross, henc, dy2, p, "dec_cross", grads)
    dq, dkv = _attn_backward(dec_self, y0, dy1, p, "dec_self", grads)
    np.add.at(grads["embed"], tgt_in, dq + dkv)
    grads["pos"][:len(tgt_in)] += dq + dkv
    dq, dkv = _attn_backward(enc, x0, dhenc, p, "enc", grads)
    np.add.at(grads["embed"], src, dq + dkv)
    grads["pos"][:len(src)] += dq + dkv
    return float(nll.sum()), grads, len(tgt)


def loss_and_grads(model, batch):
    """Mean token NLL over ``batch`` and its gradients, pair by pair."""
    total, tokens, acc = 0.0, 0, None
    for item in batch:
        nll, grads, n_tok = _pair(model, *item)
        total += nll
        tokens += n_tok
        if acc is None:
            acc = grads
        else:
            for name in acc:
                acc[name] += grads[name]
    scale = 1.0 / tokens
    return total * scale, {name: g * scale for name, g in acc.items()}
