"""A full-width reference for the gathered-key, batched decoder.

The reference below is the decoder written the direct way: every layer
thresholds full-image mask probabilities, sigmoid(logits) <= lambda_m, and
attends over all H*W keys, those outside the image's key mask masked out.
It computes, exponentiates and back-propagates through keys that only a
fallback row can admit, so it is kept only as an oracle.

The comparison judges accuracy, not operation order.  The reference runs
once in float64, whose thresholds give every layer's mask, and once in long
double over those same masks; the gathered decoder's error against the
long-double values must stay within ERROR_RATIO times the float64
reference's own error.  The reference decodes one image at a time.
"""

import numpy as np

from segxfer import segmodel as sm
from segxfer import tma
from segxfer.numkit import LOSS_EPS, flat_views

# The gated path's max error against a long-double evaluation may be at most
# this multiple of the float64 oracle's own (floored at one float64 ulp of the
# array's largest entry).  Over the one-image cases of
# test_segmodel_gather_oracle the ratio has a median near 1 and a maximum
# near 35; a wrong term gives errors near the values' size.
ERROR_RATIO = 128.0


def sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax_columns(m):
    z = np.exp(m - m.max(axis=0))
    return z / z.sum(axis=0)


def oracle_mask(logits, keys, lambda_m):
    allowed = (sigmoid(logits) <= lambda_m) & keys[None, :]
    fallback = ~allowed.any(axis=1)
    allowed[fallback] = True
    return tma.AttentionMaskTensor(allowed, fallback)


def oracle_weights(queries, keys, mask, root_c):
    """(N, keys) masked attention weights over the embedded pixels, scores
    Q^T K / sqrt(C) with the embedding bias inside K."""
    scores = (queries.T / root_c) @ keys
    scores -= np.where(mask.allowed, scores, -np.inf).max(axis=1, keepdims=True)
    weights = np.exp(np.minimum(scores, 0.0)) * mask.allowed
    return weights / np.sum(weights, axis=1, keepdims=True)


def oracle_attention_backward(queries, keys, values, weights, upstream, root_c):
    """Gradients of weights @ values.T at the queries, keys and values."""
    d_weights = upstream @ values
    d_scores = weights * (d_weights - np.sum(weights * d_weights, axis=1, keepdims=True))
    d_scores /= root_c
    return keys @ d_scores.T, queries @ d_scores, upstream.T @ weights


def oracle_loss(class_logits, mask_logits, labels, pixel_weights):
    """``seg_loss`` in the logits' own precision: (loss, d_class, d_mask)."""
    n_queries, num_pixels = mask_logits.shape
    num_classes = class_logits.shape[0] - 1
    targets, cols = np.minimum(np.arange(n_queries), num_classes), np.arange(n_queries)
    col_max = class_logits.max(axis=0)
    lse = col_max + np.log(np.sum(np.exp(class_logits - col_max), axis=0))
    class_loss = np.mean(lse - class_logits[targets, cols])
    d_class = softmax_columns(class_logits)
    d_class[targets, cols] -= 1.0
    d_class /= n_queries

    probs = sigmoid(mask_logits)
    y = labels.reshape(1, -1) == np.arange(n_queries)[:, None]
    clamped = np.clip(probs, LOSS_EPS, 1.0 - LOSS_EPS)
    bce = -np.log(np.where(y, clamped, 1.0 - clamped))
    d_mask = np.where((probs > LOSS_EPS) & (probs < 1.0 - LOSS_EPS), probs - y, 0.0)
    if pixel_weights is not None:
        bce *= pixel_weights
        d_mask *= pixel_weights
    scale = 1.0 / (n_queries * num_pixels)
    return class_loss + np.sum(bce) * scale, d_class, d_mask * scale


def oracle_loss_and_grads(params, fm, labels, key_mask, lambda_m, pixel_weights,
                          dtype=np.float64, masks=None):
    """([loss, *gradients in param_list order, class logits, mask logits],
    per-layer masks), evaluated in ``dtype``.  Without ``masks`` each layer
    thresholds its own mask probabilities; given them, it attends over
    exactly those."""
    p = {n: a.astype(dtype) for n, a in zip(sm.PARAM_NAMES, params.param_list())}
    x = fm.features.T.astype(dtype)
    embed = p["embed_w"] @ x + p["embed_b"][:, None]
    keys = np.ones(fm.num_pixels, dtype=bool) if key_mask is None else key_mask.reshape(-1)

    q = p["queries"]
    root_c = np.sqrt(dtype(params.channels))
    caches, used = [], []
    for i in range(params.num_layers):
        memb = p["mask_w"] @ q + p["mask_b"][:, None]
        mask = (masks[i] if masks is not None
                else oracle_mask(memb.T @ embed, keys, lambda_m))
        used.append(mask)
        weights = oracle_weights(q, embed, mask, root_c)
        u = q + embed @ weights.T
        self_weights = softmax_columns((u.T @ u) / root_c)
        mix = u @ self_weights
        v = u + p["self_w"][i] @ mix
        z = p["ffn_w1"][i] @ v + p["ffn_b1"][i][:, None]
        h = np.maximum(z, 0.0)
        caches.append((q, weights, u, self_weights, mix, v, z, h))
        q = v + p["ffn_w2"][i] @ h + p["ffn_b2"][i][:, None]

    memb = p["mask_w"] @ q + p["mask_b"][:, None]
    class_logits, mask_logits = p["class_w"] @ q + p["class_b"][:, None], memb.T @ embed
    pixel_w = None if pixel_weights is None else pixel_weights.astype(dtype)
    loss, d_class, d_mask_logits = oracle_loss(class_logits, mask_logits, labels, pixel_w)

    grads = {n: np.empty_like(p[n]) for n in ("self_w", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2")}
    grads["class_w"], grads["class_b"] = d_class @ q.T, d_class.sum(axis=1)
    d_memb = embed @ d_mask_logits.T
    d_embed = memb @ d_mask_logits
    grads["mask_w"], grads["mask_b"] = d_memb @ q.T, d_memb.sum(axis=1)
    dq = p["class_w"].T @ d_class + p["mask_w"].T @ d_memb
    for i in reversed(range(params.num_layers)):
        q_in, weights, u, self_weights, mix, v, z, h = caches[i]
        grads["ffn_w2"][i], grads["ffn_b2"][i] = dq @ h.T, dq.sum(axis=1)
        dz = (p["ffn_w2"][i].T @ dq) * (z > 0)
        grads["ffn_w1"][i], grads["ffn_b1"][i] = dz @ v.T, dz.sum(axis=1)
        dv_res = dq + p["ffn_w1"][i].T @ dz
        grads["self_w"][i] = dv_res @ mix.T
        d_mix = p["self_w"][i].T @ dv_res
        d_sw = u.T @ d_mix
        d_scores = self_weights * (d_sw - np.sum(self_weights * d_sw, axis=0))
        du = dv_res + d_mix @ self_weights.T + (u @ (d_scores + d_scores.T)) / root_c
        dqa, dk, dv = oracle_attention_backward(q_in, embed, embed, weights, du.T, root_c)
        d_embed += dk
        d_embed += dv
        dq = du + dqa
    grads["queries"] = dq
    grads["embed_w"], grads["embed_b"] = d_embed @ x.T, d_embed.sum(axis=1)
    return [loss, *(grads[n] for n in sm.PARAM_NAMES), class_logits, mask_logits], used


def error_ratio(actual, oracle, exact):
    """The max error of ``actual`` against ``exact`` over the float64
    oracle's, the latter floored at one ulp of the largest exact entry."""
    assert np.shape(actual) == np.shape(oracle) == np.shape(exact)
    scale = np.max(np.abs(exact), initial=0.0)
    own = max(np.max(np.abs(oracle - exact), initial=0.0),
              np.finfo(np.float64).eps * scale, np.finfo(np.float64).tiny)
    return float(np.max(np.abs(actual - exact), initial=0.0) / own)


def oracle_check(params, fm, labels, key_mask, lambda_m, pixel_weights, actual):
    """Assert the gated path's outputs ``actual`` (in the oracle's order) are
    within ERROR_RATIO of a long-double evaluation over the float64 oracle's
    masks; returns those masks' fallback rows."""
    oracle, masks = oracle_loss_and_grads(params, fm, labels, key_mask, lambda_m, pixel_weights)
    exact, _ = oracle_loss_and_grads(params, fm, labels, key_mask, lambda_m, pixel_weights,
                                     dtype=np.longdouble, masks=masks)
    for a, o, e in zip(actual, oracle, exact, strict=True):
        assert error_ratio(a, o, e) <= ERROR_RATIO
    return [m.fallback for m in masks]


def one_item_loss_and_grads(params, item, **kwargs):
    """``model_loss_and_grads`` on a one-item batch: the item's loss and its
    gradients in ``param_list`` order."""
    losses, rows = sm.model_loss_and_grads(params, [item], **kwargs)
    return losses[0], flat_views(rows[0], [a.shape for a in params.param_list()])


def one_item_loss(params, item, lambda_m=0.5):
    """The loss of ``one_item_loss_and_grads``, bitwise, without the
    backward pass: the same one-image decode and ``seg_loss`` call."""
    *_, class_logits, mask_logits, _ = sm._forward(params, [item.fm], [item.key_mask],
                                                   lambda_m)
    return sm.seg_loss(class_logits, mask_logits, np.asarray(item.labels).reshape(1, -1))[0][0]


def decode_logits(params, fms, key_masks=None, lambda_m=0.5):
    """Each image's (class logits, mask logits, fallback count), from the
    batches and ``_forward`` calls of ``forward``, which keeps only the
    labels and fallback counts."""
    key_masks = [None] * len(fms) if key_masks is None else key_masks
    out = []
    for batch in sm._batches(params, fms):
        *_, class_logits, mask_logits, fallback = sm._forward(
            params, fms[batch], key_masks[batch], lambda_m)
        out += zip(class_logits, mask_logits, fallback.tolist())
    return out
