"""Gathered-key decoder against the full-width reference.

The reference below is the decoder written the direct way: every layer
thresholds full-image mask probabilities, sigmoid(logits) <= lambda_m, and
attends over all H*W keys, those with transferability above lambda_t
masked out.  It computes, exponentiates and back-propagates through keys
that only a fallback row can admit, so it is kept only as an oracle.
"""

import math

import numpy as np
import pytest

from segxfer import segmodel as sm
from segxfer import tma
from segxfer.adaptive_cluster import FeatureMap
from segxfer.numkit import relu, sigmoid, softmax_columns
from segxfer.transferability import TransferabilityMap

RTOL = 1e-12


def oracle_mask(logits, tvec, lambda_m, lambda_t):
    allowed = (sigmoid(logits) <= lambda_m) & (tvec[None, :] <= lambda_t)
    fallback = ~allowed.any(axis=1)
    allowed[fallback] = True
    return tma.AttentionMaskTensor(allowed, fallback)


def oracle_weights(queries, keys, mask):
    """(N, keys) masked attention weights over the embedded pixels, scores
    Q^T K / sqrt(C) with the embedding bias inside K."""
    scores = (queries.T / math.sqrt(queries.shape[0])) @ keys
    scores -= np.where(mask.allowed, scores, -np.inf).max(axis=1, keepdims=True)
    weights = np.exp(np.minimum(scores, 0.0)) * mask.allowed
    return weights / np.sum(weights, axis=1, keepdims=True)


def oracle_attention_backward(queries, keys, values, weights, upstream):
    """Gradients of weights @ values.T at the queries, keys and values."""
    d_weights = upstream @ values
    d_scores = weights * (d_weights - np.sum(weights * d_weights, axis=1, keepdims=True))
    d_scores *= 1.0 / math.sqrt(queries.shape[0])
    return keys @ d_scores.T, queries @ d_scores, upstream.T @ weights


def oracle_loss_and_grads(params, fm, labels, tmap, lambda_m, p_t, pixel_weights):
    """(loss, gradients in param_list order, prediction, per-layer fallback rows)."""
    x = fm.features.T
    embed = params.embed_w @ x + params.embed_b[:, None]
    if tmap is not None:
        tvec = tmap.pixel.reshape(-1)
        lambda_t = tma.percentile_threshold(tvec, p_t)
    else:
        tvec, lambda_t = np.zeros(fm.num_pixels), 1.0

    q = params.queries
    scale = math.sqrt(params.channels)
    caches, fallbacks = [], []
    for layer in params.layers:
        memb = params.mask_w @ q + params.mask_b[:, None]
        mask = oracle_mask(memb.T @ embed, tvec, lambda_m, lambda_t)
        fallbacks.append(mask.fallback)
        weights = oracle_weights(q, embed, mask)
        u = q + embed @ weights.T
        self_weights = softmax_columns((u.T @ u) / scale)
        mix = u @ self_weights
        v = u + layer.self_w @ mix
        z = layer.ffn_w1 @ v + layer.ffn_b1[:, None]
        h = relu(z)
        caches.append((q, weights, u, self_weights, mix, v, z, h))
        q = v + layer.ffn_w2 @ h + layer.ffn_b2[:, None]

    memb = params.mask_w @ q + params.mask_b[:, None]
    pred = sm.prediction_from_logits(params.class_w @ q + params.class_b[:, None],
                                     memb.T @ embed, fm.height, fm.width)
    loss, d_class, d_mask_logits = sm.seg_loss(pred, labels, pixel_weights)

    grads = {"class_w": d_class @ q.T, "class_b": d_class.sum(axis=1)}
    d_memb = embed @ d_mask_logits.T
    d_embed = memb @ d_mask_logits
    grads["mask_w"], grads["mask_b"] = d_memb @ q.T, d_memb.sum(axis=1)
    dq = params.class_w.T @ d_class + params.mask_w.T @ d_memb
    for i in reversed(range(len(params.layers))):
        layer = params.layers[i]
        q_in, weights, u, self_weights, mix, v, z, h = caches[i]
        grads[f"layer{i}.ffn_w2"], grads[f"layer{i}.ffn_b2"] = dq @ h.T, dq.sum(axis=1)
        dz = (layer.ffn_w2.T @ dq) * (z > 0)
        grads[f"layer{i}.ffn_w1"], grads[f"layer{i}.ffn_b1"] = dz @ v.T, dz.sum(axis=1)
        dv_res = dq + layer.ffn_w1.T @ dz
        grads[f"layer{i}.self_w"] = dv_res @ mix.T
        d_mix = layer.self_w.T @ dv_res
        d_sw = u.T @ d_mix
        d_scores = self_weights * (d_sw - np.sum(self_weights * d_sw, axis=0))
        du = dv_res + d_mix @ self_weights.T + (u @ (d_scores + d_scores.T)) / scale
        dqa, dk, dv = oracle_attention_backward(q_in, embed, embed, weights, du.T)
        d_embed += dk
        d_embed += dv
        dq = du + dqa
    grads["queries"] = dq
    grads["embed_w"], grads["embed_b"] = d_embed @ x.T, d_embed.sum(axis=1)
    names = sm.param_names(len(params.layers))
    return loss, [grads[n] for n in names], pred, fallbacks


def random_case(seed):
    """A random decoder, image, labels, T-map and pixel weights."""
    rng = np.random.default_rng(seed)
    h, w, d = (int(v) for v in rng.integers(3, 10, size=3))
    num_classes = int(rng.integers(2, 5))
    params = sm.init_seg_model(
        d, num_classes, rng, num_queries=num_classes + int(rng.integers(0, 3)),
        channels=int(rng.integers(4, 13)), num_layers=int(rng.integers(1, 4)),
        ffn_hidden=int(rng.integers(4, 13)))
    for layer in params.layers:  # off the zero init, so self-attention mixes
        layer.self_w += 0.1 * rng.normal(size=layer.self_w.shape)
    fm = FeatureMap.from_grid(rng.uniform(0.2, 2.0) * rng.normal(size=(h, w, d)))
    labels = rng.integers(0, num_classes, size=(h, w))
    tmap = TransferabilityMap(np.zeros(1), rng.random((h, w)))
    pixel_weights = rng.uniform(0.5, 2.0, size=h * w) if seed % 2 else None
    return params, fm, labels, tmap, pixel_weights


def assert_close(actual, expected):
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected), initial=0.0) <= (
        RTOL * np.max(np.abs(expected), initial=0.0))


@pytest.fixture
def mask_spy(monkeypatch):
    """Every build_mask call's (key columns, fallback rows), in call order."""
    calls = []
    build = sm.build_mask

    def spy(mi):
        out = build(mi)
        calls.append((out.allowed.shape[1], out.fallback.copy()))
        return out

    monkeypatch.setattr(sm, "build_mask", spy)
    return calls


SEEDS = range(12)


@pytest.mark.parametrize("p_t", [0.0, 10.0, 30.0, 100.0])
@pytest.mark.parametrize("lambda_m", [0.0, 0.3, 0.5, 0.8])
def test_gated_matches_full_width_oracle(p_t, lambda_m, mask_spy):
    # lambda_m = 0 admits no logit a double can hold: every row of every
    # layer falls back, so every layer widens to all columns.
    widened = narrow = 0
    for seed in SEEDS:
        params, fm, labels, tmap, pixel_weights = random_case(seed)
        loss, grads = sm.model_loss_and_grads(params, fm, labels, tmap=tmap, lambda_m=lambda_m,
                                              p_t=p_t, pixel_weights=pixel_weights)
        pred = sm.forward(params, fm, tmap=tmap, lambda_m=lambda_m, p_t=p_t)
        ref_loss, ref_grads, ref_pred, fallbacks = oracle_loss_and_grads(
            params, fm, labels, tmap, lambda_m, p_t, pixel_weights)

        assert abs(loss - ref_loss) <= RTOL * abs(ref_loss)
        for g, r in zip(grads, ref_grads, strict=True):
            assert_close(g, r)
        assert_close(pred.class_logits, ref_pred.class_logits)
        assert_close(pred.mask_logits, ref_pred.mask_logits)
        assert pred.fallback_count == sum(int(f.sum()) for f in fallbacks)

        # one build_mask call per layer and pass, over the gathered columns,
        # with the oracle's fallback rows
        layers = len(params.layers)
        assert len(mask_spy) == 2 * layers
        keys = int(np.sum(tmap.pixel <= tma.percentile_threshold(tmap.pixel, p_t)))
        for (width, fallback), ref in zip(mask_spy, fallbacks * 2):
            assert width == keys
            np.testing.assert_array_equal(fallback, ref)
            widened += bool(fallback.any()) and width < fm.num_pixels
            narrow += not fallback.any() and width < fm.num_pixels
        mask_spy.clear()
    if lambda_m == 0.0:
        assert narrow == 0 and (widened > 0 or p_t == 100.0)
    elif p_t in (10.0, 30.0):  # both kinds of layer occur
        assert widened > 0 and narrow > 0


@pytest.mark.parametrize("lambda_m", [0.0, 0.5, 1.0])
def test_ungated_matches_full_width_oracle(lambda_m, mask_spy):
    for seed in SEEDS:
        params, fm, labels, _, pixel_weights = random_case(seed)
        loss, grads = sm.model_loss_and_grads(params, fm, labels, tmap=None,
                                              lambda_m=lambda_m, pixel_weights=pixel_weights)
        ref_loss, ref_grads, _, fallbacks = oracle_loss_and_grads(
            params, fm, labels, None, lambda_m, 30.0, pixel_weights)
        assert abs(loss - ref_loss) <= RTOL * abs(ref_loss)
        for g, r in zip(grads, ref_grads, strict=True):
            assert_close(g, r)
        assert len(mask_spy) == len(params.layers)
        for (width, fallback), ref in zip(mask_spy, fallbacks):
            assert width == fm.num_pixels
            np.testing.assert_array_equal(fallback, ref)
        mask_spy.clear()
