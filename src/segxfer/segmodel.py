"""Minimal query-based segmentation head built around masked attention.

Pixel features are linearly embedded once; N learnable queries pass through
L decoder layers, each a masked cross-attention over the embedded pixels,
a query self-attention, and a two-layer feed-forward block, all with
residual connections.
A class head maps final queries to num_classes+1 logits (the extra slot is
no-object) and a mask-embedding head produces per-query mask logits as dot
products with the embedded pixels.

Queries are tied to classes by position (query n predicts class n), so the
loss needs no bipartite matching.  Each layer's attention mask is built from
that layer's current mask prediction; those thresholded masks are constants
to the backward pass, while the final mask and class logits carry gradients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .adaptive_cluster import FeatureMap
from .errors import ConfigError, InputError, ShapeError
from .numkit import (LOSS_EPS, AdamWState, adamw_step, flat_views, flatten, relu, sigmoid,
                     softmax_columns)
from .serialize import load_arrays, save_arrays
from .tma import (
    AttentionMaskTensor,
    MaskInputs,
    attention_backward_from_weights,
    build_mask,
    masked_attention_weights,
    percentile_threshold,
)
from .transferability import TransferabilityMap


@dataclass
class DecoderLayer:
    self_w: np.ndarray  # (C, C) value projection of the query self-attention
    ffn_w1: np.ndarray  # (F, C)
    ffn_b1: np.ndarray  # (F,)
    ffn_w2: np.ndarray  # (C, F)
    ffn_b2: np.ndarray  # (C,)


@dataclass
class SegModelParams:
    """All trainable arrays plus the class count they were built for.

    ``param_list`` flattens the arrays into ``param_names`` order, the order
    of the loss gradients, of the optimizer's vector and of the saved file;
    ``with_params`` and ``from_named`` rebuild the structure."""

    num_classes: int
    embed_w: np.ndarray   # (C, d_in)
    embed_b: np.ndarray   # (C,)
    queries: np.ndarray   # (C, N)
    layers: list[DecoderLayer]
    class_w: np.ndarray   # (num_classes + 1, C)
    class_b: np.ndarray   # (num_classes + 1,)
    mask_w: np.ndarray    # (C, C)
    mask_b: np.ndarray    # (C,)

    @property
    def channels(self) -> int:
        return self.embed_w.shape[0]

    @property
    def num_queries(self) -> int:
        return self.queries.shape[1]

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Every trainable array by name, in ``param_names`` order."""
        in_layers = {f"layer{i}.{n}": getattr(layer, n)
                     for i, layer in enumerate(self.layers) for n in _LAYER_NAMES}
        return {n: in_layers[n] if n in in_layers else getattr(self, n)
                for n in param_names(len(self.layers))}

    @classmethod
    def from_named(cls, num_classes: int, num_layers: int,
                   named: dict[str, np.ndarray]) -> "SegModelParams":
        """Inverse of ``named_arrays``; the names must be exactly those of a
        ``num_layers``-layer decoder."""
        expected = param_names(num_layers)
        odd = set(named) ^ set(expected)
        if odd:
            raise InputError(
                f"arrays {sorted(odd)} are missing or extra for {num_layers} decoder layers")
        layers = [DecoderLayer(**{n: named[f"layer{i}.{n}"] for n in _LAYER_NAMES})
                  for i in range(num_layers)]
        return cls(num_classes=num_classes, layers=layers,
                   **{n: named[n] for n in expected if "." not in n})

    def param_list(self) -> list[np.ndarray]:
        return list(self.named_arrays().values())

    def with_params(self, flat: list[np.ndarray]) -> "SegModelParams":
        """Rebuild the same architecture around a new flat parameter list,
        given in ``param_names`` order; the inverse of ``param_list``."""
        names = param_names(len(self.layers))
        if len(flat) != len(names):
            raise ShapeError("parameter list does not match architecture")
        return self.from_named(self.num_classes, len(self.layers), dict(zip(names, flat)))

    def copy(self) -> "SegModelParams":
        return self.with_params([a.copy() for a in self.param_list()])


_LAYER_NAMES = tuple(f.name for f in fields(DecoderLayer))


@functools.cache
def param_names(num_layers: int) -> tuple[str, ...]:
    """Names of the trainable arrays in ``param_list`` order: the order of
    the loss gradients and of the saved file."""
    in_layers = [f"layer{i}.{n}" for i in range(num_layers) for n in _LAYER_NAMES]
    return ("embed_w", "embed_b", "queries", *in_layers, "class_w", "class_b", "mask_w", "mask_b")


def init_seg_model(
    in_channels: int,
    num_classes: int,
    rng: np.random.Generator,
    num_queries: int = 8,
    channels: int = 16,
    num_layers: int = 3,
    ffn_hidden: int = 32,
) -> SegModelParams:
    if num_layers < 1:
        raise ConfigError(f"need at least one decoder layer, got {num_layers}")
    if num_queries < num_classes:
        raise ConfigError(
            f"need at least one query per class: {num_queries} < {num_classes}"
        )

    def dense(fan_out: int, fan_in: int) -> np.ndarray:
        return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_out, fan_in))

    layers = [
        DecoderLayer(
            # zero init: self-attention starts as a no-op and learns to mix
            self_w=np.zeros((channels, channels)),
            ffn_w1=dense(ffn_hidden, channels),
            ffn_b1=np.zeros(ffn_hidden),
            ffn_w2=dense(channels, ffn_hidden),
            ffn_b2=np.zeros(channels),
        )
        for _ in range(num_layers)
    ]
    return SegModelParams(
        num_classes=num_classes,
        embed_w=dense(channels, in_channels),
        embed_b=np.zeros(channels),
        queries=rng.normal(0.0, 1.0 / math.sqrt(channels), size=(channels, num_queries)),
        layers=layers,
        class_w=dense(num_classes + 1, channels),
        class_b=np.zeros(num_classes + 1),
        mask_w=dense(channels, channels),
        mask_b=np.zeros(channels),
    )


@dataclass
class SegPrediction:
    """Per-query class and mask predictions; the pixel labels are decoded
    on first access, so a training step never decodes them."""

    class_logits: np.ndarray  # (num_classes + 1, N)
    mask_logits: np.ndarray   # (N, H*W)
    class_probs: np.ndarray   # (N, num_classes + 1)
    mask_probs: np.ndarray    # (N, H*W)
    height: int
    width: int
    fallback_count: int
    fallback_slots: int

    @functools.cached_property
    def labels(self) -> np.ndarray:
        """(H, W) decoded labels; see ``decode_labels``."""
        return decode_labels(self.class_probs, self.mask_probs, self.height, self.width)

    @property
    def num_classes(self) -> int:
        return self.class_logits.shape[0] - 1

    @property
    def fallback_rate(self) -> float:
        return self.fallback_count / self.fallback_slots if self.fallback_slots else 0.0


def decode_labels(class_probs: np.ndarray, mask_probs: np.ndarray,
                  height: int, width: int) -> np.ndarray:
    """Pixel label = class of the highest-scoring query at that pixel.

    A query's score at a pixel is its mask probability times its best real
    (non-no-object) class probability; ties go to the lowest query index.
    """
    real = class_probs[:, :-1]
    query_class = np.argmax(real, axis=1)
    confidence = real[np.arange(real.shape[0]), query_class]
    scores = mask_probs * confidence[:, None]
    winner = np.argmax(scores, axis=0)
    return query_class[winner].reshape(height, width)


def prediction_from_logits(class_logits: np.ndarray, mask_logits: np.ndarray,
                           height: int, width: int, fallback_count: int = 0,
                           fallback_slots: int = 0) -> SegPrediction:
    return SegPrediction(
        class_logits=class_logits,
        mask_logits=mask_logits,
        class_probs=softmax_columns(class_logits).T,
        mask_probs=sigmoid(mask_logits),
        height=height,
        width=width,
        fallback_count=fallback_count,
        fallback_slots=fallback_slots,
    )


@dataclass
class _LayerCache:
    q_in: np.ndarray          # queries entering the layer (C, N)
    weights: np.ndarray       # cross-attention weights (N, keys)
    u: np.ndarray             # post-cross-attention residual (C, N)
    self_weights: np.ndarray  # query self-attention weights (N, N)
    mix: np.ndarray           # self-attention value mix (C, N)
    v: np.ndarray             # post-self-attention residual (C, N)
    z: np.ndarray             # FFN pre-activation (F, N)
    h: np.ndarray             # FFN hidden activation (F, N)


@dataclass
class _ForwardCache:
    x: np.ndarray        # (d_in, H*W)
    embed: np.ndarray    # (C, H*W)
    layers: list[_LayerCache] = field(default_factory=list)
    q_final: np.ndarray | None = None
    memb: np.ndarray | None = None
    prediction: SegPrediction | None = None


def _layer_mask(params: SegModelParams, q: np.ndarray, embed: np.ndarray,
                tvec: np.ndarray, lambda_m: float, lambda_t: float) -> AttentionMaskTensor:
    memb = params.mask_w @ q + params.mask_b[:, None]
    probs = sigmoid(memb.T @ embed)
    return build_mask(MaskInputs(probs, tvec, lambda_m, lambda_t))


def _forward(params: SegModelParams, fm: FeatureMap,
             tmap: TransferabilityMap | None, lambda_m: float,
             p_t: float) -> _ForwardCache:
    if fm.channels != params.embed_w.shape[1]:
        raise ShapeError(
            f"feature channels {fm.channels} do not match embedding "
            f"({params.embed_w.shape[1]})"
        )
    x = fm.features.T
    embed = params.embed_w @ x + params.embed_b[:, None]

    if tmap is not None:
        if tmap.pixel.shape != (fm.height, fm.width):
            raise ShapeError(
                f"transferability map {tmap.pixel.shape} does not match "
                f"image {fm.height}x{fm.width}"
            )
        tvec = tmap.pixel.reshape(-1)
        lambda_t = percentile_threshold(tvec, p_t)
    else:
        # Vanilla mode: the transferability condition is always satisfied.
        tvec = np.zeros(fm.num_pixels)
        lambda_t = 1.0

    cache = _ForwardCache(x=x, embed=embed)
    q = params.queries
    fallback_count = 0
    scale = math.sqrt(params.channels)
    for layer in params.layers:
        amask = _layer_mask(params, q, embed, tvec, lambda_m, lambda_t)
        fallback_count += int(np.sum(amask.fallback))
        weights = masked_attention_weights(q, embed, amask)
        u = q + embed @ weights.T
        self_weights = softmax_columns((u.T @ u) / scale)
        mix = u @ self_weights
        v = u + layer.self_w @ mix
        z = layer.ffn_w1 @ v + layer.ffn_b1[:, None]
        h = relu(z)
        q_next = v + layer.ffn_w2 @ h + layer.ffn_b2[:, None]
        cache.layers.append(_LayerCache(q_in=q, weights=weights, u=u,
                                        self_weights=self_weights, mix=mix,
                                        v=v, z=z, h=h))
        q = q_next

    cache.q_final = q
    class_logits = params.class_w @ q + params.class_b[:, None]
    cache.memb = params.mask_w @ q + params.mask_b[:, None]
    mask_logits = cache.memb.T @ embed
    cache.prediction = prediction_from_logits(
        class_logits, mask_logits, fm.height, fm.width,
        fallback_count=fallback_count,
        fallback_slots=len(params.layers) * params.num_queries,
    )
    return cache


def forward(params: SegModelParams, fm: FeatureMap,
            tmap: TransferabilityMap | None = None,
            lambda_m: float = 0.5, p_t: float = 30.0) -> SegPrediction:
    """Run the decoder.  With a transferability map, every layer's attention
    is gated by it (threshold = the p_t percentile of this image's values);
    without one, only the mask-probability condition applies."""
    return _forward(params, fm, tmap, lambda_m, p_t).prediction


def _mask_targets(labels_flat: np.ndarray, num_queries: int, num_classes: int) -> np.ndarray:
    """(num_queries, H*W) bool: query n's target mask is class n's pixels."""
    targets = np.zeros((num_queries, labels_flat.size), dtype=bool)
    for n in range(min(num_queries, num_classes)):
        targets[n] = labels_flat == n
    return targets


def seg_loss(pred: SegPrediction, labels: np.ndarray,
             pixel_weights: np.ndarray | None = None
             ) -> tuple[float, np.ndarray, np.ndarray]:
    """Fixed-assignment segmentation loss with gradients at the logits.

    Query n is responsible for class n (queries beyond the class count target
    no-object and an empty mask).  The loss is mean per-query class
    cross-entropy plus mean per-pixel binary mask loss; optional pixel
    weights rescale the mask term per pixel.  Returns (loss,
    d_class_logits, d_mask_logits).
    """
    labels = np.asarray(labels)
    num_classes = pred.num_classes
    n_queries = pred.mask_logits.shape[0]
    num_pixels = pred.mask_logits.shape[1]
    if labels.size != num_pixels:
        raise ShapeError(f"labels {labels.shape} do not cover {num_pixels} pixels")
    flat = labels.reshape(-1)
    if flat.min() < 0 or flat.max() >= num_classes:
        raise InputError(f"labels must lie in [0, {num_classes}), got "
                         f"[{flat.min()}, {flat.max()}]")
    if pixel_weights is not None:
        pixel_weights = np.asarray(pixel_weights, dtype=float).reshape(-1)
        if pixel_weights.shape != (num_pixels,):
            raise ShapeError(
                f"pixel weights {pixel_weights.shape} do not cover {num_pixels} pixels")

    # Class term: stable log-softmax cross-entropy against the fixed targets.
    cls = pred.class_logits
    targets = np.array([n if n < num_classes else num_classes
                        for n in range(n_queries)])
    col_max = cls.max(axis=0)
    lse = col_max + np.log(np.sum(np.exp(cls - col_max), axis=0))
    class_loss = float(np.mean(lse - cls[targets, np.arange(n_queries)]))
    soft = softmax_columns(cls)
    d_class = soft.copy()
    d_class[targets, np.arange(n_queries)] -= 1.0
    d_class /= n_queries

    # Mask term: per-pixel binary cross-entropy, probabilities clamped so the
    # loss stays finite at saturation.  With 0/1 targets, -log of the
    # probability given to the target is the usual two-log formula exactly.
    probs = pred.mask_probs
    y = _mask_targets(flat, n_queries, num_classes)
    clamped = np.clip(probs, LOSS_EPS, 1.0 - LOSS_EPS)
    bce = -np.log(np.where(y, clamped, 1.0 - clamped))
    inside = (probs > LOSS_EPS) & (probs < 1.0 - LOSS_EPS)
    d_mask = np.where(inside, probs - y, 0.0)
    if pixel_weights is not None:
        bce *= pixel_weights
        d_mask *= pixel_weights
    scale = 1.0 / (n_queries * num_pixels)
    mask_loss = float(np.sum(bce) * scale)
    d_mask *= scale

    return class_loss + mask_loss, d_class, d_mask


def model_loss_and_grads(
    params: SegModelParams,
    fm: FeatureMap,
    labels: np.ndarray,
    tmap: TransferabilityMap | None = None,
    lambda_m: float = 0.5,
    p_t: float = 30.0,
    pixel_weights: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Loss plus analytic gradients for every entry of ``param_list``.

    Attention masks are threshold constants, so gradients flow through the
    attention weights, the feed-forward blocks, both heads and the pixel
    embedding, but not through the mask-building comparisons.
    """
    cache = _forward(params, fm, tmap, lambda_m, p_t)
    loss, d_class, d_mask_logits = seg_loss(cache.prediction, labels, pixel_weights)

    q_final = cache.q_final
    embed = cache.embed

    dq = params.class_w.T @ d_class
    g_class_w = d_class @ q_final.T
    g_class_b = d_class.sum(axis=1)

    d_memb = embed @ d_mask_logits.T           # (C, N)
    d_embed = cache.memb @ d_mask_logits       # (C, H*W)
    g_mask_w = d_memb @ q_final.T
    g_mask_b = d_memb.sum(axis=1)
    dq = dq + params.mask_w.T @ d_memb

    layer_grads: list[DecoderLayer] = []
    scale = math.sqrt(params.channels)
    for layer, lc in zip(reversed(params.layers), reversed(cache.layers)):
        g_w2 = dq @ lc.h.T
        g_b2 = dq.sum(axis=1)
        dh = layer.ffn_w2.T @ dq
        dz = dh * (lc.z > 0)
        g_w1 = dz @ lc.v.T
        g_b1 = dz.sum(axis=1)
        dv_res = dq + layer.ffn_w1.T @ dz       # gradient at v

        # self-attention: v = u + self_w @ (u @ self_weights), scores u^T u
        g_self_w = dv_res @ lc.mix.T
        d_mix = layer.self_w.T @ dv_res         # (C, N)
        du = dv_res + d_mix @ lc.self_weights.T
        d_sw = lc.u.T @ d_mix                   # (N, N)
        d_scores = lc.self_weights * (
            d_sw - np.sum(lc.self_weights * d_sw, axis=0))
        du = du + (lc.u @ (d_scores + d_scores.T)) / scale

        # cross-attention: u = q_in + embed @ weights.T, with embed as both
        # keys and values
        dqa, dk, dv = attention_backward_from_weights(
            lc.q_in, embed, embed, lc.weights, du.T)
        d_embed += dk
        d_embed += dv
        dq = du + dqa
        layer_grads.append(DecoderLayer(self_w=g_self_w, ffn_w1=g_w1, ffn_b1=g_b1,
                                        ffn_w2=g_w2, ffn_b2=g_b2))
    layer_grads.reverse()

    g_embed_w = d_embed @ cache.x.T
    g_embed_b = d_embed.sum(axis=1)

    # Gradients take the parameters' own structure, so they come out in
    # param_list order by construction.
    grads = SegModelParams(
        num_classes=params.num_classes, embed_w=g_embed_w, embed_b=g_embed_b, queries=dq,
        layers=layer_grads, class_w=g_class_w, class_b=g_class_b, mask_w=g_mask_w,
        mask_b=g_mask_b)
    return loss, grads.param_list()


@dataclass
class TrainItem:
    """One training example: features, labels, and optional gating inputs."""

    fm: FeatureMap
    labels: np.ndarray
    tmap: TransferabilityMap | None = None
    pixel_weights: np.ndarray | None = None


def train(
    params: SegModelParams,
    items: list[TrainItem],
    steps: int,
    batch_size: int = 8,
    lr: float = 1e-4,
    weight_decay: float = 0.01,
    seed: int = 0,
    lambda_m: float = 0.5,
    p_t: float = 30.0,
) -> tuple[SegModelParams, list[float]]:
    """AdamW training over uniformly sampled batches; returns new params and
    the per-step mean batch loss.

    The optimizer owns one parameter vector, which the model being trained
    views.  Loss and gradients are deterministic, so an item drawn more than
    once in a batch is evaluated once and its gradient vector added again for
    each draw.
    """
    if not items:
        raise InputError("training set is empty")
    rng = np.random.default_rng(seed)
    arrays = params.param_list()
    vector = flatten(arrays)
    current = params.with_params(flat_views(vector, [a.shape for a in arrays]))
    state = AdamWState.for_params(vector, lr=lr, weight_decay=weight_decay)
    losses: list[float] = []
    for _ in range(steps):
        picks = rng.integers(0, len(items), size=batch_size)
        total = 0.0
        acc: np.ndarray | None = None
        drawn: dict[int, tuple[float, np.ndarray]] = {}
        for idx in picks:
            item = items[idx]
            if idx not in drawn:
                loss, grads = model_loss_and_grads(
                    current, item.fm, item.labels, tmap=item.tmap,
                    lambda_m=lambda_m, p_t=p_t, pixel_weights=item.pixel_weights)
                drawn[idx] = loss, flatten(grads)
            loss, grad = drawn[idx]
            total += loss
            acc = grad if acc is None else acc + grad
        assert acc is not None
        adamw_step(state, vector, acc / batch_size)
        losses.append(total / batch_size)
    return current.copy(), losses  # not the optimizer's buffer


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_params(params: SegModelParams, bin_path: str | Path, json_path: str | Path) -> None:
    meta = {"num_classes": params.num_classes, "num_layers": len(params.layers)}
    save_arrays(params.named_arrays(), bin_path, json_path, meta=meta)


def load_params(bin_path: str | Path, json_path: str | Path) -> SegModelParams:
    """Read a model written by ``save_params``.

    The meta counts must be positive integers, the array names exactly those
    of a decoder with ``num_layers`` layers, and the class head must have one
    row per class plus no-object; anything else raises InputError.
    """
    named, meta = load_arrays(bin_path, json_path)
    counts = [meta.get(key) for key in ("num_classes", "num_layers")]
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in counts):
        raise InputError(f"meta num_classes/num_layers {counts} are not positive integers")
    num_classes, num_layers = counts
    if num_layers > len(named):  # checked first so no name list that long is built
        raise InputError(f"{len(named)} arrays cannot hold {num_layers} decoder layers")
    params = SegModelParams.from_named(num_classes, num_layers, named)
    if params.class_w.shape[:1] != (num_classes + 1,):
        raise InputError(f"class head of shape {params.class_w.shape} does not have "
                         f"{num_classes} class rows plus no-object")
    return params
