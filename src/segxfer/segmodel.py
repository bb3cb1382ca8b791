"""Minimal query-based segmentation head built around masked attention.

N learnable queries pass through L decoder layers, each a masked
cross-attention over the embedded pixels E = W_e x + b, a query
self-attention, and a two-layer feed-forward block, all with residual
connections.  A class head maps final queries to num_classes+1 logits (the
extra slot is no-object) and a mask-embedding head produces per-query mask
logits as dot products with the embedded pixels.

The parameters are one flat record, ``SegModelParams``: the L layers'
self-attention and feed-forward arrays are stacked on a leading layer axis,
and the record's field order is the order of the gradients and of the
optimizer's vector.

E is never formed.  The embedding is linear and mixes no pixels, so every
product the decoder takes with E runs against the raw features x and a small
factor projected through W_e: mask logits (W_e^T m)^T x + b^T m, attention
scores (W_e^T q)^T x / sqrt(C), attention output W_e (x w^T) + b (w 1), and
in the backward the embedding gradient as (C, d_in) products such as
q (dS x^T).  The bias stays out of the scores and the weight gradient: it
adds one constant per query, which the softmax and its backward cancel.  No
(C, H*W) array is formed in a step.

Queries are tied to classes by position (query n predicts class n), so the
loss needs no bipartite matching.  Each layer's attention mask is built from
that layer's current mask logits; those thresholded masks are constants
to the backward pass, while the final mask and class logits carry gradients.

The decoder runs a batch of same-geometry images: queries, weights and
logits carry a leading batch axis, (B, C, N), (B, N, keys), (B, N, H*W).
``forward`` and ``model_loss_and_grads`` take any number of such images and
split them into consecutive batches by one rule, ``_batches``, and run each
through one ``_forward``.  Only ``model_loss_and_grads`` keeps each layer's
arrays for its backward; a decode frees them layer by layer.  ``seg_loss``
and ``decode_labels`` take the final logits and form the probabilities they
need.  A decode keeps only each image's labels and fallback count: a batch's
logits are freed once its labels are decoded, before the next batch runs.

Each image's transferability condition reaches the decoder as a boolean
(H, W) key mask, which its caller builds once per T-map and p_T with
``key_mask``.  Only a query that falls back attends outside the key mask, so
the key-mask pixels' features are gathered once, and every layer computes
mask logits, scores, weights and their gradients over those columns only.
Each image's columns are padded to the batch's widest with more of its own
pixels, ones outside its key mask; every layer's ``build_mask`` takes the
gathered key mask, so only a fallback row admits padding.  A layer in which
any query of any image falls back widens the whole batch to all H*W
columns.  A batch with an image that has no key mask keeps every column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .adaptive_cluster import FeatureMap
from .errors import ConfigError, InputError, ShapeError
from .numkit import (AdamWState, adamw_step, binary_cross_entropy, flat_views, flatten, mt,
                     relu, sigmoid, softmax_columns)
from .tma import (
    attention_backward_from_weights,
    build_mask,
    masked_attention_weights,
    percentile_threshold,
    widen_mask,
)


@dataclass
class SegModelParams:
    """All trainable arrays plus the class count they were built for.

    The L decoder layers' arrays are stacked on a leading layer axis: layer
    i's self-attention value projection is ``self_w[i]`` and its feed-forward
    block ``ffn_w1[i]``, ``ffn_b1[i]``, ``ffn_w2[i]``, ``ffn_b2[i]``.
    ``param_list`` gives the arrays in ``PARAM_NAMES`` order, the field order:
    the order of the loss gradients and of the optimizer's vector.
    ``with_params`` is its inverse."""

    num_classes: int
    embed_w: np.ndarray   # (C, d_in)
    embed_b: np.ndarray   # (C,)
    queries: np.ndarray   # (C, N)
    self_w: np.ndarray    # (L, C, C) value projections of the query self-attentions
    ffn_w1: np.ndarray    # (L, F, C)
    ffn_b1: np.ndarray    # (L, F)
    ffn_w2: np.ndarray    # (L, C, F)
    ffn_b2: np.ndarray    # (L, C)
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

    @property
    def num_layers(self) -> int:
        return self.self_w.shape[0]

    def param_list(self) -> list[np.ndarray]:
        return [getattr(self, n) for n in PARAM_NAMES]

    def with_params(self, flat: list[np.ndarray]) -> "SegModelParams":
        """The same class count around new arrays, given in ``PARAM_NAMES``
        order; the inverse of ``param_list``."""
        if len(flat) != len(PARAM_NAMES):
            raise ShapeError("parameter list does not match architecture")
        return replace(self, **dict(zip(PARAM_NAMES, flat)))

    def copy(self) -> "SegModelParams":
        return self.with_params([a.copy() for a in self.param_list()])


PARAM_NAMES = tuple(f.name for f in fields(SegModelParams) if f.name != "num_classes")


def init_seg_model(
    in_channels: int,
    num_classes: int,
    rng: np.random.Generator,
    num_queries: int = 8,
    channels: int = 16,
    num_layers: int = 3,
    ffn_hidden: int = 32,
) -> SegModelParams:
    if min(in_channels, num_classes, channels, num_layers, ffn_hidden) < 1:
        raise ConfigError(f"need in_channels, num_classes, channels, num_layers and "
                          f"ffn_hidden >= 1, got {in_channels}, {num_classes}, {channels}, "
                          f"{num_layers} and {ffn_hidden}")
    if num_queries < num_classes:
        raise ConfigError(
            f"need at least one query per class: {num_queries} < {num_classes}"
        )

    def dense(fan_out: int, fan_in: int) -> np.ndarray:
        return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_out, fan_in))

    # drawn one layer at a time, each layer's ffn_w1 before its ffn_w2
    ffn = [(dense(ffn_hidden, channels), dense(channels, ffn_hidden)) for _ in range(num_layers)]
    ffn_w1, ffn_w2 = (np.stack(ws) for ws in zip(*ffn))
    return SegModelParams(
        num_classes=num_classes,
        embed_w=dense(channels, in_channels),
        embed_b=np.zeros(channels),
        queries=rng.normal(0.0, 1.0 / math.sqrt(channels), size=(channels, num_queries)),
        # zero init: self-attention starts as a no-op and learns to mix
        self_w=np.zeros((num_layers, channels, channels)),
        ffn_w1=ffn_w1,
        ffn_b1=np.zeros((num_layers, ffn_hidden)),
        ffn_w2=ffn_w2,
        ffn_b2=np.zeros((num_layers, channels)),
        class_w=dense(num_classes + 1, channels),
        class_b=np.zeros(num_classes + 1),
        mask_w=dense(channels, channels),
        mask_b=np.zeros(channels),
    )


@dataclass
class SegPrediction:
    """One image's decode: its decoded labels and how many of its layer rows
    fell back.  Only ``forward`` builds one."""

    labels: np.ndarray        # (H, W), see ``decode_labels``
    fallback_count: int
    fallback_slots: int

    @property
    def fallback_rate(self) -> float:
        return self.fallback_count / self.fallback_slots if self.fallback_slots else 0.0


def decode_labels(class_logits: np.ndarray, mask_logits: np.ndarray,
                  height: int, width: int) -> np.ndarray:
    """Pixel label = class of the highest-scoring query at that pixel.

    A query's score at a pixel is its mask probability times its best real
    (non-no-object) class probability; ties go to the lowest query index.
    Takes (..., num_classes + 1, N) class logits and (..., N, H*W) mask
    logits and returns (..., H, W) labels, one map per leading index, of the
    narrowest unsigned type that holds num_classes - 1.
    """
    real = softmax_columns(class_logits)[..., :-1, :]
    query_class = np.argmax(real, axis=-2).astype(np.min_scalar_type(real.shape[-2] - 1))
    scores = sigmoid(mask_logits) * real.max(axis=-2)[..., None]
    winner = np.argmax(scores, axis=-2)                           # (..., H*W)
    labels = np.take_along_axis(query_class, winner, axis=-1)
    return labels.reshape(*labels.shape[:-1], height, width)


@dataclass
class _LayerCache:
    """One decoder layer's arrays that the backward reads."""

    q_in: np.ndarray          # queries entering the layer (B, C, N); (C, N) in layer 0
    feats: np.ndarray         # raw features of the columns attended over (B, d_in, keys)
    weights: np.ndarray       # cross-attention weights (B, N, keys)
    weight_sums: np.ndarray   # their row sums, 1 up to rounding (B, N)
    mixed: np.ndarray         # weights @ feats^T, the weighted feature sums (B, N, d_in)
    u: np.ndarray             # post-cross-attention residual (B, C, N)
    self_weights: np.ndarray  # query self-attention weights (B, N, N)
    mix: np.ndarray           # self-attention value mix (B, C, N)
    v: np.ndarray             # post-self-attention residual (B, C, N)
    h: np.ndarray             # FFN hidden activation relu(z) (B, F, N)


def _mask_logits(params: SegModelParams, memb: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """(B, N, keys) mask logits memb^T (W_e X + b), as (W_e^T memb)^T X + b^T memb."""
    logits = mt(params.embed_w.T @ memb) @ feats
    logits += (params.embed_b @ memb)[..., None]
    return logits


# Images are decoded in as few batches as keep each batch's (B, N, H*W)
# arrays within this many elements (256 KB).  At 32x32, with the allocator
# settings made on import, one batch of 8 images runs a forward or a training
# step 7-16% faster than two of 4, and neither page-faults.  The cap stays:
# regrouping a batch changes the padding of gated rows, and so the results.
_STACK_ELEMENTS = 1 << 15


def _batches(params: SegModelParams, fms: list[FeatureMap]) -> list[slice]:
    """``fms`` cut into as few consecutive batches of near-equal size as keep
    each within ``_STACK_ELEMENTS``.  Raises unless ``fms`` holds at least
    one image, all of one geometry and with the embedding's channel count."""
    if not fms:
        raise InputError("no images to decode")
    first = fms[0]
    if first.channels != params.embed_w.shape[1]:
        raise ShapeError(
            f"feature channels {first.channels} do not match embedding "
            f"({params.embed_w.shape[1]})"
        )
    geometry = (first.height, first.width, first.channels)
    for fm in fms:
        if (fm.height, fm.width, fm.channels) != geometry:
            raise ShapeError(f"image {fm.height}x{fm.width}x{fm.channels} in a batch of "
                             "{}x{}x{} images".format(*geometry))
    n = len(fms)
    parts = min(n, math.ceil(n * params.num_queries * first.num_pixels / _STACK_ELEMENTS))
    return [slice(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def key_mask(t: np.ndarray, p_t: float) -> np.ndarray:
    """The transferability condition of one image: its pixels whose T is at
    most the nearest-rank p_t percentile of its T values, in T's shape.
    Raises InputError unless every T lies in [0, 1]."""
    threshold = percentile_threshold(t, p_t)
    # a NaN fails both comparisons, so it is rejected too
    if not (t.min() >= 0 and t.max() <= 1):
        raise InputError("transferability must lie in [0, 1]")
    return t <= threshold


def _forward(params: SegModelParams, fms: list[FeatureMap],
             key_masks: list[np.ndarray | None], lambda_m: float,
             layers: list[_LayerCache] | None = None) -> tuple[np.ndarray, ...]:
    """The decoder over one batch of ``_batches``: the features x
    (B, d_in, H*W), the final queries and their mask embedding (B, C, N),
    the class logits (B, num_classes + 1, N), the mask logits (B, N, H*W)
    and each image's fallback rows over all layers (B,).

    Each layer's ``_LayerCache`` is appended to ``layers``, the backward's
    list.  A decode passes none, so a layer's arrays are freed as the next
    layer computes its own."""
    first = fms[0]

    # an image without a key mask admits every key
    key_mask = np.ones((len(fms), first.num_pixels), dtype=bool)
    for b, mask in enumerate(key_masks):
        if mask is not None:
            # a T-map or other non-bool array would be cast, admitting every nonzero entry
            if mask.dtype != bool or mask.shape != (first.height, first.width):
                raise ShapeError(f"key mask of {mask.dtype} {mask.shape} is not a bool "
                                 f"mask of image {first.height}x{first.width}")
            key_mask[b] = mask.reshape(-1)
    keys = int(key_mask.sum(axis=1).max())
    # one image's features are used in place, not copied
    xs = first.features[None] if len(fms) == 1 else np.stack([fm.features for fm in fms])
    x = mt(xs)
    if keys == first.num_pixels:
        cols, gathered = None, x
    else:
        # each image's key-mask columns in pixel order, padded to the
        # batch's widest with its next columns, which its key mask leaves out
        cols = np.argsort(~key_mask, axis=1, kind="stable")[:, :keys]
        rows = np.arange(len(fms))[:, None]
        gathered, key_mask = mt(xs[rows, cols]), key_mask[rows, cols]

    q = params.queries  # shared by every image: (C, N) until the first residual
    fallback_count = np.zeros(len(fms), dtype=int)
    scale = math.sqrt(params.channels)
    for self_w, ffn_w1, ffn_b1, ffn_w2, ffn_b2 in zip(
            params.self_w, params.ffn_w1, params.ffn_b1, params.ffn_w2, params.ffn_b2):
        memb = params.mask_w @ q + params.mask_b[:, None]
        amask = build_mask(_mask_logits(params, memb, gathered), key_mask, lambda_m)
        feats = gathered
        if cols is not None and amask.fallback.any():
            amask, feats = widen_mask(amask, cols, x.shape[-1]), x
        fallback_count += amask.fallback.sum(axis=-1)
        weights = masked_attention_weights(q, params.embed_w, feats, amask)
        # weights @ (W_e X + b)^T, taken against the raw features
        weight_sums = weights.sum(axis=-1)
        mixed = weights @ mt(feats)
        u = q + params.embed_w @ mt(mixed) + params.embed_b[:, None] * weight_sums[:, None, :]
        self_weights = softmax_columns((mt(u) @ u) / scale)
        mix = u @ self_weights
        v = u + self_w @ mix
        h = relu(ffn_w1 @ v + ffn_b1[:, None])
        q_next = v + ffn_w2 @ h + ffn_b2[:, None]
        if layers is not None:
            layers.append(_LayerCache(q_in=q, feats=feats, weights=weights,
                                      weight_sums=weight_sums, mixed=mixed, u=u,
                                      self_weights=self_weights, mix=mix, v=v, h=h))
        q = q_next

    memb = params.mask_w @ q + params.mask_b[:, None]
    class_logits = params.class_w @ q + params.class_b[:, None]
    return x, q, memb, class_logits, _mask_logits(params, memb, x), fallback_count


def forward(params: SegModelParams, fms: list[FeatureMap],
            key_masks: list[np.ndarray | None] | None = None,
            lambda_m: float = 0.5) -> list[SegPrediction]:
    """One prediction per image, in order, for same-geometry images decoded
    in the batches of ``_batches``.  An image whose ``key_masks`` entry is a
    bool (H, W) mask (None: no image's is) has every layer's attention gated
    by it; the others get only the mask-probability condition.  A batch pads
    a gated image's columns to its widest, which reorders their sums; an
    ungated image decodes bitwise as on its own."""
    key_masks = [None] * len(fms) if key_masks is None else key_masks
    if len(key_masks) != len(fms):
        raise ShapeError(f"{len(key_masks)} key masks for {len(fms)} images")
    preds = []
    slots = params.num_layers * params.num_queries
    for batch in _batches(params, fms):
        *_, class_logits, mask_logits, fallback_count = _forward(
            params, fms[batch], key_masks[batch], lambda_m)
        labels = decode_labels(class_logits, mask_logits, fms[0].height, fms[0].width)
        del _, class_logits, mask_logits  # freed before the next batch runs
        preds += [SegPrediction(lab, int(f), slots) for lab, f in zip(labels, fallback_count)]
    return preds


def seg_loss(class_logits: np.ndarray, mask_logits: np.ndarray, labels: np.ndarray,
             pixel_weights: np.ndarray | None = None
             ) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-assignment segmentation loss of (..., num_classes + 1, N) class
    logits and (..., N, H*W) mask logits, with gradients at the logits.

    Query n is responsible for class n (queries beyond the class count target
    no-object and an empty mask).  The loss is mean per-query class
    cross-entropy plus mean per-pixel binary mask loss; optional pixel
    weights, finite and non-negative, rescale the mask term per pixel.
    Returns (loss, d_class_logits, d_mask_logits).  Logits with a batch axis
    take labels and pixel weights with that axis and give one loss per
    image.
    """
    labels = np.asarray(labels)
    if labels.dtype.kind not in "ui":
        raise InputError(f"labels must be integers, got {labels.dtype}")
    num_classes = class_logits.shape[-2] - 1
    *batch, n_queries, num_pixels = mask_logits.shape
    if labels.size != math.prod(batch) * num_pixels:
        raise ShapeError(f"labels {labels.shape} do not cover {num_pixels} pixels "
                         f"of batch {tuple(batch)}")
    flat = labels.reshape(*batch, num_pixels)
    if flat.min() < 0 or flat.max() >= num_classes:
        raise InputError(f"labels must lie in [0, {num_classes}), got "
                         f"[{flat.min()}, {flat.max()}]")
    if pixel_weights is not None:
        pixel_weights = np.asarray(pixel_weights, dtype=float)
        if pixel_weights.size != flat.size:
            raise ShapeError(
                f"pixel weights {pixel_weights.shape} do not cover {num_pixels} pixels "
                f"of batch {tuple(batch)}")
        if not np.all((pixel_weights >= 0.0) & (pixel_weights < np.inf)):
            raise InputError("pixel weights must be finite and non-negative")
        pixel_weights = pixel_weights.reshape(*batch, 1, num_pixels)

    # Class term: stable log-softmax cross-entropy against the fixed targets.
    queries = np.arange(n_queries)
    targets = np.minimum(queries, num_classes)
    col_max = class_logits.max(axis=-2)
    lse = col_max + np.log(np.exp(class_logits - col_max[..., None, :]).sum(axis=-2))
    class_loss = (lse - class_logits[..., targets, queries]).mean(axis=-1)
    d_class = softmax_columns(class_logits)
    d_class[..., targets, queries] -= 1.0
    d_class /= n_queries

    # Mask term: per-pixel binary cross-entropy.  Query n's target mask is
    # class n's pixels, empty past the class count.
    y = flat[..., None, :] == queries[:, None]
    bce, d_mask = binary_cross_entropy(sigmoid(mask_logits), y)
    if pixel_weights is not None:
        bce *= pixel_weights
        d_mask *= pixel_weights
    scale = 1.0 / (n_queries * num_pixels)
    mask_loss = bce.reshape(*batch, -1).sum(axis=-1) * scale
    d_mask *= scale

    return class_loss + mask_loss, d_class, d_mask


@dataclass
class TrainItem:
    """One training example: features, labels, and optional T inputs: a
    bool (H, W) ``key_mask`` that gates attention, and mask-loss weights."""

    fm: FeatureMap
    labels: np.ndarray
    key_mask: np.ndarray | None = None
    pixel_weights: np.ndarray | None = None


def _pixel_rows(arrays: list[np.ndarray], num_pixels: int, what: str) -> np.ndarray:
    """(B, H*W): one image's per-pixel values per row."""
    rows = [np.asarray(a).reshape(-1) for a in arrays]
    if any(r.size != num_pixels for r in rows):
        raise ShapeError(f"{what} of shapes {[np.shape(a) for a in arrays]} do not cover "
                         f"{num_pixels} pixels each")
    return np.stack(rows)


def model_loss_and_grads(params: SegModelParams, items: list[TrainItem], lambda_m: float = 0.5
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Each item's loss and analytic gradients, for items of one geometry.

    Returns the (B,) losses and a (B, parameters) array whose row b is item
    b's gradient of every entry of ``param_list``, in ``flatten`` layout.
    Items are decoded in the batches of ``_batches``.  Attention masks are
    threshold constants, so gradients flow through the attention weights,
    the feed-forward blocks, both heads and the pixel embedding, but not
    through the mask-building comparisons.
    """
    losses, rows = zip(*(_batch_loss_and_grads(params, items[batch], lambda_m)
                         for batch in _batches(params, [it.fm for it in items])))
    return np.concatenate(losses), np.concatenate(rows)


def _batch_loss_and_grads(params: SegModelParams, items: list[TrainItem], lambda_m: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    """``model_loss_and_grads`` of one batch."""
    layers: list[_LayerCache] = []
    x, q_final, memb, class_logits, mask_logits, _ = _forward(
        params, [it.fm for it in items], [it.key_mask for it in items], lambda_m, layers)
    num_pixels = x.shape[-1]
    pixel_weights = None
    if any(it.pixel_weights is not None for it in items):
        pixel_weights = _pixel_rows(
            [np.ones(num_pixels) if it.pixel_weights is None else it.pixel_weights
             for it in items], num_pixels, "pixel weights")
    loss, d_class, d_mask_logits = seg_loss(
        class_logits, mask_logits, _pixel_rows([it.labels for it in items], num_pixels, "labels"),
        pixel_weights)
    del mask_logits  # (B, N, H*W); the backward reads only its gradient

    embed_w, embed_b = params.embed_w, params.embed_b

    dq = params.class_w.T @ d_class
    g_class_w = d_class @ mt(q_final)
    g_class_b = d_class.sum(axis=-1)

    # mask logits memb^T (W_e x + b): d_mask_logits is taken against x once
    d_mask_x = d_mask_logits @ mt(x)               # (B, N, d_in)
    d_mask_sum = d_mask_logits.sum(axis=-1)        # (B, N)
    del d_mask_logits  # (B, N, H*W); the two lines above are its only readers
    d_memb = embed_w @ mt(d_mask_x) + embed_b[:, None] * d_mask_sum[:, None, :]  # (B, C, N)
    g_embed_w = memb @ d_mask_x
    g_embed_b = (memb @ d_mask_sum[..., None])[..., 0]
    g_mask_w = d_memb @ mt(q_final)
    g_mask_b = d_memb.sum(axis=-1)
    dq = dq + params.mask_w.T @ d_memb

    g_self_w, g_w1, g_b1, g_w2, g_b2 = (np.empty((len(items), *a.shape)) for a in (
        params.self_w, params.ffn_w1, params.ffn_b1, params.ffn_w2, params.ffn_b2))
    scale = math.sqrt(params.channels)
    for i, lc in reversed(list(enumerate(layers))):
        g_w2[:, i] = dq @ mt(lc.h)
        g_b2[:, i] = dq.sum(axis=-1)
        dh = params.ffn_w2[i].T @ dq
        dz = dh * (lc.h > 0)  # h = relu(z): h > 0 exactly where z > 0
        g_w1[:, i] = dz @ mt(lc.v)
        g_b1[:, i] = dz.sum(axis=-1)
        dv_res = dq + params.ffn_w1[i].T @ dz   # gradient at v

        # self-attention: v = u + self_w @ (u @ self_weights), scores u^T u
        g_self_w[:, i] = dv_res @ mt(lc.mix)
        d_mix = params.self_w[i].T @ dv_res     # (B, C, N)
        du = dv_res + d_mix @ mt(lc.self_weights)
        d_sw = mt(lc.u) @ d_mix                 # (B, N, N)
        d_scores = lc.self_weights * (
            d_sw - (lc.self_weights * d_sw).sum(axis=-2, keepdims=True))
        du = du + (lc.u @ (d_scores + mt(d_scores))) / scale

        # cross-attention: u = q_in + weights @ (W_e x + b)^T over the
        # layer's columns, the embedded pixels both keys and values; their
        # gradients q_in dS and du weights reach W_e through x^T
        dqa, d_att, d_att_x = attention_backward_from_weights(
            embed_w, lc.feats, lc.weights, mt(du))
        g_embed_w += lc.q_in @ d_att_x + du @ lc.mixed
        g_embed_b += (lc.q_in @ d_att.sum(axis=-1)[..., None]
                      + du @ lc.weight_sums[..., None])[..., 0]
        del d_att  # (B, N, keys), not kept into the next layer's backward
        dq = du + dqa

    # Gradients take the parameters' own structure, so they come out in
    # param_list order by construction.
    grads = SegModelParams(
        num_classes=params.num_classes, embed_w=g_embed_w, embed_b=g_embed_b, queries=dq,
        self_w=g_self_w, ffn_w1=g_w1, ffn_b1=g_b1, ffn_w2=g_w2, ffn_b2=g_b2,
        class_w=g_class_w, class_b=g_class_b, mask_w=g_mask_w, mask_b=g_mask_b)
    return loss, np.concatenate([g.reshape(len(items), -1) for g in grads.param_list()], axis=1)


def train(
    params: SegModelParams,
    items: list[TrainItem],
    steps: int,
    batch_size: int = 8,
    *,
    lr: float,
    seed: int = 0,
    lambda_m: float = 0.5,
) -> tuple[SegModelParams, list[float]]:
    """AdamW training (``AdamWState``'s weight decay) over uniformly sampled
    batches; returns new params and the per-step mean batch loss.

    The optimizer owns one parameter vector, which the model being trained
    views.  Loss and gradients are deterministic, so each step evaluates its
    distinct items once, in one ``model_loss_and_grads`` call in the order
    they are first drawn, and adds an item's loss and gradient row again for
    each further draw.  ``items[idx]`` is read once per draw.
    """
    if not items:
        raise InputError("training set is empty")
    if batch_size < 1 or steps < 0:
        raise InputError(f"need batch size >= 1 and steps >= 0, got {batch_size} and {steps}")
    rng = np.random.default_rng(seed)
    arrays = params.param_list()
    vector = flatten(arrays)
    current = params.with_params(flat_views(vector, [a.shape for a in arrays]))
    state = AdamWState.for_params(vector, lr=lr)
    losses: list[float] = []
    for _ in range(steps):
        picks = rng.integers(0, len(items), size=batch_size).tolist()
        drawn = {idx: items[idx] for idx in picks}  # keys in first-draw order
        taken = list(map(list(drawn).index, picks))  # each draw's row
        item_losses, rows = model_loss_and_grads(current, list(drawn.values()), lambda_m=lambda_m)
        # both sums run in pick order, one draw after another
        adamw_step(state, vector, rows[taken].sum(axis=0) / batch_size)
        losses.append(float(np.cumsum(item_losses[taken])[-1]) / batch_size)
    return current.copy(), losses  # not the optimizer's buffer

