"""``model_loss_and_grads`` and ``forward`` on batches of several images.

An ungated batch must give each item bitwise the loss, gradient row and
logits of a one-item batch.  A gated batch pads each image's gathered
columns to the widest image's count, which changes the order of the sums
over keys, so it is judged against the long-double reference of
``decoder_oracle``.
"""

import numpy as np
import pytest

from decoder_oracle import decode_logits, oracle_check
from segxfer import segmodel as sm
from segxfer.adaptive_cluster import FeatureMap
from segxfer.errors import InputError, ShapeError
from segxfer.numkit import flat_views

H, W, D, CLASSES = 6, 7, 5, 3


def batch_case(seed, count=4, p_t=30.0):
    """A decoder off its zero inits and ``count`` images of one geometry,
    each with labels, the key mask at ``p_t`` of a T-map whose values tie
    (so images keep different numbers of columns) and, for odd images, pixel
    weights."""
    rng = np.random.default_rng(seed)
    params = sm.init_seg_model(D, CLASSES, rng, num_queries=5, channels=6, num_layers=2,
                               ffn_hidden=7)
    params.self_w += 0.1 * rng.normal(size=params.self_w.shape)
    params.embed_b += 0.5 * rng.normal(size=params.embed_b.shape)
    items = []
    for k in range(count):
        fm = FeatureMap.from_grid(rng.normal(size=(H, W, D)))
        labels = rng.integers(0, CLASSES, size=(H, W))
        key_mask = sm.key_mask(rng.integers(0, 5, size=(H, W)) / 4.0, p_t)
        weights = rng.uniform(0.5, 2.0, size=H * W) if k % 2 else None
        items.append(sm.TrainItem(fm, labels, key_mask, weights))
    return params, items


def check_against_oracle(params, items, lambda_m):
    """Judge the batch's losses and gradient rows, and the logits of
    ``forward``'s batches over the same images, against the oracle, image by
    image.  The labels of one ``forward`` call, decoded once per batch, must
    be bitwise each image's own decode of its logits."""
    losses, rows = sm.model_loss_and_grads(params, items, lambda_m=lambda_m)
    fms, key_masks = [it.fm for it in items], [it.key_mask for it in items]
    preds = sm.forward(params, fms, key_masks, lambda_m=lambda_m)
    logits = decode_logits(params, fms, key_masks, lambda_m=lambda_m)
    assert losses.shape == (len(items),) and rows.shape[0] == len(items)
    assert len(preds) == len(logits) == len(items)
    shapes = [a.shape for a in params.param_list()]
    fallbacks = []
    for item, loss, row, pred, (class_logits, mask_logits, fallback) in zip(
            items, losses, rows, preds, logits):
        assert np.array_equal(pred.labels, sm.decode_labels(class_logits, mask_logits, H, W))
        assert pred.fallback_count == fallback
        fallbacks.append(oracle_check(
            params, item.fm, item.labels, item.key_mask, lambda_m, item.pixel_weights,
            [loss, *flat_views(row, shapes), class_logits, mask_logits]))
    return fallbacks


@pytest.fixture
def mask_widths(monkeypatch):
    """The key count of every build_mask call, in call order."""
    widths = []
    build = sm.build_mask

    def spy(mask_logits, *args):
        widths.append(mask_logits.shape[-1])
        return build(mask_logits, *args)

    monkeypatch.setattr(sm, "build_mask", spy)
    return widths


@pytest.mark.parametrize("split", [False, True])
def test_ungated_batch_is_bitwise_one_item_batches(split, monkeypatch):
    params, items = batch_case(0)
    batch = [sm.TrainItem(it.fm, it.labels, pixel_weights=it.pixel_weights) for it in items]
    batch.insert(2, batch[1])  # a duplicate draw
    if split:  # two batches, of 2 and 3 images
        monkeypatch.setattr(sm, "_STACK_ELEMENTS", 3 * params.num_queries * H * W)
    losses, rows = sm.model_loss_and_grads(params, batch)
    preds = sm.forward(params, [it.fm for it in batch])
    logits = decode_logits(params, [it.fm for it in batch])
    for item, loss, row, pred, (class_logits, mask_logits, _) in zip(
            batch, losses, rows, preds, logits, strict=True):
        one_loss, one_row = sm.model_loss_and_grads(params, [item])
        assert loss == one_loss[0]
        assert np.array_equal(row, one_row[0])
        (one_class, one_mask, _), = decode_logits(params, [item.fm])
        assert np.array_equal(class_logits, one_class)
        assert np.array_equal(mask_logits, one_mask)
        assert np.array_equal(pred.labels, sm.decode_labels(one_class, one_mask, H, W))
    assert np.array_equal(rows[1], rows[2])


@pytest.mark.parametrize("seed", range(4))
def test_gated_batch_with_different_column_counts_matches_oracle(seed, mask_widths):
    # every layer's mask is built over the widest image's kept columns
    params, items = batch_case(seed, p_t=40.0)
    kept = [int(it.key_mask.sum()) for it in items]
    assert len(set(kept)) > 1
    check_against_oracle(params, items, lambda_m=0.5)
    assert mask_widths[:params.num_layers] == [max(kept)] * params.num_layers


@pytest.mark.parametrize("seed, split", [pytest.param(s, False, id=str(s)) for s in range(4)]
                         + [pytest.param(0, True, id="0-split")])
def test_mixed_gated_and_ungated_batch_matches_oracle(seed, split, monkeypatch):
    params, items = batch_case(seed)
    items[0].key_mask = items[3].key_mask = None
    if split:  # two batches of 2 images, one gated and one not in each
        monkeypatch.setattr(sm, "_STACK_ELEMENTS", 2 * params.num_queries * H * W)
    check_against_oracle(params, items, lambda_m=0.5)


def test_widening_batch_matches_oracle(mask_widths):
    # lambda_m = 0 admits no logit: every row falls back, so every layer
    # widens the whole batch to all H*W columns.
    params, items = batch_case(5)
    fallbacks = check_against_oracle(params, items, lambda_m=0.0)
    assert all(f.all() for per_item in fallbacks for f in per_item)
    kept = [int(it.key_mask.sum()) for it in items]
    assert max(kept) < H * W
    assert mask_widths[:params.num_layers] == [max(kept)] * params.num_layers


@pytest.mark.parametrize("split", [False, True])
def test_mixed_geometry_raises(split, monkeypatch):
    params, items = batch_case(6, count=2)
    rng = np.random.default_rng(6)
    other = sm.TrainItem(FeatureMap.from_grid(rng.normal(size=(H, W + 1, D))),
                         rng.integers(0, CLASSES, size=(H, W + 1)))
    if split:  # one image per batch
        monkeypatch.setattr(sm, "_STACK_ELEMENTS", 1)
    with pytest.raises(ShapeError):
        sm.model_loss_and_grads(params, [*items, other])
    with pytest.raises(ShapeError):
        sm.forward(params, [it.fm for it in [*items, other]])
    # a key-mask list of another length, which slicing per batch would not notice
    fms, key_masks = [it.fm for it in items], [it.key_mask for it in items]
    with pytest.raises(ShapeError):
        sm.forward(params, fms, key_masks[:-1])
    with pytest.raises(ShapeError):
        sm.forward(params, fms[:-1], key_masks)
    with pytest.raises(InputError):
        sm.forward(params, [])
    with pytest.raises(InputError):
        sm.model_loss_and_grads(params, [])
