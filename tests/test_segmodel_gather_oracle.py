"""Gathered-key decoder against the full-width reference of
``decoder_oracle``, on one-image batches.  Masks, fallback rows and key
widths compare exactly."""

import numpy as np
import pytest

from decoder_oracle import decode_logits, one_item_loss_and_grads, oracle_check
from segxfer import segmodel as sm
from segxfer.adaptive_cluster import FeatureMap


def random_case(seed):
    """A random decoder, image, labels, per-pixel T and pixel weights.  The
    embedding bias is drawn off its zero init from a stream of its own, so
    the other draws do not depend on it."""
    rng = np.random.default_rng(seed)
    h, w, d = (int(v) for v in rng.integers(3, 10, size=3))
    num_classes = int(rng.integers(2, 5))
    params = sm.init_seg_model(
        d, num_classes, rng, num_queries=num_classes + int(rng.integers(0, 3)),
        channels=int(rng.integers(4, 13)), num_layers=int(rng.integers(1, 4)),
        ffn_hidden=int(rng.integers(4, 13)))
    params.self_w += 0.1 * rng.normal(size=params.self_w.shape)  # off the zero init
    params.embed_b = 0.5 * np.random.default_rng([seed, 1]).normal(size=params.embed_b.shape)
    fm = FeatureMap.from_grid(rng.uniform(0.2, 2.0) * rng.normal(size=(h, w, d)))
    labels = rng.integers(0, num_classes, size=(h, w))
    t = rng.random((h, w))
    pixel_weights = rng.uniform(0.5, 2.0, size=h * w) if seed % 2 else None
    return params, fm, labels, t, pixel_weights


@pytest.fixture
def mask_spy(monkeypatch):
    """Every build_mask call's (key columns, fallback rows of each image), in
    call order."""
    calls = []
    build = sm.build_mask

    def spy(*args):
        out = build(*args)
        calls.append((out.allowed.shape[-1], out.fallback.copy()))
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
        params, fm, labels, t, pixel_weights = random_case(seed)
        key_mask = sm.key_mask(t, p_t)
        loss, grads = one_item_loss_and_grads(
            params, sm.TrainItem(fm, labels, key_mask, pixel_weights), lambda_m=lambda_m)
        (class_logits, mask_logits, fallback_count), = decode_logits(
            params, [fm], [key_mask], lambda_m=lambda_m)
        fallbacks = oracle_check(params, fm, labels, key_mask, lambda_m, pixel_weights,
                                 [loss, *grads, class_logits, mask_logits])
        assert fallback_count == sum(int(f.sum()) for f in fallbacks)

        # one build_mask call per layer and pass, over the gathered columns,
        # with the oracle's fallback rows
        assert len(mask_spy) == 2 * params.num_layers
        keys = int(key_mask.sum())
        for (width, (fallback,)), ref in zip(mask_spy, fallbacks * 2):
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
        loss, grads = one_item_loss_and_grads(params, sm.TrainItem(fm, labels, None, pixel_weights),
                                              lambda_m=lambda_m)
        (class_logits, mask_logits, _), = decode_logits(params, [fm], lambda_m=lambda_m)
        fallbacks = oracle_check(params, fm, labels, None, lambda_m, pixel_weights,
                                 [loss, *grads, class_logits, mask_logits])
        assert len(mask_spy) == 2 * params.num_layers
        for (width, (fallback,)), ref in zip(mask_spy, fallbacks * 2):
            assert width == fm.num_pixels
            np.testing.assert_array_equal(fallback, ref)
        mask_spy.clear()
