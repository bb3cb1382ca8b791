import hashlib
import math
from dataclasses import fields

import numpy as np
import numpy.testing as npt
import pytest

from adamw_oracle import ListAdamWState, list_adamw_step
from decoder_oracle import decode_logits, one_item_loss, one_item_loss_and_grads
from gradcheck import gradcheck
from segxfer import segmodel as sm
from segxfer.adaptive_cluster import FeatureMap
from segxfer.errors import ConfigError, InputError, ShapeError
from segxfer.numkit import LOSS_EPS
from tracepeak import traced_memory


def small_model(seed=0, in_channels=4, num_classes=3, **kw):
    rng = np.random.default_rng(seed)
    defaults = dict(num_queries=4, channels=8, num_layers=2, ffn_hidden=8)
    defaults.update(kw)
    return sm.init_seg_model(in_channels, num_classes, rng, **defaults)


def small_scene(seed=0, h=4, w=4, d=4, num_classes=3, scale=0.25):
    rng = np.random.default_rng(seed)
    fm = FeatureMap.from_grid(scale * rng.normal(size=(h, w, d)))
    labels = rng.integers(0, num_classes, size=(h, w))
    return fm, labels


def seam_margins(params, fm, layers, lambda_m):
    """Distance of the closest layer mask probability to lambda_m and of the
    closest FFN pre-activation to 0, over the ``_LayerCache`` list
    ``layers``.  The loss is only piecewise smooth; gradient checks need
    these margins to stay away from the seams."""
    embed = params.embed_w @ fm.features.T + params.embed_b[:, None]
    mask_margin = relu_margin = np.inf
    for i, lc in enumerate(layers):
        memb = params.mask_w @ lc.q_in + params.mask_b[:, None]
        probs = sm.sigmoid(memb.swapaxes(-1, -2) @ embed)
        mask_margin = min(mask_margin, float(np.min(np.abs(probs - lambda_m))))
        z = params.ffn_w1[i] @ lc.v + params.ffn_b1[i][:, None]
        relu_margin = min(relu_margin, float(np.min(np.abs(z))))
    return mask_margin, relu_margin


def gradcheck_instance(seed, perturb):
    """Instance kept away from the threshold seams and logit saturation, so
    the piecewise-smooth loss is differentiable through the whole stencil.
    The self-attention mixer is nudged off its zero init so its gradient
    path is exercised."""
    rng = np.random.default_rng(seed)
    fm = FeatureMap.from_grid(0.25 * rng.normal(size=(4, 4, 4)))
    labels = rng.integers(0, 3, size=(4, 4))
    params = small_model(seed)
    params.self_w += 0.05 * perturb.normal(size=params.self_w.shape)
    key_mask = sm.key_mask(rng.random((4, 4)), 60.0)
    layers = []
    sm._forward(params, [fm], [key_mask], 0.5, layers)
    mask_margin, relu_margin = seam_margins(params, fm, layers, 0.5)
    if mask_margin < 5e-3 or relu_margin < 1e-2:
        return None
    return params, fm, labels, key_mask


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_shape_contract():
    rng = np.random.default_rng(1)
    params = sm.init_seg_model(16, 8, rng, num_queries=8, channels=16,
                               num_layers=3, ffn_hidden=32)
    fm = FeatureMap.from_grid(rng.normal(size=(32, 32, 16)))
    pred = sm.forward(params, [fm])[0]
    (class_logits, mask_logits, _), = decode_logits(params, [fm])
    assert class_logits.shape == (9, 8)
    assert mask_logits.shape == (8, 1024)
    assert pred.labels.shape == (32, 32)
    assert pred.fallback_slots == 3 * 8
    # a prediction keeps no logits
    assert [f.name for f in fields(pred)] == ["labels", "fallback_count", "fallback_slots"]


def test_forward_all_ones_tmap_at_p100_equals_vanilla():
    params = small_model(2)
    fm, _ = small_scene(2)
    key_mask = sm.key_mask(np.ones((4, 4)), 100.0)
    gated = sm.forward(params, [fm], [key_mask], lambda_m=0.5)[0]
    vanilla = sm.forward(params, [fm], [None], lambda_m=0.5)[0]
    (gated_class, gated_mask, _), = decode_logits(params, [fm], [key_mask], lambda_m=0.5)
    (vanilla_class, vanilla_mask, _), = decode_logits(params, [fm], [None], lambda_m=0.5)
    npt.assert_allclose(gated_class, vanilla_class, atol=1e-9)
    npt.assert_allclose(gated_mask, vanilla_mask, atol=1e-9)
    npt.assert_array_equal(gated.labels, vanilla.labels)


def test_forward_deterministic():
    params = small_model(3)
    fm, _ = small_scene(3)
    p1 = sm.forward(params, [fm])[0]
    p2 = sm.forward(params, [fm])[0]
    (c1, m1, _), = decode_logits(params, [fm])
    (c2, m2, _), = decode_logits(params, [fm])
    npt.assert_array_equal(c1, c2)
    npt.assert_array_equal(m1, m2)
    npt.assert_array_equal(p1.labels, p2.labels)


def test_forward_rejects_channel_mismatch():
    params = small_model(4)
    fm, _ = small_scene(4, d=5)
    with pytest.raises(ShapeError):
        sm.forward(params, [fm])


def test_key_mask_matches_a_sort_based_nearest_rank_reference():
    rng = np.random.default_rng(5)
    # the second map's T values take five levels, so many of them tie
    for t in (rng.random((5, 6)), rng.integers(0, 5, size=(5, 6)) / 4.0):
        ordered = np.sort(t.reshape(-1))
        for p_t in (0.0, 10.0, 30.0, 100.0):
            rank = max(math.ceil(p_t * t.size / 100.0), 1)
            mask = sm.key_mask(t, p_t)
            assert mask.dtype == bool and mask.shape == t.shape
            npt.assert_array_equal(mask, t <= ordered[rank - 1])
            assert mask.sum() >= rank


@pytest.mark.parametrize("bad", [1.4, -0.1, np.nan])
def test_key_mask_rejects_t_outside_unit_range(bad):
    t = np.full((4, 4), 0.5)
    t[1, 2] = bad
    with pytest.raises(InputError, match=r"\[0, 1\]"):
        sm.key_mask(t, 30.0)


@pytest.mark.parametrize("bad", ["transposed", "flat", "integer"])
def test_forward_and_loss_reject_key_mask_not_bool_of_image_shape(bad):
    # a 4x5 image, so a transposed mask has another shape; the second image
    # of the batch carries the bad mask
    params = small_model(5)
    fm, labels = small_scene(5, h=4, w=5)
    good = sm.key_mask(np.random.default_rng(5).random((4, 5)), 30.0)
    mask = {"transposed": good.T, "flat": good.reshape(-1), "integer": good.astype(int)}[bad]
    with pytest.raises(ShapeError):
        sm.forward(params, [fm, fm], [good, mask])
    with pytest.raises(ShapeError):
        sm.model_loss_and_grads(params, [sm.TrainItem(fm, labels, good),
                                         sm.TrainItem(fm, labels, mask)])


def test_init_draws_are_pinned():
    # Each layer's ffn_w1 and then its ffn_w2 are drawn, layer by layer,
    # before the embedding, the queries and the heads; the digest is of the
    # arrays in PARAM_NAMES order, and changes if stacking changes the draws.
    rng = np.random.default_rng(2024)
    params = sm.init_seg_model(5, 3, rng, num_queries=4, channels=6, num_layers=3, ffn_hidden=7)
    assert [a.shape for a in params.param_list()] == [
        (6, 5), (6,), (6, 4), (3, 6, 6), (3, 7, 6), (3, 7), (3, 6, 7), (3, 6), (4, 6), (4,),
        (6, 6), (6,)]
    digest = hashlib.sha256(b"".join(a.astype("<f8").tobytes() for a in params.param_list()))
    assert digest.hexdigest() == (
        "f6e578e0b0bedcf634ce0ccddc42f028330ce6686fc8c41c5aca52c5c05157cd")


def test_init_rejects_too_few_queries():
    rng = np.random.default_rng(6)
    with pytest.raises(ConfigError):
        sm.init_seg_model(4, 5, rng, num_queries=4)


@pytest.mark.parametrize("size", ["in_channels", "num_classes", "channels", "ffn_hidden"])
def test_init_rejects_a_size_below_one(size):
    sizes = dict(in_channels=4, num_classes=3, channels=8, ffn_hidden=8)
    sizes[size] = 0
    with pytest.raises(ConfigError):
        small_model(6, **sizes)


def test_decode_labels_idempotent():
    params = small_model(7)
    fm, _ = small_scene(7)
    pred = sm.forward(params, [fm])[0]
    (class_logits, mask_logits, _), = decode_logits(params, [fm])
    again = sm.decode_labels(class_logits, mask_logits, 4, 4)
    npt.assert_array_equal(pred.labels, again)
    assert pred.labels.dtype == again.dtype == np.uint8  # 3 classes


def test_decode_labels_of_300_classes_are_exact_uint16():
    rng = np.random.default_rng(8)
    class_logits = rng.normal(size=(2, 301, 310))
    mask_logits = rng.normal(size=(2, 310, 12))
    labels = sm.decode_labels(class_logits, mask_logits, 3, 4)
    assert labels.dtype == np.uint16
    real = sm.softmax_columns(class_logits)[:, :-1]
    expected = np.empty((2, 12), dtype=np.int64)
    for b in range(2):
        for pixel in range(12):
            scores = [sm.sigmoid(mask_logits[b, n, pixel]) * real[b, :, n].max()
                      for n in range(310)]
            expected[b, pixel] = np.argmax(real[b, :, int(np.argmax(scores))])
    assert expected.max() > 255
    npt.assert_array_equal(labels.reshape(2, 12), expected)


# ---------------------------------------------------------------------------
# seg_loss
# ---------------------------------------------------------------------------


def saturated_logits(labels, num_classes, num_queries, logit=30.0):
    """(class logits, mask logits) that predict ``labels`` with confidence."""
    h, w = labels.shape
    flat = labels.reshape(-1)
    class_logits = np.full((num_classes + 1, num_queries), -logit)
    for n in range(num_queries):
        target = n if n < num_classes else num_classes
        class_logits[target, n] = logit
    mask_logits = np.full((num_queries, h * w), -logit)
    for n in range(num_classes):
        mask_logits[n, flat == n] = logit
    return class_logits, mask_logits


def test_seg_loss_perfect_prediction_is_tiny():
    _, labels = small_scene(8)
    loss, _, _ = sm.seg_loss(*saturated_logits(labels, 3, 4), labels)
    assert loss < 0.01


def test_seg_loss_gradcheck_at_logits():
    # 8x8 instance; gradients are taken at the prediction logits.
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=(8, 8))

    def f(flat):
        cls, mlog = flat
        loss, d_cls, d_mlog = sm.seg_loss(cls, mlog, labels)
        return loss, [d_cls, d_mlog]

    cls0 = rng.normal(size=(4, 4))
    mlog0 = rng.normal(size=(4, 64))
    assert gradcheck(f, [cls0, mlog0]) <= 1e-4


def test_seg_loss_class_permutation_symmetry():
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 3, size=(4, 4))
    cls = rng.normal(size=(4, 4))
    mlog = rng.normal(size=(4, 16))
    loss, _, _ = sm.seg_loss(cls, mlog, labels)

    # swap classes 0 and 1 in the labels, the class rows, the query columns
    # and the mask rows: the fixed assignment means the loss cannot change
    perm_labels = labels.copy()
    perm_labels[labels == 0] = 1
    perm_labels[labels == 1] = 0
    cls_p = cls[:, [1, 0, 2, 3]][[1, 0, 2, 3], :]
    mlog_p = mlog[[1, 0, 2, 3], :]
    loss_p, _, _ = sm.seg_loss(cls_p, mlog_p, perm_labels)
    assert loss_p == pytest.approx(loss, abs=1e-12)


def test_seg_loss_rejects_out_of_range_labels():
    _, labels = small_scene(11)
    logits = saturated_logits(labels, 3, 4)
    bad = labels.copy()
    bad[0, 0] = 3
    with pytest.raises(InputError):
        sm.seg_loss(*logits, bad)


def test_seg_loss_rejects_non_integer_labels():
    _, labels = small_scene(11)
    with pytest.raises(InputError, match="integers"):
        sm.seg_loss(*saturated_logits(labels, 3, 4), labels.astype(float))
    # a pixel labelled 2.5 would match no query's class and count as
    # background for every query
    fm, _ = small_scene(11)
    with pytest.raises(InputError, match="integers"):
        sm.model_loss_and_grads(small_model(11), [sm.TrainItem(fm, np.full((4, 4), 2.5))])


def test_seg_loss_pixel_weights_scale_mask_term():
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 3, size=(4, 4))
    cls = rng.normal(size=(4, 4))
    mlog = rng.normal(size=(4, 16))
    base, _, _ = sm.seg_loss(cls, mlog, labels)
    doubled, _, _ = sm.seg_loss(cls, mlog, labels, pixel_weights=np.full(16, 2.0))
    class_part, _, _ = sm.seg_loss(cls, np.zeros((4, 16)), labels, pixel_weights=np.zeros(16))
    mask_part = base - class_part
    assert doubled == pytest.approx(class_part + 2.0 * mask_part, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_seg_loss_rejects_non_finite_or_negative_pixel_weights(bad):
    rng = np.random.default_rng(14)
    labels = rng.integers(0, 3, size=(2, 4, 4))
    weights = np.ones((2, 16))
    weights[1, 5] = bad
    with pytest.raises(InputError, match="pixel weights"):
        sm.seg_loss(rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 16)), labels,
                    pixel_weights=weights)


@pytest.mark.parametrize("weighted", [False, True])
def test_seg_loss_mask_term_is_bitwise_the_where_formula(weighted):
    # Today's expressions as the oracle; saturated logits put probabilities
    # beyond the clamp on both sides.
    rng = np.random.default_rng(13)
    num_classes, num_queries, h, w = 5, 8, 96, 96
    labels = rng.integers(0, num_classes, size=(h, w))
    mlog = rng.normal(scale=8.0, size=(num_queries, h * w))
    mlog[:, :50] = rng.choice([-40.0, 40.0, 16.1, -16.1], size=(num_queries, 50))
    cls = rng.normal(size=(num_classes + 1, num_queries))
    weights = rng.uniform(0.5, 2.0, size=h * w) if weighted else None
    loss, _, d_mask = sm.seg_loss(cls, mlog, labels, pixel_weights=weights)
    class_loss, _, _ = sm.seg_loss(cls, mlog, labels, pixel_weights=np.zeros(h * w))

    probs = sm.sigmoid(mlog)
    y = np.stack([labels.reshape(-1) == n for n in range(num_queries)])
    clamped = np.clip(probs, LOSS_EPS, 1.0 - LOSS_EPS)
    bce = -np.log(np.where(y, clamped, 1.0 - clamped))
    inside = (probs > LOSS_EPS) & (probs < 1.0 - LOSS_EPS)
    ref_d_mask = np.where(inside, probs - y, 0.0)
    assert (probs < LOSS_EPS).any() and (probs > 1.0 - LOSS_EPS).any()
    if weighted:
        bce *= weights
        ref_d_mask *= weights
    scale = 1.0 / (num_queries * h * w)
    ref_d_mask *= scale
    assert loss == class_loss + float(np.sum(bce) * scale)
    # bit patterns, so a -0.0 where the oracle writes +0.0 fails
    assert np.array_equal(d_mask.view(np.uint64), ref_d_mask.view(np.uint64))


# ---------------------------------------------------------------------------
# full-model gradients
# ---------------------------------------------------------------------------


def test_model_gradcheck_all_trainable_paths():
    errs = []
    seed = 1000
    perturb = np.random.default_rng(99)
    while len(errs) < 20:
        instance = gradcheck_instance(seed, perturb)
        seed += 1
        if instance is None:
            continue
        params, fm, labels, key_mask = instance

        item = sm.TrainItem(fm, labels, key_mask)

        def f(flat, params=params, item=item):
            return one_item_loss_and_grads(params.with_params(flat), item, lambda_m=0.5)

        def loss(flat, params=params, item=item):
            return one_item_loss(params.with_params(flat), item, lambda_m=0.5)

        errs.append(gradcheck(f, params.param_list(), loss=loss))
    assert max(errs) <= 1e-4


def test_model_gradcheck_vanilla_mode():
    errs = []
    for seed in (100, 101, 102, 103, 104):
        rng = np.random.default_rng(seed)
        fm = FeatureMap.from_grid(0.25 * rng.normal(size=(4, 4, 4)))
        labels = rng.integers(0, 3, size=(4, 4))
        params = small_model(seed)

        item = sm.TrainItem(fm, labels)

        def f(flat, params=params, item=item):
            return one_item_loss_and_grads(params.with_params(flat), item, lambda_m=1.0)

        def loss(flat, params=params, item=item):
            return one_item_loss(params.with_params(flat), item, lambda_m=1.0)

        errs.append(gradcheck(f, params.param_list(), loss=loss))
    assert max(errs) <= 1e-4


def test_ungated_step_forms_no_channels_by_pixels_array():
    # A (C, H*W) float array is 1.2 MB here; with the embedding folded into
    # the queries a step forms none.  Its (N, H*W) arrays, 0.59 MB each, are
    # built in place and dropped at their last reader: the sigmoid and the
    # mask loss fill two buffers, and the mask logits, their gradient and
    # each layer's score gradient go once read.  The step peaks at 3.94 MB;
    # with those arrays copied or kept to the end it peaked at 4.81 MB.
    rng = np.random.default_rng(14)
    params = sm.init_seg_model(16, 5, rng)  # C 16, N 8, 3 layers
    fm = FeatureMap.from_grid(rng.normal(size=(96, 96, 16)))
    item = sm.TrainItem(fm, rng.integers(0, 5, size=(96, 96)))
    sm.model_loss_and_grads(params, [item])  # first-call caches
    _, _, peak = traced_memory(lambda: sm.model_loss_and_grads(params, [item]))
    assert peak < 4.4e6


def test_forward_keeps_no_layer_arrays():
    # A decode keeps labels only: each batch's logits, 0.59 MB per 96x96
    # image, are freed once its labels are decoded, and no layer's backward
    # arrays are kept, since each layer's (N, H*W) weights are freed as the
    # next layer runs.  With every layer's arrays kept the peak is above 4 MB.
    # A batch's logits are freed before the next batch runs: kept until the
    # next batch's replace them, the twelve images peak at 2.3 MB.
    rng = np.random.default_rng(15)
    params = sm.init_seg_model(16, 5, rng)  # C 16, N 8, 3 layers, FFN 32
    for count, size, batches, peak_bound in [(1, 96, 1, 3e6), (12, 32, 3, 2e6)]:
        fms = [FeatureMap.from_grid(rng.normal(size=(size, size, 16))) for _ in range(count)]
        assert len(sm._batches(params, fms)) == batches
        sm.forward(params, fms)  # first-call caches
        preds, kept, peak = traced_memory(lambda: sm.forward(params, fms))
        assert [p.labels.shape for p in preds] == [(size, size)] * count
        assert kept < 0.2e6
        assert peak < peak_bound


def test_warm_96x96_calls_do_not_fault_freed_memory_back_in():
    # Each call frees MBs of temporaries.  With glibc's default dynamic
    # thresholds the heap top was trimmed after every call and faulted back
    # in by the next: 544 minor faults per forward, 1,120 per step.
    resource = pytest.importorskip("resource")
    import segxfer
    if segxfer._mallopt is None:
        pytest.skip("the C library has no mallopt")
    rng = np.random.default_rng(16)
    params = sm.init_seg_model(16, 5, rng)  # C 16, N 8, 3 layers
    fm = FeatureMap.from_grid(rng.normal(size=(96, 96, 16)))
    item = sm.TrainItem(fm, rng.integers(0, 5, size=(96, 96)))
    calls = {"forward": lambda: sm.forward(params, [fm]),
             "model_loss_and_grads": lambda: sm.model_loss_and_grads(params, [item])}
    for call in 2 * list(calls.values()):
        call()
    for name, call in calls.items():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 64, name


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def make_items(seed, count=50, h=8, w=8, d=4, num_classes=3):
    rng = np.random.default_rng(seed)
    protos = np.eye(num_classes, d)
    items = []
    for _ in range(count):
        labels = rng.integers(0, num_classes, size=(h, w))
        feats = protos[labels.reshape(-1)] + 0.2 * rng.standard_normal((h * w, d))
        items.append(sm.TrainItem(FeatureMap(h, w, feats), labels))
    return items


def test_train_loss_decreases_median_over_seeds():
    drops = []
    for seed in range(5):
        items = make_items(seed)
        params = small_model(seed)
        _, losses = sm.train(params, items, steps=300, batch_size=4,
                             lr=1e-3, seed=seed)
        drops.append(np.mean(losses[-20:]) - np.mean(losses[:20]))
    assert np.median(drops) < 0.0


def test_train_zero_lr_keeps_params_bitwise():
    items = make_items(1, count=4)
    params = small_model(1)
    before = [a.copy() for a in params.param_list()]
    trained, _ = sm.train(params, items, steps=3, batch_size=2, lr=0.0, seed=0)
    for a, b in zip(before, trained.param_list()):
        npt.assert_array_equal(a, b)


def test_train_loss_log_length():
    items = make_items(2, count=4)
    params = small_model(2)
    _, losses = sm.train(params, items, steps=7, batch_size=2, lr=1e-3, seed=0)
    assert len(losses) == 7


def test_train_deterministic():
    items = make_items(3, count=6)
    params = small_model(3)
    t1, l1 = sm.train(params, items, steps=5, batch_size=2, lr=1e-3, seed=4)
    t2, l2 = sm.train(params, items, steps=5, batch_size=2, lr=1e-3, seed=4)
    assert l1 == l2
    for a, b in zip(t1.param_list(), t2.param_list()):
        npt.assert_array_equal(a, b)


class ReadLog(list):
    """A list that records every index read from it."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, idx):
        self.reads.append(int(idx))
        return super().__getitem__(idx)


def per_draw_train(params, items, steps, batch_size, lr, seed):
    """``train`` with one loss and gradient evaluation per draw, each a
    one-item batch, and the per-array AdamW loop."""
    rng = np.random.default_rng(seed)
    flat = [a.copy() for a in params.param_list()]
    state = ListAdamWState.for_params(flat, lr=lr, weight_decay=0.01)
    losses = []
    for _ in range(steps):
        picks = rng.integers(0, len(items), size=batch_size)
        total, acc = 0.0, None
        current = params.with_params(flat)
        for idx in picks:
            loss, grads = one_item_loss_and_grads(current, items[idx])
            total += loss
            acc = grads if acc is None else [a + g for a, g in zip(acc, grads)]
        flat = list_adamw_step(state, flat, [a / batch_size for a in acc])
        losses.append(total / batch_size)
    return params.with_params(flat), losses


def test_train_duplicate_draws_match_per_draw_loop(monkeypatch):
    items = make_items(4, count=3)
    items[1].pixel_weights = np.linspace(0.5, 1.5, 64)
    params = small_model(4)
    steps, batch = 4, 5  # 5 draws from 3 items: every batch repeats an index
    evaluations = []  # items evaluated, per call

    def counted(params, batch_items, **kwargs):
        evaluations.append(len(batch_items))
        return model_loss_and_grads(params, batch_items, **kwargs)

    model_loss_and_grads = sm.model_loss_and_grads
    monkeypatch.setattr(sm, "model_loss_and_grads", counted)
    log = ReadLog(items)
    trained, losses = sm.train(params, log, steps=steps, batch_size=batch, lr=1e-2, seed=5)
    monkeypatch.undo()

    assert len(log.reads) == steps * batch  # items[idx] is read on every draw
    per_step = [log.reads[i:i + batch] for i in range(0, len(log.reads), batch)]
    assert evaluations == [len(set(step)) for step in per_step]  # one call per step
    assert sum(evaluations) < steps * batch

    ref_params, ref_losses = per_draw_train(params, items, steps, batch, 1e-2, 5)
    assert losses == ref_losses
    for a, b in zip(trained.param_list(), ref_params.param_list()):
        npt.assert_array_equal(a, b)


def test_train_returns_params_that_own_their_arrays():
    items = make_items(2, count=4)
    params = small_model(2)
    before = [a.copy() for a in params.param_list()]
    first, losses = sm.train(params, items, steps=3, batch_size=2, lr=1e-2, seed=1)
    assert all(a.base is None for a in first.param_list())  # no view of a shared buffer
    reference = [a.copy() for a in first.param_list()]
    for a in first.param_list():
        a[...] = np.nan
    second, again = sm.train(params, items, steps=3, batch_size=2, lr=1e-2, seed=1)
    assert again == losses
    for a, b in zip(second.param_list(), reference):
        npt.assert_array_equal(a, b)
    for a, b in zip(params.param_list(), before):  # the input is left alone
        npt.assert_array_equal(a, b)


def test_train_rejects_empty_dataset():
    with pytest.raises(InputError):
        sm.train(small_model(4), [], steps=1, lr=1e-2)


@pytest.mark.parametrize("kwargs", [{"batch_size": 0}, {"batch_size": -1}, {"steps": -3}],
                         ids=["0", "-1", "steps_-3"])
def test_train_rejects_batch_size_below_one(kwargs):
    fm, labels = small_scene(4)
    items = [sm.TrainItem(fm, labels)]
    with pytest.raises(InputError, match="batch size >= 1 and steps >= 0"):
        sm.train(small_model(4), items, **{"steps": 1, **kwargs}, lr=1e-2)


def test_train_of_no_steps_returns_the_params_unchanged():
    fm, labels = small_scene(4)
    params = small_model(4)
    trained, losses = sm.train(params, [sm.TrainItem(fm, labels)], steps=0, lr=1e-2)
    assert losses == []
    for a, b in zip(trained.param_list(), params.param_list()):
        npt.assert_array_equal(a, b)


def test_param_list_follows_param_names():
    params = small_model(8)
    for name, a in zip(sm.PARAM_NAMES, params.param_list(), strict=True):
        assert a is getattr(params, name)
    rebuilt = params.with_params(params.param_list())
    assert rebuilt.num_classes == params.num_classes
    for a, b in zip(rebuilt.param_list(), params.param_list()):
        assert a is b
    with pytest.raises(ShapeError):
        params.with_params(params.param_list()[:-1])
