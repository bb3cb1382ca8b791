import json

import numpy as np
import numpy.testing as npt
import pytest

from adamw_oracle import ListAdamWState, list_adamw_step
from gradcheck import gradcheck
from segxfer import segmodel as sm
from segxfer.adaptive_cluster import FeatureMap
from segxfer.errors import ConfigError, InputError, ShapeError
from segxfer.serialize import save_arrays
from segxfer.transferability import TransferabilityMap


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


def seam_margins(params, cache, lambda_m):
    """Distance of the closest layer mask probability to lambda_m and of the
    closest FFN pre-activation to 0.  The loss is only piecewise smooth;
    gradient checks need these margins to stay away from the seams."""
    mask_margin = relu_margin = np.inf
    for lc in cache.layers:
        memb = params.mask_w @ lc.q_in + params.mask_b[:, None]
        probs = sm.sigmoid(memb.T @ cache.embed)
        mask_margin = min(mask_margin, float(np.min(np.abs(probs - lambda_m))))
        relu_margin = min(relu_margin, float(np.min(np.abs(lc.z))))
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
    for layer in params.layers:
        layer.self_w += 0.05 * perturb.normal(size=layer.self_w.shape)
    tmap = TransferabilityMap(np.zeros(1), rng.random((4, 4)), "t")
    mask_margin, relu_margin = seam_margins(params, sm._forward(params, fm, tmap, 0.5, 60.0), 0.5)
    if mask_margin < 5e-3 or relu_margin < 1e-2:
        return None
    return params, fm, labels, tmap


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_shape_contract():
    rng = np.random.default_rng(1)
    params = sm.init_seg_model(16, 8, rng, num_queries=8, channels=16,
                               num_layers=3, ffn_hidden=32)
    fm = FeatureMap.from_grid(rng.normal(size=(32, 32, 16)))
    pred = sm.forward(params, fm)
    assert pred.class_probs.shape == (8, 9)
    assert pred.mask_probs.shape == (8, 1024)
    assert pred.labels.shape == (32, 32)
    assert pred.fallback_slots == 3 * 8


def test_forward_all_ones_tmap_at_p100_equals_vanilla():
    params = small_model(2)
    fm, _ = small_scene(2)
    tmap = TransferabilityMap(np.ones(4), np.ones((4, 4)), "ones")
    gated = sm.forward(params, fm, tmap=tmap, lambda_m=0.5, p_t=100.0)
    vanilla = sm.forward(params, fm, tmap=None, lambda_m=0.5)
    npt.assert_allclose(gated.class_logits, vanilla.class_logits, atol=1e-9)
    npt.assert_allclose(gated.mask_logits, vanilla.mask_logits, atol=1e-9)
    npt.assert_array_equal(gated.labels, vanilla.labels)


def test_forward_deterministic():
    params = small_model(3)
    fm, _ = small_scene(3)
    p1 = sm.forward(params, fm)
    p2 = sm.forward(params, fm)
    npt.assert_array_equal(p1.class_logits, p2.class_logits)
    npt.assert_array_equal(p1.mask_logits, p2.mask_logits)
    npt.assert_array_equal(p1.labels, p2.labels)


def test_forward_rejects_channel_mismatch():
    params = small_model(4)
    fm, _ = small_scene(4, d=5)
    with pytest.raises(ShapeError):
        sm.forward(params, fm)


def test_forward_rejects_wrong_tmap_shape():
    params = small_model(5)
    fm, _ = small_scene(5)
    bad = TransferabilityMap(np.zeros(1), np.ones((3, 3)), "bad")
    with pytest.raises(ShapeError):
        sm.forward(params, fm, tmap=bad)


def test_init_rejects_too_few_queries():
    rng = np.random.default_rng(6)
    with pytest.raises(ConfigError):
        sm.init_seg_model(4, 5, rng, num_queries=4)


def test_decode_labels_idempotent():
    params = small_model(7)
    fm, _ = small_scene(7)
    pred = sm.forward(params, fm)
    again = sm.decode_labels(pred.class_probs, pred.mask_probs, 4, 4)
    npt.assert_array_equal(pred.labels, again)


# ---------------------------------------------------------------------------
# seg_loss
# ---------------------------------------------------------------------------


def saturated_prediction(labels, num_classes, num_queries, logit=30.0):
    h, w = labels.shape
    flat = labels.reshape(-1)
    class_logits = np.full((num_classes + 1, num_queries), -logit)
    for n in range(num_queries):
        target = n if n < num_classes else num_classes
        class_logits[target, n] = logit
    mask_logits = np.full((num_queries, h * w), -logit)
    for n in range(num_classes):
        mask_logits[n, flat == n] = logit
    return sm.prediction_from_logits(class_logits, mask_logits, h, w)


def test_seg_loss_perfect_prediction_is_tiny():
    _, labels = small_scene(8)
    pred = saturated_prediction(labels, 3, 4)
    loss, _, _ = sm.seg_loss(pred, labels)
    assert loss < 0.01


def test_seg_loss_gradcheck_at_logits():
    # 8x8 instance; gradients are taken at the prediction logits.
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=(8, 8))

    def f(flat):
        cls, mlog = flat
        pred = sm.prediction_from_logits(cls, mlog, 8, 8)
        loss, d_cls, d_mlog = sm.seg_loss(pred, labels)
        return loss, [d_cls, d_mlog]

    cls0 = rng.normal(size=(4, 4))
    mlog0 = rng.normal(size=(4, 64))
    assert gradcheck(f, [cls0, mlog0]) <= 1e-4


def test_seg_loss_class_permutation_symmetry():
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 3, size=(4, 4))
    cls = rng.normal(size=(4, 4))
    mlog = rng.normal(size=(4, 16))
    pred = sm.prediction_from_logits(cls, mlog, 4, 4)
    loss, _, _ = sm.seg_loss(pred, labels)

    # swap classes 0 and 1 in the labels, the class rows, the query columns
    # and the mask rows: the fixed assignment means the loss cannot change
    perm_labels = labels.copy()
    perm_labels[labels == 0] = 1
    perm_labels[labels == 1] = 0
    cls_p = cls[:, [1, 0, 2, 3]][[1, 0, 2, 3], :]
    mlog_p = mlog[[1, 0, 2, 3], :]
    pred_p = sm.prediction_from_logits(cls_p, mlog_p, 4, 4)
    loss_p, _, _ = sm.seg_loss(pred_p, perm_labels)
    assert loss_p == pytest.approx(loss, abs=1e-12)


def test_seg_loss_rejects_out_of_range_labels():
    _, labels = small_scene(11)
    pred = saturated_prediction(labels, 3, 4)
    bad = labels.copy()
    bad[0, 0] = 3
    with pytest.raises(InputError):
        sm.seg_loss(pred, bad)


def test_seg_loss_pixel_weights_scale_mask_term():
    rng = np.random.default_rng(12)
    labels = rng.integers(0, 3, size=(4, 4))
    cls = rng.normal(size=(4, 4))
    mlog = rng.normal(size=(4, 16))
    pred = sm.prediction_from_logits(cls, mlog, 4, 4)
    base, _, _ = sm.seg_loss(pred, labels)
    doubled, _, _ = sm.seg_loss(pred, labels, pixel_weights=np.full(16, 2.0))
    class_part, _, _ = sm.seg_loss(
        sm.prediction_from_logits(cls, np.zeros((4, 16)), 4, 4), labels,
        pixel_weights=np.zeros(16))
    mask_part = base - class_part
    assert doubled == pytest.approx(class_part + 2.0 * mask_part, rel=1e-9)


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
        params, fm, labels, tmap = instance

        def f(flat, params=params, fm=fm, labels=labels, tmap=tmap):
            cur = params.with_params(flat)
            return sm.model_loss_and_grads(cur, fm, labels, tmap=tmap,
                                           lambda_m=0.5, p_t=60.0)

        errs.append(gradcheck(f, params.param_list()))
    assert max(errs) <= 1e-4


def test_model_gradcheck_vanilla_mode():
    errs = []
    for seed in (100, 101, 102, 103, 104):
        rng = np.random.default_rng(seed)
        fm = FeatureMap.from_grid(0.25 * rng.normal(size=(4, 4, 4)))
        labels = rng.integers(0, 3, size=(4, 4))
        params = small_model(seed)

        def f(flat, params=params, fm=fm, labels=labels):
            cur = params.with_params(flat)
            return sm.model_loss_and_grads(cur, fm, labels, lambda_m=1.0)

        errs.append(gradcheck(f, params.param_list()))
    assert max(errs) <= 1e-4


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
    for wd in (0.0, 0.01):
        trained, _ = sm.train(params, items, steps=3, batch_size=2, lr=0.0,
                              weight_decay=wd, seed=0)
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
    """``train`` with one loss and gradient evaluation per draw, and the
    per-array AdamW loop."""
    rng = np.random.default_rng(seed)
    flat = [a.copy() for a in params.param_list()]
    state = ListAdamWState.for_params(flat, lr=lr, weight_decay=0.01)
    losses = []
    for _ in range(steps):
        picks = rng.integers(0, len(items), size=batch_size)
        total, acc = 0.0, None
        current = params.with_params(flat)
        for idx in picks:
            item = items[idx]
            loss, grads = sm.model_loss_and_grads(current, item.fm, item.labels,
                                                  pixel_weights=item.pixel_weights)
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
    evaluations = []

    def counted(*args, **kwargs):
        evaluations.append(1)
        return model_loss_and_grads(*args, **kwargs)

    model_loss_and_grads = sm.model_loss_and_grads
    monkeypatch.setattr(sm, "model_loss_and_grads", counted)
    log = ReadLog(items)
    trained, losses = sm.train(params, log, steps=steps, batch_size=batch, lr=1e-2, seed=5)
    monkeypatch.undo()

    assert len(log.reads) == steps * batch  # items[idx] is read on every draw
    per_step = [log.reads[i:i + batch] for i in range(0, len(log.reads), batch)]
    assert len(evaluations) == sum(len(set(step)) for step in per_step) < steps * batch

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
        sm.train(small_model(4), [], steps=1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    params = small_model(5)
    bin_path, json_path = tmp_path / "m.bin", tmp_path / "m.json"
    sm.save_params(params, bin_path, json_path)
    loaded = sm.load_params(bin_path, json_path)
    assert loaded.num_classes == params.num_classes
    for a, b in zip(params.param_list(), loaded.param_list()):
        npt.assert_array_equal(a, b)


def test_save_is_byte_deterministic(tmp_path):
    params = small_model(6)
    sm.save_params(params, tmp_path / "a.bin", tmp_path / "a.json")
    sm.save_params(params, tmp_path / "b.bin", tmp_path / "b.json")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def _saved_model(tmp_path):
    """A 2-layer, 3-class model on disk, plus its parsed manifest."""
    bin_path, json_path = tmp_path / "m.bin", tmp_path / "m.json"
    sm.save_params(small_model(7), bin_path, json_path)
    return bin_path, json_path, json.loads(json_path.read_text())


@pytest.mark.parametrize("meta", [
    {"num_layers": 2},
    {"num_classes": 3},
    {"num_classes": 3, "num_layers": 0},
    {"num_classes": 3, "num_layers": 2.0},
    {"num_classes": True, "num_layers": 2},
    {"num_classes": "3", "num_layers": 2},
], ids=["no_classes", "no_layers", "zero_layers", "float_layers", "bool_classes",
        "string_classes"])
def test_load_rejects_bad_meta_counts(tmp_path, meta):
    bin_path, json_path, manifest = _saved_model(tmp_path)
    manifest["meta"] = meta
    json_path.write_text(json.dumps(manifest))
    with pytest.raises(InputError):
        sm.load_params(bin_path, json_path)


@pytest.mark.parametrize("num_layers", [1, 3, 10**12],
                         ids=["extra_arrays", "missing_arrays", "absurd_layer_count"])
def test_load_rejects_arrays_not_matching_layer_count(tmp_path, num_layers):
    bin_path, json_path, manifest = _saved_model(tmp_path)
    manifest["meta"]["num_layers"] = num_layers
    json_path.write_text(json.dumps(manifest))
    with pytest.raises(InputError):
        sm.load_params(bin_path, json_path)


def test_load_rejects_missing_array(tmp_path):
    named = small_model(7).named_arrays()
    del named["mask_b"]
    bin_path, json_path = tmp_path / "m.bin", tmp_path / "m.json"
    save_arrays(named, bin_path, json_path, meta={"num_classes": 3, "num_layers": 2})
    with pytest.raises(InputError):
        sm.load_params(bin_path, json_path)


def test_load_rejects_class_head_of_wrong_size(tmp_path):
    bin_path, json_path, manifest = _saved_model(tmp_path)
    manifest["meta"]["num_classes"] = 2
    json_path.write_text(json.dumps(manifest))
    with pytest.raises(InputError):
        sm.load_params(bin_path, json_path)


def test_named_arrays_follow_param_list_order():
    params = small_model(8)
    named = params.named_arrays()
    assert tuple(named) == sm.param_names(2)
    for a, b in zip(named.values(), params.param_list()):
        assert a is b
    rebuilt = params.with_params(list(named.values()))
    for a, b in zip(rebuilt.param_list(), params.param_list()):
        assert a is b
    with pytest.raises(ShapeError):
        params.with_params(params.param_list()[:-1])
