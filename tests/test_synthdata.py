import numpy as np
import numpy.testing as npt
import pytest

from segxfer import synthdata as sd
from segxfer.errors import ConfigError, InputError


def small_config(**kw):
    defaults = dict(height=16, width=16, channels=16, num_classes=4,
                    shift_classes=(2, 3), delta=1.0, sigma=0.2, seed=0)
    defaults.update(kw)
    return sd.SynthConfig(**defaults)


def test_prototypes_identical_when_delta_zero():
    cfg = small_config(delta=0.0)
    npt.assert_array_equal(sd.class_prototypes(cfg, sd.SOURCE),
                           sd.class_prototypes(cfg, sd.TARGET))


def test_prototypes_shift_only_selected_classes():
    cfg = small_config(delta=1.5)
    src = sd.class_prototypes(cfg, sd.SOURCE)
    tgt = sd.class_prototypes(cfg, sd.TARGET)
    npt.assert_array_equal(src[0], tgt[0])
    npt.assert_array_equal(src[1], tgt[1])
    for c in (2, 3):
        diff = tgt[c] - src[c]
        assert np.linalg.norm(diff) == pytest.approx(1.5)
        assert diff @ src[c] == pytest.approx(0.0)  # orthogonal offset


def test_generate_deterministic():
    cfg = small_config()
    a = sd.generate(cfg, 3, sd.TARGET)
    b = sd.generate(cfg, 3, sd.TARGET)
    for x, y in zip(a, b):
        npt.assert_array_equal(x.fm.features, y.fm.features)
        npt.assert_array_equal(x.labels, y.labels)


def test_generate_streams_are_independent():
    cfg = small_config()
    train = sd.generate(cfg, 2, sd.TARGET, stream=0)
    evals = sd.generate(cfg, 2, sd.TARGET, stream=1)
    assert not np.array_equal(train[0].fm.features, evals[0].fm.features)


def test_generate_domains_differ():
    cfg = small_config()
    src = sd.generate(cfg, 2, sd.SOURCE)
    tgt = sd.generate(cfg, 2, sd.TARGET)
    assert not np.array_equal(src[0].fm.features, tgt[0].fm.features)


def test_transfer_bits_follow_classes_in_both_domains():
    cfg = small_config()
    for domain in (sd.SOURCE, sd.TARGET):
        for img in sd.generate(cfg, 3, domain):
            expected = (~np.isin(img.labels, [2, 3])).astype(np.uint8)
            npt.assert_array_equal(img.transfer_bits, expected)


def test_every_class_covers_five_percent():
    cfg = small_config()
    threshold = 0.05 * cfg.height * cfg.width
    for img in sd.generate(cfg, 20, sd.SOURCE):
        counts = np.bincount(img.labels.reshape(-1), minlength=cfg.num_classes)
        assert np.all(counts >= threshold)


def test_shifted_class_features_move_by_delta():
    cfg = small_config(sigma=0.0, delta=2.0)
    src = sd.generate(cfg, 1, sd.SOURCE)[0]
    tgt = sd.generate(cfg, 1, sd.TARGET)[0]
    half = cfg.channels // 2
    sel = tgt.labels.reshape(-1) == 2
    if not sel.any():  # layout is random; make sure class 2 exists
        pytest.skip("class 2 absent from this layout")
    feats = tgt.fm.features[sel]
    npt.assert_allclose(feats[:, half + 2], 2.0, atol=1e-12)
    src_sel = src.labels.reshape(-1) == 2
    npt.assert_allclose(src.fm.features[src_sel][:, half + 2], 0.0, atol=1e-12)


def test_irregular_layout_flag():
    cfg = small_config(rectangular=False, height=32, width=32)
    imgs = sd.generate(cfg, 5, sd.SOURCE)
    threshold = 0.05 * cfg.height * cfg.width
    for img in imgs:
        counts = np.bincount(img.labels.reshape(-1), minlength=cfg.num_classes)
        assert np.all(counts >= threshold)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(shift_classes=(9,))
    with pytest.raises(ConfigError):
        small_config(delta=-1.0)
    with pytest.raises(ConfigError):
        small_config(channels=6)  # < 2 * num_classes
    with pytest.raises(ConfigError):
        small_config(height=30)   # layout grid must divide


def test_generate_validation():
    cfg = small_config()
    with pytest.raises(InputError):
        sd.generate(cfg, 0, sd.SOURCE)
    with pytest.raises(InputError):
        sd.generate(cfg, 1, "weird")
