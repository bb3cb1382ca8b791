import numpy as np
import numpy.testing as npt
import pytest

from segxfer import synthdata as sd
from segxfer.errors import ConfigError, InputError
from tracepeak import traced_memory


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


def test_generate_equals_the_out_of_place_formula_on_clutter():
    # The features are built in place from the normals; IEEE + and * commute,
    # so they equal protos[flat] + noise_by_class[flat, None] * normals bit
    # for bit, with per-class noise scales and a camouflage class too.
    cfg = small_config(height=32, width=32, sigma=0.5, noise_scales=(1, 1, 1, 4),
                       camouflage_classes=(1,))
    for domain in (sd.SOURCE, sd.TARGET):
        rng = np.random.default_rng([cfg.seed, sd._DOMAIN_CODE[domain], 1])
        protos = sd.class_prototypes(cfg, domain)
        noise_by_class = cfg.class_noise()
        for img in sd.generate(cfg, 2, domain, stream=1):
            flat = sd._sample_layout(cfg, rng).reshape(-1)
            noise = noise_by_class[flat, None] * rng.standard_normal(
                (cfg.height * cfg.width, cfg.channels))
            camo = flat == 1
            assert camo.any()
            noise[np.ix_(camo, np.arange(cfg.num_classes, cfg.channels))] = 0.0
            expected = protos[flat] + noise
            npt.assert_array_equal(img.labels.reshape(-1), flat)
            assert img.fm.features.tobytes() == expected.tobytes()


def test_generate_drops_each_image_arrays_before_the_next():
    # The normals become an image's features in place, so besides its map's
    # copy an image forms one feature-sized array and the prototype rows it
    # adds.  Two 96x96 images peak 1.17 feature maps above what they
    # return.  Built out of place, with one image's noise and features still
    # held while the next was drawn, they peaked 3.17 above.
    cfg = small_config(height=96, width=96)
    feature_map = cfg.height * cfg.width * cfg.channels * 8
    sd.generate(cfg, 1, sd.TARGET)  # first-call caches
    images, kept, peak = traced_memory(lambda: sd.generate(cfg, 2, sd.TARGET))
    assert len(images) == 2
    assert peak - kept < 2 * feature_map


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
    cfg = small_config(rectangular_layout=False, height=32, width=32)
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
    for dim in ("height", "width"):
        for size in (-4, 0):      # both pass the layout grid's divisibility check
            with pytest.raises(ConfigError):
                small_config(**{dim: size})
    with pytest.raises(ConfigError):
        small_config(seed=-1)     # not a generator seed
    for bad in (np.nan, np.inf, -np.inf):  # non-finite features, found late otherwise
        for field in ("delta", "sigma"):
            with pytest.raises(ConfigError):
                small_config(**{field: bad})
        with pytest.raises(ConfigError):
            small_config(noise_scales=(1.0, bad, 1.0, 1.0))


def test_generate_validation():
    cfg = small_config()
    with pytest.raises(InputError):
        sd.generate(cfg, 0, sd.SOURCE)
    with pytest.raises(InputError):
        sd.generate(cfg, 1, "weird")
    with pytest.raises(InputError):
        sd.generate(cfg, 1, sd.SOURCE, stream=-1)
    for count, stream in ((1.5, 0), (True, 0), (np.float64(2.0), 0), (1, 1.5), (1, True)):
        with pytest.raises(InputError, match="must be an integer"):
            sd.generate(cfg, count, sd.SOURCE, stream=stream)
    assert len(sd.generate(cfg, np.int64(2), sd.SOURCE, stream=np.uint8(1))) == 2


def test_labeled_image_rejects_bits_of_another_shape():
    img = sd.generate(small_config(), 1, sd.TARGET)[0]
    with pytest.raises(InputError):
        sd.LabeledImage(img.fm, img.labels, img.transfer_bits[:, :-1])


@pytest.mark.parametrize("bad", [2, 0.5, -1, np.nan])
def test_labeled_image_rejects_bits_other_than_0_and_1(bad):
    img = sd.generate(small_config(), 1, sd.TARGET)[0]
    bits = img.transfer_bits.astype(float)
    bits[0, 0] = bad
    with pytest.raises(InputError, match="transfer bits"):
        sd.LabeledImage(img.fm, img.labels, bits)
    bits[0, 0] = 1.0
    assert sd.LabeledImage(img.fm, img.labels, bits).transfer_bits.dtype == np.uint8


def test_generate_stores_labels_in_the_narrowest_unsigned_type():
    img = sd.generate(small_config(), 1, sd.SOURCE)[0]
    assert img.labels.dtype == np.uint8


@pytest.mark.parametrize("bad", [1.7, -1])
def test_labeled_image_rejects_labels_that_are_not_non_negative_integers(bad):
    img = sd.generate(small_config(), 1, sd.TARGET)[0]
    labels = img.labels.astype(type(bad))
    labels[3, 5] = bad
    with pytest.raises(InputError):
        sd.LabeledImage(img.fm, labels, img.transfer_bits)
