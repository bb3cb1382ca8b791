import dataclasses
import hashlib

import numpy as np
import pytest

from segxfer import adaptive_cluster, experiments, segmodel
from segxfer.adaptive_cluster import ClusterState, FeatureMap
from segxfer.errors import InputError, ShapeError
from segxfer.experiments import confusion_matrix
from segxfer.synthdata import LabeledImage
from segxfer.runconfig import RunConfig


def test_confusion_matrix_counts_pairs():
    cm = confusion_matrix(np.array([[0, 1], [2, 2]]), np.array([[0, 2], [2, 1]]), 3)
    assert cm.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 1]]


def test_confusion_matrix_rejects_empty_label_maps():
    with pytest.raises(InputError):
        confusion_matrix(np.zeros((0, 4), dtype=int), np.zeros((0, 4), dtype=int), 3)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_confusion_matrix_matches_a_per_pixel_loop(k):
    rng = np.random.default_rng(k)
    # class k - 1 appears in neither map when k > 1
    truth = rng.integers(0, max(k - 1, 1), size=(6, 7))
    pred = rng.integers(0, max(k - 1, 1), size=(6, 7))
    cm = confusion_matrix(truth, pred, k) + confusion_matrix(pred, truth, k)
    expected = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(np.concatenate([truth.ravel(), pred.ravel()]),
                    np.concatenate([pred.ravel(), truth.ravel()])):
        expected[t, p] += 1
    assert cm.dtype == np.int64
    assert np.array_equal(cm, expected)


@pytest.mark.parametrize("truth, pred", [
    (np.zeros(4, dtype=int), np.zeros(5, dtype=int)),
    (np.array([0, 3]), np.array([0, 1])),
    (np.array([0, 1]), np.array([-1, 1])),
], ids=["size_mismatch", "truth_out_of_range", "pred_negative"])
def test_confusion_matrix_rejects_bad_label_maps(truth, pred):
    with pytest.raises(InputError):
        confusion_matrix(truth, pred, 3)


@pytest.mark.parametrize("truth, pred", [
    (np.array([0.0, 1.7]), np.array([0, 1])),
    (np.array([0, 1]), np.array([0.0, 1.0])),
], ids=["float_truth", "float_pred"])
def test_confusion_matrix_rejects_non_integer_label_maps(truth, pred):
    # truth 1.7 would count as class 1; a float prediction would reach np.bincount
    with pytest.raises(InputError):
        confusion_matrix(truth, pred, 3)


def test_rank_auc_averages_ties():
    # positive/negative pairs: (0.4, 0.1) 1, (0.4, 0.4) 1/2, (0.8, 0.1) 1, (0.8, 0.4) 1
    auc = experiments.rank_auc(np.array([0.1, 0.4, 0.4, 0.8]), np.array([0, 0, 1, 1]))
    assert auc == 3.5 / 4
    assert experiments.rank_auc(np.ones(4), np.array([0, 1, 0, 1])) == 0.5


@pytest.mark.parametrize("scores, labels", [
    ([0.1, np.nan, 0.3], [0, 1, 1]),
    ([0.1, np.inf, 0.3], [0, 1, 1]),
    ([0.1, 0.2, 0.3], [0, 1, 2]),
    ([0.1, 0.2, 0.3], [-1, 0, 1]),
    ([0.1, 0.2, 0.3], [0, 1, 0.5]),
    ([0.1, 0.2, 0.3], [0, 1]),
], ids=["nan_score", "inf_score", "label_2", "label_-1", "label_half", "fewer_labels"])
def test_rank_auc_rejects_non_finite_scores_and_non_binary_or_missing_labels(scores, labels):
    with pytest.raises(InputError):
        experiments.rank_auc(np.array(scores), np.array(labels))


def _state_with_labels(hard_labels, height, width, num_regions):
    return ClusterState(height=height, width=width, centers=np.zeros((num_regions, 1)),
                        hard_labels=hard_labels)


def _image(labels):
    labels = np.asarray(labels)
    fm = FeatureMap(labels.shape[0], labels.shape[1], np.zeros((labels.size, 1)))
    return LabeledImage(fm=fm, labels=labels,
                        transfer_bits=(~np.isin(labels, [2, 3])).astype(np.uint8))


def _truth_bits_loop(state, image):
    flat_bits = image.transfer_bits.reshape(-1)
    out = np.full(state.num_regions, -1, dtype=int)
    for i in range(state.num_regions):
        pixels = np.flatnonzero(state.hard_labels == i)
        if len(pixels):
            out[i] = int(np.round(flat_bits[pixels].mean()))
    return out


def test_region_truth_bits_hand_built():
    # classes 2 and 3 are shifted (bit 0); 0 and 1 transfer (bit 1)
    image = _image([[0, 1, 2, 3],
                    [2, 2, 0, 3]])
    hard = np.array([0, 0, 1, 1,
                     0, 1, 2, 2])
    # region 0: bits 1, 1, 0 -> 1; region 1: 0, 0, 0 -> 0;
    # region 2: 1, 0 -> an even split, rounded half to even -> 0; region 3 empty
    state = _state_with_labels(hard, 2, 4, 4)
    assert experiments.region_truth_bits(state, image).tolist() == [1, 0, 0, -1]


def test_region_truth_bits_matches_the_per_region_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        height, width = rng.integers(1, 9, size=2)
        num_regions = int(rng.integers(1, 12))
        image = _image(rng.integers(0, 4, size=(height, width)))
        hard = rng.integers(0, num_regions, size=height * width)
        state = _state_with_labels(hard, height, width, num_regions)
        got = experiments.region_truth_bits(state, image)
        assert got.dtype == int
        assert np.array_equal(got, _truth_bits_loop(state, image))


def test_region_truth_bits_rejects_mismatched_image():
    state = _state_with_labels(np.zeros(8, dtype=int), 2, 4, 1)
    with pytest.raises(ShapeError):
        experiments.region_truth_bits(state, _image(np.zeros((2, 3), dtype=int)))


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

TINY = dict(height=16, width=16, source_count=6, target_count=6, eval_count=4,
            source_steps=6, finetune_steps=6, batch_size=2, disc_epochs=2, seeds=(0, 1, 2))
HEADER = "variant,seed,p_T,miou,macc,pad,fallback_rate"


@pytest.fixture(scope="module")
def tiny_report():
    return experiments.run_ablation(RunConfig(**TINY))


def test_run_ablation_one_row_per_variant_per_seed(tiny_report):
    rows = [(r.variant, r.seed) for r in tiny_report.rows]
    assert rows == [(v, s) for s in TINY["seeds"] for v in experiments.VARIANTS]
    for r in tiny_report.rows:
        assert 0.0 <= r.miou <= 1.0 and 0.0 <= r.macc <= 1.0
        assert r.p_t == RunConfig().p_t
        assert len(r.train_losses) == TINY["finetune_steps"]
        assert np.all(np.isfinite(r.train_losses))
    assert tiny_report.config == RunConfig(**TINY).to_dict()


def test_report_csv_header_and_footer(tiny_report):
    lines = experiments.report_csv(tiny_report).splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 1 + len(tiny_report.rows)
    assert all(len(line.split(",")) == 7 for line in lines[1:])
    with_footer = experiments.report_csv(tiny_report, footer=True).splitlines()
    assert with_footer[:-1] == lines
    assert with_footer[-1] == "# default p_T: 30"


def test_variants_train_with_the_same_seed_and_items(monkeypatch):
    config = RunConfig(**dict(TINY, finetune_steps=2))
    bundle = experiments.prepare_seed(config, 0)
    calls = []
    train = experiments.train

    def recorded(params, items, **kwargs):
        calls.append((kwargs["seed"], kwargs["steps"], len(items)))
        return train(params, items, **kwargs)

    monkeypatch.setattr(experiments, "train", recorded)
    for variant in experiments.VARIANTS:
        experiments.finetune_variant(bundle, config, variant)
    assert len(calls) == len(experiments.VARIANTS)
    assert len(set(calls)) == 1
    assert calls[0][2] == config.target_count


# The clutter scenario: noisier, less separable data where mIoU is not
# saturated.
CLUTTER = dict(sigma=0.5, noise_scales=(1.0, 1.0, 1.0, 4.0), camouflage_classes=(1,))


def _sha256(report):
    return hashlib.sha256(experiments.report_csv(report, footer=True).encode()).hexdigest()


def test_tiny_report_csv_bytes_are_pinned(tiny_report):
    assert _sha256(tiny_report) == (
        "59b7803b1a591a0a5f2324e2224d1e0f34a8bfd0125200816bbf6b341fb2d107")


def test_tiny_clutter_report_csv_bytes_are_pinned():
    report = experiments.run_ablation(RunConfig(**TINY, **CLUTTER))
    assert _sha256(report) == (
        "3364aa8cb1f91cb90983b3a2d978f4e0177fb72e907779469b0e58cc79c29f1b")


def test_ablation_rejects_fewer_than_three_seeds_before_any_seed_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "prepare_seed", lambda config, seed: calls.append(seed))
    with pytest.raises(InputError):
        experiments.run_ablation(RunConfig(**dict(TINY, seeds=(0, 1))))
    assert calls == []


@pytest.mark.parametrize("p", [150.0, -5.0, float("nan")])
def test_sweep_rejects_a_non_percentile_before_any_seed_runs(monkeypatch, p):
    calls = []
    monkeypatch.setattr(experiments, "prepare_seed", lambda config, seed: calls.append(seed))
    with pytest.raises(InputError):
        experiments.sweep_pt(RunConfig(**TINY), p_values=(30, p))
    assert calls == []


@pytest.mark.parametrize("p_values", [(30, 30.0), (10, 30, 10)])
def test_sweep_rejects_a_repeated_percentile_before_any_seed_runs(monkeypatch, p_values):
    calls = []
    monkeypatch.setattr(experiments, "prepare_seed", lambda config, seed: calls.append(seed))
    monkeypatch.setattr(experiments, "finetune_variant", lambda *args: calls.append(args))
    with pytest.raises(InputError):
        experiments.sweep_pt(RunConfig(**TINY), p_values=p_values)
    assert calls == []


def test_tiny_clutter_sweep_csv_bytes_are_pinned():
    report = experiments.sweep_pt(RunConfig(**TINY, **CLUTTER), p_values=(10, 30, 50))
    assert [r.seed for r in report.rows] == [s for s in report.config["seeds"] for _ in range(3)]
    assert _sha256(report) == (
        "b41cf659c62fb3ef8768622e8fc300be5ae6169399042e0ec50c3620f092f4a8")


def test_grid_branch_is_built_on_first_use(monkeypatch):
    config = RunConfig(**dict(TINY, finetune_steps=2))
    seeds = []
    train_discriminator = experiments.train_discriminator

    def counted(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return train_discriminator(*args, **kwargs)

    monkeypatch.setattr(experiments, "train_discriminator", counted)
    bundle = experiments.prepare_seed(config, 0)
    assert len(seeds) == 1
    for variant in ("tmt", "no_tma", "vanilla"):
        experiments.finetune_variant(bundle, config, variant)
    assert len(seeds) == 1
    first = experiments.finetune_variant(bundle, config, "no_acte")
    assert len(seeds) == 2
    second = experiments.finetune_variant(bundle, config, "no_acte")
    assert len(seeds) == 2
    assert seeds[1] == seeds[0] + experiments._DISC_SEED_OFFSET
    assert (first.miou, first.pad, first.train_losses) == (
        second.miou, second.pad, second.train_losses)

    # Built right after prepare_seed, the branch is the same.
    eager = experiments.prepare_seed(config, 0)
    eager_disc, eager_pad = eager.disc_grid, eager.pad_grid
    assert len(seeds) == 4
    assert eager_pad == bundle.pad_grid
    assert eager_disc.log == bundle.disc_grid.log
    for a, b in zip(eager_disc.params.param_list(), bundle.disc_grid.params.param_list()):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(eager.grid.target_tmaps, bundle.grid.target_tmaps):
        assert a.pixel.tobytes() == b.pixel.tobytes()

    # The grid branch keeps its own target regions, the grid cells, and its
    # T-maps are its discriminator's maps of them; the bundle's target
    # states are the adaptive branch's.
    grid = bundle.grid
    rows, cols = np.divmod(np.arange(config.height * config.width), config.width)
    cells = rows // config.r * (config.width // config.r) + cols // config.r
    assert len(grid.target_states) == config.target_count
    for state, tmap in zip(grid.target_states, grid.target_tmaps):
        assert np.array_equal(state.hard_labels, cells)
        expected = experiments.build_transferability_map(grid.disc.params, state)
        assert tmap.region_scores.tobytes() == expected.region_scores.tobytes()
        assert tmap.pixel.tobytes() == expected.pixel.tobytes()
    assert bundle.target_states is bundle.adaptive.target_states


@pytest.fixture(scope="module")
def tiny_bundle():
    return experiments.prepare_seed(RunConfig(**dict(TINY, finetune_steps=1)), 0)


@pytest.mark.parametrize("name", experiments.VARIANTS)
def test_each_table_row_routes_its_transferability_map(monkeypatch, tiny_bundle, name):
    row = experiments.VARIANT_TABLE[name]
    assert row.regions in ("adaptive", "grid") and row.use_t in ("gate", "weight", None)
    config = tiny_bundle.config
    trained, forwarded = [], []
    train, forward = experiments.train, experiments.forward

    def recorded_train(params, items, **kwargs):
        trained.extend(items)
        return train(params, items, **kwargs)

    def recorded_forward(params, fms, key_masks, **kwargs):
        forwarded.append((fms, key_masks))
        return forward(params, fms, key_masks, **kwargs)

    monkeypatch.setattr(experiments, "train", recorded_train)
    monkeypatch.setattr(experiments, "forward", recorded_forward)
    result = experiments.finetune_variant(tiny_bundle, config, name)

    branch = tiny_bundle.branch(row.regions)
    assert result.pad == branch.disc.pad.distance
    assert len(trained) == config.target_count
    for item, tmap in zip(trained, branch.target_tmaps):
        if row.use_t == "gate":
            assert np.array_equal(item.key_mask, experiments.key_mask(tmap.pixel, config.p_t))
            assert item.pixel_weights is None
        elif row.use_t == "weight":
            assert item.key_mask is None
            assert np.array_equal(item.pixel_weights, 1.0 + (1.0 - tmap.pixel.reshape(-1)))
        else:
            assert item.key_mask is None and item.pixel_weights is None

    # evaluation decodes every held-out image in one forward call, with key
    # masks only for gate rows, from the row's discriminator's T-map of the
    # row's regions of each held-out image
    assert len(forwarded) == 1
    fms, key_masks = forwarded[0]
    assert len(fms) == config.eval_count
    assert all(fm is img.fm for fm, img in zip(fms, tiny_bundle.eval_images))
    if row.use_t != "gate":
        assert key_masks is None
        return
    assert len(key_masks) == config.eval_count
    for img, mask in zip(tiny_bundle.eval_images, key_masks):
        expected = experiments.build_transferability_map(
            branch.disc.params, experiments._regions(config, row.regions, img))
        assert mask.dtype == bool
        assert np.array_equal(mask, experiments.key_mask(expected.pixel, config.p_t))


@pytest.mark.parametrize("steps", [1, 4])
def test_finetune_decides_each_gate_once_per_image(monkeypatch, tiny_bundle, steps):
    # one threshold per target image and per held-out image, however often
    # training draws an image
    config = dataclasses.replace(tiny_bundle.config, finetune_steps=steps)
    bundle = experiments.prepare_seed(config, 0)
    thresholds = []
    percentile_threshold = segmodel.percentile_threshold

    def spy(values, p):
        thresholds.append(p)
        return percentile_threshold(values, p)

    monkeypatch.setattr(segmodel, "percentile_threshold", spy)
    experiments.finetune_variant(bundle, config, "tmt", 40.0)
    assert thresholds == [40.0] * (config.target_count + config.eval_count)


@pytest.mark.parametrize("changes", [
    dict(r=8), dict(disc_epochs=1), dict(num_queries=12), dict(source_count=2, sigma=0.9),
    dict(lambda_m=1.0), dict(num_classes=5), dict(finetune_steps=4),
], ids=lambda changes: ",".join(changes))
def test_finetune_rejects_a_config_other_than_the_bundles(monkeypatch, tiny_bundle, changes):
    # the bundle was prepared with its own config; a fine-tune under any
    # other would mix the two
    calls = []
    monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: calls.append(args))
    config = dataclasses.replace(tiny_bundle.config, **changes)
    with pytest.raises(InputError):
        experiments.finetune_variant(tiny_bundle, config, "tmt")
    assert calls == []


def _with_fresh_eval_maps(bundle):
    """``bundle`` with held-out feature maps that have clustered nothing."""
    images = [dataclasses.replace(img, fm=FeatureMap(img.fm.height, img.fm.width, img.fm.features))
              for img in bundle.eval_images]
    return dataclasses.replace(bundle, eval_images=images)


def test_gated_eval_clusters_held_out_images_with_the_bundles_settings(monkeypatch, tiny_bundle):
    # the branch's discriminator was trained on regions of the bundle's r, tau
    # and iterations, so held-out images are clustered the same way
    config = tiny_bundle.config
    calls = []
    cluster = experiments.cluster

    def recorded_cluster(fm, stride, tau, iters):
        calls.append((stride, tau, iters))
        return cluster(fm, stride, tau=tau, iters=iters)

    monkeypatch.setattr(experiments, "cluster", recorded_cluster)
    experiments.evaluate_variant(tiny_bundle.source_params, tiny_bundle, "tmt", 30.0)
    assert calls == [(config.r, config.tau, config.cluster_iters)] * len(tiny_bundle.eval_images)


def test_gated_eval_clusters_each_held_out_image_once(monkeypatch, tiny_bundle):
    config = tiny_bundle.config
    p_values = (10, 50)
    # each reference call gets maps of its own, so it clusters every image from scratch
    expected = [experiments.evaluate_variant(tiny_bundle.source_params,
                                             _with_fresh_eval_maps(tiny_bundle), "tmt", p)[0]
                for p in p_values]
    bundle = _with_fresh_eval_maps(tiny_bundle)
    calls = []
    soft_assign = adaptive_cluster.soft_assign

    def counted_soft_assign(similarity):
        calls.append(similarity.shape)
        return soft_assign(similarity)

    monkeypatch.setattr(adaptive_cluster, "soft_assign", counted_soft_assign)
    got = [experiments.evaluate_variant(tiny_bundle.source_params, bundle, "tmt", p)[0]
           for p in p_values]
    assert len(calls) == config.eval_count * config.cluster_iters
    for cm, ref in zip(got, expected):
        assert np.array_equal(cm, ref)


@pytest.mark.parametrize("p", [150.0, -5.0, float("nan")])
@pytest.mark.parametrize("name", ["vanilla", "no_tma", "tmt"])
def test_variant_rejects_a_non_percentile_before_training(monkeypatch, tiny_bundle, name, p):
    calls = []
    monkeypatch.setattr(experiments, "train", lambda *args, **kwargs: calls.append(args))
    config = tiny_bundle.config
    with pytest.raises(InputError):
        experiments.finetune_variant(tiny_bundle, config, name, p)
    assert calls == []
    with pytest.raises(InputError):
        experiments.evaluate_variant(tiny_bundle.source_params, tiny_bundle, name, p)


def test_unknown_variant_is_rejected(tiny_bundle):
    config = tiny_bundle.config
    with pytest.raises(InputError):
        experiments.finetune_variant(tiny_bundle, config, "no_such_variant")
    with pytest.raises(InputError):
        experiments.evaluate_variant(tiny_bundle.source_params, tiny_bundle, "no_such_variant",
                                     config.p_t)
