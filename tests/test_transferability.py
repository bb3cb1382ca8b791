import numpy as np
import numpy.testing as npt
import pytest

from segxfer import adaptive_cluster as ac
from segxfer import transferability as tr
from segxfer.errors import InputError
from segxfer.numkit import MlpParams


def gaussian_domains(seed, n=300, d=8, separation=0.0):
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(n, d)) + separation / 2.0
    target = rng.normal(size=(n, d)) - separation / 2.0
    return source, target


def constant_net(in_dim, logit):
    """MLP whose output is sigmoid(logit) regardless of input."""
    return MlpParams(
        weights=[np.zeros((2, in_dim)), np.zeros((1, 2))],
        biases=[np.zeros(2), np.array([float(logit)])],
    )


def first_coord_net(in_dim, gain):
    """MLP computing sigmoid(gain * x[0]) via a +/- ReLU pair."""
    w0 = np.zeros((2, in_dim))
    w0[0, 0] = 1.0
    w0[1, 0] = -1.0
    return MlpParams(
        weights=[w0, np.array([[gain, -gain]])],
        biases=[np.zeros(2), np.zeros(1)],
    )


# ---------------------------------------------------------------------------
# train_discriminator
# ---------------------------------------------------------------------------


def test_identical_distributions_stay_near_chance():
    for seed in range(5):
        source, target = gaussian_domains(seed, n=300)
        result = tr.train_discriminator(source, target, epochs=4, seed=seed)
        assert 0.40 <= result.log.epoch_accuracies[-1] <= 0.60


def test_separable_domains_reach_high_accuracy():
    for seed in range(5):
        source, target = gaussian_domains(seed, n=300, separation=6.0)
        result = tr.train_discriminator(source, target, epochs=4, seed=seed)
        assert result.log.epoch_accuracies[-1] >= 0.95


def test_training_loss_decreases_in_median():
    drops = []
    for seed in range(5):
        source, target = gaussian_domains(seed, n=300, separation=2.0)
        result = tr.train_discriminator(source, target, epochs=5, seed=seed)
        drops.append(result.log.epoch_losses[-1] - result.log.epoch_losses[0])
    assert np.median(drops) < 0.0


def test_train_discriminator_rejects_empty_domain():
    with pytest.raises(InputError):
        tr.train_discriminator(np.zeros((0, 4)), np.ones((5, 4)))


def test_train_discriminator_deterministic():
    source, target = gaussian_domains(3, n=100, separation=1.0)
    r1 = tr.train_discriminator(source, target, epochs=2, seed=9)
    r2 = tr.train_discriminator(source, target, epochs=2, seed=9)
    for w1, w2 in zip(r1.params.weights, r2.params.weights):
        npt.assert_array_equal(w1, w2)
    assert r1.log.epoch_losses == r2.log.epoch_losses


def test_train_discriminator_logs_every_epoch():
    source, target = gaussian_domains(4, n=60)
    result = tr.train_discriminator(source, target, epochs=3, seed=0)
    assert len(result.log.epoch_losses) == 3
    assert len(result.log.epoch_accuracies) == 3
    # the PAD is read off the last epoch's held-out score
    assert result.pad.epsilon == 1.0 - result.log.epoch_accuracies[-1]
    assert result.pad == tr.PadEstimate.from_accuracy(result.log.epoch_accuracies[-1])


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_discriminator_scores_held_out_split_once_per_epoch(monkeypatch, epochs):
    held_out_forwards = []
    forward = tr.mlp_forward_batch

    def spy(params, x):
        held_out_forwards.append(x.shape[0])
        return forward(params, x)

    monkeypatch.setattr(tr, "mlp_forward_batch", spy)
    source, target = gaussian_domains(4, n=60)
    tr.train_discriminator(source, target, epochs=epochs, seed=0)
    assert held_out_forwards == [24] * epochs  # 12 held-out rows per domain


@pytest.mark.parametrize("kwargs", [{"epochs": 0}, {"epochs": -1},
                                    {"batch_size": 1}, {"batch_size": 0}, {"hidden": (0,)}],
                         ids=["epochs_0", "epochs_-1", "batch_1", "batch_0", "hidden_0"])
def test_train_discriminator_rejects_no_epoch_or_batch_below_two(kwargs):
    source, target = gaussian_domains(4, n=20)
    with pytest.raises(InputError):
        tr.train_discriminator(source, target, **kwargs)


# ---------------------------------------------------------------------------
# region_transferability_batch
# ---------------------------------------------------------------------------


def test_transferability_full_confusion():
    params = constant_net(4, 0.0)  # E = 0.5
    assert tr.region_transferability_batch(params, np.ones(4)) == pytest.approx([1.0])


def test_transferability_full_certainty():
    params = constant_net(4, 50.0)  # E ~ 1
    assert tr.region_transferability_batch(params, np.ones(4)) == pytest.approx([0.0], abs=1e-9)


def test_transferability_formula_point():
    params = constant_net(4, np.log(4.0))  # E = 0.8
    assert tr.region_transferability_batch(params, np.ones(4)) == pytest.approx([0.4], abs=1e-9)


def test_transferability_always_in_unit_interval():
    rng = np.random.default_rng(5)
    from segxfer.numkit import init_mlp
    params = init_mlp(6, (8,), rng)
    scores = tr.region_transferability_batch(params, rng.normal(size=(40, 6)) * 5)
    assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


# ---------------------------------------------------------------------------
# build_transferability_map
# ---------------------------------------------------------------------------


def test_map_identical_regions_share_one_value():
    fm = ac.FeatureMap(8, 8, np.tile([1.0, 2.0], (64, 1)))
    state = ac.cluster(fm, 4)
    rng = np.random.default_rng(6)
    from segxfer.numkit import init_mlp
    params = init_mlp(2, (4,), rng)
    tmap = tr.build_transferability_map(params, state)
    assert np.unique(tmap.pixel).size == 1


def test_map_source_identifiable_region_scores_zero():
    # Region 0's center is perfectly source-identifiable to a saturated
    # first-coordinate net; the remaining centers sit at its decision point.
    fm = ac.FeatureMap(8, 8, np.zeros((64, 2)))
    state = ac.init_grid(ac.cell_layout(fm, 4))
    state.centers = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    params = first_coord_net(2, 80.0)
    tmap = tr.build_transferability_map(params, state)
    flat = tmap.pixel.reshape(-1)
    region0 = state.hard_labels == 0
    npt.assert_allclose(flat[region0], 0.0, atol=1e-9)
    npt.assert_allclose(flat[~region0], 1.0, atol=1e-9)


def test_map_is_piecewise_constant_on_partition():
    rng = np.random.default_rng(7)
    fm = ac.FeatureMap.from_grid(rng.normal(size=(8, 8, 3)))
    state = ac.cluster(fm, 4)
    from segxfer.numkit import init_mlp
    params = init_mlp(3, (4,), rng)
    tmap = tr.build_transferability_map(params, state)
    flat = tmap.pixel.reshape(-1)
    npt.assert_array_equal(flat, tmap.region_scores[state.hard_labels])


# ---------------------------------------------------------------------------
# PAD from the held-out balanced accuracy
# ---------------------------------------------------------------------------


def pad_of(params, features, n_source):
    """The PAD of a held-out split whose first ``n_source`` rows are source."""
    return tr.PadEstimate.from_accuracy(
        tr._balanced_accuracy(params, np.asarray(features, dtype=float), n_source))


def test_pad_indistinguishable():
    # A constant-output net predicts source for everything: balanced error 0.5.
    params = constant_net(2, 0.0)
    pad = pad_of(params, np.zeros((4, 2)), 2)
    assert pad.epsilon == pytest.approx(0.5)
    assert pad.distance == pytest.approx(0.0)


def test_pad_perfectly_separable():
    params = first_coord_net(2, 80.0)
    features = np.array([[1.0, 0.0], [1.0, 0.5], [-1.0, 0.0], [-1.0, 0.5]])
    pad = pad_of(params, features, 2)
    assert pad.epsilon == pytest.approx(0.0)
    assert pad.distance == pytest.approx(2.0)


def test_pad_linear_formula_point():
    # Source half wrong, target all right: eps = (0.5 + 0) / 2 = 0.25.
    params = first_coord_net(2, 80.0)
    features = np.array([[1.0, 0.0], [-1.0, 0.0], [-1.0, 1.0], [-1.0, 2.0]])
    pad = pad_of(params, features, 2)
    assert pad.epsilon == pytest.approx(0.25)
    assert pad.distance == pytest.approx(1.0)


def test_pad_monotone_in_error():
    params = first_coord_net(2, 80.0)
    d0 = pad_of(params, [[1.0, 0.0], [-1.0, 0.0]], 1).distance
    d25 = pad_of(params, [[1.0, 0.0], [-1.0, 0.0], [-1.0, 1.0], [-1.0, 2.0]], 2).distance
    d50 = pad_of(constant_net(2, 0.0), np.zeros((2, 2)), 1).distance
    assert d0 > d25 > d50


# ---------------------------------------------------------------------------
# label-flip symmetry
# ---------------------------------------------------------------------------


def test_label_flip_symmetry():
    acc_gaps = []
    t_gaps = []
    for seed in range(5):
        source, target = gaussian_domains(seed, n=200, separation=3.0)
        fwd = tr.train_discriminator(source, target, epochs=4, seed=seed)
        rev = tr.train_discriminator(target, source, epochs=4, seed=seed)
        acc_gaps.append(abs(fwd.log.epoch_accuracies[-1] - rev.log.epoch_accuracies[-1]))
        probe = np.vstack([source[:50], target[:50]])
        t_fwd = tr.region_transferability_batch(fwd.params, probe)
        t_rev = tr.region_transferability_batch(rev.params, probe)
        t_gaps.append(float(np.mean(np.abs(t_fwd - t_rev))))
    assert np.median(acc_gaps) <= 0.10
    assert np.median(t_gaps) <= 0.20
