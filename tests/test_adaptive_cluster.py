import numpy as np
import numpy.testing as npt
import pytest

import cluster_oracle
from segxfer import adaptive_cluster as ac
from segxfer.errors import ConfigError, ShapeError
from tracepeak import traced_memory


def block_image(block_features, block_size):
    """(gh, gw, d) block prototypes -> constant-block FeatureMap."""
    grid = np.repeat(np.repeat(block_features, block_size, axis=0), block_size, axis=1)
    return ac.FeatureMap.from_grid(grid)


def four_block_map(block_size=4):
    protos = np.eye(4).reshape(2, 2, 4)
    return block_image(protos, block_size)


def offset_row(dy, dx):
    """Candidate row of the cell at offset (dy, dx) from a pixel's own cell."""
    return ac.OFFSETS.index((dy, dx))


# ---------------------------------------------------------------------------
# init_grid
# ---------------------------------------------------------------------------


def test_init_grid_centers_are_cell_means():
    rng = np.random.default_rng(0)
    fm = ac.FeatureMap.from_grid(rng.normal(size=(8, 8, 3)))
    state = ac.init_grid(ac.cell_layout(fm, 4))
    assert state.num_regions == 4
    grid = fm.features.reshape(8, 8, 3)
    for cy in range(2):
        for cx in range(2):
            cell = grid[cy * 4:(cy + 1) * 4, cx * 4:(cx + 1) * 4]
            npt.assert_allclose(state.centers[cy * 2 + cx], cell.mean(axis=(0, 1)),
                                atol=1e-12)


def test_init_grid_constant_image_equal_centers():
    fm = ac.FeatureMap(8, 8, np.tile([1.0, 2.0], (64, 1)))
    state = ac.init_grid(ac.cell_layout(fm, 4))
    npt.assert_allclose(state.centers, np.tile([1.0, 2.0], (4, 1)), atol=1e-12)


def test_init_grid_neighbor_counts_12x12():
    rng = np.random.default_rng(1)
    fm = ac.FeatureMap.from_grid(rng.normal(size=(12, 12, 2)))
    layout = ac.cell_layout(fm, 4)
    state = ac.init_grid(layout)
    assert state.num_regions == 9
    corner = 0            # pixel (0, 0): its cell plus right, down, diag
    center = 5 * 12 + 5   # pixel (5, 5) sits in the middle cell
    regions = cluster_oracle.candidate_regions(12, 12, 4)
    assert np.count_nonzero(regions[:, corner] >= 0) == 4
    assert np.count_nonzero(regions[:, center] >= 0) == 9
    d = ac.compute_similarity(state.centers, layout, 0.07)
    assert np.count_nonzero(np.isfinite(d[:, corner])) == 4
    assert np.count_nonzero(np.isfinite(d[:, center])) == 9


def test_init_grid_labels_are_the_read_only_cell_map():
    fm = ac.FeatureMap.from_grid(np.random.default_rng(4).normal(size=(8, 12, 2)))
    state = ac.init_grid(ac.cell_layout(fm, 4))
    y, x = np.divmod(np.arange(8 * 12), 12)
    npt.assert_array_equal(state.hard_labels, (y // 4) * 3 + x // 4)
    with pytest.raises(ValueError):
        state.hard_labels[0] = 1


def test_init_grid_stride_must_divide():
    rng = np.random.default_rng(2)
    fm = ac.FeatureMap.from_grid(rng.normal(size=(8, 8, 2)))
    with pytest.raises(ConfigError):
        ac.init_grid(ac.cell_layout(fm, 3))


def test_init_grid_assignment_is_cell_one_hot(monkeypatch):
    rng = np.random.default_rng(3)
    fm = ac.FeatureMap.from_grid(rng.normal(size=(8, 8, 2)))
    state, assign = cluster_oracle.seeded_grid(monkeypatch, ac.cell_layout(fm, 4))
    npt.assert_allclose(assign.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(assign[ac.OWN_CELL] == 1.0)
    regions = cluster_oracle.candidate_regions(8, 8, 4)
    npt.assert_array_equal(regions[ac.OWN_CELL], state.hard_labels)


# ---------------------------------------------------------------------------
# compute_similarity
# ---------------------------------------------------------------------------


def test_similarity_identical_vectors():
    fm = four_block_map()
    layout = ac.cell_layout(fm, 4)
    d = ac.compute_similarity(ac.init_grid(layout).centers, layout, 1.0)
    # pixel 0 lives in region 0 whose center equals its feature
    assert d[ac.OWN_CELL, 0] == pytest.approx(1.0, abs=1e-9)


def test_similarity_orthogonal_vectors():
    fm = four_block_map()
    layout = ac.cell_layout(fm, 4)
    d = ac.compute_similarity(ac.init_grid(layout).centers, layout, 1.0)
    # region 1, the cell right of pixel 0's, has a prototype orthogonal to it
    assert cluster_oracle.candidate_regions(8, 8, 4)[offset_row(0, 1), 0] == 1
    assert d[offset_row(0, 1), 0] == pytest.approx(0.0, abs=1e-9)


def test_similarity_non_neighbor_is_minus_inf():
    rng = np.random.default_rng(4)
    fm = ac.FeatureMap.from_grid(rng.normal(size=(12, 12, 2)))
    layout = ac.cell_layout(fm, 4)
    d = ac.compute_similarity(ac.init_grid(layout).centers, layout, 0.07)
    # pixel (0, 0): the far corner region 8 is not a candidate, and the
    # candidates above and left of the grid are -inf
    regions = cluster_oracle.candidate_regions(12, 12, 4)
    assert 8 not in regions[:, 0]
    assert d[offset_row(-1, -1), 0] == -np.inf
    npt.assert_array_equal(np.isfinite(d), regions >= 0)


def test_similarity_temperature_scales():
    fm = four_block_map()
    layout = ac.cell_layout(fm, 4)
    centers = ac.init_grid(layout).centers
    s1 = ac.compute_similarity(centers, layout, 1.0)
    s2 = ac.compute_similarity(centers, layout, 0.5)
    finite = np.isfinite(s1)
    npt.assert_allclose(s2[finite], 2.0 * s1[finite], atol=1e-9)


def test_similarity_zero_norm_never_raises():
    fm = ac.FeatureMap(4, 4, np.zeros((16, 3)))
    layout = ac.cell_layout(fm, 4)
    d = ac.compute_similarity(ac.init_grid(layout).centers, layout, 0.07)
    assert np.all(np.isfinite(d) | (d == -np.inf))


def test_similarity_rejects_bad_temperature():
    # nan would fail late, as a degenerate soft assignment; inf would give
    # one region
    fm = four_block_map()
    layout = ac.cell_layout(fm, 4)
    centers = ac.init_grid(layout).centers
    for tau in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            ac.cluster(fm, 4, tau=tau)
        with pytest.raises(ConfigError):
            ac.compute_similarity(centers, layout, tau)


# ---------------------------------------------------------------------------
# soft_assign / update_centers
# ---------------------------------------------------------------------------


def test_soft_assign_equal_neighbors():
    d = np.full((4, 1), -np.inf)
    d[1:3, 0] = 2.0
    a = ac.soft_assign(d)
    npt.assert_allclose(a[1:3, 0], 0.5, atol=1e-12)
    assert a[0, 0] == 0.0 and a[3, 0] == 0.0


def test_soft_assign_single_neighbor():
    d = np.full((3, 1), -np.inf)
    d[2, 0] = -1.3
    a = ac.soft_assign(d)
    npt.assert_array_equal(a[:, 0], [0.0, 0.0, 1.0])


def test_soft_assign_two_neighbor_softmax():
    d = np.array([[1.0], [2.0]])
    a = ac.soft_assign(d)
    npt.assert_allclose(a[:, 0], [0.2689, 0.7311], atol=1e-4)


def test_update_centers_one_hot_means():
    rng = np.random.default_rng(5)
    # 2 x 4 image, stride 2: cell 0 holds pixels 0, 1, 4, 5; cell 1 the rest
    fm = ac.FeatureMap(2, 4, rng.normal(size=(8, 2)))
    assign = np.zeros((9, 8))
    assign[ac.OWN_CELL, [0, 1, 4, 2, 3, 6, 7]] = 1.0
    assign[offset_row(0, 1), 5] = 1.0  # pixel 5 goes to the cell on its right
    centers = ac.update_centers(assign, ac.cell_layout(fm, 2))
    npt.assert_allclose(centers[0], fm.features[[0, 1, 4]].mean(axis=0), atol=1e-12)
    npt.assert_allclose(centers[1], fm.features[[2, 3, 5, 6, 7]].mean(axis=0), atol=1e-12)


def test_update_centers_uniform_pair_mean():
    u, v = np.array([1.0, 0.0]), np.array([0.0, 3.0])
    fm = ac.FeatureMap(1, 2, np.vstack([u, v]))
    # stride 1: each pixel splits evenly between its own cell and the other one
    assign = np.zeros((9, 2))
    assign[ac.OWN_CELL] = 0.5
    assign[offset_row(0, 1), 0] = 0.5
    assign[offset_row(0, -1), 1] = 0.5
    centers = ac.update_centers(assign, ac.cell_layout(fm, 1))
    npt.assert_allclose(centers, [(u + v) / 2.0] * 2, atol=1e-12)


def test_update_centers_weighted_mean_oracle():
    rng = np.random.default_rng(6)
    height, width, stride = 4, 6, 2
    grid_h, grid_w = height // stride, width // stride
    fm = ac.FeatureMap(height, width, rng.normal(size=(height * width, 4)))
    assign = rng.random((9, height * width))
    assign[cluster_oracle.candidate_regions(height, width, stride) < 0] = 0.0
    assign /= assign.sum(axis=0)
    centers = ac.update_centers(assign, ac.cell_layout(fm, stride))
    expected = np.zeros((grid_h * grid_w, 4))
    mass = np.zeros(grid_h * grid_w)
    for p in range(height * width):
        cy, cx = p // width // stride, p % width // stride
        for j, (dy, dx) in enumerate(ac.OFFSETS):
            if 0 <= cy + dy < grid_h and 0 <= cx + dx < grid_w:
                region = (cy + dy) * grid_w + cx + dx
                expected[region] += assign[j, p] * fm.features[p]
                mass[region] += assign[j, p]
    npt.assert_allclose(centers, expected / mass[:, None], atol=1e-10)


def test_update_centers_empty_region_guarded():
    fm = ac.FeatureMap(1, 2, np.array([[1.0], [2.0]]))
    # stride 1: both pixels go to region 0, region 1 is left empty
    assign = np.zeros((9, 2))
    assign[ac.OWN_CELL, 0] = 1.0
    assign[offset_row(0, -1), 1] = 1.0
    centers = ac.update_centers(assign, ac.cell_layout(fm, 1))
    assert np.all(np.isfinite(centers))
    npt.assert_allclose(centers[0], [1.5], atol=1e-12)


# ---------------------------------------------------------------------------
# cluster
# ---------------------------------------------------------------------------


def test_cluster_planted_partition_recovery():
    fm = four_block_map()
    state = ac.cluster(fm, 4, tau=0.07, iters=6)
    truth = ac.init_grid(ac.cell_layout(fm, 4)).hard_labels
    agreement = np.mean(state.hard_labels == truth)
    assert agreement >= 0.99


def test_cluster_constant_image_tie_break():
    fm = ac.FeatureMap(8, 8, np.ones((64, 2)))
    state = ac.cluster(fm, 4, tau=0.07, iters=6)
    # every neighbor is equally similar, so argmax picks the lowest index
    regions = cluster_oracle.candidate_regions(8, 8, 4)
    expected = np.where(regions >= 0, regions, state.num_regions).min(axis=0)
    npt.assert_array_equal(state.hard_labels, expected)


def final_assign(monkeypatch, fm, stride):
    """``ac.cluster(fm, stride)`` and the soft assignment of its last round."""
    state, rounds = cluster_oracle.traced_cluster(monkeypatch, fm, stride)
    return state, rounds[-1][1]


def test_cluster_cosine_scale_invariance(monkeypatch):
    rng = np.random.default_rng(7)
    fm = ac.FeatureMap.from_grid(rng.normal(size=(8, 8, 5)))
    fm3 = ac.FeatureMap(8, 8, 3.0 * fm.features)
    s1, a1 = final_assign(monkeypatch, fm, 4)
    s3, a3 = final_assign(monkeypatch, fm3, 4)
    npt.assert_allclose(a1, a3, atol=1e-6)
    npt.assert_array_equal(s1.hard_labels, s3.hard_labels)


def test_cluster_rejects_zero_iters():
    with pytest.raises(ConfigError):
        ac.cluster(four_block_map(), 4, iters=0)


def test_cluster_column_stochastic_and_local_every_iteration():
    rng = np.random.default_rng(8)
    fm = ac.FeatureMap.from_grid(rng.normal(size=(8, 8, 3)))
    layout = ac.cell_layout(fm, 4)
    off_grid = cluster_oracle.candidate_regions(8, 8, 4) < 0
    centers = ac.init_grid(layout).centers
    for _ in range(6):
        assign = ac.soft_assign(ac.compute_similarity(centers, layout, 0.07))
        centers = ac.update_centers(assign, layout)
        npt.assert_allclose(assign.sum(axis=0), 1.0, atol=1e-6)
        assert np.all(assign[off_grid] == 0.0)


def test_cluster_deterministic(monkeypatch):
    # two maps of one array, so the second call cannot return the first's memo
    grid = np.random.default_rng(9).normal(size=(8, 8, 3))
    s1, a1 = final_assign(monkeypatch, ac.FeatureMap.from_grid(grid), 4)
    s2, a2 = final_assign(monkeypatch, ac.FeatureMap.from_grid(grid), 4)
    assert s1 is not s2
    npt.assert_array_equal(a1, a2)
    npt.assert_array_equal(s1.centers, s2.centers)
    npt.assert_array_equal(s1.hard_labels, s2.hard_labels)


ROUND_FUNCTIONS = ("init_grid", "compute_similarity", "soft_assign", "update_centers")


def test_cluster_repeat_returns_memo_without_rounds(monkeypatch):
    fm = ac.FeatureMap.from_grid(np.random.default_rng(13).normal(size=(8, 8, 3)))
    first = ac.cluster(fm, 4, tau=0.1, iters=3)
    calls = []
    for name in ROUND_FUNCTIONS:
        def spy(*args, _name=name, _fn=getattr(ac, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(ac, name, spy)
    assert ac.cluster(fm, 4, tau=0.1, iters=3) is first
    assert ac.cluster(fm, 4, 0.1, 3) is first
    assert calls == []
    ac.cluster(ac.FeatureMap(8, 8, fm.features), 4, tau=0.1, iters=3)  # the spies see a miss
    assert calls.count("soft_assign") == 3


@pytest.mark.parametrize("stride, tau, iters", [(2, 0.07, 6), (4, 0.2, 6), (4, 0.07, 2)])
def test_cluster_other_arguments_recompute(stride, tau, iters):
    grid = np.random.default_rng(14).normal(size=(8, 8, 3))
    fm = ac.FeatureMap.from_grid(grid)
    base = ac.cluster(fm, 4)
    state = ac.cluster(fm, stride, tau=tau, iters=iters)
    fresh = ac.cluster(ac.FeatureMap.from_grid(grid), stride, tau=tau, iters=iters)
    assert state is not base
    assert np.array_equal(state.centers, fresh.centers)
    assert np.array_equal(state.hard_labels, fresh.hard_labels)
    assert ac.cluster(fm, 4) is base


def test_cluster_invalid_arguments_are_not_remembered():
    fm = four_block_map()
    for stride, tau in ((3, 0.07), (4, 0.0), (4, float("nan"))):
        with pytest.raises(ConfigError):
            ac.cluster(fm, stride, tau=tau)
    assert fm._clusters == {}


def test_feature_map_and_remembered_state_are_read_only():
    fm = ac.FeatureMap.from_grid(np.random.default_rng(15).normal(size=(8, 8, 3)))
    state = ac.cluster(fm, 4)
    with pytest.raises(ValueError):
        fm.features[0, 0] = 1.0
    with pytest.raises(ValueError):
        state.centers[0, 0] = 1.0
    with pytest.raises(ValueError):
        state.hard_labels[0] = 0


def test_feature_map_keeps_its_own_copy():
    features = np.random.default_rng(16).normal(size=(64, 3))
    fm = ac.FeatureMap(8, 8, features)
    before = fm.features.copy()
    features += 1.0
    npt.assert_array_equal(fm.features, before)


def test_cell_layout_holds_one_array_that_its_features_view():
    fm = ac.FeatureMap.from_grid(np.random.default_rng(17).normal(size=(12, 8, 3)))
    layout = ac.cell_layout(fm, 4)
    assert np.shares_memory(layout.features, layout.keys)
    npt.assert_array_equal(layout.features, cluster_oracle._by_cell(fm.features, 3, 2, 4))
    npt.assert_array_equal(layout.keys[..., 3], 1.0)


def test_96x96_cluster_peak():
    # The layout holds one feature-sized array, no round's similarity or
    # assignment survives into the next round, and the softmax fills one
    # buffer: a 96x96, 16-channel image at stride 4 peaks at 4.22 MB.  With
    # a second grouped copy of the features, those arrays kept into the next
    # round and a shifted copy under the softmax, it peaked at 6.06 MB.
    grid = np.random.default_rng(18).normal(size=(96, 96, 16))
    ac.cluster(ac.FeatureMap.from_grid(grid), 4)  # first-call caches
    fm = ac.FeatureMap.from_grid(grid)
    state, _, peak = traced_memory(lambda: ac.cluster(fm, 4))
    assert state.num_regions == 576
    assert peak < 5.1e6


def test_cluster_hard_label_is_a_neighbor():
    rng = np.random.default_rng(10)
    fm = ac.FeatureMap.from_grid(rng.normal(size=(12, 12, 4)))
    state = ac.cluster(fm, 4)
    # the label's cell is within one cell of the pixel's own, in both axes
    pix_cy, pix_cx = np.divmod(np.arange(fm.num_pixels), 12)
    lab_cy, lab_cx = np.divmod(state.hard_labels, 3)
    assert np.all(np.abs(lab_cy - pix_cy // 4) <= 1)
    assert np.all(np.abs(lab_cx - pix_cx // 4) <= 1)


# ---------------------------------------------------------------------------
# region sizes from the hard labels
# ---------------------------------------------------------------------------


def region_sizes(state):
    return np.bincount(state.hard_labels, minlength=state.num_regions)


def test_region_lists_planted_case():
    fm = four_block_map()
    state = ac.cluster(fm, 4, tau=0.07, iters=6)
    assert sorted(region_sizes(state).tolist()) == [16, 16, 16, 16]


def test_region_lists_single_region():
    state = ac.cluster(four_block_map(), 4)
    state.hard_labels = np.zeros(64, dtype=int)
    sizes = region_sizes(state)
    assert sizes[0] == 64
    assert np.all(sizes[1:] == 0)


def test_region_lists_are_a_partition():
    # every pixel carries exactly one label, and every label names a region
    rng = np.random.default_rng(11)
    fm = ac.FeatureMap.from_grid(rng.normal(size=(8, 8, 3)))
    state = ac.cluster(fm, 4)
    sizes = region_sizes(state)
    assert state.hard_labels.shape == (64,) and state.hard_labels.min() >= 0
    assert len(sizes) == state.num_regions
    assert sizes.sum() == 64


def test_feature_map_validation():
    with pytest.raises(ShapeError):
        ac.FeatureMap(2, 2, np.zeros((3, 2)))


def test_similarity_rejects_mismatched_geometry():
    rng = np.random.default_rng(12)
    layout = ac.cell_layout(ac.FeatureMap.from_grid(rng.normal(size=(8, 12, 2))), 4)
    for shape in ((4, 2), (9, 2), (6, 3), (6,), (2, 6)):  # the layout's are (6, 2)
        with pytest.raises(ShapeError):
            ac.compute_similarity(rng.normal(size=shape), layout, 0.07)


def test_update_centers_rejects_bad_layout():
    fm = four_block_map()
    with pytest.raises(ShapeError):
        ac.update_centers(np.full((4, 64), 0.25), ac.cell_layout(fm, 4))  # dense (N_p, H*W) layout
    one_hot = np.zeros((9, 64))
    one_hot[ac.OWN_CELL] = 1.0
    with pytest.raises(ConfigError):
        ac.update_centers(one_hot, ac.cell_layout(fm, 3))
