"""The 9-candidate clustering against a dense (N_p, H*W) reference.

The reference below is the straightforward formulation: similarity to every
region center, masked to -inf outside the 3 x 3 block of cells around each
pixel's cell, softmax over all regions, and centers from a dense
assignment-weighted mean.  It costs O(N_p * H * W) and is kept only as an
oracle.
"""

import numpy as np
import numpy.testing as npt
import pytest

import cluster_oracle
from segxfer import adaptive_cluster as ac
from segxfer.numkit import softmax_columns


def dense_neighbor_mask(height, width, stride):
    """(N_p, H*W) mask of the 3 x 3 block of cells around each pixel's cell."""
    grid_h, grid_w = height // stride, width // stride
    rows = np.arange(height) // stride
    cols = np.arange(width) // stride
    cell = (rows[:, None] * grid_w + cols[None, :]).reshape(-1)
    pix_cy, pix_cx = cell // grid_w, cell % grid_w
    reg = np.arange(grid_h * grid_w)
    reg_cy, reg_cx = reg // grid_w, reg % grid_w
    return (np.abs(reg_cy[:, None] - pix_cy[None, :]) <= 1) & (
        np.abs(reg_cx[:, None] - pix_cx[None, :]) <= 1
    ), cell


def dense_similarity(centers, fm, mask, tau):
    q_norm = np.linalg.norm(centers, axis=1) + ac.NORM_GUARD
    k_norm = np.linalg.norm(fm.features, axis=1) + ac.NORM_GUARD
    sims = (centers @ fm.features.T) / (q_norm[:, None] * k_norm[None, :]) / tau
    return np.where(mask, sims, -np.inf)


def dense_update_centers(assign, fm):
    mass = assign.sum(axis=1)
    return (assign @ fm.features) / np.maximum(mass, ac.MASS_GUARD)[:, None]


def dense_init_grid(fm, stride):
    mask, cell = dense_neighbor_mask(fm.height, fm.width, stride)
    assign = np.zeros(mask.shape)
    assign[cell, np.arange(fm.num_pixels)] = 1.0
    return mask, assign, dense_update_centers(assign, fm), cell


def dense_cluster(fm, stride, tau=0.07, iters=6):
    mask, assign, centers, _ = dense_init_grid(fm, stride)
    for _ in range(iters):
        assign = softmax_columns(dense_similarity(centers, fm, mask, tau))
        centers = dense_update_centers(assign, fm)
    return centers, assign, np.argmax(assign, axis=0)


def to_dense(candidates, height, width, stride, fill):
    """Scatter a (9, H*W) candidate array into (N_p, H*W), ``fill`` elsewhere."""
    regions = cluster_oracle.candidate_regions(height, width, stride)
    n_regions = (height // stride) * (width // stride)
    out = np.full((n_regions, height * width), fill, dtype=float)
    on_grid = regions >= 0
    out[regions[on_grid], np.nonzero(on_grid)[1]] = candidates[on_grid]
    return out


# (height, width, stride, channels)
GEOMETRIES = [
    (8, 8, 4, 3),
    (12, 12, 4, 4),
    (12, 20, 4, 4),    # non-square
    (5, 7, 1, 3),      # r = 1: every pixel is a cell
    (4, 4, 4, 2),      # a single cell
    (4, 24, 4, 3),     # a 1 x N cell grid
    (24, 4, 4, 3),     # an N x 1 cell grid
    (8, 4, 4, 2),      # a 2 x 1 cell grid
    (16, 8, 2, 5),
    (32, 32, 4, 16),   # the harness's default geometry
]


def random_map(height, width, channels, seed):
    rng = np.random.default_rng(seed)
    return ac.FeatureMap.from_grid(rng.normal(size=(height, width, channels)))


def assert_matches_dense(monkeypatch, fm, stride, tau, iters):
    state, rounds = cluster_oracle.traced_cluster(monkeypatch, fm, stride, tau, iters)
    centers, assign, hard = dense_cluster(fm, stride, tau, iters)
    npt.assert_array_equal(state.hard_labels, hard)
    npt.assert_allclose(state.centers, centers, rtol=0, atol=1e-12)
    npt.assert_allclose(to_dense(rounds[-1][1], fm.height, fm.width, stride, 0.0), assign,
                        rtol=0, atol=1e-12)


@pytest.mark.parametrize("height,width,stride,channels", GEOMETRIES)
def test_cluster_matches_dense_oracle(monkeypatch, height, width, stride, channels):
    fm = random_map(height, width, channels, seed=height * 100 + width + stride)
    for tau, iters in ((0.07, 6), (0.5, 3)):
        assert_matches_dense(monkeypatch, fm, stride, tau, iters)


@pytest.mark.parametrize("height,width,stride,channels", GEOMETRIES)
def test_cluster_ties_follow_dense_rule(height, width, stride, channels):
    # On a constant image the grid centers equal the feature exactly, so one
    # round ties every candidate exactly, and the argmax must pick the lowest
    # region index of the 3 x 3 block, as a dense argmax does.  (Later rounds
    # sum fractional weights, whose rounding breaks the ties arbitrarily.)
    fm = ac.FeatureMap(height, width, np.ones((height * width, channels)))
    state = ac.cluster(fm, stride, iters=1)
    mask, _ = dense_neighbor_mask(height, width, stride)
    npt.assert_array_equal(state.hard_labels, np.argmax(mask, axis=0))


@pytest.mark.parametrize("height,width,stride,channels", GEOMETRIES)
def test_init_grid_matches_dense_oracle(monkeypatch, height, width, stride, channels):
    fm = random_map(height, width, channels, seed=7 + height + width)
    state, seeded = cluster_oracle.seeded_grid(monkeypatch, ac.cell_layout(fm, stride))
    mask, assign, centers, cell = dense_init_grid(fm, stride)
    npt.assert_array_equal(state.hard_labels, cell)
    npt.assert_allclose(state.centers, centers, rtol=0, atol=1e-12)
    npt.assert_array_equal(to_dense(seeded, height, width, stride, 0.0), assign)


@pytest.mark.parametrize("height,width,stride,channels", GEOMETRIES)
def test_similarity_and_update_match_dense_oracle(height, width, stride, channels):
    rng = np.random.default_rng(height + 3 * width + stride)
    fm = random_map(height, width, channels, seed=11 + height)
    layout = ac.cell_layout(fm, stride)
    centers = rng.normal(size=ac.init_grid(layout).centers.shape)
    mask, _ = dense_neighbor_mask(height, width, stride)
    sim = ac.compute_similarity(centers, layout, 0.3)
    expected = dense_similarity(centers, fm, mask, 0.3)
    scattered = to_dense(sim, height, width, stride, -np.inf)
    npt.assert_array_equal(np.isfinite(scattered), mask)
    npt.assert_allclose(scattered[mask], expected[mask], rtol=0, atol=1e-12)
    assign = ac.soft_assign(sim)
    npt.assert_allclose(to_dense(assign, height, width, stride, 0.0),
                        softmax_columns(expected), rtol=0, atol=1e-12)
    npt.assert_allclose(ac.update_centers(assign, layout),
                        dense_update_centers(softmax_columns(expected), fm),
                        rtol=0, atol=1e-12)
