"""The per-round clustering code that ``adaptive_cluster`` replaced, kept as
an oracle: every round regroups the features by cell, recomputes the pixel
norms, rebuilds the on-grid mask and the feature-plus-ones matrix, stacks
each cell's neighbors by padding and slicing, and scatters the center sums
with one slice per offset.  ``adaptive_cluster`` must match it bitwise.

The spies at the end read what ``adaptive_cluster`` computes but does not
return: each round's similarity and assignment, and the one-hot assignment
that seeds the grid centers.
"""

from __future__ import annotations

import numpy as np

from segxfer import adaptive_cluster as ac
from segxfer.adaptive_cluster import (
    MASS_GUARD,
    NORM_GUARD,
    OFFSETS,
    OWN_CELL,
    FeatureMap,
)
from segxfer.numkit import softmax_columns


def _grid_shape(height, width, stride):
    return height // stride, width // stride


def _by_cell(pixels, grid_h, grid_w, stride):
    """(H*W, k) pixel rows -> (cells, stride**2, k), grouped by grid cell."""
    k = pixels.shape[1]
    return (pixels.reshape(grid_h, stride, grid_w, stride, k)
            .transpose(0, 2, 1, 3, 4)
            .reshape(grid_h * grid_w, stride * stride, k))


def _neighbors(values, grid_h, grid_w):
    """(N_p, ...) per-region values -> (cells, ..., 9), the values of each
    cell's OFFSETS neighbors in the last axis; zero (or False) off the grid."""
    padded = np.zeros((grid_h + 2, grid_w + 2) + values.shape[1:], dtype=values.dtype)
    padded[1:-1, 1:-1] = values.reshape((grid_h, grid_w) + values.shape[1:])
    shifted = [padded[1 + dy:1 + dy + grid_h, 1 + dx:1 + dx + grid_w] for dy, dx in OFFSETS]
    stacked = np.stack(shifted, axis=-1)
    return stacked.reshape((grid_h * grid_w,) + stacked.shape[2:])


def candidate_regions(height, width, stride):
    """(9, H*W) region index of every pixel's candidates, -1 off the grid."""
    grid_h, grid_w = _grid_shape(height, width, stride)
    cells = _neighbors(np.arange(1, grid_h * grid_w + 1), grid_h, grid_w) - 1
    cells = cells.reshape(grid_h, 1, grid_w, 1, len(OFFSETS))
    pixels = np.broadcast_to(cells, (grid_h, stride, grid_w, stride, len(OFFSETS)))
    return pixels.reshape(height * width, len(OFFSETS)).T.copy()


def init_grid(fm: FeatureMap, stride: int):
    """The grid's (centers, one-hot assignment, hard labels)."""
    regions = candidate_regions(fm.height, fm.width, stride)
    assign = np.zeros((len(OFFSETS), fm.num_pixels))
    assign[OWN_CELL] = 1.0
    return update_centers(assign, fm, stride), assign, regions[OWN_CELL].copy()


def compute_similarity(centers: np.ndarray, fm: FeatureMap, stride: int,
                       tau: float) -> np.ndarray:
    grid_h, grid_w = _grid_shape(fm.height, fm.width, stride)
    r = stride
    k_norm = np.linalg.norm(fm.features, axis=1) + NORM_GUARD
    q_norm = _neighbors(np.linalg.norm(centers, axis=1), grid_h, grid_w) + NORM_GUARD
    dots = _by_cell(fm.features, grid_h, grid_w, r) @ _neighbors(centers, grid_h, grid_w)
    sims = dots / (q_norm[:, None, :] * _by_cell(k_norm[:, None], grid_h, grid_w, r)) / tau
    on_grid = _neighbors(np.ones(grid_h * grid_w, dtype=bool), grid_h, grid_w)
    sims = np.where(on_grid[:, None, :], sims, -np.inf)
    return (sims.reshape(grid_h, grid_w, r, r, len(OFFSETS))
            .transpose(4, 0, 2, 1, 3).reshape(len(OFFSETS), fm.num_pixels))


def update_centers(assign: np.ndarray, fm: FeatureMap, stride: int) -> np.ndarray:
    grid_h, grid_w = _grid_shape(fm.height, fm.width, stride)
    weights = (assign.reshape(len(OFFSETS), grid_h, stride, grid_w, stride)
               .transpose(1, 3, 0, 2, 4)
               .reshape(grid_h * grid_w, len(OFFSETS), stride * stride))
    keys = np.hstack([fm.features, np.ones((fm.num_pixels, 1))])
    sums = weights @ _by_cell(keys, grid_h, grid_w, stride)
    sums = sums.reshape(grid_h, grid_w, len(OFFSETS), fm.channels + 1)
    total = np.zeros((grid_h + 2, grid_w + 2, fm.channels + 1))
    for j, (dy, dx) in enumerate(OFFSETS):
        total[1 + dy:1 + dy + grid_h, 1 + dx:1 + dx + grid_w] += sums[:, :, j]
    total = total[1:-1, 1:-1].reshape(grid_h * grid_w, fm.channels + 1)
    return total[:, :-1] / np.maximum(total[:, -1], MASS_GUARD)[:, None]


def cluster_rounds(fm: FeatureMap, stride: int, tau: float = 0.07, iters: int = 6):
    """The grouping loop: the final (centers, assignment, hard labels), plus
    each round's (similarity, assignment)."""
    centers, assign, _ = init_grid(fm, stride)
    rounds = []
    for _ in range(iters):
        similarity = compute_similarity(centers, fm, stride, tau)
        assign = softmax_columns(similarity)
        centers = update_centers(assign, fm, stride)
        rounds.append((similarity, assign))
    best = np.argmax(assign, axis=0)
    hard = candidate_regions(fm.height, fm.width, stride)[best, np.arange(fm.num_pixels)]
    return (centers, assign, hard), rounds


def traced_cluster(monkeypatch, fm, stride, tau=0.07, iters=6):
    """``ac.cluster`` plus the (similarity, assignment) of each round; the
    last round's assignment is the one the hard labels are read from."""
    rounds = []
    similarity_fn, assign_fn = ac.compute_similarity, ac.soft_assign

    def similarity(*args):
        rounds.append((similarity_fn(*args),))
        return rounds[-1][0]

    def assign(sim):
        rounds[-1] += (assign_fn(sim),)
        return rounds[-1][1]

    with monkeypatch.context() as m:
        m.setattr(ac, "compute_similarity", similarity)
        m.setattr(ac, "soft_assign", assign)
        state = ac.cluster(fm, stride, tau=tau, iters=iters)
    return state, rounds


def seeded_grid(monkeypatch, layout):
    """``ac.init_grid(layout)`` plus the assignment its centers are the
    weighted means of."""
    seen = []
    update_fn = ac.update_centers

    def update(assign, layout):
        seen.append(assign)
        return update_fn(assign, layout)

    with monkeypatch.context() as m:
        m.setattr(ac, "update_centers", update)
        state = ac.init_grid(layout)
    return state, seen[0]
