"""Iterative part-level grouping of a feature map into local soft regions.

A feature map is seeded with a regular r x r grid of region centers.  Each
round computes temperature-scaled cosine similarity between every pixel and
the centers of the 3 x 3 block of grid cells around the pixel's own cell,
softmax-normalizes per pixel, and recomputes centers as assignment-weighted
feature means.  Nothing here is trained; clustering is a gradient-free
preprocessing step.

Only those nine candidates are stored, so cost and memory grow linearly
with H*W (the locality trick of SLIC and of superpixel sampling networks).
Similarities and soft assignments are (9, H*W) arrays: row j is the cell
offset OFFSETS[j] = (dy, dx), row-major over {-1, 0, 1}^2, so row 4 is the
pixel's own cell.  Candidates that fall off the grid hold -inf similarity
and exactly 0 assignment.  In this row order the candidates' region indices
increase, so an argmax over rows breaks ties toward the lowest region index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, ShapeError
from .numkit import softmax_columns

NORM_GUARD = 1e-12
MASS_GUARD = 1e-12


@dataclass
class FeatureMap:
    """Per-pixel feature vectors on an H x W grid, flattened row-major."""

    height: int
    width: int
    features: np.ndarray  # (H*W, d)

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise InputError(f"degenerate image {self.height}x{self.width}")
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2 or self.features.shape[0] != self.height * self.width:
            raise ShapeError(
                f"features {self.features.shape} do not cover a "
                f"{self.height}x{self.width} grid"
            )
        if not np.all(np.isfinite(self.features)):
            raise InputError("feature map contains non-finite values")

    @property
    def channels(self) -> int:
        return self.features.shape[1]

    @property
    def num_pixels(self) -> int:
        return self.height * self.width

    @classmethod
    def from_grid(cls, grid: np.ndarray) -> "FeatureMap":
        """Build from an (H, W, d) array."""
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 3:
            raise ShapeError(f"expected (H, W, d), got {grid.shape}")
        h, w, d = grid.shape
        return cls(h, w, grid.reshape(h * w, d))


OFFSETS = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1))
OWN_CELL = OFFSETS.index((0, 0))


@dataclass
class ClusterState:
    """Grid stride, centers, soft assignment over the 9 candidates, hard labels."""

    height: int
    width: int
    stride: int
    tau: float
    centers: np.ndarray      # (N_p, d), region i is grid cell i, row-major
    assign: np.ndarray       # (9, H*W), column-stochastic, rows as in OFFSETS
    hard_labels: np.ndarray  # (H*W,) region indices

    @property
    def num_regions(self) -> int:
        return self.centers.shape[0]

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.height // self.stride, self.width // self.stride


def _grid_shape(height: int, width: int, stride: int) -> tuple[int, int]:
    if stride < 1 or height % stride or width % stride:
        raise ConfigError(f"stride {stride} must divide image {height}x{width}")
    return height // stride, width // stride


def _by_cell(pixels: np.ndarray, grid_h: int, grid_w: int, stride: int) -> np.ndarray:
    """(H*W, k) pixel rows -> (cells, stride**2, k), grouped by grid cell."""
    k = pixels.shape[1]
    return (pixels.reshape(grid_h, stride, grid_w, stride, k)
            .transpose(0, 2, 1, 3, 4)
            .reshape(grid_h * grid_w, stride * stride, k))


def _neighbors(values: np.ndarray, grid_h: int, grid_w: int) -> np.ndarray:
    """(N_p, ...) per-region values -> (cells, ..., 9), the values of each
    cell's OFFSETS neighbors in the last axis; zero (or False) off the grid."""
    padded = np.zeros((grid_h + 2, grid_w + 2) + values.shape[1:], dtype=values.dtype)
    padded[1:-1, 1:-1] = values.reshape((grid_h, grid_w) + values.shape[1:])
    shifted = [padded[1 + dy:1 + dy + grid_h, 1 + dx:1 + dx + grid_w] for dy, dx in OFFSETS]
    stacked = np.stack(shifted, axis=-1)
    return stacked.reshape((grid_h * grid_w,) + stacked.shape[2:])


def candidate_regions(height: int, width: int, stride: int) -> np.ndarray:
    """(9, H*W) region index of every pixel's candidates, -1 off the grid."""
    grid_h, grid_w = _grid_shape(height, width, stride)
    cells = _neighbors(np.arange(1, grid_h * grid_w + 1), grid_h, grid_w) - 1  # (cells, 9)
    cells = cells.reshape(grid_h, 1, grid_w, 1, len(OFFSETS))
    pixels = np.broadcast_to(cells, (grid_h, stride, grid_w, stride, len(OFFSETS)))
    return pixels.reshape(height * width, len(OFFSETS)).T.copy()


def init_grid(fm: FeatureMap, stride: int, tau: float = 0.07) -> ClusterState:
    """Seed regions from a regular grid; centers are per-cell feature means."""
    regions = candidate_regions(fm.height, fm.width, stride)
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    assign = np.zeros((len(OFFSETS), fm.num_pixels))
    assign[OWN_CELL] = 1.0
    return ClusterState(
        height=fm.height,
        width=fm.width,
        stride=stride,
        tau=tau,
        centers=update_centers(assign, fm, stride),
        assign=assign,
        hard_labels=regions[OWN_CELL].copy(),
    )


def compute_similarity(state: ClusterState, fm: FeatureMap) -> np.ndarray:
    """(9, H*W) temperature-scaled cosine similarity, -inf off the grid.

    Norms are guarded by +1e-12, so zero vectors never raise.
    """
    if state.tau <= 0:
        raise ConfigError(f"temperature must be positive, got {state.tau}")
    grid_h, grid_w = state.grid_shape
    if ((fm.height, fm.width) != (state.height, state.width)
            or state.centers.shape != (grid_h * grid_w, fm.channels)):
        raise ShapeError("feature map does not match cluster state geometry")
    r = state.stride
    k_norm = np.linalg.norm(fm.features, axis=1) + NORM_GUARD
    q_norm = _neighbors(np.linalg.norm(state.centers, axis=1), grid_h, grid_w) + NORM_GUARD
    dots = _by_cell(fm.features, grid_h, grid_w, r) @ _neighbors(state.centers, grid_h, grid_w)
    sims = dots / (q_norm[:, None, :] * _by_cell(k_norm[:, None], grid_h, grid_w, r)) / state.tau
    on_grid = _neighbors(np.ones(grid_h * grid_w, dtype=bool), grid_h, grid_w)
    sims = np.where(on_grid[:, None, :], sims, -np.inf)                # (cells, r*r, 9)
    return (sims.reshape(grid_h, grid_w, r, r, len(OFFSETS))
            .transpose(4, 0, 2, 1, 3).reshape(len(OFFSETS), fm.num_pixels))


def soft_assign(similarity: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the 9 candidates; exactly 0 off the grid."""
    return softmax_columns(similarity)


def update_centers(assign: np.ndarray, fm: FeatureMap, stride: int) -> np.ndarray:
    """Assignment-weighted mean of pixel features per region.

    Each candidate row's weighted feature sums are added onto the cell it
    points at.  The sums are normalized by each region's assignment mass
    (guarded at 1e-12) so centers stay on the feature scale regardless of
    region size.
    """
    assign = np.asarray(assign, dtype=float)
    if assign.shape != (len(OFFSETS), fm.num_pixels):
        raise ShapeError(f"assignment {assign.shape} does not cover {fm.num_pixels} pixels "
                         f"with {len(OFFSETS)} candidates")
    grid_h, grid_w = _grid_shape(fm.height, fm.width, stride)
    weights = (assign.reshape(len(OFFSETS), grid_h, stride, grid_w, stride)
               .transpose(1, 3, 0, 2, 4)
               .reshape(grid_h * grid_w, len(OFFSETS), stride * stride))
    # a last column of ones turns its weighted sum into the assignment mass;
    # sums and mass then round alike, so an all-ones image keeps centers of
    # exactly 1 and its similarity ties stay exact
    keys = np.hstack([fm.features, np.ones((fm.num_pixels, 1))])
    sums = weights @ _by_cell(keys, grid_h, grid_w, stride)            # (cells, 9, d + 1)
    sums = sums.reshape(grid_h, grid_w, len(OFFSETS), fm.channels + 1)
    total = np.zeros((grid_h + 2, grid_w + 2, fm.channels + 1))
    for j, (dy, dx) in enumerate(OFFSETS):
        total[1 + dy:1 + dy + grid_h, 1 + dx:1 + dx + grid_w] += sums[:, :, j]
    total = total[1:-1, 1:-1].reshape(grid_h * grid_w, fm.channels + 1)
    return total[:, :-1] / np.maximum(total[:, -1], MASS_GUARD)[:, None]


def cluster(fm: FeatureMap, stride: int, tau: float = 0.07, iters: int = 6) -> ClusterState:
    """Run the full grouping loop and attach argmax hard labels.

    Each round recomputes similarity from the current centers, softmax-assigns
    every pixel over its nearby centers, and re-estimates the centers.  Ties
    in the final argmax go to the lowest region index.
    """
    if iters < 1:
        raise ConfigError(f"need at least one iteration, got {iters}")
    state = init_grid(fm, stride, tau)
    assign = state.assign
    centers = state.centers
    for _ in range(iters):
        state.centers = centers
        similarity = compute_similarity(state, fm)
        assign = soft_assign(similarity)
        centers = update_centers(assign, fm, stride)
    best = np.argmax(assign, axis=0)
    hard = candidate_regions(fm.height, fm.width, stride)[best, np.arange(fm.num_pixels)]
    return ClusterState(
        height=state.height,
        width=state.width,
        stride=stride,
        tau=tau,
        centers=centers,
        assign=assign,
        hard_labels=hard,
    )


def region_pixel_lists(state: ClusterState) -> list[np.ndarray]:
    """Pixel indices per region from the hard labels; empty regions stay empty."""
    if state.hard_labels.shape != (state.height * state.width,):
        raise ShapeError("hard labels do not cover the image")
    order = np.argsort(state.hard_labels, kind="stable")
    sorted_labels = state.hard_labels[order]
    boundaries = np.searchsorted(sorted_labels, np.arange(state.num_regions + 1))
    return [order[boundaries[i]:boundaries[i + 1]] for i in range(state.num_regions)]
