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

The round functions take and return arrays; ``cluster`` threads the centers
and the assignment through its loop and returns a ``ClusterState``, which
holds only the regions: their centers and every pixel's hard label.  The
soft assignment lives only for the call.

What does not change between rounds is computed once.  ``cluster`` builds
one ``CellLayout`` per call: the features with a column of ones, grouped by
cell, and their norms.  The layout holds that one array, written in cell
order as it is built; its ``features`` are a view of the array's first d
columns.  The layout lives only for that call (it is about the size of the
image, so it is not kept on the state), and no round's similarity or
assignment outlives the round that reads it.  The
index tables of a geometry are cached per (H, W, stride, d) and read-only:
each cell's neighbors and neighbor rows (an appended zero row stands for
every off-grid neighbor), the off-grid mask, the scatter of the center sums
onto their cells written as a gather, and each pixel's cell, from which the
hard labels are read.  A round is then a few whole-array operations.

An image's regions depend only on its features and on (stride, tau, iters),
so ``cluster`` remembers its result on the ``FeatureMap``: a second call
with equal arguments returns the same ``ClusterState`` and runs no round.
The memo cannot go stale or be changed through a shared reference, because
a ``FeatureMap`` keeps its own read-only copy of the features and a
remembered state's ``centers`` and ``hard_labels`` are read-only.  The memo
lives as long as the map.  ``init_grid`` states are not remembered; their
hard labels are the cached, read-only cell map.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, ShapeError
from .numkit import softmax_columns

NORM_GUARD = 1e-12
MASS_GUARD = 1e-12


@dataclass
class FeatureMap:
    """Per-pixel feature vectors on an H x W grid, flattened row-major.

    The map holds a read-only copy of the features it is given.
    """

    height: int
    width: int
    features: np.ndarray  # (H*W, d)
    # (stride, tau, iters) -> the ClusterState ``cluster`` computed for them
    _clusters: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise InputError(f"degenerate image {self.height}x{self.width}")
        self.features = np.array(self.features, dtype=float)
        self.features.flags.writeable = False
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
    """One image's regions: their centers and every pixel's hard label."""

    height: int
    width: int
    centers: np.ndarray      # (N_p, d), region i is grid cell i, row-major
    hard_labels: np.ndarray  # (H*W,) int32 region indices

    @property
    def num_regions(self) -> int:
        return self.centers.shape[0]


def _grid_shape(height: int, width: int, stride: int) -> tuple[int, int]:
    if stride < 1 or height % stride or width % stride:
        raise ConfigError(f"stride {stride} must divide image {height}x{width}")
    return height // stride, width // stride


def _cells_at(grid_h: int, grid_w: int, sign: int) -> np.ndarray:
    """(cells, 9) int32 index of the cell at ``sign * OFFSETS[j]`` from each
    cell, -1 off the grid."""
    cy, cx = np.divmod(np.arange(grid_h * grid_w), grid_w)
    dy, dx = np.array(OFFSETS).T
    y, x = cy[:, None] + sign * dy, cx[:, None] + sign * dx
    inside = (y >= 0) & (y < grid_h) & (x >= 0) & (x < grid_w)
    return np.where(inside, y * grid_w + x, -1).astype(np.int32)


def _pixel_cells(height: int, width: int, stride: int) -> np.ndarray:
    """(H*W,) int32 grid cell of every pixel."""
    grid_h, grid_w = _grid_shape(height, width, stride)
    cells = np.arange(grid_h * grid_w, dtype=np.int32).reshape(grid_h, 1, grid_w, 1)
    return np.broadcast_to(cells, (grid_h, stride, grid_w, stride)).reshape(-1)


@dataclass(frozen=True)
class _GridTables:
    """Index tables of one geometry and channel count.

    The gather indices index an array with one zero row (or entry) appended,
    which stands for every off-grid neighbor.
    """

    neighbor: np.ndarray      # (cells, 9) neighbor region, -1 off the grid
    pixel_cell: np.ndarray    # (H*W,) grid cell of every pixel
    norm_index: np.ndarray    # (cells, 9) into the N_p center norms + 0
    center_index: np.ndarray  # (cells, d, 9) into the flat (N_p + 1, d) centers
    off_grid: np.ndarray      # (cells, 1, 9) True where the neighbor is off the grid
    sum_index: np.ndarray     # (9, cells) into the (cells * 9 + 1, d + 1) center sums


@functools.cache
def _grid_tables(height: int, width: int, stride: int, channels: int) -> _GridTables:
    grid_h, grid_w = _grid_shape(height, width, stride)
    cells = grid_h * grid_w
    neighbor = _cells_at(grid_h, grid_w, 1)
    norm_index = np.where(neighbor >= 0, neighbor, cells)
    # the scatter of update_centers as a gather: cell t takes row j of the
    # sums of the cell at -OFFSETS[j] from it
    source = _cells_at(grid_h, grid_w, -1)
    sum_index = np.where(source >= 0, source * len(OFFSETS) + np.arange(len(OFFSETS)),
                         cells * len(OFFSETS))
    tables = _GridTables(
        neighbor=neighbor,
        pixel_cell=_pixel_cells(height, width, stride),
        norm_index=norm_index,
        # int32 halves what the cache holds; np.take gathers as fast with it
        center_index=(norm_index[:, None, :] * channels
                      + np.arange(channels)[:, None]).astype(np.int32),
        off_grid=(neighbor < 0)[:, None, :],
        sum_index=np.ascontiguousarray(sum_index.T),
    )
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


@dataclass(frozen=True)
class CellLayout:
    """One image's pixels grouped by grid cell, and what the rounds read of
    them that does not change between rounds."""

    height: int
    width: int
    stride: int
    features: np.ndarray   # (cells, r*r, d) view: the first d columns of keys
    key_norms: np.ndarray  # (cells, r*r, 1) pixel feature norms + NORM_GUARD
    keys: np.ndarray       # (cells, r*r, d + 1) features with a column of ones;
                           # the layout's one feature-sized array
    tables: _GridTables

    @property
    def channels(self) -> int:
        return self.features.shape[2]

    @property
    def num_pixels(self) -> int:
        return self.height * self.width

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.height // self.stride, self.width // self.stride


def cell_layout(fm: FeatureMap, stride: int) -> CellLayout:
    """Group ``fm`` by the cells of a stride-``stride`` grid."""
    grid_h, grid_w = _grid_shape(fm.height, fm.width, stride)
    d = fm.channels
    keys = np.empty((grid_h * grid_w, stride * stride, d + 1))
    # filled in cell order through a view of it with the pixel grid's axes
    grid = keys.reshape(grid_h, grid_w, stride, stride, d + 1).transpose(0, 2, 1, 3, 4)
    grid[..., :d] = fm.features.reshape(grid_h, stride, grid_w, stride, d)
    # a last column of ones turns its weighted sum into the assignment mass;
    # sums and mass then round alike, so an all-ones image keeps centers of
    # exactly 1 and its similarity ties stay exact
    grid[..., d] = 1.0
    features = keys[..., :d]
    return CellLayout(
        height=fm.height,
        width=fm.width,
        stride=stride,
        features=features,
        key_norms=np.linalg.norm(features, axis=2, keepdims=True) + NORM_GUARD,
        keys=keys,
        tables=_grid_tables(fm.height, fm.width, stride, d),
    )


def init_grid(layout: CellLayout) -> ClusterState:
    """Seed regions from a regular grid; centers are per-cell feature means."""
    assign = np.zeros((len(OFFSETS), layout.num_pixels))
    assign[OWN_CELL] = 1.0
    return ClusterState(
        height=layout.height,
        width=layout.width,
        centers=update_centers(assign, layout),
        hard_labels=layout.tables.pixel_cell,
    )


def compute_similarity(centers: np.ndarray, layout: CellLayout, tau: float) -> np.ndarray:
    """(9, H*W) cosine similarity to ``centers`` over temperature ``tau``,
    -inf off the grid.

    Norms are guarded by +1e-12, so zero vectors never raise.
    """
    if not 0.0 < tau < np.inf:
        raise ConfigError(f"temperature must be finite and positive, got {tau}")
    grid_h, grid_w = layout.grid_shape
    if centers.shape != (grid_h * grid_w, layout.channels):
        raise ShapeError(f"centers {centers.shape} are not the {grid_h * grid_w} cells "
                         f"x {layout.channels} channels of the layout")
    r = layout.stride
    tables = layout.tables
    centers = np.vstack([centers, np.zeros((1, layout.channels))])
    q_norm = np.linalg.norm(centers, axis=1)[tables.norm_index] + NORM_GUARD  # (cells, 9)
    sims = layout.features @ np.take(centers, tables.center_index)            # (cells, r*r, 9)
    sims /= q_norm[:, None, :] * layout.key_norms
    sims /= tau
    np.copyto(sims, -np.inf, where=tables.off_grid)
    return (sims.reshape(grid_h, grid_w, r, r, len(OFFSETS))
            .transpose(4, 0, 2, 1, 3).reshape(len(OFFSETS), layout.num_pixels))


def soft_assign(similarity: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the 9 candidates; exactly 0 off the grid."""
    return softmax_columns(similarity)


def update_centers(assign: np.ndarray, layout: CellLayout) -> np.ndarray:
    """Assignment-weighted mean of pixel features per region.

    Each candidate row's weighted feature sums are added onto the cell it
    points at, in OFFSETS order.  The sums are normalized by each region's
    assignment mass (guarded at 1e-12) so centers stay on the feature scale
    regardless of region size.
    """
    assign = np.asarray(assign, dtype=float)
    if assign.shape != (len(OFFSETS), layout.num_pixels):
        raise ShapeError(f"assignment {assign.shape} does not cover {layout.num_pixels} "
                         f"pixels with {len(OFFSETS)} candidates")
    grid_h, grid_w = layout.grid_shape
    r = layout.stride
    cells = grid_h * grid_w
    weights = (assign.reshape(len(OFFSETS), grid_h, r, grid_w, r)
               .transpose(1, 3, 0, 2, 4)
               .reshape(cells, len(OFFSETS), r * r))
    sums = np.zeros((cells * len(OFFSETS) + 1, layout.channels + 1))  # last row stays 0
    np.matmul(weights, layout.keys, out=sums[:-1].reshape(cells, len(OFFSETS), -1))
    total = sums[layout.tables.sum_index].sum(axis=0)                 # (cells, d + 1)
    return total[:, :-1] / np.maximum(total[:, -1], MASS_GUARD)[:, None]


def cluster(fm: FeatureMap, stride: int, tau: float = 0.07, iters: int = 6) -> ClusterState:
    """Run the full grouping loop and attach argmax hard labels.

    Each round recomputes similarity from the current centers, softmax-assigns
    every pixel over its nearby centers, and re-estimates the centers.  Ties
    in the final argmax go to the lowest region index.

    The result is remembered on ``fm`` under (stride, tau, iters): a repeated
    call returns the same state, whose ``centers`` and ``hard_labels`` are
    read-only.  Invalid arguments raise before anything is remembered.
    """
    if iters < 1:
        raise ConfigError(f"need at least one iteration, got {iters}")
    key = (stride, tau, iters)
    if key in fm._clusters:
        return fm._clusters[key]
    layout = cell_layout(fm, stride)
    centers = init_grid(layout).centers
    for i in range(iters):
        assign = soft_assign(compute_similarity(centers, layout, tau))
        centers = update_centers(assign, layout)
        if i + 1 < iters:
            del assign  # the next round reads only the centers
    best = np.argmax(assign, axis=0)
    hard = layout.tables.neighbor[layout.tables.pixel_cell, best]
    centers.flags.writeable = False
    hard.flags.writeable = False
    state = fm._clusters[key] = ClusterState(height=fm.height, width=fm.width,
                                             centers=centers, hard_labels=hard)
    return state
