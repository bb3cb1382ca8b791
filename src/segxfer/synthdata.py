"""Deterministic two-domain synthetic dataset with known region transferability.

Each class has an orthogonal unit prototype in feature space; pixels carry
their class prototype plus Gaussian texture noise.  Target-domain images add
a fixed orthogonal offset of magnitude delta to the prototypes of the
shifted classes only, so ground truth is explicit: pixels of unshifted
classes are transferable (bit 1), pixels of shifted classes are not (bit 0).

Layouts are random rectangular class maps aligned to a coarse grid (an
irregular guillotine mode exists for robustness testing).  Degenerate
layouts where any class covers less than 5% of pixels are resampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptive_cluster import FeatureMap
from .errors import ConfigError, InputError

SOURCE = "source"
TARGET = "target"
# the valid domain names, and each domain's tag in its generator seed
_DOMAIN_CODE = {SOURCE: 1, TARGET: 0}

MIN_CLASS_FRACTION = 0.05
LAYOUT_CELLS = 4  # a rectangular layout is a LAYOUT_CELLS x LAYOUT_CELLS grid
_MAX_LAYOUT_TRIES = 200


@dataclass
class SynthConfig:
    height: int = 32
    width: int = 32
    channels: int = 16
    num_classes: int = 4
    shift_classes: tuple[int, ...] = (2, 3)
    delta: float = 1.0
    sigma: float = 0.2
    # Per-class texture multiplier on sigma (None = all ones).  A class with a
    # large multiplier is loud enough to distract unrestricted attention.  It
    # is domain-stable clutter, identically distributed in both domains, only
    # if it is outside shift_classes; a loud shifted class (noise_scales
    # (1, 1, 1, 4) with the default shift_classes) is both loud and shifted.
    noise_scales: tuple[float, ...] | None = None
    # Classes whose texture noise lies in the span of the class prototypes
    # instead of isotropic space: domain-stable camouflage that resembles
    # random mixtures of the real classes.
    camouflage_classes: tuple[int, ...] = ()
    rectangular_layout: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        self.shift_classes = tuple(sorted(set(int(c) for c in self.shift_classes)))
        if self.num_classes < 1:
            raise ConfigError(f"need at least one class, got {self.num_classes}")
        if any(c < 0 or c >= self.num_classes for c in self.shift_classes):
            raise ConfigError(
                f"shifted classes {self.shift_classes} outside [0, {self.num_classes})"
            )
        if not (0 <= self.delta < math.inf and 0 <= self.sigma < math.inf):
            raise ConfigError(f"delta and sigma must be finite and non-negative, "
                              f"got {self.delta} and {self.sigma}")
        self.camouflage_classes = tuple(sorted(set(int(c) for c in self.camouflage_classes)))
        if any(c < 0 or c >= self.num_classes for c in self.camouflage_classes):
            raise ConfigError(
                f"camouflage classes {self.camouflage_classes} outside "
                f"[0, {self.num_classes})"
            )
        if self.noise_scales is not None:
            self.noise_scales = tuple(float(s) for s in self.noise_scales)
            if len(self.noise_scales) != self.num_classes:
                raise ConfigError(
                    f"noise_scales needs one entry per class, got "
                    f"{len(self.noise_scales)} for {self.num_classes} classes"
                )
            if not all(0 <= s < math.inf for s in self.noise_scales):
                raise ConfigError(f"noise_scales must be finite and non-negative, "
                                  f"got {self.noise_scales}")
        if self.channels < 2 * self.num_classes:
            raise ConfigError(
                f"need channels >= 2 * num_classes for orthogonal prototypes and "
                f"shift directions, got {self.channels} < {2 * self.num_classes}"
            )
        if self.height < 1 or self.width < 1:
            raise ConfigError(f"image {self.height}x{self.width} must be at least 1x1")
        if self.height % LAYOUT_CELLS or self.width % LAYOUT_CELLS:
            raise ConfigError(f"layout grid {LAYOUT_CELLS} must divide {self.height}x{self.width}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def class_noise(self) -> np.ndarray:
        if self.noise_scales is None:
            return np.full(self.num_classes, self.sigma)
        return self.sigma * np.asarray(self.noise_scales)


@dataclass
class LabeledImage:
    """Feature map, class labels and per-pixel transfer bits."""

    fm: FeatureMap
    labels: np.ndarray         # (H, W) non-negative integers
    transfer_bits: np.ndarray  # (H, W) uint8, 1 = unshifted class

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        bits = np.asarray(self.transfer_bits)
        if not np.all((bits == 0) | (bits == 1)):
            raise InputError("transfer bits must be 0 or 1")
        self.transfer_bits = bits.astype(np.uint8, copy=False)
        if not self.labels.shape == self.transfer_bits.shape == (self.fm.height, self.fm.width):
            raise InputError(f"labels {self.labels.shape} and transfer bits "
                             f"{self.transfer_bits.shape} do not match image "
                             f"{self.fm.height}x{self.fm.width}")
        if self.labels.dtype.kind not in "ui" or self.labels.min() < 0:
            raise InputError(f"labels must be non-negative integers, got {self.labels.dtype} "
                             f"in [{self.labels.min()}, {self.labels.max()}]")


def class_prototypes(config: SynthConfig, domain: str) -> np.ndarray:
    """(num_classes, channels) prototype table for one domain.

    Class c sits on basis vector e_c; in the target domain, shifted classes
    additionally carry delta along the orthogonal direction e_{channels/2+c}.
    """
    protos = np.zeros((config.num_classes, config.channels))
    half = config.channels // 2
    for c in range(config.num_classes):
        protos[c, c] = 1.0
        if domain == TARGET and c in config.shift_classes:
            protos[c, half + c] = config.delta
    return protos


def _rect_layout(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    cell_h = config.height // LAYOUT_CELLS
    cell_w = config.width // LAYOUT_CELLS
    cells = rng.integers(0, config.num_classes, size=(LAYOUT_CELLS, LAYOUT_CELLS))
    return np.repeat(np.repeat(cells, cell_h, axis=0), cell_w, axis=1)


def _guillotine_layout(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    rects = [(0, config.height, 0, config.width)]
    splits = max(config.num_classes, 6)
    for _ in range(splits):
        areas = [(y1 - y0) * (x1 - x0) for (y0, y1, x0, x1) in rects]
        i = int(np.argmax(areas))
        y0, y1, x0, x1 = rects.pop(i)
        if (y1 - y0 >= 4) and (rng.random() < 0.5 or x1 - x0 < 4):
            cut = int(rng.integers(y0 + 2, y1 - 1))
            rects += [(y0, cut, x0, x1), (cut, y1, x0, x1)]
        elif x1 - x0 >= 4:
            cut = int(rng.integers(x0 + 2, x1 - 1))
            rects += [(y0, y1, x0, cut), (y0, y1, cut, x1)]
        else:
            rects.append((y0, y1, x0, x1))
            break
    labels = np.zeros((config.height, config.width), dtype=int)
    for j, (y0, y1, x0, x1) in enumerate(rects):
        labels[y0:y1, x0:x1] = rng.integers(0, config.num_classes) if j else 0
    # Make sure every class appears somewhere before the coverage check.
    for c in range(config.num_classes):
        if not np.any(labels == c):
            y0, y1, x0, x1 = rects[int(rng.integers(0, len(rects)))]
            labels[y0:y1, x0:x1] = c
    return labels


def _sample_layout(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    threshold = MIN_CLASS_FRACTION * config.height * config.width
    for _ in range(_MAX_LAYOUT_TRIES):
        labels = (_rect_layout if config.rectangular_layout else _guillotine_layout)(config, rng)
        counts = np.bincount(labels.reshape(-1), minlength=config.num_classes)
        if np.all(counts >= threshold):
            return labels
    raise InputError(
        f"could not draw a layout giving every class {MIN_CLASS_FRACTION:.0%} "
        f"of pixels; config too tight"
    )


def generate(config: SynthConfig, count: int, domain: str, stream: int = 0) -> list[LabeledImage]:
    """Draw ``count`` labeled images for one domain.

    Streams are independent seeded substreams (use a different stream for
    held-out evaluation data); identical (config, count, domain, stream)
    always reproduces identical images.  Labels are stored in the narrowest
    unsigned type that holds num_classes - 1.
    """
    for name, value in (("count", count), ("stream", stream)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InputError(f"{name} must be an integer, got {value!r}")
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    if domain not in _DOMAIN_CODE:
        raise InputError(f"unknown domain {domain!r}")
    if stream < 0:
        raise InputError(f"stream must be >= 0, got {stream}")
    rng = np.random.default_rng([config.seed, _DOMAIN_CODE[domain], stream])
    protos = class_prototypes(config, domain)
    noise_by_class = config.class_noise()
    # class membership, decided once per call; each image indexes by label
    classes = np.arange(config.num_classes)
    camouflaged = np.isin(classes, config.camouflage_classes)
    transfers = (~np.isin(classes, config.shift_classes)).astype(np.uint8)
    images = []
    for _ in range(count):
        labels = _sample_layout(config, rng)
        flat = labels.reshape(-1)
        # The normals become the features in place: scaled by the class
        # noise, masked, then offset by the prototypes.  IEEE + and * commute,
        # so this equals protos[flat] + noise_by_class[flat, None] * normals
        # bit for bit.
        features = rng.standard_normal((config.height * config.width, config.channels))
        features *= noise_by_class[flat, None]
        if config.camouflage_classes:
            camo = camouflaged[flat]
            features[np.ix_(camo, np.arange(config.num_classes, config.channels))] = 0.0
        features += protos[flat]
        fm = FeatureMap(config.height, config.width, features)
        del features  # the map holds its own copy; dropped before the next image
        bits = transfers[labels]
        labels = labels.astype(np.min_scalar_type(config.num_classes - 1))
        images.append(LabeledImage(fm=fm, labels=labels, transfer_bits=bits))
    return images
