"""Binary PGM (P5) and PPM (P6) reading and writing.

All emitted images are 8-bit with maxval 255 and carry no comments or
timestamps, so identical arrays produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InputError


def write_pgm(path: str | Path, gray: np.ndarray) -> None:
    """Write a 2-D uint8 array as binary PGM."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise InputError(f"PGM needs a 2-D array, got {gray.shape}")
    if gray.dtype != np.uint8:
        raise InputError(f"PGM writer expects uint8, got {gray.dtype}")
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


def write_ppm(path: str | Path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise InputError(f"PPM needs an (H, W, 3) array, got {rgb.shape}")
    if rgb.dtype != np.uint8:
        raise InputError(f"PPM writer expects uint8, got {rgb.dtype}")
    h, w, _ = rgb.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


def _read_header(f) -> tuple[bytes, int, int, int]:
    """Magic, width, height and maxval; '#' comments run to the end of a line."""
    magic = f.readline().split(b"#", 1)[0].strip()
    fields: list[int] = []
    while len(fields) < 3:
        line = f.readline()
        if not line:
            raise InputError("truncated netpbm header")
        for tok in line.split(b"#", 1)[0].split():
            if not tok.isdigit():
                raise InputError(f"netpbm header field {tok!r} is not a non-negative integer")
            fields.append(int(tok))
    return magic, fields[0], fields[1], fields[2]


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM back into a 2-D uint8 array."""
    with open(path, "rb") as f:
        magic, w, h, maxval = _read_header(f)
        if magic != b"P5":
            raise InputError(f"not a binary PGM: magic {magic!r}")
        if maxval != 255:
            raise InputError(f"only 8-bit PGM supported, maxval {maxval}")
        data = f.read(w * h)
    if len(data) != w * h:
        raise InputError("truncated PGM payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary PPM back into an (H, W, 3) uint8 array."""
    with open(path, "rb") as f:
        magic, w, h, maxval = _read_header(f)
        if magic != b"P6":
            raise InputError(f"not a binary PPM: magic {magic!r}")
        if maxval != 255:
            raise InputError(f"only 8-bit PPM supported, maxval {maxval}")
        data = f.read(w * h * 3)
    if len(data) != w * h * 3:
        raise InputError("truncated PPM payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)


def gray_from_unit(values: np.ndarray) -> np.ndarray:
    """Map values in [0, 1] to uint8 gray levels by rounding to v*255."""
    values = np.asarray(values, dtype=float)
    if np.any(values < 0) or np.any(values > 1):
        raise InputError("values must lie in [0, 1]")
    return np.rint(values * 255.0).astype(np.uint8)


# Fixed palette for class label maps; repeats beyond 12 classes.
CLASS_PALETTE = np.array(
    [
        (31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
        (148, 103, 189), (140, 86, 75), (227, 119, 194), (127, 127, 127),
        (188, 189, 34), (23, 190, 207), (174, 199, 232), (255, 187, 120),
    ],
    dtype=np.uint8,
)


def labels_to_rgb(labels: np.ndarray) -> np.ndarray:
    """Color a 2-D integer label map with the fixed class palette."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise InputError(f"label map must be 2-D, got {labels.shape}")
    return CLASS_PALETTE[labels % len(CLASS_PALETTE)]
