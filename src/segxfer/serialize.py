"""Flat-binary array serialization with a JSON shape manifest.

Arrays are concatenated as little-endian float64 in manifest order, so the
pair of files is portable and byte-stable for identical inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import InputError


def save_arrays(named: dict[str, np.ndarray], bin_path: str | Path,
                json_path: str | Path, meta: dict | None = None) -> None:
    entries = []
    offset = 0
    chunks = []
    for name, arr in named.items():
        arr = np.asarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(arr.tobytes(order="C"))
        offset += arr.size
    manifest = {"dtype": "<f8", "arrays": entries, "meta": meta or {}}
    with open(bin_path, "wb") as f:
        f.write(b"".join(chunks))
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _is_count(value) -> bool:
    """A non-negative JSON integer; booleans and floats are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def load_arrays(bin_path: str | Path, json_path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read arrays written by save_arrays.

    The manifest must tile the binary exactly: every array starts where the
    one before it ended and nothing follows the last one.  A file that is
    missing or cannot be read, a malformed manifest, a missing key or any
    other layout raises InputError.
    """
    try:
        with open(json_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, ValueError) as exc:  # missing or not a file, bad JSON or bad UTF-8
        raise InputError(f"unreadable manifest {json_path}: {exc}") from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("arrays"), list):
        raise InputError("manifest must be an object with an 'arrays' list")
    if manifest.get("dtype") != "<f8":
        raise InputError(f"unsupported dtype {manifest.get('dtype')!r}")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise InputError("manifest 'meta' must be an object")
    try:
        data = Path(bin_path).read_bytes()
    except OSError as exc:  # missing or not a file
        raise InputError(f"unreadable binary {bin_path}: {exc}") from exc
    if len(data) % 8:
        raise InputError(f"binary holds {len(data)} bytes, not a whole number of float64 values")
    raw = np.frombuffer(data, dtype="<f8")
    named: dict[str, np.ndarray] = {}
    end = 0
    for entry in manifest["arrays"]:
        if not isinstance(entry, dict) or not {"name", "shape", "offset"} <= entry.keys():
            raise InputError(f"manifest entry {entry!r} needs a name, a shape and an offset")
        name, shape, start = entry["name"], entry["shape"], entry["offset"]
        if not isinstance(name, str) or name in named:
            raise InputError(f"array name {name!r} is not a string or is repeated")
        if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
            raise InputError(f"array {name!r}: shape {shape!r} is not a list of counts")
        if not _is_count(start):
            raise InputError(f"array {name!r}: offset {start!r} is not a non-negative integer")
        if start != end:
            raise InputError(f"array {name!r} starts at {start}, expected {end}")
        end = start + math.prod(shape)
        if end > raw.size:
            raise InputError(f"array {name!r} runs past end of binary")
        named[name] = raw[start:end].reshape(shape).copy()
    if end != raw.size:
        raise InputError(f"{raw.size - end} trailing values after the last array")
    return named, meta
