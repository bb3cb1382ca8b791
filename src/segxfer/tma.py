"""Transferability-guided masked attention.

The mask is a boolean (queries x keys) set of admitted pairs: a key is
admitted for a query only where the predicted mask probability and the
key's transferability both fall at or below their thresholds.  A query that
admits no key falls back to attending everywhere, and the fallback is
flagged so callers can count how often it fires.  Mask entries are
constants: no gradient flows through the threshold comparisons.

Attention weights are stored query-major, (queries x keys), so every
softmax reduction runs over contiguous memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import netpbm
from .errors import DegenerateColumnError, InputError, ShapeError


def percentile_threshold(values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile: element at index ceil(p/100 * n) - 1 of the
    ascending sort, clamped to the array; p = 0 gives the minimum."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise InputError("cannot take a percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise InputError(f"percentile must be in [0, 100], got {p}")
    ordered = np.sort(values)
    idx = int(np.ceil(p / 100.0 * values.size)) - 1
    idx = min(max(idx, 0), values.size - 1)
    return float(ordered[idx])


@dataclass
class MaskInputs:
    """Predicted mask probabilities, per-key transferability, and thresholds."""

    mask_probs: np.ndarray       # (N, H_l*W_l) in [0, 1]
    transferability: np.ndarray  # (H_l*W_l,) in [0, 1]
    lambda_m: float
    lambda_t: float

    def __post_init__(self) -> None:
        self.mask_probs = np.asarray(self.mask_probs, dtype=float)
        self.transferability = np.asarray(self.transferability, dtype=float)
        if self.mask_probs.ndim != 2:
            raise ShapeError(f"mask probs must be (N, keys), got {self.mask_probs.shape}")
        if self.transferability.shape != (self.mask_probs.shape[1],):
            raise ShapeError(
                f"transferability {self.transferability.shape} does not match "
                f"{self.mask_probs.shape[1]} key locations"
            )
        for name, arr in (("mask probs", self.mask_probs),
                          ("transferability", self.transferability)):
            if np.any(arr < 0) or np.any(arr > 1):
                raise InputError(f"{name} must lie in [0, 1]")
        for name, val in (("lambda_m", self.lambda_m), ("lambda_t", self.lambda_t)):
            if not 0.0 <= val <= 1.0:
                raise InputError(f"{name} must lie in [0, 1], got {val}")


@dataclass
class AttentionMaskTensor:
    """Admitted (query, key) pairs plus per-query fallback flags."""

    allowed: np.ndarray   # (N, H_l*W_l) bool
    fallback: np.ndarray  # (N,) bool

    @property
    def additive(self) -> np.ndarray:
        """The mask as a read-only additive score term: 0 where admitted,
        -inf elsewhere."""
        out = np.where(self.allowed, 0.0, -np.inf)
        out.flags.writeable = False
        return out


def build_mask(mi: MaskInputs) -> AttentionMaskTensor:
    """Dual-thresholded mask.

    Pair (i, j) is admitted iff mask_probs[i, j] <= lambda_m and the key's
    transferability is <= lambda_t (transferability is per key location,
    broadcast across queries).  Queries left with no admissible key admit
    every key and get their fallback flag set.
    """
    allowed = (mi.mask_probs <= mi.lambda_m) & (mi.transferability[None, :] <= mi.lambda_t)
    fallback = ~allowed.any(axis=1)
    allowed[fallback, :] = True
    return AttentionMaskTensor(allowed=allowed, fallback=fallback)


@dataclass
class AttentionInputs:
    """Single-head attention operands at one layer's spatial resolution."""

    queries: np.ndarray  # (C, N)
    keys: np.ndarray     # (C, H_l*W_l)
    values: np.ndarray   # (H_l*W_l, C)
    height: int
    width: int

    def __post_init__(self) -> None:
        self.queries = np.asarray(self.queries, dtype=float)
        self.keys = np.asarray(self.keys, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        c, _ = self.queries.shape
        if self.keys.shape[0] != c or self.values.shape[1] != c:
            raise ShapeError(
                f"channel dims disagree: Q {self.queries.shape}, "
                f"K {self.keys.shape}, V {self.values.shape}"
            )
        keys_n = self.height * self.width
        if keys_n < 1 or self.keys.shape[1] != keys_n or self.values.shape[0] != keys_n:
            raise ShapeError(
                f"spatial dims {self.height}x{self.width} do not match "
                f"K {self.keys.shape} / V {self.values.shape}"
            )

    @property
    def channels(self) -> int:
        return self.queries.shape[0]

    @property
    def num_queries(self) -> int:
        return self.queries.shape[1]


def masked_attention_weights(ai: AttentionInputs, mask: AttentionMaskTensor) -> np.ndarray:
    """Attention weights (queries x keys); each row sums to 1 over its
    admitted keys and is exactly 0 elsewhere.

    Scores are Q^T K / sqrt(C).  Each row is shifted by its maximum over the
    admitted keys; shifted scores are capped at 0 so a masked key scoring
    above that maximum cannot overflow the exponential before the mask
    zeroes it.  A row that admits no key raises DegenerateColumnError:
    callers must apply their fallback first.
    """
    expected = (ai.num_queries, ai.keys.shape[1])
    if mask.allowed.shape != expected:
        raise ShapeError(f"mask {mask.allowed.shape} does not match {expected}")
    scores = (ai.queries.T / math.sqrt(ai.channels)) @ ai.keys
    row_max = np.where(mask.allowed, scores, -np.inf).max(axis=1, keepdims=True)
    if not np.all(np.isfinite(row_max)):
        bad = np.flatnonzero(~np.isfinite(row_max))
        raise DegenerateColumnError(
            f"queries {bad.tolist()} admit no key; apply the fallback first")
    scores -= row_max
    np.minimum(scores, 0.0, out=scores)
    weights = np.exp(scores, out=scores)
    weights *= mask.allowed
    weights /= np.sum(weights, axis=1, keepdims=True)
    return weights


def tma_attention(ai: AttentionInputs, mask: AttentionMaskTensor) -> np.ndarray:
    """Masked scaled-dot-product attention; returns updated queries (N, C).

    Row n of the output is the value rows averaged with query n's weights.
    """
    return masked_attention_weights(ai, mask) @ ai.values


def attention_backward_from_weights(
    queries: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``weights @ values.T`` given precomputed attention weights.

    ``queries`` is (C, N); ``keys`` and ``values`` are channel-major,
    (C, keys); ``weights`` is query-major, (N, keys), as returned by
    ``masked_attention_weights``; ``upstream`` is the loss gradient at the
    (N, C) output.  The gradients come back in the layouts of the inputs,
    so the value gradient is a contiguous (C, keys) array.  Pairs whose
    weight is exactly 0 (masked) receive zero gradient through the softmax
    backward.
    """
    d_values = upstream.T @ weights                 # (C, keys)
    d_weights = upstream @ values                   # (N, keys)
    d_weights -= np.sum(weights * d_weights, axis=1, keepdims=True)
    d_scores = np.multiply(weights, d_weights, out=d_weights)
    d_scores *= 1.0 / math.sqrt(queries.shape[0])
    d_queries = keys @ d_scores.T                   # (C, N)
    d_keys = queries @ d_scores                     # (C, keys)
    return d_queries, d_keys, d_values


def tma_attention_backward(
    ai: AttentionInputs,
    mask: AttentionMaskTensor,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of tma_attention w.r.t. queries, keys and values.

    ``upstream`` is the loss gradient at the (N, C) output.  Mask entries are
    constants, so masked pairs contribute exactly zero gradient.
    """
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (ai.num_queries, ai.channels):
        raise ShapeError(
            f"upstream {upstream.shape} does not match output "
            f"({ai.num_queries}, {ai.channels})"
        )
    weights = masked_attention_weights(ai, mask)
    d_queries, d_keys, d_values = attention_backward_from_weights(
        ai.queries, ai.keys, ai.values.T, weights, upstream)
    return d_queries, d_keys, d_values.T


def mask_images(mask: AttentionMaskTensor, height: int, width: int) -> list[np.ndarray]:
    """Per-query uint8 images of the mask: admitted keys white, masked black."""
    if mask.allowed.shape[1] != height * width:
        raise ShapeError(
            f"mask covers {mask.allowed.shape[1]} keys, grid is {height}x{width}"
        )
    return [np.where(row, 255, 0).astype(np.uint8).reshape(height, width)
            for row in mask.allowed]


def write_mask_pgm(mask: AttentionMaskTensor, height: int, width: int,
                   query: int, path) -> None:
    netpbm.write_pgm(path, mask_images(mask, height, width)[query])
