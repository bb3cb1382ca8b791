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
            # a NaN fails both comparisons, so it is rejected too
            if arr.size and not (arr.min() >= 0 and arr.max() <= 1):
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


def masked_attention_weights(queries: np.ndarray, keys: np.ndarray,
                             mask: AttentionMaskTensor) -> np.ndarray:
    """Attention weights (queries x keys); each row sums to 1 over its
    admitted keys and is exactly 0 elsewhere.

    ``queries`` is (C, N) and ``keys`` is (C, keys).  Scores are
    Q^T K / sqrt(C).  Each row is shifted by its maximum over the
    admitted keys; shifted scores are capped at 0 so a masked key scoring
    above that maximum cannot overflow the exponential before the mask
    zeroes it.  A row that admits no key raises DegenerateColumnError:
    callers must apply their fallback first.
    """
    channels, num_queries = queries.shape
    if keys.shape[0] != channels:
        raise ShapeError(f"channel dims disagree: Q {queries.shape}, K {keys.shape}")
    expected = (num_queries, keys.shape[1])
    if mask.allowed.shape != expected:
        raise ShapeError(f"mask {mask.allowed.shape} does not match {expected}")
    scores = (queries.T / math.sqrt(channels)) @ keys
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
