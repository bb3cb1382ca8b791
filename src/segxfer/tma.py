"""Transferability-guided masked attention.

The mask is a boolean (queries x keys) set of admitted pairs: a key is
admitted for a query only where the predicted mask probability and the
key's transferability both fall at or below their thresholds.  The
transferability condition comes decided, one boolean key mask per image
(``segmodel.key_mask``), and ``build_mask`` ANDs it across the queries.  The
probability condition p <= lambda_m is defined on the mask logit x as x <=
logit(lambda_m), so no probability is computed to build a mask.  A query
that admits no key falls back to attending everywhere, and the fallback is
flagged so callers can count how often it fires.  Mask entries are
constants: no gradient flows through the threshold comparisons.

A key outside the key mask is never admitted except by a fallback row, so
callers may build the mask over the columns the key mask admits only, and
``widen_mask`` spreads it over every column when a row falls back.

Every array may carry leading batch axes, one entry per image: mask logits
(B, N, keys), key mask (B, keys), features (B, d, keys), weights (B, N,
keys).  Images of a batch share the key count, so a caller that gathers a
different number of columns per image pads each image with columns its key
mask leaves out: only a fallback row admits a padding column.  Without
batch axes the arrays are one image's.

Attention weights are stored query-major, (queries x keys), so every
softmax reduction runs over contiguous memory.  Keys and values are a linear
map P X + b of per-key features X; the attention functions take P and X and
never form the (C, keys) keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, InputError, ShapeError
from .numkit import mt

_LOWEST = np.finfo(float).min  # the lowest double, added to masked scores


def percentile_threshold(values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile: element at index ceil(p * n / 100) - 1 of the
    ascending order, clamped to 0; p = 0 gives the minimum."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        raise InputError("cannot take a percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise InputError(f"percentile must be in [0, 100], got {p}")
    idx = max(math.ceil(p * values.size / 100.0) - 1, 0)
    return float(np.partition(values, idx)[idx])


def logit_threshold(lam: float) -> float:
    """logit(lam) = log(lam / (1 - lam)), the logit form of the
    mask-probability threshold: -inf for lam = 0, +inf for lam = 1."""
    if not 0.0 <= lam <= 1.0:
        raise InputError(f"lambda_m must lie in [0, 1], got {lam}")
    if lam in (0.0, 1.0):
        return math.inf if lam else -math.inf
    return math.log(lam) - math.log1p(-lam)


@dataclass
class AttentionMaskTensor:
    """Admitted (query, key) pairs plus per-query fallback flags."""

    allowed: np.ndarray   # (..., N, keys) bool
    fallback: np.ndarray  # (..., N) bool

    @property
    def additive(self) -> np.ndarray:
        """The mask as a read-only additive score term: 0 where admitted,
        -inf elsewhere."""
        out = np.where(self.allowed, 0.0, -np.inf)
        out.flags.writeable = False
        return out


def build_mask(mask_logits: np.ndarray, key_mask: np.ndarray,
               lambda_m: float) -> AttentionMaskTensor:
    """Dual-thresholded mask of (..., N, keys) mask logits, any value but
    NaN, and a (..., keys) boolean key mask.

    Pair (i, j) is admitted when mask_logits[i, j] <=
    logit_threshold(lambda_m) and key j is in the key mask.  Queries left
    with no admissible key admit every key and get their fallback flag set.
    """
    mask_logits = np.asarray(mask_logits, dtype=float)
    key_mask = np.asarray(key_mask)
    if mask_logits.ndim < 2:
        raise ShapeError(f"mask logits must be (..., N, keys), got {mask_logits.shape}")
    batch, keys = mask_logits.shape[:-2], mask_logits.shape[-1]
    if key_mask.shape != (*batch, keys):
        raise ShapeError(f"key mask {key_mask.shape} does not match "
                         f"{keys} key locations of batch {batch}")
    # the minimum is NaN iff some entry is
    if mask_logits.size and np.isnan(mask_logits.min()):
        raise InputError("mask logits must not be NaN")

    allowed = mask_logits <= logit_threshold(lambda_m)
    allowed &= key_mask[..., None, :]
    fallback = ~allowed.any(axis=-1)
    allowed[fallback] = True
    return AttentionMaskTensor(allowed=allowed, fallback=fallback)


def widen_mask(mask: AttentionMaskTensor, cols: np.ndarray,
               num_keys: int) -> AttentionMaskTensor:
    """A mask built over the key columns ``cols``, (..., keys) distinct
    indices per image, spread over all ``num_keys`` columns.

    Every column left out must be outside the key mask, so the mask admits
    it only in fallback rows, which admit every key.
    """
    allowed = np.zeros((*mask.allowed.shape[:-1], num_keys), dtype=bool)
    np.put_along_axis(allowed, np.expand_dims(cols, -2), mask.allowed, axis=-1)
    allowed[mask.fallback] = True
    return AttentionMaskTensor(allowed=allowed, fallback=mask.fallback)


def _rows(flags: np.ndarray) -> str:
    """The rows flagged in a (..., N) boolean array, named for a message:
    query indices, or (image, query) pairs with a batch axis."""
    if flags.ndim == 1:
        return f"queries {np.flatnonzero(flags).tolist()}"
    pairs = [tuple(idx) for idx in np.argwhere(flags).tolist()]
    return f"(image, query) pairs {pairs}"


def masked_attention_weights(queries: np.ndarray, proj: np.ndarray, features: np.ndarray,
                             mask: AttentionMaskTensor) -> np.ndarray:
    """Attention weights (queries x keys); each row sums to 1 over its
    admitted keys and is exactly 0 elsewhere.

    The keys are a linear map of per-key features, K = P X (+ b): ``queries``
    is (..., C, N), ``proj`` is P, (C, d), and ``features`` is X, (..., d, keys).
    Scores are Q^T K / sqrt(C), computed as (P^T Q)^T X, then scaled, so no
    (C, keys) array is formed.  A key bias b adds a per-query constant to
    the scores, which the softmax cancels, so it is not an argument.

    Each row is shifted by its maximum over the admitted keys.  That maximum
    is taken without a branch per entry, as the plain maximum of the scores
    plus (not admitted) times the lowest double: an admitted score gains
    -0.0 and stays itself, and a masked one sinks to about the lowest
    double or overflows to -inf, below every admitted score while scores
    stay under 1e307 in magnitude.  Shifted scores are capped at 0 so a
    masked key scoring above that maximum cannot overflow the exponential
    before the mask zeroes it.  A row that admits no key raises
    DegenerateColumnError: callers must apply their fallback first.  A NaN
    or +inf score, admitted or not, and a row whose admitted scores are all
    -inf raise InputError.
    """
    channels, num_queries = queries.shape[-2:]
    if proj.shape[0] != channels:
        raise ShapeError(f"channel dims disagree: Q {queries.shape}, P {proj.shape}")
    if features.shape[-2] != proj.shape[1]:
        raise ShapeError(f"feature dims disagree: P {proj.shape}, X {features.shape}")
    expected = (*features.shape[:-2], num_queries, features.shape[-1])
    if mask.allowed.shape != expected:
        raise ShapeError(f"mask {mask.allowed.shape} does not match {expected}")
    empty = ~mask.allowed.any(axis=-1)
    if empty.any():
        raise DegenerateColumnError(
            f"{_rows(empty)} admit no key; apply the fallback first")
    scores = mt(proj.T @ queries) @ features
    scores *= 1.0 / math.sqrt(channels)
    shifted = np.multiply(~mask.allowed, _LOWEST)
    with np.errstate(over="ignore"):
        shifted += scores
    row_max = shifted.max(axis=-1, keepdims=True)
    del shifted
    # A maximum below _LOWEST / 2 means no admitted score above -inf; a NaN
    # or +inf score anywhere in the row fails both tests.
    bad = ~((row_max[..., 0] > _LOWEST / 2) & (row_max[..., 0] < np.inf))
    if bad.any():
        raise InputError(f"{_rows(bad)} have a NaN or infinite attention score")
    scores -= row_max
    np.minimum(scores, 0.0, out=scores)
    weights = np.exp(scores, out=scores)
    weights *= mask.allowed
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def attention_backward_from_weights(
    proj: np.ndarray,
    features: np.ndarray,
    weights: np.ndarray,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``weights @ (P X + b)^T`` given the weights of
    ``masked_attention_weights``.

    ``proj`` is P, (C, d); ``features`` is X, (..., d, keys); ``weights`` is
    query-major, (..., N, keys); ``upstream`` is the loss gradient at the
    (..., N, C) output.  Returns the (..., C, N) query gradient P (dS X^T)^T,
    the (..., N, keys) gradient dS at the scaled scores, and dS X^T,
    (..., N, d).  The key gradient is Q dS and the value gradient
    upstream^T weights; a caller that needs them against X takes Q (dS X^T)
    and upstream^T (weights X^T), never a (C, keys) array.  The bias b adds
    a per-query constant to the weight gradient, which the softmax backward
    cancels, so it is not an argument.  Pairs whose weight is exactly 0
    (masked) get a zero score gradient.
    """
    d_weights = mt(proj.T @ mt(upstream)) @ features  # (..., N, keys)
    d_weights -= (weights * d_weights).sum(axis=-1, keepdims=True)
    d_scores = np.multiply(weights, d_weights, out=d_weights)
    d_scores *= 1.0 / math.sqrt(proj.shape[0])
    d_scores_x = d_scores @ mt(features)              # (..., N, d)
    return proj @ mt(d_scores_x), d_scores, d_scores_x
