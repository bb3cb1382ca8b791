"""Transferability-guided masked attention.

The mask is a boolean (queries x keys) set of admitted pairs: a key is
admitted for a query only where the predicted mask probability and the
key's transferability both fall at or below their thresholds.  The
transferability condition comes decided, one boolean key mask per image
(``segmodel.key_mask``), and ``build_mask`` ANDs it across the queries.  The
probability condition is evaluated on the mask logits: sigmoid(x) <=
lambda_m holds exactly when x <= logit_threshold(lambda_m), so no
probability is computed to build a mask.  A query that admits no key falls
back to attending everywhere, and the fallback is flagged so callers can
count how often it fires.  Mask entries are constants: no gradient flows
through the threshold comparisons.

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, InputError, ShapeError
from .numkit import mt, sigmoid


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


@functools.cache
def logit_threshold(lam: float) -> float:
    """The largest double t with ``numkit.sigmoid(t) <= lam``: the logit form
    of the mask-probability condition, exact for every double logit where
    sigmoid is monotone across the crossing.  Rounding breaks that by an ulp
    for about one random lam in 200; there t is one of the crossings.

    Found by bisection over the doubles in [-1000, 1000], where sigmoid runs
    from 0 to 1, once per ``lam``.  It is +inf for lam = 1; for lam = 0.5 it
    is ~1.56e-16, not 0, because sigmoid rounds to 0.5 just above 0.
    """
    if not 0.0 <= lam <= 1.0:
        raise InputError(f"lambda_m must lie in [0, 1], got {lam}")

    def admits(x: float) -> bool:
        return bool(sigmoid(np.array([x]))[0] <= lam)

    if admits(math.inf):
        return math.inf
    lo, hi = -1000.0, 1000.0  # admits(lo), not admits(hi)
    while (mid := lo + (hi - lo) / 2) not in (lo, hi):
        if admits(mid):
            lo = mid
        else:
            hi = mid
    return lo


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

    Pair (i, j) is admitted iff sigmoid(mask_logits[i, j]) <= lambda_m,
    tested as mask_logits[i, j] <= logit_threshold(lambda_m), and key j is
    in the key mask.  Queries left with no admissible key admit every key
    and get their fallback flag set.
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


def masked_attention_weights(queries: np.ndarray, proj: np.ndarray, features: np.ndarray,
                             mask: AttentionMaskTensor) -> np.ndarray:
    """Attention weights (queries x keys); each row sums to 1 over its
    admitted keys and is exactly 0 elsewhere.

    The keys are a linear map of per-key features, K = P X (+ b): ``queries``
    is (..., C, N), ``proj`` is P, (C, d), and ``features`` is X, (..., d, keys).
    Scores are Q^T K / sqrt(C), computed as (P^T Q)^T X, then scaled, so no
    (C, keys) array is formed.  A key bias b adds a per-query constant to
    the scores, which the softmax cancels, so it is not an argument.  Each
    row is shifted by its maximum over the admitted keys; shifted scores are
    capped at 0 so a masked key scoring above that maximum cannot overflow
    the exponential before the mask zeroes it.  A row that admits no key
    raises DegenerateColumnError: callers must apply their fallback first.
    """
    channels, num_queries = queries.shape[-2:]
    if proj.shape[0] != channels:
        raise ShapeError(f"channel dims disagree: Q {queries.shape}, P {proj.shape}")
    if features.shape[-2] != proj.shape[1]:
        raise ShapeError(f"feature dims disagree: P {proj.shape}, X {features.shape}")
    expected = (*features.shape[:-2], num_queries, features.shape[-1])
    if mask.allowed.shape != expected:
        raise ShapeError(f"mask {mask.allowed.shape} does not match {expected}")
    scores = mt(proj.T @ queries) @ features
    scores *= 1.0 / math.sqrt(channels)
    row_max = np.where(mask.allowed, scores, -np.inf).max(axis=-1, keepdims=True)
    if not np.isfinite(row_max).all():
        bad = np.flatnonzero(~np.isfinite(row_max))
        raise DegenerateColumnError(
            f"queries {bad.tolist()} admit no key; apply the fallback first")
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
