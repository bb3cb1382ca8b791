"""Query-major, boolean-masked attention against the additive-mask reference.

The reference below is the straightforward formulation: the mask as an
additive {0, -inf} term, key-major (keys x queries) scores and a column
softmax, plus the matching backward.  It makes a second pass over masked
entries through the slow path of ``exp`` and reduces along strided axes, so
it is kept only as an oracle.
"""

import math

import numpy as np
import pytest

from segxfer import tma
from segxfer.errors import DegenerateColumnError
from segxfer.numkit import softmax_columns

RTOL = 1e-12


def oracle_weights(queries, keys, mask):
    """(keys, N) weights: column softmax of K^T Q / sqrt(C) plus the mask."""
    additive = np.where(mask.allowed, 0.0, -np.inf)
    scores = (keys.T @ queries) / math.sqrt(queries.shape[0])
    return softmax_columns(scores + additive.T)


def oracle_backward(queries, keys, values, weights, upstream):
    """Gradients of weights.T @ values; values (keys, C), weights (keys, N)."""
    d_values = weights @ upstream
    d_weights = values @ upstream.T
    d_scores = weights * (d_weights - np.sum(weights * d_weights, axis=0))
    scale = 1.0 / math.sqrt(queries.shape[0])
    return (keys @ d_scores) * scale, (queries @ d_scores.T) * scale, d_values


def assert_close(actual, expected):
    """Max absolute difference within RTOL of the oracle's largest entry."""
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= RTOL * np.max(np.abs(expected))


def random_case(seed, lambda_t=None):
    """Random (queries, keys, values), values (keys, C), and a built mask
    with masked keys and, for most seeds, at least one fallback row."""
    rng = np.random.default_rng(seed)
    c, n = int(rng.integers(2, 17)), int(rng.integers(1, 9))
    h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    keys = h * w
    spread = rng.uniform(0.5, 4.0)  # from flat to peaked weights
    qkv = (spread * rng.normal(size=(c, n)), spread * rng.normal(size=(c, keys)),
           rng.normal(size=(keys, c)))
    probs = rng.random((n, keys))
    probs[rng.integers(0, n)] = 0.95  # this row admits no key: it falls back
    lam_t = rng.uniform(0.2, 1.0) if lambda_t is None else lambda_t
    mask = tma.build_mask(tma.MaskInputs(probs, rng.random(keys), 0.6, lam_t))
    return qkv, mask, rng.normal(size=(n, c))


CASES = [(seed, None) for seed in range(30)] + [(seed, 1.0) for seed in range(30, 40)]


@pytest.mark.parametrize("seed, lambda_t", CASES,
                         ids=[f"seed{s}" + ("-lambda_t1" if lt else "") for s, lt in CASES])
def test_weights_and_gradients_match_additive_oracle(seed, lambda_t):
    (queries, keys, values), mask, upstream = random_case(seed, lambda_t)
    assert mask.fallback.any()

    weights = tma.masked_attention_weights(queries, keys, mask)
    ref = oracle_weights(queries, keys, mask)
    assert_close(weights, ref.T)
    assert np.all(weights[~mask.allowed] == 0.0)

    dq, dk, dv = tma.attention_backward_from_weights(
        queries, keys, values.T, weights, upstream)
    rq, rk, rv = oracle_backward(queries, keys, values, ref, upstream)
    assert dv.flags.c_contiguous
    assert_close(dq, rq)
    assert_close(dk, rk)
    assert_close(dv, rv.T)


def test_row_admitting_no_key_raises():
    rng = np.random.default_rng(0)
    queries, keys = rng.normal(size=(4, 3)), rng.normal(size=(4, 6))
    allowed = np.ones((3, 6), dtype=bool)
    allowed[1] = False  # hand-built: no fallback applied
    mask = tma.AttentionMaskTensor(allowed, np.zeros(3, dtype=bool))
    with pytest.raises(DegenerateColumnError):
        tma.masked_attention_weights(queries, keys, mask)


def test_masked_key_far_above_admitted_keys():
    # The masked key outscores the admitted ones by ~4000: shifting by the
    # maximum over all keys would underflow every admitted weight to 0 (and
    # divide 0 by 0), and an uncapped exponential would overflow.
    queries, keys = np.array([[40.0]]), np.array([[50.0, -49.0, -50.0]])
    mask = tma.AttentionMaskTensor(np.array([[False, True, True]]), np.zeros(1, dtype=bool))
    weights = tma.masked_attention_weights(queries, keys, mask)
    assert weights[0, 0] == 0.0 and weights[0, 1] > weights[0, 2] > 0.0
    assert_close(weights, oracle_weights(queries, keys, mask).T)
