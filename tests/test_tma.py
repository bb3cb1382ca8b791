import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import gradcheck
from segxfer import numkit, tma
from segxfer.errors import InputError, ShapeError


# ---------------------------------------------------------------------------
# percentile_threshold
# ---------------------------------------------------------------------------


def test_percentile_nearest_rank_by_hand():
    values = np.arange(1, 11) / 10.0  # 0.1 .. 1.0
    assert tma.percentile_threshold(values, 30) == pytest.approx(0.3)


def test_percentile_extremes():
    values = np.array([0.7, 0.1, 0.4])
    assert tma.percentile_threshold(values, 100) == pytest.approx(0.7)
    assert tma.percentile_threshold(values, 0) == pytest.approx(0.1)


def test_percentile_errors():
    with pytest.raises(InputError):
        tma.percentile_threshold(np.array([]), 30)
    with pytest.raises(InputError):
        tma.percentile_threshold(np.array([0.5]), 130)


def test_percentile_is_an_element():
    rng = np.random.default_rng(0)
    for _ in range(20):
        values = rng.random(rng.integers(1, 40))
        p = rng.uniform(0, 100)
        assert tma.percentile_threshold(values, p) in values


# ---------------------------------------------------------------------------
# build_mask
# ---------------------------------------------------------------------------


def quadrant_mask(m, t, lam_m=0.5, lam_t=0.3):
    mi = tma.MaskInputs(np.array([[m]]), np.array([t]), lam_m, lam_t)
    return tma.build_mask(mi)


def test_mask_truth_table():
    # Admitted iff both conditions hold; the single-entry rows that fail fall back.
    both = quadrant_mask(0.3, 0.2)
    assert both.allowed[0, 0] and not both.fallback[0]
    for m, t in [(0.9, 0.2), (0.3, 0.8), (0.9, 0.8)]:
        masked = quadrant_mask(m, t)
        assert masked.fallback[0]  # the sole key failed, so the row reset


def test_mask_confident_region_suppressed():
    mi = tma.MaskInputs(
        np.array([[0.9, 0.1]]), np.array([0.2, 0.2]), 0.5, 0.3)
    out = tma.build_mask(mi)
    assert not out.allowed[0, 0]
    assert out.allowed[0, 1]
    assert not out.fallback[0]


def test_mask_boundary_values_admit():
    mi = tma.MaskInputs(np.array([[0.5, 0.2]]), np.array([0.3, 0.3]), 0.5, 0.3)
    out = tma.build_mask(mi)
    npt.assert_array_equal(out.allowed[0], [True, True])


def test_mask_all_above_lambda_t_fallback():
    rng = np.random.default_rng(1)
    probs = rng.random((3, 5)) * 0.4  # all below lambda_m
    t = 0.5 + 0.5 * rng.random(5)     # all above lambda_t
    out = tma.build_mask(tma.MaskInputs(probs, t, 0.5, 0.3))
    assert np.all(out.fallback)
    assert np.all(out.allowed)


def test_mask_monotone_in_lambda_t():
    rng = np.random.default_rng(2)
    probs = rng.random((4, 12))
    t = rng.random(12)
    previous = None
    for lam_t in np.linspace(0.0, 1.0, 9):
        out = tma.build_mask(tma.MaskInputs(probs, t, 0.6, lam_t))
        admitted = out.allowed & ~out.fallback[:, None]
        if previous is not None:
            assert np.all(admitted | ~previous)  # admitted set only grows
        previous = admitted


def test_mask_additive_is_read_only_and_follows_allowed():
    mi = tma.MaskInputs(np.array([[0.9, 0.1], [0.9, 0.9]]), np.array([0.2, 0.2]), 0.5, 0.3)
    out = tma.build_mask(mi)
    npt.assert_array_equal(out.additive, [[-np.inf, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        out.additive[0, 0] = 0.0


def test_mask_inputs_validation():
    with pytest.raises(InputError):
        tma.MaskInputs(np.array([[1.4]]), np.array([0.5]), 0.5, 0.5)
    with pytest.raises(InputError):
        tma.MaskInputs(np.array([[0.4]]), np.array([0.5]), 1.5, 0.5)
    with pytest.raises(ShapeError):
        tma.MaskInputs(np.array([[0.4, 0.2]]), np.array([0.5]), 0.5, 0.5)
    with pytest.raises(InputError):
        tma.MaskInputs(np.array([[np.nan, 0.2]]), np.array([0.5, 0.5]), 0.5, 0.5)
    with pytest.raises(InputError):
        tma.MaskInputs(np.array([[0.4, 0.2]]), np.array([0.5, np.nan]), 0.5, 0.5)


# ---------------------------------------------------------------------------
# masked attention: output = weights @ values.T, values channel-major (C, keys)
# ---------------------------------------------------------------------------


def open_mask(n, keys):
    """Every key admitted for every query."""
    return tma.AttentionMaskTensor(np.ones((n, keys), dtype=bool), np.zeros(n, dtype=bool))


def attend(q, k, v, mask):
    """Masked attention output, (N, C)."""
    return tma.masked_attention_weights(q, k, mask) @ v.T


def attend_backward(q, k, v, mask, upstream):
    """Gradients of ``attend`` w.r.t. q, k and v, in their layouts."""
    weights = tma.masked_attention_weights(q, k, mask)
    return tma.attention_backward_from_weights(q, k, v, weights, upstream)


def test_attention_single_key_returns_value_row():
    rng = np.random.default_rng(3)
    q, k, v = rng.normal(size=(4, 3)), rng.normal(size=(4, 1)), rng.normal(size=(1, 4)).T
    out = attend(q, k, v, open_mask(3, 1))
    npt.assert_allclose(out, np.tile(v[:, 0], (3, 1)), atol=1e-12)


def test_attention_uniform_weights_give_value_mean():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(6, 4)).T
    out = attend(np.zeros((4, 2)), rng.normal(size=(4, 6)), values, open_mask(2, 6))
    npt.assert_allclose(out, np.tile(values.mean(axis=1), (2, 1)), atol=1e-12)


def test_attention_matches_per_query_loop_oracle():
    rng = np.random.default_rng(5)
    c, n, keys = 4, 2, 6
    queries, k, values = (rng.normal(size=(c, n)), rng.normal(size=(c, keys)),
                          rng.normal(size=(keys, c)).T)
    allowed = rng.random((n, keys)) >= 0.3
    allowed[:, 0] = True  # keep every row alive
    mask = tma.AttentionMaskTensor(allowed, np.zeros(n, dtype=bool))
    out = attend(queries, k, values, mask)

    expected = np.zeros((n, c))
    for q in range(n):
        scores = np.full(keys, -np.inf)
        for j in range(keys):
            if allowed[q, j]:
                scores[j] = k[:, j] @ queries[:, q] / np.sqrt(c)
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        for j in range(keys):
            expected[q] += w[j] * values[:, j]
    npt.assert_allclose(out, expected, atol=1e-10)


def test_attention_weights_are_distribution_and_masked_zero():
    rng = np.random.default_rng(6)
    q, k = rng.normal(size=(3, 4)), rng.normal(size=(3, 5))
    allowed = np.ones((4, 5), dtype=bool)
    allowed[1, 2] = False
    mask = tma.AttentionMaskTensor(allowed, np.zeros(4, dtype=bool))
    weights = tma.masked_attention_weights(q, k, mask)
    assert weights.shape == (4, 5)  # query-major
    npt.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(weights >= 0)
    assert weights[1, 2] == 0.0


def test_attention_gating_off_equals_plain_attention():
    rng = np.random.default_rng(7)
    c, n, keys = 5, 3, 8
    q, k, v = (rng.normal(size=(c, n)), rng.normal(size=(c, keys)),
               rng.normal(size=(keys, c)).T)
    mi = tma.MaskInputs(rng.random((n, keys)), rng.random(keys), 1.0, 1.0)
    out = attend(q, k, v, tma.build_mask(mi))
    plain = numkit.softmax_columns(k.T @ q / np.sqrt(c)).T @ v.T
    npt.assert_allclose(out, plain, atol=1e-10)


def test_attention_fallback_output_is_finite():
    rng = np.random.default_rng(8)
    c, n, keys = 4, 2, 6
    q, k, v = (rng.normal(size=(c, n)), rng.normal(size=(c, keys)),
               rng.normal(size=(keys, c)).T)
    mi = tma.MaskInputs(np.ones((n, keys)) * 0.9, rng.random(keys), 0.5, 0.3)
    mask = tma.build_mask(mi)
    assert np.all(mask.fallback)
    assert np.all(np.isfinite(attend(q, k, v, mask)))


def test_attention_shape_error():
    rng = np.random.default_rng(9)
    q = rng.normal(size=(4, 2))
    # a mask over 5 keys for 6 keys, then keys with 3 channels for 4-channel queries
    for k_channels, mask_keys in [(4, 5), (3, 6)]:
        with pytest.raises(ShapeError):
            tma.masked_attention_weights(q, rng.normal(size=(k_channels, 6)),
                                         open_mask(2, mask_keys))


# ---------------------------------------------------------------------------
# attention backward
# ---------------------------------------------------------------------------


def random_instance(seed, c=4, n=3, keys=4):
    """(q, k, v) with channel-major values, a mask and an upstream gradient."""
    rng = np.random.default_rng(seed)
    qkv = (rng.normal(size=(c, n)), rng.normal(size=(c, keys)), rng.normal(size=(keys, c)).T)
    allowed = rng.random((n, keys)) >= 0.3
    allowed[:, 0] = True
    mask = tma.AttentionMaskTensor(allowed, np.zeros(n, dtype=bool))
    upstream = rng.normal(size=(n, c))
    return qkv, mask, upstream


def test_attention_backward_gradcheck():
    errs = []
    for seed in range(20):
        qkv, mask, upstream = random_instance(seed, c=4, n=2, keys=3)
        def f(flat, mask=mask, upstream=upstream):
            out = attend(*flat, mask)
            grads = attend_backward(*flat, mask, upstream)
            return float(np.sum(out * upstream)), list(grads)
        errs.append(gradcheck(f, list(qkv)))
    assert max(errs) <= 1e-4


def test_attention_backward_masked_positions_zero_gradient():
    qkv, mask, upstream = random_instance(10)
    mask.allowed[:, 3] = False  # key 3 invisible to every query
    dq, dk, dv = attend_backward(*qkv, mask, upstream)
    npt.assert_array_equal(dk[:, 3], 0.0)
    npt.assert_array_equal(dv[:, 3], 0.0)


def test_attention_backward_linear_in_upstream():
    qkv, mask, upstream = random_instance(11)
    g1 = attend_backward(*qkv, mask, upstream)
    g2 = attend_backward(*qkv, mask, 2.0 * upstream)
    for a, b in zip(g1, g2):
        npt.assert_allclose(2.0 * a, b, atol=1e-12)
