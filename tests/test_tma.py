import math

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import gradcheck
from segxfer import numkit, tma
from segxfer.errors import DegenerateColumnError, InputError, ShapeError


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


@pytest.mark.parametrize("n", [1, 7, 10, 100, 256])
def test_percentile_matches_integer_rank_oracle(n):
    # Rank ceil(p * n / 100) in integer arithmetic; p * n / 100 integral
    # (e.g. p = 7, 14, 28, 55, 56 at n = 100) must not step to the next element.
    values = np.random.default_rng(n).permutation(n) / n  # distinct, shuffled
    ordered = np.sort(values)
    for p in range(101):
        rank = -(-p * n // 100)
        assert tma.percentile_threshold(values, float(p)) == ordered[max(rank, 1) - 1], p


# ---------------------------------------------------------------------------
# logit_threshold: sigmoid(x) <= lambda_m  <=>  x <= logit_threshold(lambda_m)
# ---------------------------------------------------------------------------


LAMBDAS = [0.0, 1e-300, 0.1, 0.5, 0.9, 0.99, 1.0]


def logit(p):
    """Logit of a probability; the inverse of the sigmoid up to rounding."""
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def doubles_around(t, steps):
    """The doubles within ``steps`` nextafter steps of finite ``t`` (or
    below the largest finite double for t = +inf)."""
    if np.isinf(t):
        return (np.array(np.finfo(float).max).view(np.int64)
                - np.arange(steps + 1)).view(float)
    return (np.array(t).view(np.int64) + np.arange(-steps, steps + 1)).view(float)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_logit_threshold_is_exact_for_the_sigmoid(lam):
    t = tma.logit_threshold(lam)
    rng = np.random.default_rng(12)
    scales = 10.0 ** np.linspace(-300, np.log10(800.0), 40)
    samples = [s * rng.normal(size=(200, 150)) for s in scales]
    samples.append(doubles_around(t, 100_000))
    samples.append(np.array([-np.inf, -0.0, 0.0, np.inf]))
    for x in samples:
        npt.assert_array_equal(numkit.sigmoid(x) <= lam, x <= t)
    assert numkit.sigmoid(np.array([t]))[0] <= lam
    if np.isfinite(t):
        assert numkit.sigmoid(np.array([np.nextafter(t, np.inf)]))[0] > lam


def test_logit_threshold_values_and_errors():
    assert tma.logit_threshold(1.0) == np.inf
    assert 1e-16 < tma.logit_threshold(0.5) < 2e-16  # sigmoid rounds to 0.5 above 0
    assert tma.logit_threshold(0.1) == pytest.approx(-tma.logit_threshold(0.9))
    for lam in (-0.1, 1.5, np.nan):
        with pytest.raises(InputError):
            tma.logit_threshold(lam)


# ---------------------------------------------------------------------------
# build_mask
# ---------------------------------------------------------------------------


def quadrant_mask(m, t, lam_m=0.5, lam_t=0.3):
    """Mask of one query and one key with mask probability m, given as its
    logit, and transferability t."""
    return tma.build_mask(logit([[m]]), np.array([t <= lam_t]), lam_m)


def test_mask_truth_table():
    # Admitted iff both conditions hold; the single-entry rows that fail fall back.
    both = quadrant_mask(0.3, 0.2)
    assert both.allowed[0, 0] and not both.fallback[0]
    for m, t in [(0.9, 0.2), (0.3, 0.8), (0.9, 0.8)]:
        masked = quadrant_mask(m, t)
        assert masked.fallback[0]  # the sole key failed, so the row reset


def test_mask_confident_region_suppressed():
    out = tma.build_mask(logit([[0.9, 0.1]]), np.array([True, True]), 0.5)
    assert not out.allowed[0, 0]
    assert out.allowed[0, 1]
    assert not out.fallback[0]


def test_mask_boundary_values_admit():
    # A third key keeps the row alive, so no fallback hides a rejected key.
    t = tma.logit_threshold(0.5)
    out = tma.build_mask(np.array([[t, np.nextafter(t, np.inf), logit(0.2)]]),
                         np.ones(3, dtype=bool), 0.5)
    npt.assert_array_equal(out.allowed[0], [True, False, True])
    assert not out.fallback[0]


def test_mask_all_above_lambda_t_fallback():
    rng = np.random.default_rng(1)
    logits = logit(rng.random((3, 5)) * 0.4)  # all below lambda_m
    t = 0.5 + 0.5 * rng.random(5)             # all above lambda_t
    out = tma.build_mask(logits, t <= 0.3, 0.5)
    assert np.all(out.fallback)
    assert np.all(out.allowed)


def test_mask_monotone_in_lambda_t():
    rng = np.random.default_rng(2)
    logits = logit(rng.random((4, 12)))
    t = rng.random(12)
    previous = None
    for lam_t in np.linspace(0.0, 1.0, 9):
        out = tma.build_mask(logits, t <= lam_t, 0.6)
        admitted = out.allowed & ~out.fallback[:, None]
        if previous is not None:
            assert np.all(admitted | ~previous)  # admitted set only grows
        previous = admitted


def test_mask_additive_is_read_only_and_follows_allowed():
    out = tma.build_mask(logit([[0.9, 0.1], [0.9, 0.9]]), np.array([True, True]), 0.5)
    npt.assert_array_equal(out.additive, [[-np.inf, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        out.additive[0, 0] = 0.0


def test_mask_inputs_validation():
    # transferability values are checked where segmodel builds a key mask
    # (test_segmodel.py::test_key_mask_rejects_t_outside_unit_range)
    for lam_m in (-0.1, 1.5, np.nan):
        with pytest.raises(InputError):
            tma.build_mask(np.array([[0.4]]), np.array([True]), lam_m)
    with pytest.raises(InputError):
        tma.build_mask(np.array([[np.nan, 0.2]]), np.array([True, True]), 0.5)
    # logits have no range: saturated ones are valid
    tma.build_mask(np.array([[-np.inf, np.inf, 1e300]]), np.ones(3, dtype=bool), 0.5)


@pytest.mark.parametrize("logits_shape, key_shape", [
    ((1, 2), (1,)),        # too few keys
    ((1, 2), (3,)),        # too many keys
    ((1, 2), (1, 2)),      # a batch axis the logits lack
    ((3, 4, 6), (6,)),     # no batch axis for batched logits
    ((3, 4, 6), (2, 6)),   # too few images
])
def test_mask_rejects_key_mask_of_other_shape(logits_shape, key_shape):
    with pytest.raises(ShapeError):
        tma.build_mask(np.zeros(logits_shape), np.ones(key_shape, dtype=bool), 0.5)


def test_widen_mask_spreads_columns_and_fallback_rows():
    logits = logit([[0.9, 0.1], [0.9, 0.9]])  # row 1 admits neither gathered key
    cols = np.array([1, 3])
    out = tma.widen_mask(tma.build_mask(logits, np.array([True, True]), 0.5), cols, 5)
    npt.assert_array_equal(out.allowed, [[False, False, False, True, False],
                                         [True, True, True, True, True]])
    npt.assert_array_equal(out.fallback, [False, True])


def test_batched_mask_matches_per_image_masks():
    # one key mask per image; widen_mask takes each image's own columns
    rng = np.random.default_rng(10)
    logits, t = logit(rng.random((3, 4, 6))), rng.random((3, 6))
    keep = t <= np.array([0.2, 0.5, 1.0])[:, None]
    logits[0, 1] = logit(0.9)  # a fallback row
    batched = tma.build_mask(logits, keep, 0.6)
    cols = np.array([rng.permutation(9)[:6] for _ in range(3)])
    wide = tma.widen_mask(batched, cols, 9)
    for b in range(3):
        one = tma.build_mask(logits[b], keep[b], 0.6)
        npt.assert_array_equal(batched.allowed[b], one.allowed)
        npt.assert_array_equal(batched.fallback[b], one.fallback)
        npt.assert_array_equal(wide.allowed[b], tma.widen_mask(one, cols[b], 9).allowed)
    assert batched.fallback[0, 1]


# ---------------------------------------------------------------------------
# masked attention: keys = values = proj @ feats, output weights @ values.T
# ---------------------------------------------------------------------------


def open_mask(n, keys):
    """Every key admitted for every query."""
    return tma.AttentionMaskTensor(np.ones((n, keys), dtype=bool), np.zeros(n, dtype=bool))


def attend(q, proj, feats, mask):
    """Masked attention output, (N, C), over keys and values proj @ feats."""
    return tma.masked_attention_weights(q, proj, feats, mask) @ (proj @ feats).T


def attend_backward(q, proj, feats, mask, upstream):
    """Gradients of ``attend`` w.r.t. q, proj and feats, in their layouts,
    plus the score gradient."""
    weights = tma.masked_attention_weights(q, proj, feats, mask)
    dq, d_scores, _ = tma.attention_backward_from_weights(proj, feats, weights, upstream)
    d_keys_values = q @ d_scores + upstream.T @ weights  # at proj @ feats, (C, keys)
    return dq, d_keys_values @ feats.T, proj.T @ d_keys_values, d_scores


def test_attention_single_key_returns_value_row():
    rng = np.random.default_rng(3)
    q, proj, feats = rng.normal(size=(4, 3)), rng.normal(size=(4, 5)), rng.normal(size=(5, 1))
    out = attend(q, proj, feats, open_mask(3, 1))
    npt.assert_allclose(out, np.tile((proj @ feats)[:, 0], (3, 1)), atol=1e-12)


def test_attention_uniform_weights_give_value_mean():
    rng = np.random.default_rng(4)
    proj, feats = rng.normal(size=(4, 3)), rng.normal(size=(3, 6))
    out = attend(np.zeros((4, 2)), proj, feats, open_mask(2, 6))
    npt.assert_allclose(out, np.tile((proj @ feats).mean(axis=1), (2, 1)), atol=1e-12)


def test_attention_matches_per_query_loop_oracle():
    rng = np.random.default_rng(5)
    c, d, n, keys = 4, 3, 2, 6
    queries, proj, feats = (rng.normal(size=(c, n)), rng.normal(size=(c, d)),
                            rng.normal(size=(d, keys)))
    allowed = rng.random((n, keys)) >= 0.3
    allowed[:, 0] = True  # keep every row alive
    mask = tma.AttentionMaskTensor(allowed, np.zeros(n, dtype=bool))
    out = attend(queries, proj, feats, mask)

    k = proj @ feats
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
            expected[q] += w[j] * k[:, j]
    npt.assert_allclose(out, expected, atol=1e-10)


def test_attention_weights_are_distribution_and_masked_zero():
    rng = np.random.default_rng(6)
    q, proj, feats = rng.normal(size=(3, 4)), rng.normal(size=(3, 2)), rng.normal(size=(2, 5))
    allowed = np.ones((4, 5), dtype=bool)
    allowed[1, 2] = False
    mask = tma.AttentionMaskTensor(allowed, np.zeros(4, dtype=bool))
    weights = tma.masked_attention_weights(q, proj, feats, mask)
    assert weights.shape == (4, 5)  # query-major
    npt.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(weights >= 0)
    assert weights[1, 2] == 0.0


def test_attention_gating_off_equals_plain_attention():
    rng = np.random.default_rng(7)
    c, d, n, keys = 5, 4, 3, 8
    q, proj, feats = (rng.normal(size=(c, n)), rng.normal(size=(c, d)),
                      rng.normal(size=(d, keys)))
    out = attend(q, proj, feats,
                 tma.build_mask(logit(rng.random((n, keys))), rng.random(keys) <= 1.0, 1.0))
    k = proj @ feats
    plain = numkit.softmax_columns(k.T @ q / np.sqrt(c)).T @ k.T
    npt.assert_allclose(out, plain, atol=1e-10)


def test_attention_fallback_output_is_finite():
    rng = np.random.default_rng(8)
    c, d, n, keys = 4, 3, 2, 6
    q, proj, feats = (rng.normal(size=(c, n)), rng.normal(size=(c, d)),
                      rng.normal(size=(d, keys)))
    mask = tma.build_mask(logit(np.ones((n, keys)) * 0.9), rng.random(keys) <= 0.3, 0.5)
    assert np.all(mask.fallback)
    assert np.all(np.isfinite(attend(q, proj, feats, mask)))


def test_attention_shape_error():
    rng = np.random.default_rng(9)
    q = rng.normal(size=(4, 2))
    # a mask over 5 keys for 6 keys, a projection to 3 channels for
    # 4-channel queries, then 2-dim features for a 3-dim projection
    for proj_shape, feat_dims, mask_keys in [((4, 3), 3, 5), ((3, 3), 3, 6), ((4, 3), 2, 6)]:
        with pytest.raises(ShapeError):
            tma.masked_attention_weights(q, rng.normal(size=proj_shape),
                                         rng.normal(size=(feat_dims, 6)),
                                         open_mask(2, mask_keys))


def test_batched_attention_is_bitwise_per_image_attention():
    rng = np.random.default_rng(11)
    c, d, n, keys = 4, 3, 2, 6
    q, proj = rng.normal(size=(3, c, n)), rng.normal(size=(c, d))
    feats, upstream = rng.normal(size=(3, d, keys)), rng.normal(size=(3, n, c))
    mask = tma.build_mask(logit(rng.random((3, n, keys))),
                          rng.random((3, keys)) <= np.array([0.3, 0.6, 1.0])[:, None], 0.6)
    weights = tma.masked_attention_weights(q, proj, feats, mask)
    grads = tma.attention_backward_from_weights(proj, feats, weights, upstream)
    for b in range(3):
        one = tma.AttentionMaskTensor(mask.allowed[b], mask.fallback[b])
        w = tma.masked_attention_weights(q[b], proj, feats[b], one)
        npt.assert_array_equal(weights[b], w)
        for got, ref in zip(grads, tma.attention_backward_from_weights(proj, feats[b], w,
                                                                       upstream[b])):
            npt.assert_array_equal(got[b], ref)


def where_row_max_weights(queries, proj, feats, mask):
    """The oracle: ``masked_attention_weights`` with each row's maximum taken
    over ``np.where(allowed, scores, -inf)``, every other step the same."""
    scores = numkit.mt(proj.T @ queries) @ feats
    scores *= 1.0 / math.sqrt(queries.shape[-2])
    scores -= np.where(mask.allowed, scores, -np.inf).max(axis=-1, keepdims=True)
    np.minimum(scores, 0.0, out=scores)
    np.exp(scores, out=scores)
    scores *= mask.allowed
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def row_max_case(seed, batch=3, n=16):
    """Scores (batch, n, keys) and a mask whose rows cycle through five
    kinds: admitted scores all negative, a masked score above the admitted
    maximum, masked scores so negative that adding the lowest double
    overflows them to -inf, one admitted key, and a fallback row."""
    rng = np.random.default_rng(seed)
    keys = 1 if seed % 5 == 0 else int(rng.integers(2, 14))
    scores = rng.normal(scale=rng.choice([0.1, 3.0, 40.0]), size=(batch, n, keys))
    allowed = np.zeros((batch, n, keys), dtype=bool)
    fallback = np.zeros((batch, n), dtype=bool)
    for b in range(batch):
        for i in range(n):
            row, ok, kind = scores[b, i], allowed[b, i], i % 5
            if kind == 4:
                ok[:] = fallback[b, i] = True
            elif kind == 3 or keys == 1:
                ok[rng.integers(keys)] = True
            else:
                ok[:] = rng.random(keys) < 0.5
                on, off = rng.choice(keys, size=2, replace=False)
                ok[on], ok[off] = True, False
                if kind == 0:
                    row[ok] = -np.abs(row[ok]) - 0.5
                elif kind == 1:
                    row[~ok] = row[ok].max() + rng.uniform(0.1, 100.0, size=(~ok).sum())
                else:
                    row[~ok] = -rng.uniform(1e293, 1e300, size=(~ok).sum())
    return scores, tma.AttentionMaskTensor(allowed, fallback)


@pytest.mark.parametrize("seed", range(20))
def test_batched_weights_are_bitwise_the_where_row_max(seed):
    scores, mask = row_max_case(seed)
    batch, n, keys = scores.shape
    assert mask.allowed.any(axis=-1).all() and mask.fallback.any()
    if keys > 1:
        masked = np.where(mask.allowed, -np.inf, scores)
        admitted_max = np.where(mask.allowed, scores, -np.inf).max(axis=-1)
        assert (masked.max(axis=-1) > admitted_max).any()
        assert (np.where(mask.allowed, 0.0, scores) < -1e293).any()
        assert (admitted_max < 0.0).any()
    # With Q = P = I and C = d = n = 16, the scores are the features / 4
    # exactly, so each case's scores reach the row max as built.
    eye = np.eye(n)
    cases = [(np.broadcast_to(eye, (batch, n, n)), eye, 4.0 * scores)]
    npt.assert_array_equal(numkit.mt(eye @ cases[0][0]) @ cases[0][2] * 0.25, scores)
    rng = np.random.default_rng(seed + 100)
    cases.append((rng.normal(size=(batch, 5, n)), rng.normal(size=(5, 3)),
                  rng.normal(size=(batch, 3, keys))))
    for queries, proj, feats in cases:
        got = tma.masked_attention_weights(queries, proj, feats, mask)
        ref = where_row_max_weights(queries, proj, feats, mask)
        npt.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_batched_row_admitting_no_key_names_image_and_query():
    rng = np.random.default_rng(12)
    allowed = np.ones((2, 3, 5), dtype=bool)
    allowed[1, 2] = False
    mask = tma.AttentionMaskTensor(allowed, np.zeros((2, 3), dtype=bool))
    with pytest.raises(DegenerateColumnError, match=r"\(image, query\) pairs \[\(1, 2\)\]"):
        tma.masked_attention_weights(rng.normal(size=(2, 4, 3)), np.eye(4),
                                     rng.normal(size=(2, 4, 5)), mask)


@pytest.mark.parametrize("admitted", [False, True])
def test_nan_score_raises_admitted_or_not(admitted):
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(2, 4, 5))
    feats[1, 0, 3] = np.nan  # every score of image 1's key 3
    allowed = np.ones((2, 3, 5), dtype=bool)
    allowed[1, :, 3] = admitted
    mask = tma.AttentionMaskTensor(allowed, np.zeros((2, 3), dtype=bool))
    with pytest.raises(InputError, match=r"\[\(1, 0\), \(1, 1\), \(1, 2\)\]"):
        tma.masked_attention_weights(rng.normal(size=(2, 4, 3)), np.eye(4), feats, mask)


def test_row_whose_admitted_scores_are_all_minus_inf_raises():
    # the masked key's score is finite, so the shifted row maximum is too
    queries, keys = np.array([[1.0]]), np.array([[-np.inf, 3.0, -np.inf]])
    mask = tma.AttentionMaskTensor(np.array([[True, False, True]]), np.zeros(1, dtype=bool))
    with pytest.raises(InputError, match=r"queries \[0\]"):
        tma.masked_attention_weights(queries, np.eye(1), keys, mask)


# ---------------------------------------------------------------------------
# attention backward
# ---------------------------------------------------------------------------


def random_instance(seed, c=4, d=3, n=3, keys=4):
    """(q, proj, feats), a mask and an upstream gradient."""
    rng = np.random.default_rng(seed)
    inputs = (rng.normal(size=(c, n)), rng.normal(size=(c, d)), rng.normal(size=(d, keys)))
    allowed = rng.random((n, keys)) >= 0.3
    allowed[:, 0] = True
    mask = tma.AttentionMaskTensor(allowed, np.zeros(n, dtype=bool))
    upstream = rng.normal(size=(n, c))
    return inputs, mask, upstream


def test_attention_backward_gradcheck():
    errs = []
    for seed in range(20):
        inputs, mask, upstream = random_instance(seed, c=4, d=2, n=2, keys=3)
        def f(flat, mask=mask, upstream=upstream):
            out = attend(*flat, mask)
            grads = attend_backward(*flat, mask, upstream)[:3]
            return float(np.sum(out * upstream)), list(grads)
        errs.append(gradcheck(f, list(inputs)))
    assert max(errs) <= 1e-4


def test_attention_backward_masked_positions_zero_gradient():
    inputs, mask, upstream = random_instance(10)
    mask.allowed[:, 3] = False  # key 3 invisible to every query
    _, _, d_feats, d_scores = attend_backward(*inputs, mask, upstream)
    npt.assert_array_equal(d_scores[:, 3], 0.0)  # no key gradient there
    npt.assert_array_equal(d_feats[:, 3], 0.0)   # nor any gradient at its features


def test_attention_backward_linear_in_upstream():
    inputs, mask, upstream = random_instance(11)
    g1 = attend_backward(*inputs, mask, upstream)
    g2 = attend_backward(*inputs, mask, 2.0 * upstream)
    for a, b in zip(g1, g2):
        npt.assert_allclose(2.0 * a, b, atol=1e-12)
