from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from adamw_oracle import ListAdamWState, list_adamw_step
from gradcheck import EvaluationError, gradcheck
from segxfer import numkit, segmodel, transferability
from segxfer.adaptive_cluster import FeatureMap
from segxfer.errors import DegenerateColumnError, InputError, ShapeError


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------


def _masked_sigmoid(x):
    """The two-branch formula, scattered through boolean masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bitwise_equals_masked_formula():
    rng = np.random.default_rng(13)
    draws = [scale * rng.normal(size=200_000) for scale in (0.1, 1.0, 10.0, 100.0, 800.0)]
    edges = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1000.0, -1000.0]
    x = np.concatenate(draws + [np.array(edges)])
    got = numkit.sigmoid(x)
    npt.assert_array_equal(got.view(np.int64), _masked_sigmoid(x).view(np.int64))
    assert numkit.sigmoid(np.array([[1000.0, -1000.0]])).tolist() == [[1.0, 0.0]]


def test_sigmoid_bitwise_equals_where_formula():
    # The numerator is max(e, x >= 0) with e = exp(-|x|); values and sign
    # bits must match the np.where(x >= 0, 1, e) form, NaN included.
    rng = np.random.default_rng(14)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0]
    x = np.concatenate([rng.normal(scale=30.0, size=100_000), edges])
    e = np.exp(-np.abs(x))
    where = np.where(x >= 0, 1.0, e) / (1.0 + e)
    npt.assert_array_equal(numkit.sigmoid(x).view(np.int64), where.view(np.int64))


# ---------------------------------------------------------------------------
# softmax_columns
# ---------------------------------------------------------------------------


def test_softmax_equal_logits():
    out = numkit.softmax_columns(np.full((3, 1), 4.2))
    npt.assert_allclose(out, np.full((3, 1), 1.0 / 3.0), atol=1e-12)


def test_softmax_single_finite_entry():
    out = numkit.softmax_columns(np.array([[0.0], [-np.inf]]))
    npt.assert_array_equal(out, np.array([[1.0], [0.0]]))


def test_softmax_direct_evaluation():
    out = numkit.softmax_columns(np.array([[1.0], [2.0]]))
    denom = np.exp(1.0) + np.exp(2.0)
    npt.assert_allclose(out[:, 0], [np.exp(1.0) / denom, np.exp(2.0) / denom], atol=1e-12)
    npt.assert_allclose(out[:, 0], [0.2689, 0.7311], atol=1e-4)


def test_softmax_degenerate_column():
    m = np.array([[0.0, -np.inf], [1.0, -np.inf]])
    with pytest.raises(DegenerateColumnError):
        numkit.softmax_columns(m)


def test_softmax_masked_entries_exactly_zero():
    m = np.array([[1.0, -np.inf], [-np.inf, 2.0], [0.5, 0.5]])
    out = numkit.softmax_columns(m)
    assert out[1, 0] == 0.0
    assert out[0, 1] == 0.0


def test_softmax_column_stochastic_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.normal(size=(6, 8)) * rng.choice([1.0, 10.0])
        mask = rng.random((6, 8)) < 0.4
        mask[rng.integers(0, 6), :] = False  # keep every column alive
        m[mask] = -np.inf
        out = numkit.softmax_columns(m)
        assert np.all(out >= 0.0)
        npt.assert_allclose(out.sum(axis=0), 1.0, atol=1e-9)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(5, 4))
    shifted = m + rng.normal(size=(1, 4))  # per-column constant
    npt.assert_allclose(
        numkit.softmax_columns(m), numkit.softmax_columns(shifted), atol=1e-9
    )


# ---------------------------------------------------------------------------
# MLP forward
# ---------------------------------------------------------------------------


def _forward_one(p, x):
    """The batch forward on a single row."""
    return float(numkit.mlp_forward_batch(p, np.asarray(x)[None, :])[0])


def _zero_mlp(in_dim=4, hidden=(2,)):
    params = numkit.init_mlp(in_dim, hidden, np.random.default_rng(0))
    return numkit.MlpParams(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
    )


def test_mlp_forward_zero_net_is_half():
    p = _zero_mlp()
    assert _forward_one(p, np.ones(4)) == pytest.approx(0.5)


def test_mlp_forward_sigmoid_saturation():
    p = _zero_mlp()
    outputs = []
    for bias in (1.0, 5.0, 10.0):
        p.biases[-1][0] = bias
        outputs.append(_forward_one(p, np.zeros(4)))
    assert outputs == sorted(outputs)
    assert outputs[-1] > 0.999


def test_mlp_forward_matches_layer_by_layer_oracle():
    rng = np.random.default_rng(3)
    p = numkit.init_mlp(4, (2,), rng)
    x = rng.normal(size=4)
    h = np.maximum(p.weights[0] @ x + p.biases[0], 0.0)
    z = p.weights[1] @ h + p.biases[1]
    expected = 1.0 / (1.0 + np.exp(-z[0]))
    assert _forward_one(p, x) == pytest.approx(expected, abs=1e-12)


def test_mlp_forward_rejects_non_finite():
    p = _zero_mlp()
    with pytest.raises(InputError):
        _forward_one(p, np.array([1.0, np.nan, 0.0, 0.0]))


def test_mlp_forward_in_open_interval():
    rng = np.random.default_rng(4)
    p = numkit.init_mlp(3, (5,), rng)
    for _ in range(20):
        out = _forward_one(p, rng.normal(size=3) * 10)
        assert 0.0 < out < 1.0


def test_mlp_forward_batch_is_the_loss_forward_without_its_activations():
    # The held-out accuracy, the PAD and the T-maps run the forward with no
    # activation list; the loss path's forward keeps the input and every
    # layer's output, and its probabilities are bitwise the same.
    rng = np.random.default_rng(9)
    p = numkit.init_mlp(16, (64, 64), rng)
    x = rng.normal(size=(50, 16))
    acts = []
    probs = numkit._forward_cached(p, x, acts)
    assert numkit.mlp_forward_batch(p, x).tobytes() == probs.tobytes()
    assert len(acts) == len(p.weights) + 1 and acts[0] is x
    # bias and ReLU applied in place give the out-of-place layer bitwise
    hidden = np.maximum(x @ p.weights[0].T + p.biases[0], 0.0)
    assert acts[1].tobytes() == hidden.tobytes()


# ---------------------------------------------------------------------------
# MLP backward
# ---------------------------------------------------------------------------


def _split(p, grads):
    """The gradient vector as arrays shaped like ``p.param_list()``."""
    return numkit.flat_views(grads, [a.shape for a in p.param_list()])


def _grads_one(p, x, d):
    """Gradients of the single-sample cross-entropy loss, param_list order."""
    _, grads = numkit.mlp_loss_and_grads(p, x[None, :], np.array([d]))
    return _split(p, grads)


def test_mlp_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    p = numkit.init_mlp(4, (3, 2), rng)
    x = rng.normal(size=4)

    def f(flat):
        mp = numkit.mlp_params_from_list(flat)
        loss, grads = numkit.mlp_loss_and_grads(mp, x[None, :], np.array([1.0]))
        return loss, _split(mp, grads)

    assert gradcheck(f, p.param_list()) <= 1e-4


def test_mlp_backward_output_bias_sign():
    # The output-layer bias gradient is E(x) - d, i.e. -(d - E(x)).
    rng = np.random.default_rng(6)
    p = numkit.init_mlp(4, (3,), rng)
    x = rng.normal(size=4)
    e = _forward_one(p, x)
    for d in (0, 1):
        grads = _grads_one(p, x, d)
        bias_grad = grads[-1][0]
        assert bias_grad == pytest.approx(e - d, abs=1e-12)


def test_mlp_backward_duplicate_sample_keeps_the_mean_gradient():
    rng = np.random.default_rng(8)
    p = numkit.init_mlp(4, (3,), rng)
    x = rng.normal(size=4)
    single = _grads_one(p, x, 1)
    _, double = numkit.mlp_loss_and_grads(p, np.vstack([x, x]), np.array([1.0, 1.0]))
    for g1, g2 in zip(single, _split(p, double)):
        npt.assert_array_equal(g1, g2)


def test_mlp_backward_rejects_bad_label():
    p = _zero_mlp()
    with pytest.raises(InputError):
        _grads_one(p, np.ones(4), 2)


def _bits(a):
    """Bit patterns, so a -0.0 where the oracle writes +0.0 fails."""
    return np.asarray(a, dtype=float).view(np.uint64)


def _bce_inputs():
    """Probabilities beyond both clamp edges, exactly on them and between,
    each against both targets."""
    rng = np.random.default_rng(21)
    eps = numkit.LOSS_EPS
    edges = [0.0, 1e-300, eps / 2, np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0),
             0.5, np.nextafter(1.0 - eps, 0.0), 1.0 - eps, np.nextafter(1.0 - eps, 1.0),
             1.0 - eps / 2, 1.0]
    probs = np.concatenate([edges, numkit.sigmoid(rng.normal(scale=20.0, size=2000))])
    probs = np.tile(probs, 2)
    targets = np.arange(probs.size) >= probs.size // 2
    return probs, targets


def test_binary_cross_entropy_is_bitwise_the_two_log_formula():
    # The discriminator's former loss: float 0/1 labels, two logs, np.where.
    probs, targets = _bce_inputs()
    labels = targets.astype(float)
    eps = numkit.LOSS_EPS
    clamped = np.clip(probs, eps, 1.0 - eps)
    ref_loss = -(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped))
    inside = (probs > eps) & (probs < 1.0 - eps)
    ref_grad = np.where(inside, probs - labels, 0.0)
    assert (probs < eps).any() and (probs > 1.0 - eps).any()
    loss, grad = numkit.binary_cross_entropy(probs.copy(), targets)
    npt.assert_array_equal(_bits(loss), _bits(ref_loss))
    npt.assert_array_equal(_bits(grad), _bits(ref_grad))


def test_binary_cross_entropy_is_bitwise_the_where_formula():
    # The decoder's former mask term: one log of the target's probability.
    probs, targets = _bce_inputs()
    eps = numkit.LOSS_EPS
    clamped = np.clip(probs, eps, 1.0 - eps)
    ref_loss = -np.log(np.where(targets, clamped, 1.0 - clamped))
    inside = (probs > eps) & (probs < 1.0 - eps)
    ref_grad = np.where(inside, probs - targets, 0.0)
    loss, grad = numkit.binary_cross_entropy(probs.copy(), targets)
    npt.assert_array_equal(_bits(loss), _bits(ref_loss))
    npt.assert_array_equal(_bits(grad), _bits(ref_grad))


def test_binary_cross_entropy_overwrites_probs_with_the_loss():
    probs, targets = _bce_inputs()
    loss, _ = numkit.binary_cross_entropy(probs, targets)
    assert loss is probs


def _two_log_mlp_loss_and_grads(p, x, labels):
    """The MLP loss in its two-log form, with the np.where gradient and its
    own weight/bias interleave: the oracle, and the probabilities."""
    acts = [x]
    h = x
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = h @ w.T
        h += b
        if i != len(p.weights) - 1:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    probs = numkit.sigmoid(h[:, 0])
    eps = numkit.LOSS_EPS
    clamped = np.clip(probs, eps, 1.0 - eps)
    per_sample = -(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped))
    scale = 1.0 / x.shape[0]
    loss = float(np.sum(per_sample) * scale)
    inside = (probs > eps) & (probs < 1.0 - eps)
    dz = np.where(inside, probs - labels, 0.0)[:, None] * scale
    w_grads = [None] * len(p.weights)
    b_grads = [None] * len(p.biases)
    delta = dz
    for i in range(len(p.weights) - 1, -1, -1):
        w_grads[i] = delta.T @ acts[i]
        b_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ p.weights[i]) * (acts[i] > 0)
    grads = []
    for gw, gb in zip(w_grads, b_grads):
        grads.append(gw)
        grads.append(gb)
    return loss, numkit.flatten(grads), probs


def test_mlp_loss_and_grads_is_bitwise_the_two_log_oracle_on_a_saturated_net():
    rng = np.random.default_rng(22)
    p = numkit.init_mlp(6, (16, 8), rng)
    p.weights[-1] *= 40.0
    p.biases[-1][0] = -20.0
    x = rng.normal(size=(256, 6))
    labels = rng.integers(0, 2, size=256).astype(float)
    ref_loss, ref_grads, probs = _two_log_mlp_loss_and_grads(p, x, labels)
    eps = numkit.LOSS_EPS
    assert (probs < eps).any() and (probs > 1.0 - eps).any()
    assert ((probs > eps) & (probs < 1.0 - eps)).any()
    loss, grads = numkit.mlp_loss_and_grads(p, x, labels)
    assert _bits(loss) == _bits(ref_loss)
    npt.assert_array_equal(_bits(grads), _bits(ref_grads))


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_is_identity():
    params = np.array([1.0, -2.0, 3.0])
    state = replace(numkit.AdamWState.for_params(params, lr=0.1), weight_decay=0.0)
    before = params.copy()
    numkit.adamw_step(state, params, np.zeros(3))
    npt.assert_array_equal(before, params)


def test_adamw_constant_gradient_approaches_sign_step():
    params = np.array([0.0])
    grads = np.array([2.5])
    state = replace(numkit.AdamWState.for_params(params, lr=1e-3), weight_decay=0.0)
    for _ in range(200):
        prev = params.copy()
        numkit.adamw_step(state, params, grads)
    step = params[0] - prev[0]
    assert step == pytest.approx(-1e-3, rel=1e-3)  # -lr * sign(g)


def test_adamw_single_step_matches_formula():
    rng = np.random.default_rng(9)
    p = rng.normal(size=6)
    g = rng.normal(size=6)
    lr, wd, b1, b2, eps = 0.01, 0.05, 0.9, 0.999, 1e-8
    state = replace(numkit.AdamWState.for_params(p, lr=lr), weight_decay=wd)
    out = p.copy()
    numkit.adamw_step(state, out, g)

    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = p - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)
    npt.assert_allclose(out, expected, atol=1e-12)
    assert state.step == 1


def test_adamw_shape_mismatch():
    params = np.zeros(3)
    state = numkit.AdamWState.for_params(params)
    with pytest.raises(ShapeError):
        numkit.adamw_step(state, params, np.zeros(4))
    with pytest.raises(ShapeError):
        numkit.AdamWState.for_params(np.zeros((3, 1)))


def _train_discriminator(lr):
    rng = np.random.default_rng(23)
    transferability.train_discriminator(rng.normal(size=(40, 4)), rng.normal(size=(40, 4)),
                                        epochs=1, lr=lr)


def _train_decoder(lr):
    rng = np.random.default_rng(24)
    params = segmodel.init_seg_model(4, 3, rng, num_queries=4, channels=8, num_layers=1,
                                     ffn_hidden=8)
    item = segmodel.TrainItem(FeatureMap(4, 4, rng.normal(size=(16, 4))),
                              rng.integers(0, 3, size=(4, 4)))
    segmodel.train(params, [item], steps=1, batch_size=1, lr=lr)


@pytest.mark.parametrize("trainer", [_train_discriminator, _train_decoder])
@pytest.mark.parametrize("lr", [np.nan, np.inf, -1e-3])
def test_trainers_reject_a_learning_rate_that_is_not_finite_and_non_negative(trainer, lr):
    # AdamWState.for_params makes the check for both
    with pytest.raises(InputError, match="learning rate"):
        trainer(lr)
    trainer(0.0)


def test_adamw_step_count_strictly_increases():
    params = np.zeros(2)
    grads = np.ones(2)
    state = numkit.AdamWState.for_params(params)
    for expected in (1, 2, 3):
        numkit.adamw_step(state, params, grads)
        assert state.step == expected


@pytest.mark.parametrize("weight_decay", [0.0, 0.01, 0.3])
@pytest.mark.parametrize("case", range(4))
def test_adamw_vector_bitwise_equals_per_array_loop(case, weight_decay):
    rng = np.random.default_rng([case, int(weight_decay * 100)])
    shapes = [tuple(int(n) for n in rng.integers(1, 6, size=rng.integers(0, 3)))
              for _ in range(rng.integers(1, 7))]
    arrays = [rng.normal(scale=3.0, size=s) for s in shapes]
    lr = float(rng.uniform(1e-4, 1e-1))
    oracle = ListAdamWState.for_params(arrays, lr=lr, weight_decay=weight_decay)
    vector = numkit.flatten(arrays)
    views = numkit.flat_views(vector, shapes)
    state = replace(numkit.AdamWState.for_params(vector, lr=lr), weight_decay=weight_decay)
    for step in range(60):
        # some steps zero the gradient exactly, as a frozen clamp would
        grads = [rng.normal(scale=10.0 ** rng.uniform(-6, 2), size=s) * (step % 7 != 3)
                 for s in shapes]
        arrays = list_adamw_step(oracle, arrays, grads)
        numkit.adamw_step(state, vector, numkit.flatten(grads))
        for a, view in zip(arrays, views):
            assert a.shape == view.shape
            assert a.tobytes() == view.tobytes()
    assert state.step == oracle.step == 60
    assert numkit.flatten(oracle.m).tobytes() == state.m.tobytes()
    assert numkit.flatten(oracle.v).tobytes() == state.v.tobytes()


# ---------------------------------------------------------------------------
# flatten / flat_views
# ---------------------------------------------------------------------------


def test_flat_views_lay_arrays_end_to_end():
    vector = np.arange(11.0)
    a, b, c = numkit.flat_views(vector, [(2, 3), (), (4,)])
    npt.assert_array_equal(a, [[0, 1, 2], [3, 4, 5]])
    assert b.shape == () and b == 6.0
    npt.assert_array_equal(c, [7, 8, 9, 10])
    a[1, 2] = -1.0  # views, not copies
    assert vector[5] == -1.0


def test_flat_views_shapes_must_tile_the_vector():
    with pytest.raises(ShapeError):
        numkit.flat_views(np.zeros(5), [(2, 2)])
    with pytest.raises(ShapeError):
        numkit.flat_views(np.zeros(3), [(2, 2)])
    with pytest.raises(ShapeError):
        numkit.flat_views(np.zeros((2, 2)), [(2, 2)])


def test_flatten_copies_and_flat_views_read_it_back():
    arrays = [np.arange(6.0).reshape(2, 3), np.array(7.0), np.ones(2)]
    vector = numkit.flatten(arrays)
    npt.assert_array_equal(vector, [0, 1, 2, 3, 4, 5, 7, 1, 1])
    for a, view in zip(arrays, numkit.flat_views(vector, [a.shape for a in arrays])):
        npt.assert_array_equal(a, view)
    arrays[0][0, 0] = 5.0  # a copy, not a view
    assert vector[0] == 0.0


# ---------------------------------------------------------------------------
# gradcheck (the test helper in tests/gradcheck.py)
# ---------------------------------------------------------------------------


def test_gradcheck_quadratic_exact():
    a = np.array([1.0, -2.0, 0.5])

    def f(params):
        (x,) = params
        return float(np.sum(a * x * x)), [2.0 * a * x]

    assert gradcheck(f, [np.array([0.3, 1.2, -0.7])]) <= 1e-7


def test_gradcheck_flags_planted_bug():
    # Reporting twice the true gradient gives |2g - g| / (|2g| + |g|) = 1/3.
    def f(params):
        (x,) = params
        return float(np.sum(x * x)), [4.0 * x]

    err = gradcheck(f, [np.array([0.5, -1.5])])
    assert err == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_gradcheck_non_finite_value():
    def f(params):
        return float("nan"), [np.zeros(1)]

    with pytest.raises(EvaluationError):
        gradcheck(f, [np.ones(1)])


# ---------------------------------------------------------------------------
# RNG reproducibility
# ---------------------------------------------------------------------------


def test_init_mlp_reproducible():
    p1 = numkit.init_mlp(4, (8,), np.random.default_rng(5))
    p2 = numkit.init_mlp(4, (8,), np.random.default_rng(5))
    for w1, w2 in zip(p1.weights, p2.weights):
        npt.assert_array_equal(w1, w2)
