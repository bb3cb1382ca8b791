import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import gradcheck
from segxfer import numkit
from segxfer.errors import (
    DegenerateColumnError,
    EvaluationError,
    InputError,
    ShapeError,
)


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


# ---------------------------------------------------------------------------
# MLP backward
# ---------------------------------------------------------------------------


def _grads_one(p, x, d):
    """Gradients of the single-sample cross-entropy loss, param_list order."""
    _, grads = numkit.mlp_loss_and_grads(p, x[None, :], np.array([d]), reduction="sum")
    return grads


def test_mlp_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    p = numkit.init_mlp(4, (3, 2), rng)
    x = rng.normal(size=4)

    def f(flat):
        mp = numkit.mlp_params_from_list(flat)
        return numkit.mlp_loss_and_grads(mp, x[None, :], np.array([1.0]))

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


def test_mlp_backward_duplicate_sample_doubles_under_sum():
    rng = np.random.default_rng(8)
    p = numkit.init_mlp(4, (3,), rng)
    x = rng.normal(size=4)
    single = _grads_one(p, x, 1)
    _, double = numkit.mlp_loss_and_grads(
        p, np.vstack([x, x]), np.array([1.0, 1.0]), reduction="sum"
    )
    for g1, g2 in zip(single, double):
        npt.assert_array_equal(2.0 * g1, g2)


def test_mlp_backward_rejects_bad_label():
    p = _zero_mlp()
    with pytest.raises(InputError):
        _grads_one(p, np.ones(4), 2)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_is_identity():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    state = numkit.AdamWState.for_params(params, lr=0.1, weight_decay=0.0)
    out = numkit.adamw_step(state, params, [np.zeros(2), np.zeros((1, 1))])
    for before, after in zip(params, out):
        npt.assert_array_equal(before, after)


def test_adamw_constant_gradient_approaches_sign_step():
    params = [np.array([0.0])]
    grads = [np.array([2.5])]
    state = numkit.AdamWState.for_params(params, lr=1e-3, weight_decay=0.0)
    prev = params
    for _ in range(200):
        prev, params = params, numkit.adamw_step(state, params, grads)
    step = params[0][0] - prev[0][0]
    assert step == pytest.approx(-1e-3, rel=1e-3)  # -lr * sign(g)


def test_adamw_single_step_matches_formula():
    rng = np.random.default_rng(9)
    p = rng.normal(size=(2, 3))
    g = rng.normal(size=(2, 3))
    lr, wd, b1, b2, eps = 0.01, 0.05, 0.9, 0.999, 1e-8
    state = numkit.AdamWState.for_params([p], lr=lr, weight_decay=wd)
    out = numkit.adamw_step(state, [p.copy()], [g])[0]

    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = p - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)
    npt.assert_allclose(out, expected, atol=1e-12)
    assert state.step == 1


def test_adamw_shape_mismatch():
    params = [np.zeros(3)]
    state = numkit.AdamWState.for_params(params)
    with pytest.raises(ShapeError):
        numkit.adamw_step(state, params, [np.zeros(4)])


def test_adamw_step_count_strictly_increases():
    params = [np.zeros(2)]
    grads = [np.ones(2)]
    state = numkit.AdamWState.for_params(params)
    for expected in (1, 2, 3):
        params = numkit.adamw_step(state, params, grads)
        assert state.step == expected


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
