"""Dense-matrix numerics, a small MLP with hand-derived gradients, AdamW,
and a finite-difference gradient checker.

Everything operates on float64 numpy arrays.  Functions are pure except
``adamw_step``, which advances the optimizer state it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateColumnError,
    EvaluationError,
    InputError,
    ShapeError,
)

# Sigmoid outputs are clamped to [LOSS_EPS, 1 - LOSS_EPS] inside losses only,
# so log terms stay finite without biasing forward outputs.
LOSS_EPS = 1e-7


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; same seed gives bitwise-identical streams."""
    return np.random.default_rng(seed)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit inner-dimension check."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} x {b.shape}")
    return a @ b


def softmax_columns(m: np.ndarray) -> np.ndarray:
    """Column-wise softmax, stabilized by per-column max subtraction.

    Entries equal to -inf map to exactly 0.  A column with no finite entry
    raises DegenerateColumnError: callers that build -inf masks must apply
    their fallback before normalizing.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ShapeError(f"softmax_columns expects a 2-D array, got {m.shape}")
    col_max = np.max(m, axis=0)
    if not np.all(np.isfinite(col_max)):
        bad = np.flatnonzero(~np.isfinite(col_max))
        raise DegenerateColumnError(
            f"columns {bad.tolist()} have no finite entry; apply the caller's fallback first"
        )
    z = np.exp(m - col_max)  # exp(-inf) == 0.0 exactly
    return z / np.sum(z, axis=0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With e = exp(-|x|), which never overflows, this is 1 / (1 + e) for
    x >= 0 and e / (1 + e) below.
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


# ---------------------------------------------------------------------------
# MLP: ReLU hidden layers, sigmoid scalar output.
# ---------------------------------------------------------------------------


@dataclass
class MlpParams:
    """Fully-connected net: ReLU hidden layers, single sigmoid output.

    weights[i] has shape (out_i, in_i); consecutive layer dims chain and the
    final out dim is 1.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases):
            raise ShapeError("weights and biases must pair up")
        for w, b in zip(self.weights, self.biases):
            if w.shape[0] != b.shape[0]:
                raise ShapeError(f"bias {b.shape} does not match weight {w.shape}")
        for wa, wb in zip(self.weights, self.weights[1:]):
            if wb.shape[1] != wa.shape[0]:
                raise ShapeError(f"layer dims do not chain: {wa.shape} -> {wb.shape}")
        if self.weights[-1].shape[0] != 1:
            raise ShapeError("output layer must have a single unit")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    def param_list(self) -> list[np.ndarray]:
        """Flat [W0, b0, W1, b1, ...] view used by the optimizer and gradcheck."""
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_mlp(in_dim: int, hidden: tuple[int, ...], rng: np.random.Generator) -> MlpParams:
    """He-initialized MLP with the given hidden widths and a 1-unit output."""
    sizes = [in_dim, *hidden, 1]
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights, biases)


def mlp_params_from_list(flat: list[np.ndarray]) -> MlpParams:
    return MlpParams(list(flat[0::2]), list(flat[1::2]))


def _forward_cached(p: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batch forward returning probabilities (B,) and post-activation cache."""
    acts = [x]
    h = x
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        z = h @ w.T + b
        h = z if i == last else relu(z)
        acts.append(h)
    return sigmoid(h[:, 0]), acts


def mlp_forward_batch(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Probabilities in (0, 1) for a batch of rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != p.in_dim:
        raise ShapeError(f"input {x.shape} does not match first layer ({p.in_dim})")
    if not np.all(np.isfinite(x)):
        raise InputError("non-finite input to mlp_forward")
    probs, _ = _forward_cached(p, x)
    return probs


def mlp_forward(p: MlpParams, x: np.ndarray) -> float:
    """Probability in (0, 1) for a single feature vector."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"mlp_forward expects a vector, got {x.shape}")
    return float(mlp_forward_batch(p, x[None, :])[0])


def mlp_loss_and_grads(
    p: MlpParams,
    x: np.ndarray,
    labels: np.ndarray,
    reduction: str = "mean",
) -> tuple[float, list[np.ndarray]]:
    """Binary cross-entropy of the net against 0/1 labels, with gradients.

    The loss per sample is -(d*log(E) + (1-d)*log(1-E)), i.e. the output is
    pushed toward the numeric label.  Probabilities are clamped to
    [LOSS_EPS, 1-LOSS_EPS] inside the loss only.  Gradients come back in
    ``param_list`` order.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if reduction not in ("mean", "sum"):
        raise InputError(f"unknown reduction {reduction!r}")
    if x.ndim != 2 or labels.shape != (x.shape[0],):
        raise ShapeError(f"batch {x.shape} does not pair with labels {labels.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("non-finite input to mlp_loss_and_grads")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InputError("labels must be 0 or 1")

    probs, acts = _forward_cached(p, x)
    clamped = np.clip(probs, LOSS_EPS, 1.0 - LOSS_EPS)
    per_sample = -(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped))
    n = x.shape[0]
    scale = 1.0 / n if reduction == "mean" else 1.0
    loss = float(np.sum(per_sample) * scale)

    # d(loss)/d(output logit); zero where the clamp froze the loss.
    inside = (probs > LOSS_EPS) & (probs < 1.0 - LOSS_EPS)
    dz = np.where(inside, probs - labels, 0.0)[:, None] * scale

    w_grads: list[np.ndarray] = [np.empty(0)] * len(p.weights)
    b_grads: list[np.ndarray] = [np.empty(0)] * len(p.biases)
    delta = dz
    for i in range(len(p.weights) - 1, -1, -1):
        w_grads[i] = delta.T @ acts[i]
        b_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ p.weights[i]) * (acts[i] > 0)

    grads: list[np.ndarray] = []
    for gw, gb in zip(w_grads, b_grads):
        grads.append(gw)
        grads.append(gb)
    return loss, grads


def mlp_backward(p: MlpParams, x: np.ndarray, d: int) -> list[np.ndarray]:
    """Gradients of the single-sample cross-entropy loss, param_list order."""
    if d not in (0, 1):
        raise InputError(f"domain label must be 0 or 1, got {d!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ShapeError(f"mlp_backward expects a vector, got {x.shape}")
    _, grads = mlp_loss_and_grads(p, x[None, :], np.array([d]), reduction="sum")
    return grads


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


@dataclass
class AdamWState:
    """Per-parameter moment accumulators plus the usual constants."""

    lr: float = 1e-4
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = 1e-4,
                   weight_decay: float = 0.01) -> "AdamWState":
        return cls(
            lr=lr,
            weight_decay=weight_decay,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adamw_step(state: AdamWState, params: list[np.ndarray],
               grads: list[np.ndarray]) -> list[np.ndarray]:
    """One AdamW update with decoupled weight decay.

    Returns fresh parameter arrays; the state's moments and step count are
    advanced in place.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("params, grads and state must have the same length")
    for p, g, m in zip(params, grads, state.m):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"shape mismatch: param {p.shape}, grad {g.shape}, moment {m.shape}")

    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    out: list[np.ndarray] = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * (g * g)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        out.append(p - state.lr * (m_hat / (np.sqrt(v_hat) + state.eps)
                                   + state.weight_decay * p))
    return out


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def gradcheck(f, params: list[np.ndarray], h: float = 1e-5) -> float:
    """Max relative error between f's analytic gradients and central differences.

    ``f(params) -> (scalar, grads)`` with grads aligned to ``params``.  The
    relative error per entry is |analytic - numeric| / max(1e-8, |analytic| +
    |numeric|).
    """
    params = [np.asarray(p, dtype=float).copy() for p in params]
    value, analytic = f(params)
    if not np.isfinite(value):
        raise EvaluationError(f"function value is not finite: {value!r}")
    if len(analytic) != len(params):
        raise ShapeError("gradient list does not align with params")

    worst = 0.0
    for k, p in enumerate(params):
        a = np.asarray(analytic[k], dtype=float)
        if a.shape != p.shape:
            raise ShapeError(f"gradient {k} has shape {a.shape}, param has {p.shape}")
        flat = p.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = f(params)
            flat[idx] = orig - h
            down, _ = f(params)
            flat[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise EvaluationError("perturbed evaluation is not finite")
            numeric = (up - down) / (2.0 * h)
            ana = a.reshape(-1)[idx]
            err = abs(ana - numeric) / max(1e-8, abs(ana) + abs(numeric))
            worst = max(worst, err)
    return worst
