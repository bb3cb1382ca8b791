"""Dense-matrix numerics, a small MLP with hand-derived gradients, and AdamW.

Everything operates on float64 numpy arrays.  Functions are pure except
``adamw_step``, which updates the parameter vector and the optimizer state it
is given in place, and ``binary_cross_entropy``, which overwrites the
probabilities it is given.  The optimizer works on one flat vector;
``flatten`` and ``flat_views`` move arrays onto it and back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError, InputError, ShapeError

# Sigmoid outputs are clamped to [LOSS_EPS, 1 - LOSS_EPS] inside losses only,
# so log terms stay finite without biasing forward outputs.
LOSS_EPS = 1e-7


def mt(a: np.ndarray) -> np.ndarray:
    """The transpose of every matrix in a stack (the last two axes): a view."""
    return a.swapaxes(-1, -2)


def softmax_columns(m: np.ndarray) -> np.ndarray:
    """Column-wise softmax, stabilized by per-column max subtraction; a stack
    of matrices, (..., rows, columns), is normalized matrix by matrix.

    Entries equal to -inf map to exactly 0.  A column with no finite entry
    raises DegenerateColumnError: callers that build -inf masks must apply
    their fallback before normalizing.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2:
        raise ShapeError(f"softmax_columns expects a matrix or a stack of them, got {m.shape}")
    col_max = m.max(axis=-2, keepdims=True)
    if not np.isfinite(col_max).all():
        bad = np.flatnonzero(~np.isfinite(col_max))
        raise DegenerateColumnError(
            f"columns {bad.tolist()} have no finite entry; apply the caller's fallback first"
        )
    z = np.subtract(m, col_max)
    np.exp(z, out=z)  # exp(-inf) == 0.0 exactly
    z /= z.sum(axis=-2, keepdims=True)
    return z


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With e = exp(-|x|), which never overflows, this is 1 / (1 + e) for
    x >= 0 and e / (1 + e) below; the numerator max(e, x >= 0) is 1 or e,
    as e lies in [0, 1].  Every step writes into e or into the result, the
    only two float arrays formed; exp(-abs(x)) would allocate two more.
    """
    x = np.asarray(x, dtype=float)
    e = np.empty_like(x)  # an array even for a 0-d x, whose abs is a scalar
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, x >= 0)
    e += 1.0
    out /= e
    return out


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def flat_views(vector: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of a 1-D ``vector`` with the given shapes, laid end to end in
    order; the shapes must tile the vector exactly."""
    if vector.ndim != 1:
        raise ShapeError(f"flat_views expects a 1-D vector, got {vector.shape}")
    sizes = [math.prod(shape) for shape in shapes]
    if sum(sizes) != vector.size:
        raise ShapeError(f"shapes hold {sum(sizes)} values, the vector {vector.size}")
    views = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        views.append(vector[offset:offset + size].reshape(shape))
        offset += size
    return views


def flatten(arrays: list[np.ndarray]) -> np.ndarray:
    """A new vector holding ``arrays`` end to end, each in C order: the
    layout that ``flat_views`` reads back."""
    return np.concatenate([a.ravel() for a in arrays])


def binary_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry binary cross-entropy of sigmoid outputs ``probs`` against
    bool ``targets``, and its gradient at the logits, ``probs - targets``.

    Probabilities are clamped to [LOSS_EPS, 1 - LOSS_EPS], so the loss stays
    finite at saturation.  With 0/1 targets, -log of the probability given
    to the target is the usual two-log formula exactly.  ``probs`` is
    overwritten: it becomes the returned loss array.
    """
    # The gradient is 0 where the clamp holds: it is multiplied by the 0/1
    # mask of probabilities inside it, which takes no branch per entry (most
    # probabilities of a trained model lie beyond the clamp, scattered
    # irregularly), and += 0.0 turns the -0.0 of a negative entry times 0
    # into +0.0.
    grad = np.subtract(probs, targets)
    grad *= (probs > LOSS_EPS) & (probs < 1.0 - LOSS_EPS)
    grad += 0.0
    loss = np.clip(probs, LOSS_EPS, 1.0 - LOSS_EPS, out=probs)
    np.subtract(1.0, loss, out=loss, where=~targets)
    np.log(loss, out=loss)
    np.negative(loss, out=loss)
    return loss, grad


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
        """Flat [W0, b0, W1, b1, ...] view used by the optimizer."""
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


def _forward_cached(p: MlpParams, x: np.ndarray,
                    acts: list[np.ndarray] | None = None) -> np.ndarray:
    """Batch forward returning probabilities (B,).

    The input and every layer's post-activation are appended to ``acts``
    when it is given, the backward's list of ``mlp_loss_and_grads``.  A
    forward-only call passes none and keeps no activations: bias and ReLU
    are applied in place, and each layer's output is freed as the next
    layer computes its own."""
    if acts is not None:
        acts.append(x)
    h = x
    last = len(p.weights) - 1
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        h = h @ w.T
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
        if acts is not None:
            acts.append(h)
    return sigmoid(h[:, 0])


def mlp_forward_batch(p: MlpParams, x: np.ndarray) -> np.ndarray:
    """Probabilities in (0, 1) for a batch of rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != p.in_dim:
        raise ShapeError(f"input {x.shape} does not match first layer ({p.in_dim})")
    if not np.all(np.isfinite(x)):
        raise InputError("non-finite input to mlp_forward")
    return _forward_cached(p, x)


def mlp_loss_and_grads(
    p: MlpParams,
    x: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy of the net against 0/1 labels, with gradients.

    The loss per sample is -(d*log(E) + (1-d)*log(1-E)), i.e. the output is
    pushed toward the numeric label, with ``binary_cross_entropy``'s clamp.
    The gradients come back as one vector: the arrays in ``param_list``
    order, laid out by ``flatten``.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if x.ndim != 2 or labels.shape != (x.shape[0],):
        raise ShapeError(f"batch {x.shape} does not pair with labels {labels.shape}")
    if not np.all(np.isfinite(x)):
        raise InputError("non-finite input to mlp_loss_and_grads")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InputError("labels must be 0 or 1")

    acts: list[np.ndarray] = []
    per_sample, dz = binary_cross_entropy(_forward_cached(p, x, acts), labels == 1.0)
    scale = 1.0 / x.shape[0]
    loss = float(np.sum(per_sample) * scale)

    w_grads: list[np.ndarray] = [np.empty(0)] * len(p.weights)
    b_grads: list[np.ndarray] = [np.empty(0)] * len(p.biases)
    delta = dz[:, None] * scale
    for i in range(len(p.weights) - 1, -1, -1):
        w_grads[i] = delta.T @ acts[i]
        b_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ p.weights[i]) * (acts[i] > 0)
    return loss, flatten(MlpParams(w_grads, b_grads).param_list())


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


@dataclass
class AdamWState:
    """Moment vectors for one flat parameter vector, plus the usual constants."""

    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-4
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float = 1e-4) -> "AdamWState":
        if params.ndim != 1:
            raise ShapeError(f"AdamW expects a 1-D parameter vector, got {params.shape}")
        if not 0.0 <= lr < math.inf:
            raise InputError(f"learning rate must be finite and >= 0, got {lr}")
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def adamw_step(state: AdamWState, params: np.ndarray, grads: np.ndarray) -> None:
    """One AdamW update with decoupled weight decay, in place.

    ``params`` is the parameter vector and ``grads`` its gradient.  With t the
    new step count, every element goes through

        m <- b1*m + (1 - b1)*g
        v <- b2*v + (1 - b2)*(g*g)
        p <- p - lr*((m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps) + wd*p)

    The parameters, the moments and the step count are advanced in place.
    """
    if not params.shape == grads.shape == state.m.shape:
        raise ShapeError(f"shape mismatch: params {params.shape}, grads {grads.shape}, "
                         f"moments {state.m.shape}")

    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * grads
    v *= state.beta2
    v += (1.0 - state.beta2) * (grads * grads)
    update = m / bc1
    update /= np.sqrt(v / bc2) + state.eps
    update += state.weight_decay * params
    update *= state.lr
    params -= update
