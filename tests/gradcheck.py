"""Finite-difference gradient checker shared by the gradient tests."""

import numpy as np

from segxfer.errors import ShapeError


class EvaluationError(Exception):
    """A checked function produced a non-finite value."""


def gradcheck(f, params: list[np.ndarray], h: float = 1e-5, loss=None) -> float:
    """Max relative error between f's analytic gradients and central differences.

    ``f(params) -> (scalar, grads)`` with grads aligned to ``params``.  The
    relative error per entry is |analytic - numeric| / max(1e-8, |analytic| +
    |numeric|).  ``loss(params) -> scalar``, if given, evaluates the perturbed
    points without the gradients; it must give f's value bitwise at
    ``params``.
    """
    params = [np.asarray(p, dtype=float).copy() for p in params]
    value, analytic = f(params)
    if not np.isfinite(value):
        raise EvaluationError(f"function value is not finite: {value!r}")
    if loss is None:
        def loss(ps):
            return f(ps)[0]
    else:
        at_params = loss(params)
        if np.float64(at_params).tobytes() != np.float64(value).tobytes():
            raise EvaluationError(f"loss {at_params!r} is not f's value {value!r}")
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
            up = loss(params)
            flat[idx] = orig - h
            down = loss(params)
            flat[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise EvaluationError("perturbed evaluation is not finite")
            numeric = (up - down) / (2.0 * h)
            ana = a.reshape(-1)[idx]
            err = abs(ana - numeric) / max(1e-8, abs(ana) + abs(numeric))
            worst = max(worst, err)
    return worst
