"""Finite-difference gradient checker shared by the gradient tests."""

import numpy as np

from segxfer.errors import EvaluationError, ShapeError


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
