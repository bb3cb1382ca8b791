"""The per-array AdamW loop that ``numkit.adamw_step`` replaced, kept as an
oracle: one update per array, returning fresh arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ListAdamWState:
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
                   weight_decay: float = 0.01) -> "ListAdamWState":
        return cls(lr=lr, weight_decay=weight_decay,
                   m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def list_adamw_step(state: ListAdamWState, params: list[np.ndarray],
                    grads: list[np.ndarray]) -> list[np.ndarray]:
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
