"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    step_count: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)

    def _ensure_moments(self, params: list[Tensor]):
        if not self.first_moment:
            self.first_moment = [np.zeros_like(p.data) for p in params]
            self.second_moment = [np.zeros_like(p.data) for p in params]


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """One in-place Adam update of each parameter from its accumulated `grad`."""
    state._ensure_moments(params)
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for i, p in enumerate(params):
        g = p.grad
        m = state.first_moment[i]
        v = state.second_moment[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= (state.learning_rate * mhat / (np.sqrt(vhat) + EPSILON)).astype(p.dtype)
