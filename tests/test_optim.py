import numpy as np
import pytest

from armsentinel.optim import AdamState, adam_step
from armsentinel.tensor import Tensor


def test_zero_gradients_leave_params_unchanged():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    state = AdamState(learning_rate=0.1)
    p.grad = np.zeros(2, dtype=np.float32)
    adam_step([p], state)
    assert np.array_equal(p.data, np.array([1.0, -2.0], dtype=np.float32))
    assert state.step_count == 1


def test_first_step_hand_evaluated():
    # t=1: m_hat = g, v_hat = g^2, update = -lr * g / (|g| + eps) ~ -lr * sign(g)
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdamState(learning_rate=0.1, beta1=0.9, beta2=0.999, epsilon=1e-8)
    p.grad = np.array([1.0])
    adam_step([p], state)
    assert p.data[0] == pytest.approx(-0.1, abs=1e-7)


def test_two_identical_steps_move_monotonically():
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdamState(learning_rate=0.05)
    p.grad = np.array([2.0])
    adam_step([p], state)
    after_one = float(p.data[0])
    adam_step([p], state)
    after_two = float(p.data[0])
    assert after_one < 0.0
    assert after_two < after_one
    assert state.step_count == 2


def test_moments_match_parameter_shapes():
    shapes = [(2, 3), (5,)]
    params = [Tensor(np.zeros(s), requires_grad=True) for s in shapes]
    for p, s in zip(params, shapes):
        p.grad = np.ones(s)
    state = AdamState()
    adam_step(params, state)
    assert [m.shape for m in state.first_moment] == shapes
    assert [v.shape for v in state.second_moment] == shapes
