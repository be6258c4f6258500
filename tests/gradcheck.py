"""Finite-difference verification of every autodiff primitive.

Analytic gradients are compared against central differences of a randomly
projected scalar output.  Checks run at 64-bit precision; 32-bit would make
the comparison numerically meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from armsentinel import tensor as T
from armsentinel.tensor import Tensor

DEFAULT_STEP = 1e-5

# id -> builder(shapes, rng) -> (inputs, forward)
_REGISTRY: dict[str, Callable] = {}


class UnknownPrimitiveError(KeyError):
    pass


@dataclass
class CheckReport:
    primitive: str
    input_shapes: list[tuple]
    tolerance: float
    max_rel_errors: list[float] = field(default_factory=list)
    passed: bool = False

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        errs = ", ".join(f"{e:.3e}" for e in self.max_rel_errors)
        return f"[{status}] {self.primitive} tol={self.tolerance:g} max_rel=[{errs}]"


def register_primitive(primitive_id: str, builder: Callable) -> None:
    _REGISTRY[primitive_id] = builder


def registered_primitives() -> list[str]:
    return sorted(_REGISTRY)


def _leaf(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def _away_from_zero(a: np.ndarray, margin: float = 0.1) -> np.ndarray:
    # Kinked ops (relu, abs) are not differentiable at 0; keep samples clear.
    return np.where(np.abs(a) < margin, a + margin * np.where(a >= 0, 1.0, -1.0), a)


def _build_conv(op, bias_axis, stride, padding):
    def build(shapes, rng):
        x_shape, k_shape = shapes
        x = _leaf(rng.standard_normal(x_shape))
        k = _leaf(rng.standard_normal(k_shape))
        b = _leaf(rng.standard_normal(k_shape[bias_axis]))
        return [x, k, b], lambda i: op(i[0], i[1], i[2], stride, padding)
    return build


def _build_unary(op, transform=None):
    def build(shapes, rng):
        a = rng.standard_normal(shapes[0])
        if transform is not None:
            a = transform(a)
        return [_leaf(a)], lambda i: op(i[0])
    return build


def _build_instance_norm(shapes, rng):
    x_shape = shapes[0]
    c = x_shape[1]
    x = _leaf(rng.standard_normal(x_shape))
    g = _leaf(rng.standard_normal(c) + 1.0)
    b = _leaf(rng.standard_normal(c))
    return [x, g, b], lambda i: T.instance_norm(i[0], i[1], i[2])


def _build_dropout(shapes, rng):
    x = _leaf(rng.standard_normal(shapes[0]))
    seed = int(rng.integers(0, 2**31))
    return [x], lambda i: T.dropout(i[0], 0.4, seed, active=True)


def _build_concat(shapes, rng):
    inputs = [_leaf(rng.standard_normal(s)) for s in shapes]
    return inputs, lambda i: T.concat(list(i))


def _build_binary(op):
    def build(shapes, rng):
        a = _leaf(rng.standard_normal(shapes[0]))
        b = _leaf(rng.standard_normal(shapes[0]))
        return [a, b], lambda i: op(i[0], i[1])
    return build


register_primitive("conv2d", _build_conv(T.conv2d, 0, stride=1, padding=1))
register_primitive("conv2d_strided", _build_conv(T.conv2d, 0, stride=2, padding=1))
register_primitive("conv_transpose2d", _build_conv(T.conv_transpose2d, 1, stride=1, padding=0))
register_primitive("conv_transpose2d_strided",
                   _build_conv(T.conv_transpose2d, 1, stride=2, padding=1))
register_primitive("relu", _build_unary(T.relu, _away_from_zero))
register_primitive("leaky_relu", _build_unary(T.leaky_relu, _away_from_zero))
register_primitive("sigmoid", _build_unary(T.sigmoid))
register_primitive("log", _build_unary(T.log, lambda a: np.abs(a) + 0.5))
register_primitive("abs", _build_unary(T.abs_, _away_from_zero))
register_primitive("clamp_min", _build_unary(lambda x: T.clamp_min(x, 0.0), _away_from_zero))
register_primitive("dropout", _build_dropout)
register_primitive("instance_norm", _build_instance_norm)
register_primitive("concat", _build_concat)
register_primitive("add", _build_binary(lambda a, b: a + b))
register_primitive("sub", _build_binary(lambda a, b: a - b))
register_primitive("mul", _build_binary(lambda a, b: a * b))
register_primitive("mean", _build_unary(T.mean))
register_primitive("sum", _build_unary(T.total))

DEFAULT_SHAPES: dict[str, list[tuple]] = {
    "conv2d": [(1, 2, 5, 5), (3, 2, 3, 3)],
    "conv2d_strided": [(2, 3, 6, 6), (4, 3, 4, 4)],
    "conv_transpose2d": [(1, 3, 4, 4), (3, 2, 3, 3)],
    "conv_transpose2d_strided": [(1, 4, 3, 3), (4, 2, 4, 4)],
    "relu": [(3, 7)],
    "leaky_relu": [(3, 7)],
    "sigmoid": [(4,)],
    "log": [(6,)],
    "abs": [(4, 3)],
    "clamp_min": [(8,)],
    "dropout": [(4, 6)],
    "instance_norm": [(2, 3, 4, 4)],
    "concat": [(1, 2, 3, 3), (1, 3, 3, 3)],
    "add": [(3, 4)],
    "sub": [(3, 4)],
    "mul": [(3, 4)],
    "mean": [(5, 3)],
    "sum": [(5, 3)],
}


def _projected(forward, inputs: list[Tensor], proj: np.ndarray) -> float:
    out = forward(inputs)
    return float((out.data * proj).sum())


def finite_difference_check(primitive_id: str, input_shapes: list[tuple],
                            tolerance: float = 1e-4, seed: int = 0,
                            step: float = DEFAULT_STEP) -> CheckReport:
    """Compare analytic gradients against central differences.

    The scalar under test is sum(output * P) for a fixed random projection P,
    so every output element contributes to every input gradient.
    """
    if primitive_id not in _REGISTRY:
        raise UnknownPrimitiveError(primitive_id)
    rng = np.random.default_rng(seed)
    inputs, forward = _REGISTRY[primitive_id](input_shapes, rng)

    out = forward(inputs)
    proj = rng.standard_normal(out.shape)
    loss = T.total(out * Tensor(proj))
    loss.backward()

    report = CheckReport(primitive=primitive_id,
                         input_shapes=[tuple(s) for s in input_shapes],
                         tolerance=tolerance)
    for inp in inputs:
        analytic = inp.grad.copy()
        numeric = np.zeros_like(analytic)
        flat = inp.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            f_plus = _projected(forward, inputs, proj)
            flat[idx] = orig - step
            f_minus = _projected(forward, inputs, proj)
            flat[idx] = orig
            nflat[idx] = (f_plus - f_minus) / (2.0 * step)
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1.0)
        report.max_rel_errors.append(float((np.abs(analytic - numeric) / denom).max()))
    report.passed = all(e < tolerance for e in report.max_rel_errors)
    return report
