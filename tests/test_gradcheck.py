import numpy as np
import pytest

from armsentinel import tensor as T
from armsentinel.tensor import Tensor
from tests import gradcheck as gc


@pytest.mark.parametrize("primitive", gc.registered_primitives())
def test_default_shapes_pass(primitive):
    report = gc.finite_difference_check(primitive, gc.DEFAULT_SHAPES[primitive],
                                        tolerance=1e-4, seed=0)
    assert report.passed, str(report)


def test_conv2d_reference_shapes():
    report = gc.finite_difference_check("conv2d", [(1, 2, 5, 5), (3, 2, 3, 3)],
                                        tolerance=1e-4, seed=3)
    assert report.passed


@pytest.mark.parametrize("primitive, shapes", [
    ("conv_transpose2d_strided", [(1, 8, 2, 2), (8, 2, 4, 4)]),
    ("conv2d_strided", [(1, 2, 4, 4), (8, 2, 4, 4)]),
])
def test_overlap_add_with_fewer_pixels_than_channels(primitive, shapes):
    # The transposed conv's input, or conv2d's output gradient, has
    # N*H*W = 4 pixels and 8 channels: the one-GEMM overlap-add branch.
    report = gc.finite_difference_check(primitive, shapes, tolerance=1e-4, seed=4)
    assert report.passed, str(report)


def test_sigmoid_tight_tolerance():
    report = gc.finite_difference_check("sigmoid", [(4,)], tolerance=1e-6, seed=1)
    assert report.passed


def test_deterministic_for_seed():
    a = gc.finite_difference_check("conv2d", gc.DEFAULT_SHAPES["conv2d"], seed=9)
    b = gc.finite_difference_check("conv2d", gc.DEFAULT_SHAPES["conv2d"], seed=9)
    assert a.max_rel_errors == b.max_rel_errors


def test_unknown_primitive():
    with pytest.raises(gc.UnknownPrimitiveError):
        gc.finite_difference_check("no_such_op", [(2,)])


def test_corrupted_backward_fails():
    # Negative control: a primitive whose backward rule is deliberately wrong
    # must be caught with its max error reported.
    def broken_square(x: Tensor) -> Tensor:
        out = Tensor(x.data ** 2, requires_grad=True, op_tag="broken", parents=(x,))

        def backward(go):
            x.grad += go * 3.0 * x.data  # should be 2x

        out._backward = backward
        return out

    def build(shapes, rng):
        inp = Tensor(rng.standard_normal(shapes[0]) + 2.0, requires_grad=True)
        return [inp], lambda i: broken_square(i[0])

    gc.register_primitive("_test_broken_square", build)
    try:
        report = gc.finite_difference_check("_test_broken_square", [(5,)], tolerance=1e-4)
        assert not report.passed
        assert report.max_rel_errors[0] > 1e-2
    finally:
        gc._REGISTRY.pop("_test_broken_square")
