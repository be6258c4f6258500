"""Minimal reverse-mode autodiff engine over numpy arrays.

Covers exactly the primitives the U-Net generator and the convolutional
discriminator need: 2d convolution / transposed convolution, the usual
activations, dropout, instance normalization, channel concatenation and
elementwise arithmetic.  Gradients accumulate until `zero_grad` is called;
the training loop owns that lifecycle.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "conv2d",
    "conv_transpose2d",
    "relu",
    "leaky_relu",
    "sigmoid",
    "dropout",
    "instance_norm",
    "concat",
    "log",
    "clamp_min",
    "abs_",
    "mean",
    "total",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an op."""


class NonFiniteError(FloatingPointError):
    """Raised when an op produces NaN or Inf."""


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op}: non-finite values in result")
    return arr


class Tensor:
    """A node in the autodiff graph: value, gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "op_tag", "parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, op_tag: str = "leaf",
                 parents: tuple = ()):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.size == 0:
            raise ShapeError("empty tensors are rejected")
        self.data = arr
        self.grad = np.zeros_like(arr)
        self.requires_grad = requires_grad
        self.op_tag = op_tag
        self.parents = parents
        self._backward = None

    # -- basics ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op_tag})"

    def zero_grad(self):
        self.grad[...] = 0.0

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- arithmetic -----------------------------------------------------

    def _binary(self, other, fwd, bwd_self, bwd_other, tag):
        other_t = other if isinstance(other, Tensor) else None
        odata = other_t.data if other_t is not None else np.asarray(other, dtype=self.dtype)
        if other_t is not None and other_t.shape != self.shape and odata.ndim > 0:
            raise ShapeError(f"{tag}: shapes {self.shape} vs {other_t.shape}")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out_data = _check_finite(fwd(self.data, odata), tag)
        parents = (self,) + ((other_t,) if other_t is not None else ())
        out = Tensor(out_data, requires_grad=True, op_tag=tag, parents=parents)

        def backward(go):
            self.grad += bwd_self(go, self.data, odata)
            if other_t is not None:
                other_t.grad += bwd_other(go, self.data, odata)

        out._backward = backward
        return out

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b,
                            lambda g, a, b: g, lambda g, a, b: g, "add")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b,
                            lambda g, a, b: g, lambda g, a, b: -g, "sub")

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a,
                            lambda g, a, b: -g, lambda g, a, b: g, "rsub")

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b,
                            lambda g, a, b: g * b, lambda g, a, b: g * a, "mul")

    __rmul__ = __mul__

    def __neg__(self):
        return self._binary(-1.0, lambda a, b: a * b,
                            lambda g, a, b: -g, None, "neg")

    # -- backward pass --------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from a scalar loss.

        Gradients accumulate into `.grad` of every reachable node with
        `requires_grad`; call `zero_grad` on parameters between steps.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


# ---------------------------------------------------------------------------
# convolution


def _pad2d(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))


def _col_view(xp: np.ndarray, k: int, s: int, ho: int, wo: int) -> np.ndarray:
    """Strided (N, C, K, K, Ho, Wo) patch view of a padded input."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, c, k, k, ho, wo), (sn, sc, sh, sw, sh * s, sw * s), writeable=False)


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1,
           padding: int = 0) -> Tensor:
    """Strided cross-correlation, NCHW input against (C_out, C_in, K, K) kernel."""
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be positive, got {stride}")
    if padding < 0:
        raise ShapeError(f"conv2d: negative padding {padding}")
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: need 4d input/kernel, got {x.shape}/{kernel.shape}")
    n, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernel.shape
    if kc != c_in:
        raise ShapeError(f"conv2d: input channels {c_in} != kernel channels {kc}")
    if kh != kw:
        raise ShapeError(f"conv2d: non-square kernel {kh}x{kw}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ShapeError(f"conv2d: spatial dims {h}x{w} (pad {padding}) smaller than kernel {kh}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({c_out},)")

    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xp = _pad2d(x.data, padding)
    cols = _col_view(xp, kh, stride, ho, wo)
    out_data = np.tensordot(cols, kernel.data, axes=([1, 2, 3], [1, 2, 3]))
    out_data = np.ascontiguousarray(out_data.transpose(0, 3, 1, 2))
    out_data += bias.data[None, :, None, None]
    _check_finite(out_data, "conv2d")
    out = Tensor(out_data, requires_grad=True, op_tag="conv2d",
                 parents=(x, kernel, bias))

    def backward(go):
        bias.grad += go.sum(axis=(0, 2, 3))
        kernel.grad += np.tensordot(go, cols, axes=([0, 2, 3], [0, 4, 5]))
        dcols = np.tensordot(go, kernel.data, axes=([1], [0]))  # (N,Ho,Wo,C,K,K)
        dcols = dcols.transpose(0, 3, 4, 5, 1, 2)
        dxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[:, :, i, j]
        x.grad += dxp[:, :, padding:padding + h, padding:padding + w]

    out._backward = backward
    return out


def conv_transpose2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1,
                     padding: int = 0) -> Tensor:
    """Fractionally-strided convolution: the gradient of conv2d w.r.t. its input.

    Kernel layout is (C_in, C_out, K, K); output spatial dim is
    (H-1)*stride - 2*padding + K.
    """
    if stride < 1:
        raise ShapeError(f"conv_transpose2d: stride must be positive, got {stride}")
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv_transpose2d: need 4d input/kernel, got {x.shape}/{kernel.shape}")
    n, c_in, h, w = x.shape
    kc, c_out, kh, kw = kernel.shape
    if kc != c_in:
        raise ShapeError(f"conv_transpose2d: input channels {c_in} != kernel channels {kc}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv_transpose2d: bias shape {bias.shape} != ({c_out},)")
    ho = (h - 1) * stride - 2 * padding + kh
    wo = (w - 1) * stride - 2 * padding + kw
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv_transpose2d: computed output dims {ho}x{wo} not positive")

    hf = (h - 1) * stride + kh
    wf = (w - 1) * stride + kw
    cols = np.tensordot(x.data, kernel.data, axes=([1], [0]))  # (N,H,W,O,K,K)
    cols = cols.transpose(0, 3, 4, 5, 1, 2)
    full = np.zeros((n, c_out, hf, wf), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            full[:, :, i:i + stride * h:stride, j:j + stride * w:stride] += cols[:, :, i, j]
    out_data = full[:, :, padding:hf - padding, padding:wf - padding].copy()
    out_data += bias.data[None, :, None, None]
    _check_finite(out_data, "conv_transpose2d")
    out = Tensor(out_data, requires_grad=True, op_tag="conv_transpose2d",
                 parents=(x, kernel, bias))

    def backward(go):
        bias.grad += go.sum(axis=(0, 2, 3))
        gop = _pad2d(go, padding)
        dcols = _col_view(gop, kh, stride, h, w)  # (N,O,K,K,H,W)
        dx = np.tensordot(dcols, kernel.data, axes=([1, 2, 3], [1, 2, 3]))  # (N,H,W,C_in)
        x.grad += dx.transpose(0, 3, 1, 2)
        kernel.grad += np.tensordot(x.data, dcols, axes=([0, 2, 3], [0, 4, 5]))

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise / normalization


def _unary(x: Tensor, fwd, bwd, tag: str) -> Tensor:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out_data = _check_finite(fwd(x.data), tag)
    out = Tensor(out_data, requires_grad=True, op_tag=tag, parents=(x,))

    def backward(go):
        x.grad += bwd(go, x.data, out_data)

    out._backward = backward
    return out


def relu(x: Tensor) -> Tensor:
    return _unary(x, lambda a: np.maximum(a, 0.0),
                  lambda g, a, o: g * (a > 0), "relu")


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu: slope must be in (0, 1), got {slope}")
    return _unary(x, lambda a: np.where(a > 0, a, a * slope),
                  lambda g, a, o: g * np.where(a > 0, 1.0, slope), "leaky_relu")


def sigmoid(x: Tensor) -> Tensor:
    def fwd(a):
        out = np.empty_like(a)
        pos = a >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
        e = np.exp(a[~pos])
        out[~pos] = e / (1.0 + e)
        return out

    return _unary(x, fwd, lambda g, a, o: g * o * (1.0 - o), "sigmoid")


def log(x: Tensor) -> Tensor:
    return _unary(x, np.log, lambda g, a, o: g / a, "log")


def clamp_min(x: Tensor, floor: float) -> Tensor:
    # Subgradient: clamped elements get zero gradient.
    return _unary(x, lambda a: np.maximum(a, floor),
                  lambda g, a, o: g * (a > floor), "clamp_min")


def abs_(x: Tensor) -> Tensor:
    return _unary(x, np.abs, lambda g, a, o: g * np.sign(a), "abs")


def dropout(x: Tensor, rate: float, rng_seed: int, active: bool) -> Tensor:
    """Inverted dropout; the inactive path is an exact identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not active or rate == 0.0:
        return _unary(x, lambda a: a, lambda g, a, o: g, "dropout_id")
    rng = np.random.default_rng(rng_seed)
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    scale = x.dtype.type(1.0 / (1.0 - rate))
    return _unary(x, lambda a: a * keep * scale,
                  lambda g, a, o: g * keep * scale, "dropout")


def instance_norm(x: Tensor, gain: Tensor, bias: Tensor,
                  epsilon: float = 1e-5) -> Tensor:
    """Per (sample, channel) plane normalization with learned gain/bias."""
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm: need NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if h * w < 2:
        raise ShapeError(f"instance_norm: degenerate {h}x{w} spatial plane")
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"instance_norm: gain/bias must be ({c},), got {gain.shape}/{bias.shape}")
    mu = x.data.mean(axis=(2, 3), keepdims=True)
    var = x.data.var(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data[None, :, None, None] + bias.data[None, :, None, None]
    _check_finite(out_data, "instance_norm")
    out = Tensor(out_data, requires_grad=True, op_tag="instance_norm",
                 parents=(x, gain, bias))

    def backward(go):
        bias.grad += go.sum(axis=(0, 2, 3))
        gain.grad += (go * xhat).sum(axis=(0, 2, 3))
        m = h * w
        dxhat = go * gain.data[None, :, None, None]
        s1 = dxhat.sum(axis=(2, 3), keepdims=True)
        s2 = (dxhat * xhat).sum(axis=(2, 3), keepdims=True)
        x.grad += inv / m * (m * dxhat - s1 - xhat * s2)

    out._backward = backward
    return out


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    shapes = [t.shape for t in tensors]
    ref = list(shapes[0])
    for s in shapes[1:]:
        trial = list(s)
        trial[axis] = ref[axis]
        if trial != ref:
            raise ShapeError(f"concat: incompatible shapes {shapes} along axis {axis}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor(out_data, requires_grad=True, op_tag="concat", parents=tuple(tensors))

    def backward(go):
        off = 0
        for t in tensors:
            width = t.shape[axis]
            sl = [slice(None)] * go.ndim
            sl[axis] = slice(off, off + width)
            t.grad += go[tuple(sl)]
            off += width

    out._backward = backward
    return out


def total(x: Tensor) -> Tensor:
    """Sum over all elements to a scalar."""
    out = Tensor(np.asarray(x.data.sum(), dtype=x.dtype).reshape(()),
                 requires_grad=True, op_tag="sum", parents=(x,))

    def backward(go):
        x.grad += go * np.ones_like(x.data)

    out._backward = backward
    return out


def mean(x: Tensor) -> Tensor:
    """Mean over all elements to a scalar."""
    n = x.data.size
    out = Tensor(np.asarray(x.data.mean(), dtype=x.dtype).reshape(()),
                 requires_grad=True, op_tag="mean", parents=(x,))

    def backward(go):
        x.grad += go * np.full_like(x.data, 1.0 / n)

    out._backward = backward
    return out
