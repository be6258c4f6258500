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
                 parents: tuple = (), backward=None):
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
        self._backward = backward

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
        if other_t is not None and other_t.shape != self.shape:
            raise ShapeError(f"{tag}: shapes {self.shape} vs {other_t.shape}")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out_data = _check_finite(fwd(self.data, odata), tag)

        def backward(go):
            self.grad += bwd_self(go, self.data, odata)
            if other_t is not None:
                other_t.grad += bwd_other(go, self.data, odata)

        parents = (self,) + ((other_t,) if other_t is not None else ())
        return Tensor(out_data, True, tag, parents, backward)

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
        return _unary(self, lambda a: -a, lambda g, a, o: -g, "neg")

    # -- backward pass --------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from a scalar loss.

        Gradients accumulate into `.grad` of every node reachable through
        `parents`, leaves included; `requires_grad` is never read.  Call
        `zero_grad` on parameters between steps.
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
                if id(p) not in visited:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


# ---------------------------------------------------------------------------
# convolution: conv2d and conv_transpose2d share one adjoint pair of lowerings


def _im2col(x: np.ndarray, k: int, stride: int, padding: int,
            ho: int, wo: int) -> np.ndarray:
    """The (N*Ho*Wo, C*K*K) patch matrix of `x` padded by `padding`: row
    (n, i, j) holds the K x K windows at (i*stride, j*stride), channel-major.

    The matrix is the (N, Ho, Wo, C, K, K) strided view reshaped.  That
    reshape can return a view, which the GEMM reads in the view's layout,
    only when K == 1 or Wo == 1, so those cases keep it.  Otherwise it must
    copy, and the copy here moves each run of K pixels of a window row as
    one element: the same bytes in K times fewer moves."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c = x.shape[:2]
    if k == 1 or wo == 1:
        sn, sc, sh, sw = x.strides
        patches = np.lib.stride_tricks.as_strided(
            x, (n, ho, wo, c, k, k), (sn, sh * stride, sw * stride, sc, sh, sw), writeable=False)
        return patches.reshape(n * ho * wo, c * k * k)
    x = np.ascontiguousarray(x)
    sn, sc, sh, sw = x.strides
    runs = np.ndarray((n, ho, wo, c, k), np.dtype((np.void, k * x.itemsize)), x, 0,
                      (sn, sh * stride, sw * stride, sc, sh))
    return np.ascontiguousarray(runs).view(x.dtype).reshape(n * ho * wo, c * k * k)


def _gather(cols: np.ndarray, kernel: np.ndarray, n: int, ho: int, wo: int) -> np.ndarray:
    """Contract an `_im2col` matrix with kernel axis 1; returns C-contiguous NCHW."""
    out = np.dot(cols, kernel.reshape(kernel.shape[0], -1).T).reshape(n, ho, wo, -1)
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def _kernel_grad(a: np.ndarray, cols: np.ndarray, shape: tuple) -> np.ndarray:
    """Contract NCHW `a` with the `_im2col` matrix of the other operand over
    batch and pixels; `a`'s channels become kernel axis 0."""
    return np.dot(a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1), cols).reshape(shape)


def _scatter(x: np.ndarray, kernel: np.ndarray, stride: int, padding: int,
             ho: int, wo: int) -> np.ndarray:
    """Adjoint of `_gather`: contract `x` with kernel axis 0, overlap-add the
    taps into an NHWC buffer in `x.dtype`, then crop `padding`; returns an
    NCHW view.  With more pixels than input channels each tap is one GEMM
    into contiguous rows; otherwise one GEMM over all taps (a large kernel
    over few pixels) avoids copying the kernel per tap."""
    n, c, h, w = x.shape
    o, k = kernel.shape[1], kernel.shape[2]
    rows = x.transpose(0, 2, 3, 1).reshape(n * h * w, c)
    full = np.zeros((n, ho + 2 * padding, wo + 2 * padding, o), dtype=x.dtype)
    if n * h * w > c:
        taps = np.ascontiguousarray(kernel.transpose(2, 3, 0, 1))  # (K,K,C,O)
        tap = lambda i, j: (rows @ taps[i, j]).reshape(n, h, w, o)
    else:
        cols = np.dot(rows, kernel.reshape(c, -1)).reshape(n, h, w, o, k, k)
        tap = lambda i, j: cols[..., i, j]
    for i in range(k):
        for j in range(k):
            full[:, i:i + stride * h:stride, j:j + stride * w:stride] += tap(i, j)
    return full[:, padding:padding + ho, padding:padding + wo].transpose(0, 3, 1, 2)


def _check_conv(op: str, x: Tensor, kernel: Tensor, bias: Tensor, stride: int,
                padding: int, in_axis: int) -> tuple[int, int, int]:
    """Checks shared by both ops; kernel axis `in_axis` must match the input
    channels.  Returns the input height and width and the kernel size."""
    if stride < 1:
        raise ShapeError(f"{op}: stride must be positive, got {stride}")
    if padding < 0:
        raise ShapeError(f"{op}: negative padding {padding}")
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"{op}: need 4d input/kernel, got {x.shape}/{kernel.shape}")
    _, c_in, h, w = x.shape
    kc, c_out = kernel.shape[in_axis], kernel.shape[1 - in_axis]
    kh, kw = kernel.shape[2:]
    if kc != c_in:
        raise ShapeError(f"{op}: input channels {c_in} != kernel channels {kc}")
    if kh != kw:
        raise ShapeError(f"{op}: non-square kernel {kh}x{kw}")
    if bias.shape != (c_out,):
        raise ShapeError(f"{op}: bias shape {bias.shape} != ({c_out},)")
    return h, w, kh


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1,
           padding: int = 0) -> Tensor:
    """Strided cross-correlation, NCHW input against (C_out, C_in, K, K) kernel."""
    h, w, k = _check_conv("conv2d", x, kernel, bias, stride, padding, in_axis=1)
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ShapeError(f"conv2d: spatial dims {h}x{w} (pad {padding}) smaller than kernel {k}")
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    out_data = _gather(_im2col(x.data, k, stride, padding, ho, wo), kernel.data,
                       x.shape[0], ho, wo)
    out_data += bias.data[None, :, None, None]
    _check_finite(out_data, "conv2d")

    def backward(go):
        bias.grad += go.sum(axis=(0, 2, 3))
        kernel.grad += _kernel_grad(go, _im2col(x.data, k, stride, padding, ho, wo),
                                    kernel.shape)
        x.grad += _scatter(go, kernel.data, stride, padding, h, w)

    return Tensor(out_data, True, "conv2d", (x, kernel, bias), backward)


def conv_transpose2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1,
                     padding: int = 0) -> Tensor:
    """Fractionally-strided convolution: the gradient of conv2d w.r.t. its input.

    Kernel layout is (C_in, C_out, K, K); output spatial dim is
    (H-1)*stride - 2*padding + K.
    """
    h, w, k = _check_conv("conv_transpose2d", x, kernel, bias, stride, padding, in_axis=0)
    ho = (h - 1) * stride - 2 * padding + k
    wo = (w - 1) * stride - 2 * padding + k
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv_transpose2d: computed output dims {ho}x{wo} not positive")
    out_data = np.ascontiguousarray(_scatter(x.data, kernel.data, stride, padding, ho, wo))
    out_data += bias.data[None, :, None, None]
    _check_finite(out_data, "conv_transpose2d")

    def backward(go):
        bias.grad += go.sum(axis=(0, 2, 3))
        cols = _im2col(go, k, stride, padding, h, w)
        x.grad += _gather(cols, kernel.data, x.shape[0], h, w)
        kernel.grad += _kernel_grad(x.data, cols, kernel.shape)

    return Tensor(out_data, True, "conv_transpose2d", (x, kernel, bias), backward)


# ---------------------------------------------------------------------------
# elementwise / normalization


def _unary(x: Tensor, fwd, bwd, tag: str) -> Tensor:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out_data = _check_finite(fwd(x.data), tag)

    def backward(go):
        x.grad += bwd(go, x.data, out_data)

    return Tensor(out_data, True, tag, (x,), backward)


def relu(x: Tensor) -> Tensor:
    return _unary(x, lambda a: np.maximum(a, 0.0),
                  lambda g, a, o: g * (a > 0), "relu")


def leaky_relu(x: Tensor) -> Tensor:
    """pix2pix's LeakyReLU, slope 0.2 below zero."""
    return _unary(x, lambda a: np.where(a > 0, a, a * 0.2),
                  lambda g, a, o: g * np.where(a > 0, 1.0, 0.2), "leaky_relu")


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


def dropout(x: Tensor, rate: float, rng_seed: int) -> Tensor:
    """Inverted dropout; rate 0 returns `x` itself."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    rng = np.random.default_rng(rng_seed)
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    scale = x.dtype.type(1.0 / (1.0 - rate))
    return _unary(x, lambda a: a * keep * scale,
                  lambda g, a, o: g * keep * scale, "dropout")


def instance_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per (sample, channel) plane normalization, epsilon 1e-5, learned gain/bias."""
    if x.data.ndim != 4:
        raise ShapeError(f"instance_norm: need NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    if h * w < 2:
        raise ShapeError(f"instance_norm: degenerate {h}x{w} spatial plane")
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"instance_norm: gain/bias must be ({c},), got {gain.shape}/{bias.shape}")
    mu = x.data.mean(axis=(2, 3), keepdims=True)
    var = x.data.var(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data[None, :, None, None] + bias.data[None, :, None, None]
    _check_finite(out_data, "instance_norm")

    def backward(go):
        bias.grad += go.sum(axis=(0, 2, 3))
        gain.grad += (go * xhat).sum(axis=(0, 2, 3))
        m = h * w
        dxhat = go * gain.data[None, :, None, None]
        s1 = dxhat.sum(axis=(2, 3), keepdims=True)
        s2 = (dxhat * xhat).sum(axis=(2, 3), keepdims=True)
        x.grad += inv / m * (m * dxhat - s1 - xhat * s2)

    return Tensor(out_data, True, "instance_norm", (x, gain, bias), backward)


def concat(tensors: list[Tensor]) -> Tensor:
    """Join NCHW tensors along the channel axis."""
    shapes = [t.shape for t in tensors]
    if len({s[:1] + s[2:] for s in shapes}) != 1:
        raise ShapeError(f"concat: incompatible shapes {shapes} along channels")
    out_data = np.concatenate([t.data for t in tensors], axis=1)

    def backward(go):
        off = 0
        for t in tensors:
            c = t.shape[1]
            t.grad += go[:, off:off + c]
            off += c

    return Tensor(out_data, True, "concat", tuple(tensors), backward)


def total(x: Tensor) -> Tensor:
    """Sum over all elements to a scalar."""
    return _unary(x, lambda a: np.asarray(a.sum(), dtype=a.dtype).reshape(()),
                  lambda g, a, o: g * np.ones_like(a), "sum")


def mean(x: Tensor) -> Tensor:
    """Mean over all elements to a scalar."""
    return _unary(x, lambda a: np.asarray(a.mean(), dtype=a.dtype).reshape(()),
                  lambda g, a, o: g * np.full_like(a, 1.0 / a.size), "mean")
