"""U-Net generator and patch-output convolutional discriminator.

Desk-scale defaults: 64x64 inputs, kernel 4 / stride 2 / pad 1 stages,
filter widths doubling per stage and capped at 8x the base width.  The
discriminator scores (condition, label) pairs concatenated along channels
and emits a sigmoid patch map rather than a single scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

KERNEL = 4
INIT_STD = 0.02


@dataclass
class UNetConfig:
    """Generator shape; it always emits one mask channel."""

    in_channels: int = 3
    base_filters: int = 16
    depth: int = 4
    dropout_rate: float = 0.5

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError(f"UNetConfig: depth must be >= 2, got {self.depth}")
        if self.base_filters < 1:
            raise ValueError("UNetConfig: base_filters must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"UNetConfig: dropout_rate must be in [0, 1), got {self.dropout_rate}")

    def filters(self, stage: int) -> int:
        return min(self.base_filters * 2 ** stage, 8 * self.base_filters)


@dataclass
class DiscriminatorConfig:
    in_channels: int = 4  # condition channels + the one label channel
    base_filters: int = 16
    num_layers: int = 3

    def __post_init__(self):
        if self.num_layers < 2:
            raise ValueError(f"DiscriminatorConfig: num_layers must be >= 2, got {self.num_layers}")
        if self.base_filters < 1:
            raise ValueError("DiscriminatorConfig: base_filters must be positive")

    def filters(self, stage: int) -> int:
        return min(self.base_filters * 2 ** stage, 8 * self.base_filters)


class _ParamStore:
    """Named parameter tensors in stable insertion order.  Seed None leaves
    the conv weights zero, for a checkpoint to fill."""

    def __init__(self, seed: int | None):
        self.params: dict[str, Tensor] = {}
        self._rng = None if seed is None else np.random.default_rng(seed)

    def conv(self, name: str, shape: tuple, out_channels: int) -> None:
        if self._rng is None:
            w = np.zeros(shape, dtype=np.float32)
        else:
            w = self._rng.normal(0.0, INIT_STD, shape).astype(np.float32)
        self.params[f"{name}.weight"] = Tensor(w, requires_grad=True)
        self.params[f"{name}.bias"] = Tensor(np.zeros(out_channels, dtype=np.float32),
                                             requires_grad=True)

    def norm(self, name: str, channels: int) -> None:
        self.params[f"{name}.gain"] = Tensor(np.ones(channels, dtype=np.float32),
                                             requires_grad=True)
        self.params[f"{name}.shift"] = Tensor(np.zeros(channels, dtype=np.float32),
                                              requires_grad=True)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def tensors(self) -> list[Tensor]:
        return list(self.params.values())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.params.items()}

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()


class Generator:
    """Encoder-decoder with skip concatenation between mirrored stages.
    `seed=None` draws no weights; `train.load_generator` fills them."""

    def __init__(self, cfg: UNetConfig, seed: int | None = 0):
        self.cfg = cfg
        store = _ParamStore(seed)
        d = cfg.depth
        enc_in = cfg.in_channels
        for i in range(d):
            store.conv(f"enc{i}", (cfg.filters(i), enc_in, KERNEL, KERNEL), cfg.filters(i))
            if 0 < i < d - 1:
                store.norm(f"enc{i}.norm", cfg.filters(i))
            enc_in = cfg.filters(i)
        dec_in = cfg.filters(d - 1)
        for j in range(d):
            out_ch = cfg.filters(d - 2 - j) if j < d - 1 else cfg.base_filters
            store.conv(f"dec{j}", (dec_in, out_ch, KERNEL, KERNEL), out_ch)
            store.norm(f"dec{j}.norm", out_ch)
            skip_ch = cfg.filters(d - 2 - j) if j < d - 1 else 0
            dec_in = out_ch + skip_ch
        store.conv("out", (1, cfg.base_filters, 1, 1), 1)
        self.store = store

    def forward(self, condition: Tensor, dropout_seed: int | None = None) -> Tensor:
        """Inference without a dropout seed; training passes one seed per step."""
        cfg = self.cfg
        if condition.data.ndim != 4 or condition.shape[1] != cfg.in_channels:
            raise ShapeError(f"generator: expected (N, {cfg.in_channels}, H, W) condition, "
                             f"got {condition.shape}")
        h, w = condition.shape[2:]
        multiple = 2 ** cfg.depth
        if h % multiple or w % multiple:
            raise ShapeError(f"generator: spatial dims {h}x{w} must be multiples of {multiple}")

        p = self.store
        x = condition
        skips = []
        for i in range(cfg.depth):
            x = T.conv2d(x, p[f"enc{i}.weight"], p[f"enc{i}.bias"], stride=2, padding=1)
            if 0 < i < cfg.depth - 1:
                x = T.instance_norm(x, p[f"enc{i}.norm.gain"], p[f"enc{i}.norm.shift"])
            x = T.leaky_relu(x)
            skips.append(x)
        for j in range(cfg.depth):
            x = T.conv_transpose2d(x, p[f"dec{j}.weight"], p[f"dec{j}.bias"],
                                   stride=2, padding=1)
            x = T.instance_norm(x, p[f"dec{j}.norm.gain"], p[f"dec{j}.norm.shift"])
            if j < 2 and dropout_seed is not None:
                x = T.dropout(x, cfg.dropout_rate, dropout_seed + j)
            x = T.relu(x)
            if j < cfg.depth - 1:
                x = T.concat([x, skips[cfg.depth - 2 - j]])
        x = T.conv2d(x, p["out.weight"], p["out.bias"], stride=1, padding=0)
        return T.sigmoid(x)


class Discriminator:
    """Stride-2 conv stack scoring local patches of a (condition, label) pair."""

    def __init__(self, cfg: DiscriminatorConfig, seed: int = 0):
        self.cfg = cfg
        store = _ParamStore(seed)
        ch = cfg.in_channels
        for i in range(cfg.num_layers):
            store.conv(f"layer{i}", (cfg.filters(i), ch, KERNEL, KERNEL), cfg.filters(i))
            if i > 0:
                store.norm(f"layer{i}.norm", cfg.filters(i))
            ch = cfg.filters(i)
        wide = cfg.filters(cfg.num_layers)
        store.conv("pre", (wide, ch, KERNEL, KERNEL), wide)
        store.norm("pre.norm", wide)
        store.conv("final", (1, wide, KERNEL, KERNEL), 1)
        self.store = store

    def forward(self, condition: Tensor, candidate: Tensor) -> Tensor:
        if condition.shape[0] != candidate.shape[0] or condition.shape[2:] != candidate.shape[2:]:
            raise ShapeError(f"discriminator: condition {condition.shape} and candidate "
                             f"{candidate.shape} must share batch and spatial dims")
        cfg = self.cfg
        if condition.shape[1] + candidate.shape[1] != cfg.in_channels:
            raise ShapeError(f"discriminator: channel sum "
                             f"{condition.shape[1]}+{candidate.shape[1]} != {cfg.in_channels}")
        p = self.store
        x = T.concat([condition, candidate])
        for i in range(cfg.num_layers):
            x = T.conv2d(x, p[f"layer{i}.weight"], p[f"layer{i}.bias"], stride=2, padding=1)
            if i > 0:
                x = T.instance_norm(x, p[f"layer{i}.norm.gain"], p[f"layer{i}.norm.shift"])
            x = T.leaky_relu(x)
        x = T.conv2d(x, p["pre.weight"], p["pre.bias"], stride=1, padding=1)
        x = T.instance_norm(x, p["pre.norm.gain"], p["pre.norm.shift"])
        x = T.leaky_relu(x)
        x = T.conv2d(x, p["final.weight"], p["final.bias"], stride=1, padding=1)
        return T.sigmoid(x)

