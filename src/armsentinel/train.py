"""Adversarial training: alternating discriminator/generator updates.

Each step does one discriminator update on real and detached-fake scores,
then one generator update (non-saturating adversarial term plus a weighted
L1 reconstruction term).  Checkpoints are written at epoch 1, every
`checkpoint_every` epochs and at the final epoch, so the untrained-vs-trained
comparison always has its baseline.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError, load_tensors, save_tensors
from .nets import Discriminator, DiscriminatorConfig, Generator, UNetConfig
from .optim import AdamState, adam_step
from .pipeline import load_manifest
from .tensor import NonFiniteError, Tensor

LOG_HEADER = ["epoch", "d_loss", "g_adv", "g_l1", "v_estimate", "seconds"]
CLAMP_EPS = 1e-7  # floor under each score before its log


@dataclass
class TrainConfig:
    epochs: int = 200
    checkpoint_every: int = 5
    batch_size: int = 4
    learning_rate: float = 2e-4
    beta1: float = 0.5
    l1_weight: float = 100.0
    seed: int = 0
    manifest_path: str = ""
    output_dir: str = "runs"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"TrainConfig: epochs must be >= 1, got {self.epochs}")
        if self.checkpoint_every < 1:
            raise ValueError("TrainConfig: checkpoint_every must be >= 1")
        if self.batch_size < 1:
            raise ValueError(f"TrainConfig: batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.learning_rate < math.inf:  # also rejects NaN
            raise ValueError(f"TrainConfig: learning_rate must be finite and >= 0, "
                             f"got {self.learning_rate}")
        if not 0.0 <= self.beta1 < 1.0:  # also rejects NaN
            raise ValueError(f"TrainConfig: beta1 must be in [0, 1), got {self.beta1}")
        if self.l1_weight < 0:
            raise ValueError("TrainConfig: l1_weight must be >= 0")
        if self.seed < 0:
            raise ValueError(f"TrainConfig: seed must be >= 0, got {self.seed}")


@dataclass
class EpochRecord:
    epoch: int
    d_loss: float
    g_adv: float
    g_l1: float
    v_estimate: float
    seconds: float

    def row(self) -> list:
        return [self.epoch, repr(self.d_loss), repr(self.g_adv), repr(self.g_l1),
                repr(self.v_estimate), f"{self.seconds:.3f}"]


def _validate_scores(arr: np.ndarray, name: str):
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(f"{name}: scores must lie in [0, 1], "
                         f"got range [{arr.min()}, {arr.max()}]")


def gan_value(d_real_scores: np.ndarray, d_fake_scores: np.ndarray) -> float:
    """Empirical minimax value: E[log D(real)] + E[log(1 - D(fake))]."""
    real = np.asarray(d_real_scores, dtype=np.float64)
    fake = np.asarray(d_fake_scores, dtype=np.float64)
    _validate_scores(real, "gan_value d_real")
    _validate_scores(fake, "gan_value d_fake")
    return float(np.log(np.maximum(real, CLAMP_EPS)).mean()
                 + np.log(np.maximum(1.0 - fake, CLAMP_EPS)).mean())


def discriminator_loss(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """Negated minimax value; minimizing it maximizes V over D."""
    _validate_scores(d_real.data, "discriminator_loss d_real")
    _validate_scores(d_fake.data, "discriminator_loss d_fake")
    real_term = T.mean(T.log(T.clamp_min(d_real, CLAMP_EPS)))
    fake_term = T.mean(T.log(T.clamp_min(1.0 - d_fake, CLAMP_EPS)))
    return -(real_term + fake_term)


def generator_loss(d_fake: Tensor, generated: Tensor, target: Tensor,
                   l1_weight: float = 100.0) -> Tensor:
    """Non-saturating adversarial term -log D(G) plus weighted L1 reconstruction."""
    if generated.shape != target.shape:
        raise T.ShapeError(f"generator_loss: generated {generated.shape} "
                           f"!= target {target.shape}")
    if l1_weight < 0:
        raise ValueError("generator_loss: l1_weight must be >= 0")
    adv = -T.mean(T.log(T.clamp_min(d_fake, CLAMP_EPS)))
    return adv + l1_weight * T.mean(T.abs_(generated - target))


@dataclass
class StepRecord:
    d_loss: float
    g_adv: float
    g_l1: float
    v_estimate: float


def train_step(gen: Generator, disc: Discriminator,
               conditions: np.ndarray, labels: np.ndarray,
               opt_g: AdamState, opt_d: AdamState,
               cfg: TrainConfig, dropout_seed: int) -> StepRecord:
    """One discriminator update then one generator update on a batch."""
    if conditions.shape[0] == 0:
        raise ValueError("train_step: empty batch")
    cond = Tensor(conditions.astype(np.float32))
    real = Tensor(labels.astype(np.float32))

    fake = gen.forward(cond, dropout_seed)

    # Discriminator update on real and detached fake.
    disc.store.zero_grad()
    d_real = disc.forward(cond, real)
    d_fake_det = disc.forward(cond, fake.detach())
    d_loss = discriminator_loss(d_real, d_fake_det)
    d_loss.backward()
    adam_step(disc.store.tensors(), opt_d)

    v_est = gan_value(d_real.data, d_fake_det.data)

    # Generator update against the freshly updated discriminator.  The
    # discriminator gradients it leaves behind are zeroed before the next
    # discriminator update reads them.
    gen.store.zero_grad()
    d_fake = disc.forward(cond, fake)
    g_loss = generator_loss(d_fake, fake, real, cfg.l1_weight)
    g_loss.backward()
    adam_step(gen.store.tensors(), opt_g)

    l1 = float(np.abs(fake.data - real.data).mean())
    adv = float(g_loss.item()) - cfg.l1_weight * l1
    return StepRecord(d_loss=float(d_loss.item()), g_adv=adv, g_l1=l1, v_estimate=v_est)


def _checkpoint_epochs(epochs: int, every: int) -> set[int]:
    marks = {1, epochs}
    marks.update(range(every, epochs + 1, every))
    return marks


def save_checkpoint(path: str | Path, gen: Generator, disc: Discriminator,
                    opt_g: AdamState, opt_d: AdamState, epoch: int) -> None:
    tensors: dict[str, np.ndarray] = {"meta/epoch": np.asarray([epoch], dtype=np.float32)}
    for name, arr in gen.store.state_dict().items():
        tensors[f"gen/{name}"] = arr
    for name, arr in disc.store.state_dict().items():
        tensors[f"disc/{name}"] = arr
    for tag, opt in (("opt_g", opt_g), ("opt_d", opt_d)):
        tensors[f"{tag}/step"] = np.asarray([opt.step_count], dtype=np.float32)
        for i, (m, v) in enumerate(zip(opt.first_moment, opt.second_moment)):
            tensors[f"{tag}/m{i:03d}"] = m
            tensors[f"{tag}/v{i:03d}"] = v
    save_tensors(path, tensors)


def load_checkpoint(path: str | Path, gen: Generator, disc: Discriminator | None = None,
                    opt_g: AdamState | None = None, opt_d: AdamState | None = None) -> int:
    """Fill the objects given, in `save_checkpoint`'s order, from a container;
    return its epoch.  Parameters are filled in place."""
    stored = load_tensors(path)

    def entry(name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
        if name not in stored:
            raise CheckpointError(f"{path}: missing entry {name!r}")
        if shape is not None and stored[name].shape != shape:
            raise CheckpointError(f"{path}: {name!r} has shape {stored[name].shape}, "
                                  f"its parameter {shape}")
        if not np.isfinite(stored[name]).all():
            raise CheckpointError(f"{path}: {name!r} holds non-finite values")
        return stored[name]

    def count(name: str) -> int:
        arr = entry(name)
        if arr.size != 1:
            raise CheckpointError(f"{path}: {name!r} holds {arr.size} values, not one")
        value = float(arr.flat[0])
        if not (value >= 0 and value.is_integer()):
            raise CheckpointError(f"{path}: {name!r} is {value}, not a "
                                  "non-negative whole number")
        return int(value)

    epoch = count("meta/epoch")
    for tag, net in (("gen", gen), ("disc", disc)):
        if net is not None:
            for name, p in net.store.params.items():
                p.data[...] = entry(f"{tag}/{name}", p.data.shape)
    for tag, opt, net in (("opt_g", opt_g, gen), ("opt_d", opt_d, disc)):
        if opt is not None:
            opt.step_count = count(f"{tag}/step")
            shapes = [p.data.shape for p in net.store.tensors()]
            opt.first_moment = [entry(f"{tag}/m{i:03d}", s).copy() for i, s in enumerate(shapes)]
            opt.second_moment = [entry(f"{tag}/v{i:03d}", s).copy() for i, s in enumerate(shapes)]
    return epoch


def load_generator(path: str | Path, cfg: UNetConfig) -> Generator:
    """A generator of shape `cfg` holding a checkpoint's weights, built
    without the random draw that the checkpoint would overwrite."""
    gen = Generator(cfg, seed=None)
    load_checkpoint(path, gen)
    return gen


def train(cfg: TrainConfig, gen_cfg: UNetConfig, disc_cfg: DiscriminatorConfig,
          resume_from: str | None = None,
          progress: bool = False) -> tuple[list[Path], list[EpochRecord]]:
    """Full training run; returns checkpoint paths and per-epoch records."""
    pairs = load_manifest(cfg.manifest_path).load_pairs_unit_interval()

    gen = Generator(gen_cfg, seed=cfg.seed)
    disc = Discriminator(disc_cfg, seed=cfg.seed + 1)
    opt_g = AdamState(learning_rate=cfg.learning_rate, beta1=cfg.beta1)
    opt_d = AdamState(learning_rate=cfg.learning_rate, beta1=cfg.beta1)
    start_epoch = 0
    if resume_from is not None:
        start_epoch = load_checkpoint(resume_from, gen, disc, opt_g, opt_d)
    out_dir = Path(cfg.output_dir)  # made only once a resume checkpoint has loaded
    out_dir.mkdir(parents=True, exist_ok=True)

    ckpt_epochs = _checkpoint_epochs(cfg.epochs, cfg.checkpoint_every)
    log_path = out_dir / "epochs.csv"
    log_mode = "a" if resume_from is not None and log_path.exists() else "w"
    written: list[Path] = []
    records: list[EpochRecord] = []
    n = len(pairs)

    with open(log_path, log_mode, newline="") as log_file:
        writer = csv.writer(log_file)
        if log_mode == "w":
            writer.writerow(LOG_HEADER)
        for epoch in range(start_epoch + 1, cfg.epochs + 1):
            t0 = time.perf_counter()
            # Order and dropout seeds depend only on (seed, epoch), so a
            # resumed run replays the identical schedule.
            epoch_rng = np.random.default_rng((cfg.seed, epoch))
            order = epoch_rng.permutation(n)
            sums = np.zeros(4)
            steps = 0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                conds = np.stack([pairs[i][0] for i in idx])
                labels = np.stack([pairs[i][1] for i in idx])
                dropout_seed = int(epoch_rng.integers(0, 2**31))
                try:
                    rec = train_step(gen, disc, conds, labels, opt_g, opt_d,
                                     cfg, dropout_seed)
                except NonFiniteError as exc:
                    raise NonFiniteError(
                        f"train: non-finite loss at epoch {epoch} step {steps}: {exc}"
                    ) from exc
                sums += (rec.d_loss, rec.g_adv, rec.g_l1, rec.v_estimate)
                steps += 1
            seconds = time.perf_counter() - t0
            means = [float(v) for v in sums / steps]
            record = EpochRecord(epoch, *means, seconds)
            records.append(record)
            writer.writerow(record.row())
            log_file.flush()
            if progress:
                print(f"epoch {epoch}/{cfg.epochs} d={record.d_loss:.4f} "
                      f"g_adv={record.g_adv:.4f} l1={record.g_l1:.4f} ({seconds:.1f}s)")
            if epoch in ckpt_epochs:
                path = out_dir / f"ckpt_epoch_{epoch:04d}.bin"
                save_checkpoint(path, gen, disc, opt_g, opt_d, epoch)
                written.append(path)
    return written, records
