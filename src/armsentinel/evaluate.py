"""Subtraction-based evaluation: per-pixel differences, non-zero counts,
error histograms, untrained-vs-trained comparison, and supplementary
mask-overlap metrics."""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nets import Generator, UNetConfig
from .pipeline import DatasetManifest, ImageBuffer, SceneConfig, generate_scene, write_netpbm
from .tensor import Tensor
from .train import load_generator

SAMPLE_DIFFS = 4
REPORT_HEADER = ["frame", "nonzero_a", "nonzero_b", "mae_a", "mae_b", "iou_b", "dice_b"]


@dataclass
class FrameRow:
    frame: int
    nonzero_a: int
    nonzero_b: int
    mae_a: float
    mae_b: float
    iou_b: float
    dice_b: float


@dataclass
class ComparativeReport:
    rows: list[FrameRow] = field(default_factory=list)
    histogram_a: np.ndarray = field(default_factory=lambda: np.zeros(256, dtype=np.int64))
    histogram_b: np.ndarray = field(default_factory=lambda: np.zeros(256, dtype=np.int64))

    @property
    def mean_nonzero_a(self) -> float:
        return float(np.mean([r.nonzero_a for r in self.rows]))

    @property
    def mean_nonzero_b(self) -> float:
        return float(np.mean([r.nonzero_b for r in self.rows]))

    @property
    def improvement_ratio(self) -> float:
        """baseline nonzero / checkpoint nonzero; inf for a perfect model."""
        if self.mean_nonzero_b == 0:
            return math.inf
        return self.mean_nonzero_a / self.mean_nonzero_b

    def summary(self) -> dict:
        return {
            "frames": len(self.rows),
            "mean_nonzero_a": self.mean_nonzero_a,
            "mean_nonzero_b": self.mean_nonzero_b,
            "mean_mae_a": float(np.mean([r.mae_a for r in self.rows])),
            "mean_mae_b": float(np.mean([r.mae_b for r in self.rows])),
            "mean_iou_b": float(np.mean([r.iou_b for r in self.rows])),
            "mean_dice_b": float(np.mean([r.dice_b for r in self.rows])),
            "improvement_ratio": ("inf" if math.isinf(self.improvement_ratio)
                                  else self.improvement_ratio),
        }


def subtract(a: ImageBuffer, b: ImageBuffer) -> ImageBuffer:
    """|a - b| per pixel, one channel; multi-channel inputs collapse to gray first."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(f"subtract: dimensions {a.width}x{a.height} vs {b.width}x{b.height}")
    ga = a.gray().astype(np.int16)
    gb = b.gray().astype(np.int16)
    return ImageBuffer(np.abs(ga - gb).astype(np.uint8))


def nonzero_count(d: ImageBuffer) -> int:
    return int(np.count_nonzero(d.pixels))


def histogram(d: ImageBuffer) -> np.ndarray:
    """256 int64 counts of the pixel values of a one-channel image."""
    return np.bincount(d.pixels.reshape(-1), minlength=256).astype(np.int64)


def binarize(img: ImageBuffer) -> ImageBuffer:
    """255 where `img.mask()` is on, else 0."""
    return ImageBuffer(np.where(img.mask(), 255, 0).astype(np.uint8))


def overlap_metrics(pred_mask: ImageBuffer, truth_mask: ImageBuffer) -> dict[str, float]:
    """IoU and Dice over binary masks; both 1.0 when both masks are empty."""
    pg = pred_mask.gray()
    tg = truth_mask.gray()
    if pg.shape != tg.shape:
        raise ValueError(f"overlap_metrics: dimensions {pg.shape} vs {tg.shape}")
    for name, arr in (("pred", pg), ("truth", tg)):
        if not np.isin(arr, (0, 255)).all():
            raise ValueError(f"overlap_metrics: {name} mask is not binary (0/255)")
    p = pg == 255
    t = tg == 255
    inter = int((p & t).sum())
    union = int((p | t).sum())
    total = int(p.sum()) + int(t.sum())
    iou = 1.0 if union == 0 else inter / union
    dice = 1.0 if total == 0 else 2.0 * inter / total
    return {"iou": iou, "dice": dice}


def predict_mask(gen: Generator, cond_chw: np.ndarray) -> tuple[ImageBuffer, ImageBuffer]:
    """The one inference path: a (C,H,W) unit-interval frame -> (raw, binarized) masks."""
    out = gen.forward(Tensor(cond_chw[None].astype(np.float32)))
    raw = ImageBuffer(np.clip(np.rint(out.data[0, 0] * 255.0), 0, 255).astype(np.uint8))
    return raw, binarize(raw)


def _evaluate(gens: tuple[Generator, ...],
              samples: Iterable[tuple[np.ndarray, ImageBuffer]],
              out_dir: str | Path | None, sample_diffs: int) -> ComparativeReport:
    """The one per-frame pass over `(condition (C,H,W), truth)` samples: column
    a is scored with the first generator, column b and the overlap with the
    last.  `out_dir` gets the report files and the first `sample_diffs`
    frames' diff images."""
    report = ComparativeReport()
    diff_images: list[tuple[int, ImageBuffer, ImageBuffer]] = []
    for frame, (cond, truth) in enumerate(samples):
        truth_bin, truth_gray = binarize(truth), truth.gray().astype(np.float64)
        scored = []
        for gen in gens:
            raw, binary = predict_mask(gen, cond)
            mae = float(np.abs(raw.gray() - truth_gray).mean())
            scored.append((binary, subtract(binary, truth_bin), mae))
        (_, diff_a, mae_a), (bin_b, diff_b, mae_b) = scored[0], scored[-1]
        ov = overlap_metrics(bin_b, truth_bin)
        report.rows.append(FrameRow(frame, nonzero_count(diff_a), nonzero_count(diff_b),
                                    mae_a, mae_b, ov["iou"], ov["dice"]))
        report.histogram_a += histogram(diff_a)
        report.histogram_b += histogram(diff_b)
        if frame < sample_diffs:
            diff_images.append((frame, diff_a, diff_b))

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "report.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(REPORT_HEADER)
            for r in report.rows:
                w.writerow([r.frame, r.nonzero_a, r.nonzero_b,
                            repr(r.mae_a), repr(r.mae_b), repr(r.iou_b), repr(r.dice_b)])
        with open(out_dir / "histogram.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["value", "count_a", "count_b"])
            for v in range(256):
                w.writerow([v, int(report.histogram_a[v]), int(report.histogram_b[v])])
        (out_dir / "summary.json").write_text(json.dumps(report.summary(), indent=2) + "\n")
        for frame, da, db in diff_images:
            write_netpbm(da, out_dir / f"diff_a_{frame:05d}.pgm")
            write_netpbm(db, out_dir / f"diff_b_{frame:05d}.pgm")
    return report


def compare_checkpoints(ckpt_a: str | Path, ckpt_b: str | Path,
                        manifest: DatasetManifest, gen_cfg: UNetConfig,
                        out_dir: str | Path | None = None) -> ComparativeReport:
    """Evaluate two checkpoints of the same generator config over a manifest.

    Per frame: infer, binarize at 128, subtract against the label; aggregate
    non-zero counts and histograms, and report ratio = mean_nonzero(a) /
    mean_nonzero(b) (a is the baseline).  The diff images of the first
    `SAMPLE_DIFFS` frames go to `out_dir`.
    """
    pairs = manifest.load_pairs_unit_interval()
    if not pairs:
        raise ValueError("compare_checkpoints: empty manifest")
    gen_a, gen_b = load_generator(ckpt_a, gen_cfg), load_generator(ckpt_b, gen_cfg)
    samples = ((cond, ImageBuffer(np.rint(label[0] * 255.0).astype(np.uint8)))
               for cond, label in pairs)
    return _evaluate((gen_a, gen_b), samples, out_dir, SAMPLE_DIFFS)


def single_arm_probe(ckpt: str | Path, scene_cfg: SceneConfig, count: int,
                     gen_cfg: UNetConfig,
                     out_dir: str | Path | None = None) -> ComparativeReport:
    """Evaluate a checkpoint on freshly generated scenes (no pass/fail gate).

    Runs the same per-frame metrics with the checkpoint on both sides, so
    nonzero_a == nonzero_b per row and the ratio is exactly 1; the point is
    the recorded IoU/Dice under a scene distribution the model may not have
    seen (e.g. single-arm frames for a two-arm-trained model).
    """
    if count < 1:
        raise ValueError("single_arm_probe: count must be >= 1")
    gen = load_generator(ckpt, gen_cfg)
    scenes = (generate_scene(scene_cfg, frame) for frame in range(count))
    return _evaluate((gen,), ((s.condition.unit_chw(), s.label) for s in scenes), out_dir, 0)
