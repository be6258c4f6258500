"""Subtraction-based evaluation: per-pixel differences, non-zero counts,
error histograms, untrained-vs-trained comparison, and supplementary
mask-overlap metrics."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nets import Generator, UNetConfig
from .pipeline import DatasetManifest, ImageBuffer, SceneConfig, generate_scene, write_netpbm
from .tensor import Tensor
from .train import load_checkpoint

REPORT_HEADER = ["frame", "nonzero_a", "nonzero_b", "mae_a", "mae_b", "iou_b", "dice_b"]


@dataclass
class DiffImage:
    """Absolute per-pixel difference of two same-sized images."""

    values: np.ndarray  # (H, W) uint8


@dataclass
class ErrorHistogram:
    bins: np.ndarray  # 256 counts
    total_pixels: int


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


def subtract(a: ImageBuffer, b: ImageBuffer) -> DiffImage:
    """|a - b| per pixel; multi-channel inputs collapse to gray first."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(f"subtract: dimensions {a.width}x{a.height} vs {b.width}x{b.height}")
    ga = a.gray().astype(np.int16)
    gb = b.gray().astype(np.int16)
    return DiffImage(np.abs(ga - gb).astype(np.uint8))


def nonzero_count(d: DiffImage) -> int:
    return int(np.count_nonzero(d.values))


def histogram(d: DiffImage) -> ErrorHistogram:
    bins = np.bincount(d.values.reshape(-1), minlength=256).astype(np.int64)
    return ErrorHistogram(bins=bins, total_pixels=int(d.values.size))


def binarize(img: ImageBuffer, threshold: int = 128) -> ImageBuffer:
    if not 0 <= threshold <= 255:
        raise ValueError(f"binarize: threshold {threshold} outside [0, 255]")
    return ImageBuffer(np.where(img.gray() >= threshold, 255, 0).astype(np.uint8))


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
    out = gen.forward(Tensor(cond_chw[None].astype(np.float32)), mode="infer")
    raw = ImageBuffer(np.clip(np.rint(out.data[0, 0] * 255.0), 0, 255).astype(np.uint8))
    return raw, binarize(raw, 128)


def _score(gen: Generator, cond_chw: np.ndarray, truth: ImageBuffer,
           truth_bin: ImageBuffer) -> tuple[ImageBuffer, DiffImage, float]:
    """Predict one frame: (binary mask, its diff to `truth_bin`, raw-vs-`truth` MAE)."""
    raw, binary = predict_mask(gen, cond_chw)
    mae = float(np.abs(raw.gray().astype(np.float64) - truth.gray().astype(np.float64)).mean())
    return binary, subtract(binary, truth_bin), mae


def _write_report(report: ComparativeReport, out_dir: Path) -> None:
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


def compare_checkpoints(ckpt_a: str | Path, ckpt_b: str | Path,
                        manifest: DatasetManifest, gen_cfg: UNetConfig,
                        out_dir: str | Path | None = None,
                        sample_diffs: int = 4) -> ComparativeReport:
    """Evaluate two checkpoints of the same generator config over a manifest.

    Per frame: infer, binarize at 128, subtract against the label; aggregate
    non-zero counts and histograms, and report ratio = mean_nonzero(a) /
    mean_nonzero(b) (a is the baseline).
    """
    pairs = manifest.load_pairs_unit_interval()
    if not pairs:
        raise ValueError("compare_checkpoints: empty manifest")
    gen_a, *_ = load_checkpoint(ckpt_a, gen_cfg)
    gen_b, *_ = load_checkpoint(ckpt_b, gen_cfg)

    report = ComparativeReport()
    diff_images: list[tuple[int, DiffImage, DiffImage]] = []
    for frame, (cond, label) in enumerate(pairs):
        truth = ImageBuffer(np.rint(label[0] * 255.0).astype(np.uint8))
        truth_bin = binarize(truth, 128)
        _, diff_a, mae_a = _score(gen_a, cond, truth, truth_bin)
        bin_b, diff_b, mae_b = _score(gen_b, cond, truth, truth_bin)
        ov = overlap_metrics(bin_b, truth_bin)
        report.rows.append(FrameRow(frame, nonzero_count(diff_a), nonzero_count(diff_b),
                                    mae_a, mae_b, ov["iou"], ov["dice"]))
        report.histogram_a += histogram(diff_a).bins
        report.histogram_b += histogram(diff_b).bins
        if frame < sample_diffs:
            diff_images.append((frame, diff_a, diff_b))

    if out_dir is not None:
        out_dir = Path(out_dir)
        _write_report(report, out_dir)
        for frame, da, db in diff_images:
            write_netpbm(ImageBuffer(da.values), out_dir / f"diff_a_{frame:05d}.pgm")
            write_netpbm(ImageBuffer(db.values), out_dir / f"diff_b_{frame:05d}.pgm")
    return report


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
    gen, *_ = load_checkpoint(ckpt, gen_cfg)
    report = ComparativeReport()
    for frame in range(count):
        sample = generate_scene(scene_cfg, frame)
        cond = sample.condition.unit_chw()
        truth_bin = binarize(sample.label, 128)
        pred_bin, diff, mae = _score(gen, cond, sample.label, truth_bin)
        ov = overlap_metrics(pred_bin, truth_bin)
        report.rows.append(FrameRow(frame, nonzero_count(diff), nonzero_count(diff),
                                    mae, mae, ov["iou"], ov["dice"]))
        bins = histogram(diff).bins
        report.histogram_a += bins
        report.histogram_b += bins
    if out_dir is not None:
        _write_report(report, Path(out_dir))
    return report
