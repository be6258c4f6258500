"""Latency budget harness and fail-closed safety interlock.

The interlock watches the predicted arm mask against a permitted operating
region: breaches above a fraction threshold are debounced over consecutive
frames before latching an absorbing OVERRIDE.  `guard_run` gives every frame
exactly one event: an error while handling a frame (segmenter, interlock or
frame-shape drift) is HALT with reason "error:<type>" and latches OVERRIDE,
and a budget miss under abort-frame is HALT; no error ever yields PROCEED.
An interlock HALT's reason is "breach" on the frame that latches OVERRIDE
and "override" on each later frame the latch absorbs.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .evaluate import predict_mask
from .nets import UNetConfig
from .pipeline import ImageBuffer
from .train import load_checkpoint

NOMINAL = "NOMINAL"
BREACH = "BREACH"
OVERRIDE = "OVERRIDE"

PROCEED = "PROCEED"
HALT = "HALT"


class InterlockError(RuntimeError):
    pass


@dataclass
class LatencyBudget:
    budget_ms: float = 300.0
    policy: str = "record"  # "record" | "abort-frame"

    def __post_init__(self):
        if not 0 < self.budget_ms < math.inf:  # also NaN and inf, which no frame time exceeds
            raise ValueError(f"LatencyBudget: budget_ms must be finite and > 0, "
                             f"got {self.budget_ms}")
        if self.policy not in ("record", "abort-frame"):
            raise ValueError(f"LatencyBudget: unknown policy {self.policy!r}")


@dataclass
class LatencyReport:
    frame_ms: list[float]
    budget_ms: float

    @property
    def violations(self) -> int:
        return sum(1 for t in self.frame_ms if t > self.budget_ms)

    def _nearest_rank(self, q: float) -> float:
        ordered = sorted(self.frame_ms)
        rank = max(1, int(np.ceil(q * len(ordered))))
        return ordered[rank - 1]

    def summary(self) -> dict:
        return {
            "frames": len(self.frame_ms),
            "budget_ms": self.budget_ms,
            "violations": self.violations,
            "min_ms": min(self.frame_ms),
            "mean_ms": float(np.mean(self.frame_ms)),
            "p50_ms": self._nearest_rank(0.50),
            "p95_ms": self._nearest_rank(0.95),
            "max_ms": max(self.frame_ms),
        }

    def write(self, out_dir: str | Path) -> None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "latency.json").write_text(json.dumps(self.summary(), indent=2) + "\n")
        with open(out_dir / "latency_frames.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["frame", "ms", "violation"])
            for i, t in enumerate(self.frame_ms):
                w.writerow([i, repr(t), int(t > self.budget_ms)])


@dataclass
class SafeRegion:
    mask: ImageBuffer  # 255 = permitted zone
    breach_fraction_threshold: float = 0.01
    consecutive_frames_to_override: int = 2

    def __post_init__(self):
        if not 0.0 <= self.breach_fraction_threshold <= 1.0:
            raise ValueError("SafeRegion: breach_fraction_threshold must be in [0, 1]")
        if self.consecutive_frames_to_override < 1:
            raise ValueError("SafeRegion: consecutive_frames_to_override must be >= 1")

    @property
    def permitted(self) -> np.ndarray:
        return self.mask.mask()


@dataclass(frozen=True)
class GuardState:
    mode: str = NOMINAL
    consecutive_breach_count: int = 0
    last_breach_fraction: float = 0.0
    frames_processed: int = 0


def guard_step(state: GuardState, predicted_mask: ImageBuffer,
               region: SafeRegion) -> tuple[GuardState, str]:
    """Pure interlock transition: (state, mask, region) -> (state', decision).

    An empty mask counts as no breach (a vanished arm is a model failure,
    flagged upstream, but halting on it would latch the untrained model).
    """
    mask = predicted_mask.mask()
    permitted = region.permitted
    if mask.shape != permitted.shape:
        raise ValueError(f"guard_step: mask {mask.shape} vs region {permitted.shape}")
    arm_pixels = int(mask.sum())
    outside = int((mask & ~permitted).sum())
    fraction = 0.0 if arm_pixels == 0 else outside / arm_pixels

    frames = state.frames_processed + 1
    if state.mode == OVERRIDE:
        return (replace(state, last_breach_fraction=fraction,
                        frames_processed=frames), HALT)
    if fraction > region.breach_fraction_threshold:
        count = state.consecutive_breach_count + 1
        if count >= region.consecutive_frames_to_override:
            return (GuardState(OVERRIDE, count, fraction, frames), HALT)
        return (GuardState(BREACH, count, fraction, frames), PROCEED)
    return (GuardState(NOMINAL, 0, fraction, frames), PROCEED)


def reset_override(state: GuardState) -> GuardState:
    if state.mode != OVERRIDE:
        raise InterlockError(f"reset_override: state is {state.mode}, not {OVERRIDE}")
    return GuardState(NOMINAL, 0, 0.0, state.frames_processed)


# ---------------------------------------------------------------------------
# guard loop: the one per-frame timer, shared by `guard` and `bench`


def make_segmenter(ckpt: str | Path, gen_cfg: UNetConfig) -> Callable[[np.ndarray], ImageBuffer]:
    """Checkpoint-backed frame -> binary mask callable (infer mode)."""
    gen, *_ = load_checkpoint(ckpt, gen_cfg)
    return lambda cond_chw: predict_mask(gen, cond_chw)[1]


@dataclass
class GuardEvent:
    frame: int
    ms: float
    breach_fraction: float
    mode: str
    decision: str
    reason: str = ""

    def json_line(self) -> str:
        return json.dumps({"frame": self.frame, "ms": round(self.ms, 3),
                           "breach_fraction": self.breach_fraction, "mode": self.mode,
                           "decision": self.decision, "reason": self.reason})


def guard_run(segmenter: Callable[[np.ndarray], ImageBuffer],
              frames: Iterable[np.ndarray], region: SafeRegion,
              budget: LatencyBudget,
              log_path: str | Path | None = None) -> list[GuardEvent]:
    """Online loop: segment -> interlock per frame, all inside one budget window.

    Under the abort-frame policy a frame that misses its budget is HALT with
    reason "latency" regardless of the interlock outcome (fail closed); a frame
    whose handling raises is HALT with reason "error:<type>" and latches OVERRIDE.
    Frames after the latch are HALT with reason "override". Each event's `ms`
    times the whole frame, segmenter and interlock, and is what `bench` reports.
    `segmenter` is any frame -> binary-mask callable; tests substitute a
    ground-truth oracle for the trained generator, and model latency with a
    segmenter that sleeps.
    """
    state = GuardState()
    events: list[GuardEvent] = []
    expected_shape = None
    log_file = open(log_path, "w") if log_path is not None else None
    try:
        for i, frame in enumerate(frames):
            t0 = time.perf_counter()
            try:
                if expected_shape is None:
                    expected_shape = frame.shape
                elif frame.shape != expected_shape:
                    raise ValueError(f"guard_run: frame {i} shape {frame.shape} drifted "
                                     f"from {expected_shape}")
                mask = segmenter(frame)
                latched = state.mode == OVERRIDE
                state, decision = guard_step(state, mask, region)
                reason = ("override" if latched else "breach") if decision == HALT else ""
            except Exception as exc:  # fail closed: an error on a frame is a HALT
                state = replace(state, mode=OVERRIDE, frames_processed=state.frames_processed + 1)
                decision, reason = HALT, f"error:{type(exc).__name__}"
            ms = (time.perf_counter() - t0) * 1000.0
            if (ms > budget.budget_ms and budget.policy == "abort-frame"
                    and not reason.startswith("error:")):
                decision, reason = HALT, "latency"
            event = GuardEvent(i, ms, state.last_breach_fraction, state.mode,
                               decision, reason)
            events.append(event)
            if log_file is not None:
                log_file.write(event.json_line() + "\n")
    finally:
        if log_file is not None:
            log_file.close()
    return events
