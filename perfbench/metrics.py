"""Metric names, units and the reduction of a traced run to per-layer numbers.

Every name here is listed in BENCHMARK.json; a test keeps the two equal.
A "unit" is one train step, one guard frame, or one eval pair.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from tracing import self_times

# The tail is printed but not a metric: on a shared two-core host its
# run-to-run spread is wider than any usable bound (see README.md).
TAIL_Q = 0.9

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pairs_per_s": "1/s",
    "latency_ms_p50": "ms",
}

OPS = ("conv2d", "conv_transpose2d", "instance_norm", "leaky_relu", "relu",
       "sigmoid", "dropout", "concat", "loss")

# Conv shapes of the acceptance config (64x64 frames, generator base 16 /
# depth 4, discriminator base 16 / 3 layers): batch 4 in training, batch 1
# at inference. Key: <input shape>-k<kernel shape>-s<stride>.
TRAIN_CONV_SHAPES = (
    ("conv2d", "4x3x64x64-k16x3x4x4-s2"),
    ("conv2d", "4x16x32x32-k32x16x4x4-s2"),
    ("conv2d", "4x32x16x16-k64x32x4x4-s2"),
    ("conv2d", "4x64x8x8-k128x64x4x4-s2"),
    ("conv2d", "4x16x64x64-k1x16x1x1-s1"),
    ("conv2d", "4x4x64x64-k16x4x4x4-s2"),
    ("conv2d", "4x64x8x8-k128x64x4x4-s1"),
    ("conv2d", "4x128x7x7-k1x128x4x4-s1"),
    ("conv_transpose2d", "4x128x4x4-k128x64x4x4-s2"),
    ("conv_transpose2d", "4x128x8x8-k128x32x4x4-s2"),
    ("conv_transpose2d", "4x64x16x16-k64x16x4x4-s2"),
    ("conv_transpose2d", "4x32x32x32-k32x16x4x4-s2"),
)
INFER_CONV_SHAPES = (
    ("conv2d", "1x3x64x64-k16x3x4x4-s2"),
    ("conv2d", "1x16x32x32-k32x16x4x4-s2"),
    ("conv2d", "1x32x16x16-k64x32x4x4-s2"),
    ("conv2d", "1x64x8x8-k128x64x4x4-s2"),
    ("conv2d", "1x16x64x64-k1x16x1x1-s1"),
    ("conv_transpose2d", "1x128x4x4-k128x64x4x4-s2"),
    ("conv_transpose2d", "1x128x8x8-k128x32x4x4-s2"),
    ("conv_transpose2d", "1x64x16x16-k64x16x4x4-s2"),
    ("conv_transpose2d", "1x32x32x32-k32x16x4x4-s2"),
)


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for op in OPS:
        units[f"tensor.{op}.fwd_ms"] = "ms"
        units[f"tensor.{op}.bwd_ms"] = "ms"
    for op, key in TRAIN_CONV_SHAPES:
        units[f"tensor.{op}.{key}.fwd_ms"] = "ms"
        units[f"tensor.{op}.{key}.bwd_ms"] = "ms"
    for op, key in INFER_CONV_SHAPES:
        units[f"tensor.{op}.{key}.fwd_ms"] = "ms"
    units.update({
        "tensor.conv.flops": "flop",
        "tensor.conv.bytes": "B",
        "tensor.conv.gflops_per_s": "GFLOP/s",
        "tensor.backward.self_ms": "ms",
        "tensor.nodes": "count",
        "tensor.grad_bytes": "B",
        "nets.generator.fwd_ms": "ms",
        "nets.discriminator.fwd_ms": "ms",
        "nets.discriminator.calls": "count",
        "optim.adam_step_ms": "ms",
        "train.step.self_ms": "ms",
        "train.epoch.self_ms": "ms",
        "train.checkpoint_ms": "ms",
        "checkpoint.save_ms": "ms",
        "checkpoint.load_ms": "ms",
        "checkpoint.bytes": "B",
        "pipeline.generate_scene_ms": "ms",
        "pipeline.write_netpbm_ms": "ms",
        "pipeline.read_netpbm_ms": "ms",
        "pipeline.load_pairs_ms": "ms",
        "evaluate.metrics_ms": "ms",
        "evaluate.report_ms": "ms",
        "guard.segment_ms": "ms",
        "guard.interlock_ms": "ms",
        "guard.loop.self_ms": "ms",
        "guard.halts": "count",
        "guard.budget_misses": "count",
        "trace.unit_ms_p50": "ms",
        "trace.overhead_ms": "ms",
    })
    return units


PER_LAYER = _per_layer_units()

# metric -> (span name, total or self time): mean over every call in the run
_PER_CALL = {
    "train.epoch.self_ms": ("train.epoch", "self"),
    "train.checkpoint_ms": ("train.checkpoint", "total"),
    "checkpoint.save_ms": ("checkpoint.save", "total"),
    "checkpoint.load_ms": ("checkpoint.load", "total"),
    "pipeline.generate_scene_ms": ("pipeline.generate_scene", "total"),
    "pipeline.write_netpbm_ms": ("pipeline.write_netpbm", "total"),
    "pipeline.read_netpbm_ms": ("pipeline.read_netpbm", "total"),
    "pipeline.load_pairs_ms": ("pipeline.load_pairs", "total"),
}
# metric -> (span name, total or self time or calls): sum over traced units, per unit
_PER_UNIT = {
    "tensor.backward.self_ms": ("tensor.backward", "self"),
    "nets.generator.fwd_ms": ("nets.generator.fwd", "total"),
    "nets.discriminator.fwd_ms": ("nets.discriminator.fwd", "total"),
    "nets.discriminator.calls": ("nets.discriminator.fwd", "calls"),
    "optim.adam_step_ms": ("optim.adam_step", "total"),
    "train.step.self_ms": ("train.step", "self"),
    "evaluate.metrics_ms": ("evaluate.metrics", "total"),
    "guard.segment_ms": ("guard.segment", "total"),
    "guard.interlock_ms": ("guard.interlock", "total"),
    "guard.loop.self_ms": ("guard.frame", "self"),
}


def per_layer(tracer, unit_size: int, traced_ms: list[float],
              untraced_ms: list[float], extra: dict[str, float]) -> dict[str, float]:
    """Reduce a traced run to PER_LAYER values.

    Per-unit values sum the spans of traced units and divide by the units
    they cover (`unit_size` pairs per traced unit id); per-call values are
    means over every call in the run. A layer the workload never calls
    reads 0. `extra` supplies the values the workload counted itself.
    """
    selfs = self_times(tracer.spans)
    traced = set(tracer.traced_units)
    units = max(1, len(traced) * unit_size)
    unit_sum: dict[tuple, float] = defaultdict(float)
    call_sum: dict[tuple, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    ends_by_parent: dict[int, float] = {}
    for sid, parent, unit, name, detail, start, end in tracer.spans:
        ms = (end - start) * 1000.0
        calls[name] += 1
        call_sum[name, "total"] += ms
        call_sum[name, "self"] += selfs[sid] * 1000.0
        if name == "evaluate.metrics":
            ends_by_parent[parent] = max(end, ends_by_parent.get(parent, end))
        if unit in traced:
            unit_sum[name, "total"] += ms
            unit_sum[name, "self"] += selfs[sid] * 1000.0
            unit_sum[name, "calls"] += 1
            if detail is not None:
                unit_sum[name, detail] += ms

    values = {name: 0.0 for name in PER_LAYER}
    for op in OPS:
        for phase in ("fwd", "bwd"):
            values[f"tensor.{op}.{phase}_ms"] = unit_sum[f"tensor.{op}.{phase}", "total"] / units
    for op, key in TRAIN_CONV_SHAPES + INFER_CONV_SHAPES:
        for phase in ("fwd", "bwd"):
            name = f"tensor.{op}.{key}.{phase}_ms"
            if name in values:
                values[name] = unit_sum[f"tensor.{op}.{phase}", key] / units
    conv_ms = sum(unit_sum[f"tensor.{op}.{phase}", "total"]
                  for op in ("conv2d", "conv_transpose2d") for phase in ("fwd", "bwd"))
    flops = tracer.counts["tensor.conv.flops"]
    values["tensor.conv.flops"] = flops / units
    values["tensor.conv.bytes"] = tracer.counts["tensor.conv.bytes"] / units
    values["tensor.conv.gflops_per_s"] = flops / (conv_ms / 1000.0) / 1e9 if conv_ms else 0.0
    values["tensor.nodes"] = tracer.counts["tensor.nodes"] / units
    values["tensor.grad_bytes"] = tracer.counts["tensor.grad_bytes"] / units
    for metric, (name, kind) in _PER_UNIT.items():
        values[metric] = unit_sum[name, kind] / units
    for metric, (name, kind) in _PER_CALL.items():
        values[metric] = call_sum[name, kind] / calls[name] if calls[name] else 0.0

    # compare_checkpoints writes report.csv, histogram.csv, summary.json and
    # the diff images after its last per-pair metric call.
    tails = [(end - ends_by_parent[sid]) * 1000.0
             for sid, _, _, name, _, _, end in tracer.spans
             if name == "evaluate.compare" and sid in ends_by_parent]
    values["evaluate.report_ms"] = sum(tails) / len(tails) if tails else 0.0

    values["trace.unit_ms_p50"] = median(traced_ms)
    values["trace.overhead_ms"] = median(traced_ms) - median(untraced_ms)
    values.update(extra)
    return values
