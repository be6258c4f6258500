"""Tests of the benchmark's own code: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from armsentinel import pipeline, tensor  # noqa: E402
from tracing import Tracer, conv_cost, min_samples, nearest_rank, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        (1, None, 0, "parent", None, 0.0, 10.0),
        (2, 1, 0, "a", None, 1.0, 3.0),
        (3, 1, 0, "b", None, 2.0, 4.0),  # overlaps a: [1, 4] counts once
        (4, 1, 0, "c", None, 9.0, 12.0),  # only [9, 10] lies inside the parent
        (5, 2, 0, "grandchild", None, 1.5, 2.5),  # covers part of a, not of parent
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(1.0)


def test_nearest_rank_picks_the_ceil_rank_sample():
    samples = list(range(200, 0, -1))  # 1..200 in reverse
    assert nearest_rank(samples, 0.95) == 190
    assert nearest_rank(samples, 0.5) == 100
    assert nearest_rank(list(range(1, 21)), 0.5) == 10


def test_nearest_rank_needs_ten_samples_beyond():
    with pytest.raises(ValueError, match="need 10"):
        nearest_rank(list(range(199)), 0.95)
    with pytest.raises(ValueError, match="need 10"):
        nearest_rank(list(range(19)), 0.5)
    assert min_samples(0.95) == 200
    assert min_samples(0.99) == 1000
    assert min_samples(0.5) == 20


def test_conv_flops_for_a_known_shape():
    # 4x3x64x64 input, 16x3x4x4 kernel, stride 2, pad 1 -> 4x16x32x32 output
    flops, nbytes = conv_cost("conv2d", (4, 3, 64, 64), (16, 3, 4, 4), 2, 1)
    assert flops == 2 * 4 * 16 * 32 * 32 * 3 * 4 * 4 == 6_291_456
    assert nbytes == (4 * 3 * 64 * 64 + 16 * 3 * 4 * 4 + 4 * 16 * 32 * 32) * 4
    assert conv_cost("conv2d", (4, 3, 64, 64), (16, 3, 4, 4), 2, 1, backward=True)[0] \
        == 2 * flops
    flops_t, _ = conv_cost("conv_transpose2d", (4, 32, 32, 32), (32, 16, 4, 4), 2, 1)
    assert flops_t == 2 * 4 * 32 * 32 * 32 * 16 * 4 * 4


def test_traced_conv_records_shape_spans_and_computed_cost():
    tr = Tracer()
    original = tensor.conv2d
    with workloads.tracing(tr):
        assert tensor.conv2d is not original
        tr.unit = 0
        tr.traced_units.append(0)
        x = tensor.Tensor(np.ones((4, 3, 64, 64), dtype=np.float32), requires_grad=True)
        k = tensor.Tensor(np.ones((16, 3, 4, 4), dtype=np.float32), requires_grad=True)
        b = tensor.Tensor(np.zeros(16, dtype=np.float32), requires_grad=True)
        tensor.mean(tensor.conv2d(x, k, b, stride=2, padding=1)).backward()
        tr.unit = None
    assert tensor.conv2d is original
    names = [(s[3], s[4]) for s in tr.spans]
    key = "4x3x64x64-k16x3x4x4-s2"
    assert ("tensor.conv2d.fwd", key) in names and ("tensor.conv2d.bwd", key) in names
    assert tr.counts["tensor.conv.flops"] == 3 * 6_291_456
    assert tr.counts["tensor.nodes"] == 5  # x, k, b, conv output, mean
    values = metrics.per_layer(tr, 1, [1.0], [1.0], {})
    assert values[f"tensor.conv2d.{key}.bwd_ms"] > 0


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_inputs_repeat_byte_for_byte_for_one_seed_and_differ_across_seeds(tmp_path):
    made = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        pipeline.synth_dataset(pipeline.SceneConfig(seed=seed), 3, tmp_path / name / "data")
        workloads.write_untrained_checkpoint(tmp_path / name / "model.bin", seed)
        made[name] = (_tree_bytes(tmp_path / name / "data"),
                      (tmp_path / name / "model.bin").read_bytes())
    assert made["a"] == made["b"]
    assert made["a"][0]["frame_00000.ppm"] != made["c"][0]["frame_00000.ppm"]
    assert made["a"][1] != made["c"][1]


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
