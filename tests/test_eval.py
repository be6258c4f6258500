import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armsentinel.evaluate import (ComparativeReport, FrameRow, binarize,
                                  compare_checkpoints, histogram, nonzero_count,
                                  overlap_metrics, single_arm_probe, subtract)
from armsentinel.pipeline import ImageBuffer, SceneConfig, load_manifest
from tests.conftest import SMALL_GEN_CFG, SMALL_SCENE


def gray(arr):
    return ImageBuffer(np.asarray(arr, dtype=np.uint8))


class TestSubtract:
    def test_hand_example(self):
        a = gray([[10, 200], [0, 255]])
        b = gray([[12, 100], [0, 0]])
        d = subtract(a, b)
        assert d.pixels[:, :, 0].tolist() == [[2, 100], [0, 255]]

    def test_self_subtraction_zero(self):
        rng = np.random.default_rng(0)
        img = gray(rng.integers(0, 256, (6, 6)))
        assert nonzero_count(subtract(img, img)) == 0

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = gray(rng.integers(0, 256, (5, 5)))
        b = gray(rng.integers(0, 256, (5, 5)))
        assert np.array_equal(subtract(a, b).pixels, subtract(b, a).pixels)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            subtract(gray(np.zeros((2, 2))), gray(np.zeros((3, 2))))

    def test_against_pixel_loops(self):
        # Independent oracle: plain Python loops over 100 random 8x8 pairs.
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.integers(0, 256, (8, 8), dtype=np.uint8)
            b = rng.integers(0, 256, (8, 8), dtype=np.uint8)
            d = subtract(gray(a), gray(b))
            expect_nonzero = 0
            expect_bins = [0] * 256
            for i in range(8):
                for j in range(8):
                    diff = abs(int(a[i, j]) - int(b[i, j]))
                    assert d.pixels[i, j, 0] == diff
                    if diff != 0:
                        expect_nonzero += 1
                    expect_bins[diff] += 1
            assert nonzero_count(d) == expect_nonzero
            assert histogram(d).tolist() == expect_bins


class TestHistogram:
    def test_counts_sum_to_pixels(self):
        rng = np.random.default_rng(3)
        d = subtract(gray(rng.integers(0, 256, (7, 9))), gray(rng.integers(0, 256, (7, 9))))
        h = histogram(d)
        assert int(h.sum()) == 63

    def test_zero_diff_concentrates_in_bin_zero(self):
        img = gray(np.full((4, 4), 9))
        h = histogram(subtract(img, img))
        assert h[0] == 16
        assert h[1:].sum() == 0


class TestBinarize:
    def test_threshold_boundary(self):
        img = gray([[127, 128, 129]])
        assert binarize(img).pixels[0, :, 0].tolist() == [0, 255, 255]

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        img = gray(rng.integers(0, 256, (6, 6)))
        once = binarize(img)
        assert np.array_equal(binarize(once).pixels, once.pixels)


class TestOverlapMetrics:
    def test_known_iou_and_dice(self):
        # pred covers cells 0..3, truth covers 2..7: inter 2, union 8.
        pred = np.zeros(9, dtype=np.uint8)
        truth = np.zeros(9, dtype=np.uint8)
        pred[0:4] = 255
        truth[2:8] = 255
        m = overlap_metrics(gray(pred.reshape(3, 3)), gray(truth.reshape(3, 3)))
        assert m["iou"] == pytest.approx(0.25)
        assert m["dice"] == pytest.approx(0.4)

    def test_identical_masks(self):
        rng = np.random.default_rng(5)
        mask = gray((rng.random((6, 6)) > 0.5).astype(np.uint8) * 255)
        m = overlap_metrics(mask, mask)
        assert m["iou"] == 1.0
        assert m["dice"] == 1.0

    def test_both_empty(self):
        empty = gray(np.zeros((4, 4)))
        m = overlap_metrics(empty, empty)
        assert m == {"iou": 1.0, "dice": 1.0}

    def test_disjoint(self):
        pred = np.zeros((2, 4), dtype=np.uint8)
        truth = np.zeros((2, 4), dtype=np.uint8)
        pred[0] = 255
        truth[1] = 255
        m = overlap_metrics(gray(pred), gray(truth))
        assert m == {"iou": 0.0, "dice": 0.0}

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="not binary"):
            overlap_metrics(gray(np.full((2, 2), 7)), gray(np.zeros((2, 2))))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_dice_at_least_iou(self, seed):
        rng = np.random.default_rng(seed)
        pred = gray((rng.random((5, 5)) > 0.5).astype(np.uint8) * 255)
        truth = gray((rng.random((5, 5)) > 0.5).astype(np.uint8) * 255)
        m = overlap_metrics(pred, truth)
        assert m["dice"] >= m["iou"] - 1e-12
        assert 0.0 <= m["iou"] <= 1.0


class TestComparativeReport:
    def test_ratio_from_hand_rows(self):
        report = ComparativeReport()
        report.rows.append(FrameRow(0, 40, 10, 0.0, 0.0, 1.0, 1.0))
        report.rows.append(FrameRow(1, 20, 2, 0.0, 0.0, 1.0, 1.0))
        assert report.mean_nonzero_a == 30.0
        assert report.mean_nonzero_b == 6.0
        assert report.improvement_ratio == pytest.approx(5.0)

    def test_perfect_model_is_inf(self):
        report = ComparativeReport()
        report.rows.append(FrameRow(0, 12, 0, 0.0, 0.0, 1.0, 1.0))
        assert math.isinf(report.improvement_ratio)
        assert report.summary()["improvement_ratio"] == "inf"


class TestCompareCheckpoints:
    def test_self_comparison_ratio_one(self, small_run, tmp_path):
        manifest = load_manifest(small_run["manifest_path"])
        report = compare_checkpoints(small_run["final_ckpt"], small_run["final_ckpt"],
                                     manifest, SMALL_GEN_CFG, out_dir=tmp_path)
        for row in report.rows:
            assert row.nonzero_a == row.nonzero_b
        ratio = report.improvement_ratio
        assert ratio == 1.0 or math.isinf(ratio)

    def test_artifacts_written(self, small_run, tmp_path):
        manifest = load_manifest(small_run["manifest_path"])
        report = compare_checkpoints(small_run["first_ckpt"], small_run["final_ckpt"],
                                     manifest, SMALL_GEN_CFG, out_dir=tmp_path)
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "frame,nonzero_a,nonzero_b,mae_a,mae_b,iou_b,dice_b"
        assert len(lines) == 1 + len(report.rows) == 13
        hist_lines = (tmp_path / "histogram.csv").read_text().splitlines()
        assert len(hist_lines) == 257
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["frames"] == 12
        assert (tmp_path / "diff_a_00000.pgm").exists()
        assert (tmp_path / "diff_b_00000.pgm").exists()

    def test_histogram_conservation(self, small_run):
        manifest = load_manifest(small_run["manifest_path"])
        report = compare_checkpoints(small_run["first_ckpt"], small_run["final_ckpt"],
                                     manifest, SMALL_GEN_CFG)
        pixels = 12 * 16 * 16
        assert int(report.histogram_a.sum()) == pixels
        assert int(report.histogram_b.sum()) == pixels

    def test_deterministic(self, small_run):
        manifest = load_manifest(small_run["manifest_path"])
        a = compare_checkpoints(small_run["first_ckpt"], small_run["final_ckpt"],
                                manifest, SMALL_GEN_CFG)
        b = compare_checkpoints(small_run["first_ckpt"], small_run["final_ckpt"],
                                manifest, SMALL_GEN_CFG)
        assert a.rows == b.rows


class TestSingleArmProbe:
    def test_runs_and_reports(self, small_run, tmp_path):
        scene = SceneConfig(width=16, height=16, seed=21, arm_count=1)
        report = single_arm_probe(small_run["final_ckpt"], scene, 5,
                                  SMALL_GEN_CFG, out_dir=tmp_path)
        assert len(report.rows) == 5
        for row in report.rows:
            assert row.nonzero_a == row.nonzero_b
            assert 0.0 <= row.iou_b <= 1.0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["frames"] == 5

    def test_zero_count_rejected(self, small_run):
        with pytest.raises(ValueError, match="count"):
            single_arm_probe(small_run["final_ckpt"],
                             SceneConfig(width=16, height=16, arm_count=1), 0,
                             SMALL_GEN_CFG)
