"""Acceptance gate: one test per release criterion, each printing a single
PASS line with its measured figure.  The trained-run criteria share one
session fixture (about 200 pairs at 64x64, 60 epochs) and are slow by design;
criterion 9's full rerun trains in a second child process at the same time.

Run as a script, `python tests/test_acceptance.py ROOT` trains one full run
into ROOT.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import armsentinel
from armsentinel.evaluate import compare_checkpoints, single_arm_probe
from armsentinel.guard import (HALT, PROCEED, GuardState, LatencyBudget, LatencyReport,
                               SafeRegion, guard_run, guard_step, make_segmenter)
from armsentinel.nets import DiscriminatorConfig, UNetConfig
from armsentinel.pipeline import (ImageBuffer, SceneConfig, combine_labels,
                                  generate_scene, load_manifest,
                                  rasterize_arm_masks, read_netpbm, split_pair,
                                  stitch_pair, synth_dataset, write_netpbm)
from armsentinel.train import TrainConfig, gan_value, train

GEN_CFG = UNetConfig(in_channels=3, out_channels=1, base_filters=16, depth=4)
DISC_CFG = DiscriminatorConfig(in_channels=4, base_filters=16, num_layers=3)
SCENE = SceneConfig(width=64, height=64, seed=7)
TRAIN_SEED = 7


def _train_full(root):
    data = root / "data"
    held = root / "held"
    synth_dataset(SCENE, 200, data)
    synth_dataset(SCENE, 40, held, start_index=200)
    cfg = TrainConfig(epochs=60, checkpoint_every=5, batch_size=4,
                      learning_rate=2e-4, l1_weight=100.0, seed=TRAIN_SEED,
                      manifest_path=str(data / "manifest.json"),
                      output_dir=str(root / "run"))
    train(cfg, GEN_CFG, DISC_CFG, progress=False)


TRAIN_TIMEOUT_S = 3600.0


def _spawn_full_training(root):
    """Start `_train_full(root)` in a child process with single-threaded BLAS."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    src = str(Path(armsentinel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, __file__, str(root)], env=env)


def _await_training(proc, root):
    """Wait for a child started by `_spawn_full_training`; its checkpoints in order."""
    try:
        code = proc.wait(timeout=TRAIN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        pytest.fail(f"training into {root} took over {TRAIN_TIMEOUT_S:.0f} s")
    assert code == 0, f"training into {root} exited with code {code}"
    return sorted((root / "run").glob("ckpt_epoch_*.bin"))


@pytest.fixture(scope="session")
def trainings(tmp_path_factory):
    """The first run and criterion 9's rerun, started together as (process, root)."""
    roots = [tmp_path_factory.mktemp("acceptance"),
             tmp_path_factory.mktemp("acceptance_rerun")]
    runs = [(_spawn_full_training(root), root) for root in roots]
    yield runs
    for proc, _ in runs:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


@pytest.fixture(scope="session")
def full_run(trainings):
    proc, root = trainings[0]
    ckpts = _await_training(proc, root)
    held = load_manifest(root / "held" / "manifest.json")
    eval_dir = root / "eval"
    report = compare_checkpoints(root / "run" / "ckpt_epoch_0001.bin", ckpts[-1],
                                 held, GEN_CFG, out_dir=eval_dir)
    return {"root": root, "ckpts": ckpts,
            "held": held, "held_path": root / "held" / "manifest.json",
            "first_ckpt": root / "run" / "ckpt_epoch_0001.bin",
            "final_ckpt": ckpts[-1], "eval_dir": eval_dir, "report": report}


def test_criterion_1_gradient_suite():
    # Imported here: run as a script, this file has tests/ and not the repo root on sys.path.
    from tests.gradcheck import DEFAULT_SHAPES, finite_difference_check, registered_primitives

    t0 = time.perf_counter()
    worst = 0.0
    for primitive in registered_primitives():
        for seed in range(5):
            report = finite_difference_check(primitive, DEFAULT_SHAPES[primitive],
                                             tolerance=1e-4, seed=seed)
            assert report.passed, f"{primitive} seed {seed}: {report.max_rel_errors}"
            worst = max(worst, max(report.max_rel_errors))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\n[criterion 1] PASS gradient suite, {len(registered_primitives())} "
          f"primitives x 5 seeds, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_value_oracle():
    v = gan_value(np.full((2, 3), 0.5), np.full((2, 3), 0.5))
    assert abs(v - 2.0 * math.log(0.5)) < 1e-9
    clamped = gan_value(np.array([0.5]), np.array([1.0]), clamp_eps=1e-7)
    scalar = math.log(0.5) + math.log(1e-7)
    assert abs(clamped - scalar) < 1e-6
    print(f"\n[criterion 2] PASS value oracle, all-0.5 = {v:.12f}, "
          f"clamp path = {clamped:.4f}")


def test_criterion_3_five_fold(full_run):
    report = full_run["report"]
    ratio = report.improvement_ratio
    assert len(report.rows) == 40
    assert ratio >= 5.0
    print(f"\n[criterion 3] PASS five-fold reproduction, improvement ratio "
          f"{ratio:.2f} on 40 held-out pairs")


def test_criterion_4_latency(full_run):
    budget = LatencyBudget(budget_ms=300.0)
    region = SafeRegion(ImageBuffer(np.full((64, 64), 255, dtype=np.uint8)))
    segmenter = make_segmenter(full_run["final_ckpt"], GEN_CFG)
    frames = [c for c, _ in full_run["held"].load_pairs_unit_interval()]
    segmenter(frames[0])  # warm-up, excluded as in `bench`

    def timed(**kwargs):
        events = guard_run(segmenter, frames, region, budget, **kwargs)
        assert not any(e.reason.startswith("error:") for e in events)
        return LatencyReport([e.ms for e in events], budget.budget_ms)

    report = timed()
    recount = sum(1 for t in report.frame_ms if t > budget.budget_ms)
    assert report.violations == recount
    assert len(report.frame_ms) == 40
    assert report.violations == 0  # delay 0: every frame inside 300 ms

    slow = timed(injected_delay_ms=301.0)
    assert slow.violations == len(slow.frame_ms)

    events = guard_run(segmenter, frames[:5], region,
                       LatencyBudget(budget_ms=300.0, policy="abort-frame"),
                       injected_delay_ms=301.0)
    assert all(e.decision == HALT and e.reason == "latency" for e in events)
    print(f"\n[criterion 4] PASS latency logic, clean p95 "
          f"{report.summary()['p95_ms']:.1f} ms, 301 ms injection: "
          f"{slow.violations}/{len(slow.frame_ms)} violations, all HALT(latency)")


def test_criterion_5_interlock():
    base = np.zeros((20, 20), dtype=np.uint8)
    base[:, :10] = 255
    region = SafeRegion(ImageBuffer(base))
    inside = np.argwhere(region.permitted)
    outside = np.argwhere(~region.permitted)

    def mask_of(fraction, pixels=100):
        n_out = round(pixels * fraction)
        data = np.zeros((20, 20), dtype=np.uint8)
        for r, c in inside[: pixels - n_out]:
            data[r, c] = 255
        for r, c in outside[:n_out]:
            data[r, c] = 255
        return ImageBuffer(data)

    rng = np.random.default_rng(99)
    for _ in range(50):
        fractions = rng.choice([0.0, 0.005, 0.02, 0.1, 0.5],
                               size=rng.integers(1, 30)).tolist()
        state = GuardState()
        decisions = []
        trace = []
        for f in fractions:
            state, d = guard_step(state, mask_of(f), region)
            decisions.append(d)
            trace.append((state, d))
        breach = [f > region.breach_fraction_threshold for f in fractions]
        first = next((i for i in range(1, len(breach))
                      if breach[i] and breach[i - 1]), None)
        # debounce fires exactly at the first consecutive pair; OVERRIDE absorbs
        for i, d in enumerate(decisions):
            assert d == (HALT if first is not None and i >= first else PROCEED)
        # replay determinism
        state = GuardState()
        for f, expected in zip(fractions, trace):
            state, d = guard_step(state, mask_of(f), region)
            assert (state, d) == expected
    # monotone threshold response at fixed breach fraction 10%
    decisions = []
    for threshold in (0.05, 0.2):
        r = SafeRegion(ImageBuffer(base), breach_fraction_threshold=threshold,
                       consecutive_frames_to_override=1)
        _, d = guard_step(GuardState(), mask_of(0.1), r)
        decisions.append(d)
    assert decisions == [HALT, PROCEED]
    # constructed exit trajectory: breach starts at frame 2, debounce 2 -> HALT at 3
    state = GuardState()
    fired_at = None
    for i, f in enumerate([0.0, 0.0, 0.05, 0.05, 0.05]):
        state, d = guard_step(state, mask_of(f), region)
        if d == HALT and fired_at is None:
            fired_at = i
    assert fired_at == 3
    print("\n[criterion 5] PASS interlock properties, 50 randomized traces, "
          "exit trajectory fires at frame 3")


def test_criterion_6_pipeline_exactness(tmp_path):
    rng = np.random.default_rng(6)
    for _ in range(1000):
        h = int(rng.integers(1, 12))
        w = int(rng.integers(1, 12))
        c = int(rng.choice([1, 3]))
        a = ImageBuffer(rng.integers(0, 256, (h, w, c), dtype=np.uint8))
        b = ImageBuffer(rng.integers(0, 256, (h, w, c), dtype=np.uint8))
        ra, rb = split_pair(stitch_pair(a, b))
        assert np.array_equal(ra.pixels, a.pixels)
        assert np.array_equal(rb.pixels, b.pixels)

    for c in (1, 3):
        img = ImageBuffer(rng.integers(0, 256, (9, 5, c), dtype=np.uint8))
        p1, p2 = tmp_path / f"x{c}.pnm", tmp_path / f"y{c}.pnm"
        write_netpbm(img, p1)
        write_netpbm(read_netpbm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    for _ in range(100):
        a = ImageBuffer((rng.random((7, 7)) > 0.5).astype(np.uint8) * 255)
        b = ImageBuffer((rng.random((7, 7)) > 0.5).astype(np.uint8) * 255)
        ab = combine_labels(a, b).pixels
        assert np.array_equal(ab, combine_labels(b, a).pixels)
        assert np.array_equal(combine_labels(a, a).pixels, a.pixels)
        disjoint = ImageBuffer((b.pixels[:, :, 0] * (a.pixels[:, :, 0] == 0))
                               .astype(np.uint8))
        union = combine_labels(a, disjoint).pixels
        assert (union == 255).sum() == (a.pixels == 255).sum() + \
            (disjoint.pixels == 255).sum()

    for frame in (0, 31):
        sample = generate_scene(SCENE, frame)
        drawn = np.zeros((SCENE.height, SCENE.width), dtype=bool)
        for mask in rasterize_arm_masks(SCENE, frame):
            drawn |= mask
        assert np.array_equal(sample.label.gray() == 255, drawn)
    print("\n[criterion 6] PASS pipeline exactness, 1000 round-trips, "
          "byte-identical fixpoints, pixel-exact labels")


def test_criterion_7_evaluation_oracles(full_run):
    from armsentinel.evaluate import histogram, nonzero_count, subtract

    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        b = rng.integers(0, 256, (8, 8), dtype=np.uint8)
        d = subtract(ImageBuffer(a), ImageBuffer(b))
        expect_nonzero = 0
        expect_bins = [0] * 256
        for i in range(8):
            for j in range(8):
                diff = abs(int(a[i, j]) - int(b[i, j]))
                if diff:
                    expect_nonzero += 1
                expect_bins[diff] += 1
        assert nonzero_count(d) == expect_nonzero
        assert histogram(d).tolist() == expect_bins

    report = full_run["report"]
    pixels = 40 * 64 * 64
    assert int(report.histogram_a.sum()) == pixels
    assert int(report.histogram_b.sum()) == pixels

    self_report = compare_checkpoints(full_run["first_ckpt"], full_run["first_ckpt"],
                                      full_run["held"], GEN_CFG)
    assert self_report.mean_nonzero_a > 0
    assert self_report.improvement_ratio == 1.0
    print("\n[criterion 7] PASS evaluation oracles, loop-exact on 100 images, "
          "conservation holds, self-ratio 1.0")


def test_criterion_8_single_arm_probe(full_run):
    scene = SceneConfig(width=64, height=64, seed=301, arm_count=1)
    probe = single_arm_probe(full_run["final_ckpt"], scene, 20, GEN_CFG,
                             out_dir=full_run["root"] / "probe")
    assert len(probe.rows) == 20
    single_iou = float(np.mean([r.iou_b for r in probe.rows]))
    two_iou = float(np.mean([r.iou_b for r in full_run["report"].rows]))
    assert 0.0 <= single_iou <= 1.0
    print(f"\n[criterion 8] PASS single-arm probe completed, IoU single-arm "
          f"{single_iou:.3f} vs two-arm {two_iou:.3f} (reported, not gated)")


def test_criterion_9_reproducibility(full_run, trainings):
    proc2, root2 = trainings[1]
    ckpts2 = _await_training(proc2, root2)
    root1 = full_run["root"]

    names = sorted(p.name for p in (root1 / "run").glob("ckpt_epoch_*.bin"))
    assert names == sorted(p.name for p in (root2 / "run").glob("ckpt_epoch_*.bin"))
    for name in names:
        assert (root1 / "run" / name).read_bytes() == \
            (root2 / "run" / name).read_bytes(), f"{name} differs"

    held2 = load_manifest(root2 / "held" / "manifest.json")
    eval2 = root2 / "eval"
    compare_checkpoints(root2 / "run" / "ckpt_epoch_0001.bin", ckpts2[-1],
                        held2, GEN_CFG, out_dir=eval2)
    for artifact in ("report.csv", "histogram.csv", "summary.json"):
        assert (full_run["eval_dir"] / artifact).read_bytes() == \
            (eval2 / artifact).read_bytes(), f"{artifact} differs"

    def loss_columns(path):
        rows = path.read_text().splitlines()
        return [",".join(r.split(",")[:-1]) for r in rows]  # drop timing column

    assert loss_columns(root1 / "run" / "epochs.csv") == \
        loss_columns(root2 / "run" / "epochs.csv")
    print(f"\n[criterion 9] PASS reproducibility, {len(names)} checkpoints and "
          "all evaluation CSVs bit-identical across a full rerun")


if __name__ == "__main__":
    _train_full(Path(sys.argv[1]))
