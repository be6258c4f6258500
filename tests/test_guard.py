import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armsentinel.guard import (BREACH, HALT, NOMINAL, OVERRIDE, PROCEED,
                               GuardState, InterlockError, LatencyBudget,
                               LatencyReport, SafeRegion, guard_run, guard_step,
                               make_segmenter, reset_override)
from armsentinel.pipeline import ImageBuffer, load_manifest
from armsentinel.tensor import NonFiniteError
from tests.conftest import SMALL_GEN_CFG, slowed


def mask_of(fraction_outside, region, arm_pixels=100):
    """Build a mask with `arm_pixels` set, `fraction_outside` of them outside."""
    permitted = region.permitted
    inside = np.argwhere(permitted)
    outside = np.argwhere(~permitted)
    n_out = round(arm_pixels * fraction_outside)
    data = np.zeros(permitted.shape, dtype=np.uint8)
    for r, c in inside[: arm_pixels - n_out]:
        data[r, c] = 255
    for r, c in outside[:n_out]:
        data[r, c] = 255
    return ImageBuffer(data)


@pytest.fixture
def region():
    # Left half of a 20x20 field is permitted.
    mask = np.zeros((20, 20), dtype=np.uint8)
    mask[:, :10] = 255
    return SafeRegion(ImageBuffer(mask))


class TestGuardStep:
    def test_nominal_trace(self, region):
        state = GuardState()
        for _ in range(5):
            state, decision = guard_step(state, mask_of(0.0, region), region)
            assert decision == PROCEED
            assert state.mode == NOMINAL
            assert state.consecutive_breach_count == 0

    def test_two_frame_debounce_fires_on_second(self, region):
        state = GuardState()
        state, decision = guard_step(state, mask_of(0.05, region), region)
        assert (state.mode, decision) == (BREACH, PROCEED)
        assert state.consecutive_breach_count == 1
        state, decision = guard_step(state, mask_of(0.05, region), region)
        assert (state.mode, decision) == (OVERRIDE, HALT)
        assert state.consecutive_breach_count == 2

    def test_single_breach_then_recovery(self, region):
        state = GuardState()
        state, _ = guard_step(state, mask_of(0.05, region), region)
        state, decision = guard_step(state, mask_of(0.0, region), region)
        assert (state.mode, decision) == (NOMINAL, PROCEED)
        assert state.consecutive_breach_count == 0

    def test_fraction_at_threshold_is_not_breach(self, region):
        # The threshold is strict: exactly 1% outside stays NOMINAL.
        state, decision = guard_step(GuardState(), mask_of(0.01, region), region)
        assert (state.mode, decision) == (NOMINAL, PROCEED)
        assert state.last_breach_fraction == pytest.approx(0.01)

    def test_empty_mask_is_not_breach(self, region):
        empty = ImageBuffer(np.zeros((20, 20), dtype=np.uint8))
        state, decision = guard_step(GuardState(), empty, region)
        assert decision == PROCEED
        assert state.last_breach_fraction == 0.0

    def test_override_absorbs(self, region):
        state = GuardState()
        for _ in range(2):
            state, _ = guard_step(state, mask_of(0.05, region), region)
        assert state.mode == OVERRIDE
        for _ in range(4):
            state, decision = guard_step(state, mask_of(0.0, region), region)
            assert (state.mode, decision) == (OVERRIDE, HALT)

    def test_shape_mismatch(self, region):
        with pytest.raises(ValueError, match="guard_step"):
            guard_step(GuardState(), ImageBuffer(np.zeros((8, 8), dtype=np.uint8)), region)

    def test_consecutive_one_fires_immediately(self):
        mask = np.zeros((10, 10), dtype=np.uint8)
        mask[:, :5] = 255
        region = SafeRegion(ImageBuffer(mask), consecutive_frames_to_override=1)
        state, decision = guard_step(GuardState(), mask_of(0.5, region, 20), region)
        assert (state.mode, decision) == (OVERRIDE, HALT)

    def test_threshold_above_one_rejected(self, region):
        with pytest.raises(ValueError, match="breach_fraction_threshold"):
            SafeRegion(region.mask, breach_fraction_threshold=1.5)


class TestResetOverride:
    def test_reset_and_retrigger(self, region):
        state = GuardState()
        for _ in range(2):
            state, _ = guard_step(state, mask_of(0.05, region), region)
        state = reset_override(state)
        assert state.mode == NOMINAL
        assert state.consecutive_breach_count == 0
        # The interlock must re-arm after a reset.
        for _ in range(2):
            state, decision = guard_step(state, mask_of(0.05, region), region)
        assert (state.mode, decision) == (OVERRIDE, HALT)

    def test_reset_outside_override_rejected(self, region):
        with pytest.raises(InterlockError, match="NOMINAL"):
            reset_override(GuardState())


class TestGuardProperties:
    @given(fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_override_exactly_at_debounce(self, fractions):
        # The first HALT happens on frame k iff frames k-1 and k both breach
        # and no earlier consecutive pair did.
        mask = np.zeros((20, 20), dtype=np.uint8)
        mask[:, :10] = 255
        region = SafeRegion(ImageBuffer(mask))
        state = GuardState()
        decisions = []
        for f in fractions:
            state, d = guard_step(state, mask_of(f, region), region)
            decisions.append(d)
        # mask_of sets 100 arm pixels, so each frame realizes round(100 f) / 100.
        breach = [round(100 * f) / 100 > region.breach_fraction_threshold for f in fractions]
        first_halt = next((i for i in range(1, len(breach))
                           if breach[i] and breach[i - 1]), None)
        for i, d in enumerate(decisions):
            expect = HALT if first_halt is not None and i >= first_halt else PROCEED
            assert d == expect

    @given(fraction=st.floats(0.0, 1.0), threshold=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_threshold_monotone(self, fraction, threshold):
        mask = np.zeros((20, 20), dtype=np.uint8)
        mask[:, :10] = 255
        region = SafeRegion(ImageBuffer(mask), breach_fraction_threshold=threshold,
                            consecutive_frames_to_override=1)
        pred = mask_of(fraction, region)
        _, decision = guard_step(GuardState(), pred, region)
        realized = pred.gray() >= 128
        outside = int((realized & ~region.permitted).sum())
        realized_fraction = outside / int(realized.sum()) if realized.sum() else 0.0
        assert decision == (HALT if realized_fraction > threshold else PROCEED)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_replay_determinism(self, seed):
        mask = np.zeros((20, 20), dtype=np.uint8)
        mask[:, :10] = 255
        region = SafeRegion(ImageBuffer(mask))
        rng = np.random.default_rng(seed)
        masks = [ImageBuffer((rng.random((20, 20)) > 0.6).astype(np.uint8) * 255)
                 for _ in range(10)]

        def replay():
            state = GuardState()
            out = []
            for m in masks:
                state, d = guard_step(state, m, region)
                out.append((state, d))
            return out

        assert replay() == replay()


class TestLatencyReport:
    def test_summary_hand_values(self):
        report = LatencyReport(frame_ms=[10.0, 20.0, 30.0, 400.0], budget_ms=300.0)
        s = report.summary()
        assert s["violations"] == 1
        assert s["min_ms"] == 10.0
        assert s["max_ms"] == 400.0
        assert s["p50_ms"] == 20.0
        assert s["p95_ms"] == 400.0

    def test_p50_of_two_frames_is_the_smaller(self):
        assert LatencyReport(frame_ms=[9.0, 5.0], budget_ms=300.0).summary()["p50_ms"] == 5.0

    def test_violation_recount_matches_csv(self, tmp_path):
        report = LatencyReport(frame_ms=[1.0, 301.0, 2.0, 500.0, 299.9], budget_ms=300.0)
        report.write(tmp_path)
        rows = (tmp_path / "latency_frames.csv").read_text().splitlines()[1:]
        flagged = sum(int(r.split(",")[2]) for r in rows)
        assert flagged == report.violations == 2
        summary = json.loads((tmp_path / "latency.json").read_text())
        assert summary["violations"] == 2

    def test_default_budget_is_the_papers(self):
        # The paper labels a frame in 299 ms; the interlock allows 300.
        assert LatencyBudget().budget_ms == 300.0

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget_ms"):
            LatencyBudget(budget_ms=0.0)
        with pytest.raises(ValueError, match="budget_ms"):
            LatencyBudget(budget_ms=float("nan"))
        with pytest.raises(ValueError, match="budget_ms"):
            LatencyBudget(budget_ms=float("inf"))
        with pytest.raises(ValueError, match="policy"):
            LatencyBudget(policy="panic")


def truth_segmenter(frame):
    """Ground-truth oracle: the frame itself already is the mask."""
    return ImageBuffer(frame)


class TestGuardRun:
    def make_frames(self, fractions, region):
        return [mask_of(f, region).pixels[:, :, 0] for f in fractions]

    def test_exit_trajectory_halts_at_derived_frame(self, region, tmp_path):
        # Breach fractions 0, 0, 2%, 2%, 0: debounce 2 means the first HALT
        # is frame 3 and OVERRIDE then absorbs frame 4.
        frames = self.make_frames([0.0, 0.0, 0.02, 0.02, 0.0], region)
        log = tmp_path / "events.jsonl"
        events = guard_run(truth_segmenter, frames, region, LatencyBudget(),
                           log_path=log)
        assert [e.decision for e in events] == [PROCEED, PROCEED, PROCEED, HALT, HALT]
        assert events[3].reason == "breach"
        assert events[3].mode == OVERRIDE
        assert events[4].reason == "override"
        assert events[4].breach_fraction == 0.0
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert [l["decision"] for l in lines] == [e.decision for e in events]

    def test_latency_fail_closed(self, region):
        frames = self.make_frames([0.0, 0.0, 0.0], region)
        budget = LatencyBudget(budget_ms=0.001, policy="abort-frame")
        events = guard_run(slowed(truth_segmenter, 2.0), frames, region, budget)
        assert all(e.decision == HALT for e in events)
        assert all(e.reason == "latency" for e in events)

    def test_fast_frames_keep_interlock_decisions(self, region):
        frames = self.make_frames([0.0, 0.02, 0.02], region)
        budget = LatencyBudget(policy="abort-frame")
        events = guard_run(truth_segmenter, frames, region, budget)
        assert all(0.0 <= e.ms < budget.budget_ms for e in events)
        assert [(e.decision, e.reason) for e in events] == [
            (PROCEED, ""), (PROCEED, ""), (HALT, "breach")]

    def test_record_policy_does_not_halt(self, region):
        frames = self.make_frames([0.0, 0.0], region)
        budget = LatencyBudget(budget_ms=0.001, policy="record")
        events = guard_run(slowed(truth_segmenter, 2.0), frames, region, budget)
        assert all(e.decision == PROCEED for e in events)

    def test_frame_drift_rejected(self, region):
        frames = [np.zeros((20, 20), dtype=np.uint8), np.zeros((10, 10), dtype=np.uint8)]
        events = guard_run(truth_segmenter, frames, region, LatencyBudget())
        assert [e.decision for e in events] == [PROCEED, HALT]
        assert events[1].reason == "error:ValueError"
        assert events[1].mode == OVERRIDE

    def test_segmenter_error_fails_closed(self, region, tmp_path):
        # The segmenter raises on frame 2 of 5: that frame and every later
        # one is HALT, and each frame still gets exactly one logged event.
        frames = self.make_frames([0.0] * 5, region)
        calls = []

        def flaky(frame):
            calls.append(frame)
            if len(calls) == 3:
                raise NonFiniteError("sigmoid: non-finite values in result")
            return truth_segmenter(frame)

        log = tmp_path / "events.jsonl"
        events = guard_run(flaky, frames, region, LatencyBudget(), log_path=log)
        assert [e.decision for e in events] == [PROCEED, PROCEED, HALT, HALT, HALT]
        assert events[2].reason == "error:NonFiniteError"
        assert [e.reason for e in events[3:]] == ["override", "override"]
        assert all(e.mode == OVERRIDE for e in events[2:])
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert [l["frame"] for l in lines] == [0, 1, 2, 3, 4]
        assert lines[2]["reason"] == "error:NonFiniteError"

    def test_checkpoint_segmenter_shape(self, small_run):
        segment = make_segmenter(small_run["final_ckpt"], SMALL_GEN_CFG)
        cond = load_manifest(small_run["manifest_path"]).load_pairs_unit_interval()[0][0]
        mask = segment(cond)
        assert (mask.height, mask.width) == (16, 16)
        assert np.isin(mask.pixels, (0, 255)).all()
