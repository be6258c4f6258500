"""The benchmark's three workloads and the checks on their outputs.

Each workload makes its inputs from the seed, sets the program up several
times, then runs closed-loop units (train steps, guard frames, eval jobs)
until the time is up and enough units exist for the tail percentile.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from armsentinel import checkpoint, evaluate, guard, nets, optim, pipeline, tensor, train

from metrics import TAIL_Q
from tracing import Tracer, conv_cost, min_samples

GEN_CFG = nets.UNetConfig()  # acceptance config: base 16, depth 4
DISC_CFG = nets.DiscriminatorConfig()  # base 16, 3 layers
TRAIN_PAIRS = 200
BATCH = 4
GUARD_FRAMES = 200  # one camera loop; every guard session replays it
EVAL_PAIRS = 5  # held-out pairs per eval job
HELD_OUT_START = 10_000  # scene index of the first held-out pair
SETUP_REPS = 11
MIN_UNITS = min_samples(TAIL_Q)
BUDGET = guard.LatencyBudget(budget_ms=300.0, policy="abort-frame")


@dataclass
class Result:
    unit_ms: list[float] = field(default_factory=list)  # one per step, frame or eval pair
    traced_ms: list[float] = field(default_factory=list)
    untraced_ms: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    unit_pairs: int = 1  # pairs one unit covers
    pairs: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)  # per-layer values the workload counts itself

    def fail(self, problem: str, units: int = 1) -> None:
        self.failed += units
        self.problems.append(problem)


class Units:
    """Times each unit. In a traced run every other unit runs with the
    tracer uninstalled, so traced minus untraced medians is its overhead."""

    def __init__(self, result: Result, tracer: Tracer | None, name: str):
        self.result = result
        self.tracer = tracer
        self.name = name
        self.count = 0
        self._traced = False
        self._t0 = 0.0

    def begin(self) -> None:
        tr = self.tracer
        if tr is not None:
            self._traced = self.count % 2 == 0
            if self._traced:
                tr.traced_units.append(self.count)
            else:
                tr.uninstall()
            tr.unit = self.count
            tr.begin(self.name)
        self._t0 = time.perf_counter()

    def end(self) -> float:
        seconds = time.perf_counter() - self._t0
        ms = seconds * 1000.0 / self.result.unit_pairs
        tr = self.tracer
        if tr is not None:
            tr.end()
            tr.unit = None
            if self._traced:
                self.result.traced_ms.append(ms)
            else:
                tr.install()
                self.result.untraced_ms.append(ms)
        self.result.unit_ms.append(ms)
        self.count += 1
        return seconds


@contextmanager
def patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def tracing(tracer: Tracer | None):
    """Install `tracer` around every layer for the duration of the block."""
    if tracer is None:
        yield
        return
    instrument(tracer)
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def _conv_args(args, kwargs):
    x, kernel = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    return x.shape, kernel.shape, stride, padding


def _conv_detail(args, kwargs) -> str:
    x_shape, k_shape, stride, _ = _conv_args(args, kwargs)
    return f"{'x'.join(map(str, x_shape))}-k{'x'.join(map(str, k_shape))}-s{stride}"


def instrument(tr: Tracer) -> None:
    """Register a span or counter at each layer boundary the workloads cross."""
    for op in ("conv2d", "conv_transpose2d"):
        def cost(args, kwargs, backward, op=op):
            return conv_cost(op, *_conv_args(args, kwargs),
                             itemsize=args[0].data.itemsize, backward=backward)
        tr.patch(tensor, op, tr.op(f"tensor.{op}", _conv_detail, cost))
    for op in ("instance_norm", "leaky_relu", "relu", "sigmoid", "dropout", "concat"):
        tr.patch(tensor, op, tr.op(f"tensor.{op}"))
    # The loss terms are built from these scalar and elementwise ops only.
    for op in ("mean", "total", "log", "clamp_min", "abs_"):
        tr.patch(tensor, op, tr.op("tensor.loss"))
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
        tr.patch(tensor.Tensor, op, tr.op("tensor.loss"))

    def count_nodes(init):
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tr.count("tensor.nodes", 1)
            tr.count("tensor.grad_bytes", self.grad.nbytes)
        return wrapper

    tr.patch(tensor.Tensor, "__init__", count_nodes)
    tr.patch(tensor.Tensor, "backward", tr.timed("tensor.backward"))
    tr.patch(nets.Generator, "forward", tr.timed("nets.generator.fwd"))
    tr.patch(nets.Discriminator, "forward", tr.timed("nets.discriminator.fwd"))
    # train.py, guard.py and evaluate.py call these through names bound in
    # their own module, so the wrapper goes where the caller looks it up.
    tr.patch(train, "adam_step", tr.timed("optim.adam_step"))
    tr.patch(train, "save_checkpoint", tr.timed("train.checkpoint"))
    tr.patch(train, "save_tensors", tr.timed("checkpoint.save"))
    tr.patch(train, "load_tensors", tr.timed("checkpoint.load"))
    tr.patch(pipeline, "generate_scene", tr.timed("pipeline.generate_scene"))
    tr.patch(pipeline, "write_netpbm", tr.timed("pipeline.write_netpbm"))
    tr.patch(evaluate, "write_netpbm", tr.timed("pipeline.write_netpbm"))
    tr.patch(pipeline, "read_netpbm", tr.timed("pipeline.read_netpbm"))
    tr.patch(pipeline.DatasetManifest, "load_pairs_unit_interval",
             tr.timed("pipeline.load_pairs"))
    for fn in ("binarize", "subtract", "nonzero_count", "histogram", "overlap_metrics"):
        tr.patch(evaluate, fn, tr.timed("evaluate.metrics"))
    tr.patch(guard, "guard_step", tr.timed("guard.interlock"))


def write_untrained_checkpoint(path: Path, seed: int) -> None:
    """A seeded, untrained checkpoint: inference cost does not depend on the weights."""
    gen = nets.Generator(GEN_CFG, seed=seed)
    disc = nets.Discriminator(DISC_CFG, seed=seed + 1)
    train.save_checkpoint(path, gen, disc, optim.AdamState(), optim.AdamState(), epoch=0)


# ---------------------------------------------------------------------------
# train


def run_train(seed: int, seconds: float, tracer: Tracer | None, work: Path) -> Result:
    """Resumed one-epoch train() calls on a 200-pair manifest until time is up.

    Each call loads the manifest, builds the nets, resumes from the previous
    call's checkpoint and writes its own, so every epoch pays a real set-up
    and a checkpoint write.
    """
    res = Result()
    data = work / "train_data"
    pipeline.synth_dataset(pipeline.SceneConfig(seed=seed), TRAIN_PAIRS, data)
    units = Units(res, tracer, "train.step")
    steps_per_epoch = math.ceil(TRAIN_PAIRS / BATCH)
    min_epochs = max(3, math.ceil(MIN_UNITS / steps_per_epoch))
    saved: dict[str, dict[str, np.ndarray]] = {}
    call = {"start": 0.0, "first_step": None}
    real_step, real_save = train.train_step, train.save_tensors

    def step(gen, disc, conditions, *args, **kwargs):
        if call["first_step"] is None:
            call["first_step"] = time.perf_counter()
            res.setup_s.append(call["first_step"] - call["start"])
            if tracer is not None:
                tracer.begin("train.epoch")
        res.attempted += 1
        units.begin()
        try:
            out = real_step(gen, disc, conditions, *args, **kwargs)
        finally:
            units.end()
        res.pairs += conditions.shape[0]
        return out

    def save(path, tensors):
        # The checkpoint is the last thing a one-epoch call does, so these
        # arrays are not updated again and need no copy.
        saved[str(path)] = dict(tensors)
        real_save(path, tensors)

    records: list[train.EpochRecord] = []
    resume = None
    with patched(train, "train_step", step), patched(train, "save_tensors", save), \
            tracing(tracer):
        t_start = time.perf_counter()
        while True:
            cfg = train.TrainConfig(epochs=len(records) + 1, batch_size=BATCH, seed=seed,
                                    manifest_path=str(data / "manifest.json"),
                                    output_dir=str(work / "train_run"))
            call.update(start=time.perf_counter(), first_step=None)
            if tracer is not None:
                tracer.begin("train.run")
            written, new = train.train(cfg, GEN_CFG, DISC_CFG, resume_from=resume)
            t_end = time.perf_counter()
            if tracer is not None:
                tracer.end()  # train.epoch
                tracer.end()  # train.run
            res.busy_s += t_end - call["first_step"]
            records += new
            _check_epoch(res, new, written, saved)
            resume = written[-1]
            res.layer["checkpoint.bytes"] = float(resume.stat().st_size)
            would_end = t_end - t_start + (t_end - call["start"])
            if len(records) >= min_epochs and would_end > seconds:
                break
    if records[-1].g_l1 >= records[0].g_l1:
        res.fail(f"train: final g_l1 {records[-1].g_l1} not below first {records[0].g_l1}")
    res.notes["epochs"] = len(records)
    res.notes["g_l1"] = [round(r.g_l1, 6) for r in records]
    return res


def _check_epoch(res: Result, new, written, saved) -> None:
    for rec in new:
        losses = (rec.d_loss, rec.g_adv, rec.g_l1, rec.v_estimate)
        if not all(math.isfinite(v) for v in losses):
            res.fail(f"train: epoch {rec.epoch} has a non-finite loss {losses}")
    if len(written) != len(new):
        res.fail(f"train: {len(new)} epochs wrote {len(written)} checkpoints")
    for path in written:
        expected = saved.pop(str(path))
        loaded = checkpoint.load_tensors(path)
        same = list(loaded) == list(expected) and all(
            loaded[k].shape == np.shape(v)
            and loaded[k].tobytes() == np.ascontiguousarray(v, dtype="<f4").tobytes()
            for k, v in expected.items())
        if not same:
            res.fail(f"train: {path.name} does not reload bit-equal to the saved state")


# ---------------------------------------------------------------------------
# guard


def permitted_region() -> guard.SafeRegion:
    """The robot may work in the left three quarters of the frame."""
    mask = np.full((64, 64), 255, dtype=np.uint8)
    mask[:, 48:] = 0
    return guard.SafeRegion(pipeline.ImageBuffer(mask))


def run_guard(seed: int, seconds: float, tracer: Tracer | None, work: Path) -> Result:
    """Sessions of guard_run over one looped camera sequence, each with a
    fresh interlock, until time is up."""
    res = Result()
    scene = pipeline.SceneConfig(seed=seed)
    frames = [pipeline.generate_scene(scene, i).condition.unit_chw()
              for i in range(GUARD_FRAMES)]
    ckpt = work / "guard.bin"
    write_untrained_checkpoint(ckpt, seed)
    res.layer["checkpoint.bytes"] = float(ckpt.stat().st_size)
    region = permitted_region()
    guard_step = guard.guard_step
    units = Units(res, tracer, "guard.frame")
    masks: list = []

    with tracing(tracer):
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            segment = guard.make_segmenter(ckpt, GEN_CFG)
            segment(frames[0])  # warm-up
            res.setup_s.append(time.perf_counter() - t0)

        def recording(frame):
            traced = tracer is not None and tracer.installed
            if traced:
                tracer.begin("guard.segment")
            mask = segment(frame)
            if traced:
                tracer.end()
            masks.append(mask)
            return mask

        def feed():
            for frame in frames:
                units.begin()
                yield frame
                res.busy_s += units.end()

        digests = []
        halts = misses = 0
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds or len(res.unit_ms) < MIN_UNITS:
            masks.clear()
            events = guard.guard_run(recording, feed(), region, BUDGET,
                                     log_path=work / "guard_events.jsonl")
            res.attempted += len(frames)
            res.pairs += len(events)
            digests.append(_check_session(res, events, masks, region, guard_step))
            halts += sum(e.decision == guard.HALT for e in events)
            misses += sum(e.ms > BUDGET.budget_ms for e in events)

    if any(d != digests[0] for d in digests):
        res.fail("guard: sessions over the same frames made different decisions")
    res.notes["decision_digest"] = digests[0]
    res.notes["sessions"] = len(digests)
    res.layer["guard.halts"] = halts / len(digests)
    res.layer["guard.budget_misses"] = misses / len(digests)
    _check_ledger(res, work.parent / "guard_digests.json", seed, digests[0])
    return res


def _check_session(res: Result, events, masks, region, guard_step) -> str:
    """Replay the interlock over the recorded masks; return a digest of the
    decisions and the breach fractions behind them."""
    if len(events) != GUARD_FRAMES or len(masks) != GUARD_FRAMES:
        res.fail(f"guard: {len(events)} events and {len(masks)} masks for "
                 f"{GUARD_FRAMES} frames", abs(GUARD_FRAMES - len(events)) or 1)
    state = guard.GuardState()
    digest = hashlib.sha256()
    overridden = False
    for i, (event, mask) in enumerate(zip(events, masks)):
        state, decision = guard_step(state, mask, region)
        digest.update(f"{state.mode}:{decision}:{state.last_breach_fraction!r};".encode())
        expected = guard.HALT if event.reason == "latency" else decision
        if (event.frame != i or event.decision != expected or event.mode != state.mode
                or event.breach_fraction != state.last_breach_fraction):
            res.fail(f"guard: frame {i} logged {event.mode}/{event.decision}, "
                     f"replay gives {state.mode}/{expected}")
        elif overridden and event.decision == guard.PROCEED:
            res.fail(f"guard: frame {i} is PROCEED after OVERRIDE")
        overridden |= event.mode == guard.OVERRIDE
    return digest.hexdigest()


def _check_ledger(res: Result, ledger: Path, seed: int, digest: str) -> None:
    """Runs of the same code and seed must reach the same decisions.

    The ledger is keyed by a hash of the package and benchmark sources, so
    a change to either starts a new entry instead of failing.
    """
    code = hashlib.sha256()
    for root in (Path(guard.__file__).parent, Path(__file__).parent):
        for source in sorted(root.glob("*.py")):
            code.update(source.read_bytes())
    known = json.loads(ledger.read_text()) if ledger.exists() else {}
    key = f"{code.hexdigest()[:16]}-seed{seed}-frames{GUARD_FRAMES}"
    if known.setdefault(key, digest) != digest:
        res.fail(f"guard: decision digest {digest} differs from an earlier run's {known[key]}")
    ledger.write_text(json.dumps(known, indent=1) + "\n")


# ---------------------------------------------------------------------------
# eval


def run_eval(seed: int, seconds: float, tracer: Tracer | None, work: Path) -> Result:
    """Jobs of synth -> load -> compare_checkpoints over fresh held-out pairs."""
    res = Result(unit_pairs=EVAL_PAIRS)
    scene = pipeline.SceneConfig(seed=seed)
    ckpt_a, ckpt_b = work / "eval_a.bin", work / "eval_b.bin"
    write_untrained_checkpoint(ckpt_a, seed)
    write_untrained_checkpoint(ckpt_b, seed + 2)
    res.layer["checkpoint.bytes"] = float(ckpt_a.stat().st_size)
    warm = work / "eval_warm"
    pipeline.synth_dataset(scene, 1, warm, start_index=HELD_OUT_START - 1)
    units = Units(res, tracer, "eval.job")

    with tracing(tracer):
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            manifest = pipeline.load_manifest(warm / "manifest.json")
            evaluate.compare_checkpoints(ckpt_a, ckpt_b, manifest, GEN_CFG, warm / "report")
            res.setup_s.append(time.perf_counter() - t0)

        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds or units.count < MIN_UNITS:
            job = work / "eval_job"
            start = HELD_OUT_START + units.count * EVAL_PAIRS
            res.attempted += EVAL_PAIRS
            units.begin()
            pipeline.synth_dataset(scene, EVAL_PAIRS, job, start_index=start)
            manifest = pipeline.load_manifest(job / "manifest.json")
            if tracer is not None:
                tracer.begin("evaluate.compare")
            report = evaluate.compare_checkpoints(ckpt_a, ckpt_b, manifest, GEN_CFG,
                                                  job / "report")
            if tracer is not None:
                tracer.end()
            res.busy_s += units.end()
            res.pairs += len(report.rows)
            _check_report(res, report, job / "report", start)
            shutil.rmtree(job)
    return res


def _check_report(res: Result, report, out: Path, start: int) -> None:
    rows = [r.frame for r in report.rows]
    with open(out / "report.csv", newline="") as f:
        csv_rows = list(csv.reader(f))[1:]
    summary_path = out / "summary.json"
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
    missing = EVAL_PAIRS - min(len(rows), len(csv_rows))
    if rows != list(range(EVAL_PAIRS)) or len(csv_rows) != EVAL_PAIRS:
        res.fail(f"eval: pairs from {start}: report rows {rows}, "
                 f"{len(csv_rows)} csv rows", max(1, missing))
    if summary.get("frames") != EVAL_PAIRS:
        res.fail(f"eval: pairs from {start}: summary.json missing or wrong frame count")


WORKLOADS = {"train": run_train, "guard": run_guard, "eval": run_eval}
