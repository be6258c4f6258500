"""Single command-line entry point for the whole pipeline.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime/numeric
error, 4 assertion-flag threshold failure (eval --assert-ratio,
bench --assert-budget).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError
from .evaluate import compare_checkpoints, predict_mask, single_arm_probe
from .guard import LatencyBudget, LatencyReport, SafeRegion, guard_run, make_segmenter
from .nets import DiscriminatorConfig, UNetConfig
from .pipeline import (ImageBuffer, NetpbmError, SceneConfig, build_manifest, load_manifest,
                       synth_dataset, write_netpbm)
from .train import TrainConfig, load_checkpoint, train

USAGE_EXIT = 1
DATA_EXIT = 2
RUNTIME_EXIT = 3
ASSERT_EXIT = 4


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


_SECTIONS = {
    "scene": SceneConfig,
    "train": TrainConfig,
    "generator": UNetConfig,
    "discriminator": DiscriminatorConfig,
    "budget": LatencyBudget,
    "region": None,  # validated separately
}

_REGION_TYPES = {"permitted_rect": tuple[int, int, int, int],
                 "breach_fraction_threshold": float,
                 "consecutive_frames_to_override": int}


def _json_fits(value, hint) -> bool:
    """Whether a JSON value fits a field type: ints pass for floats, lists for tuples."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        return (isinstance(value, list) and len(value) == len(args)
                and all(_json_fits(v, a) for v, a in zip(value, args)))
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


def _finite_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def load_config(path: str | None) -> dict:
    """Strict JSON config: unknown sections or keys, mistyped values and
    non-finite numbers (NaN, Infinity, 1e999) are rejected."""
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(), parse_float=_finite_number,
                         parse_constant=_finite_number)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise ConfigError(f"config {path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    for section, body in doc.items():
        if section not in _SECTIONS:
            raise ConfigError(f"config {path}: unknown section '{section}'")
        if not isinstance(body, dict):
            raise ConfigError(f"config {path}: section '{section}' must be an object")
        cls = _SECTIONS[section]
        types = _REGION_TYPES if cls is None else typing.get_type_hints(cls)
        for key, value in body.items():
            if key not in types:
                raise ConfigError(f"config {path}: unknown key '{key}' in '{section}'")
            hint = types[key]
            if not _json_fits(value, hint):
                want = hint.__name__ if isinstance(hint, type) else str(hint)
                raise ConfigError(f"config {path}: '{section}.{key}' must be {want}, "
                                  f"got {json.dumps(value)}")
    return doc


def _section(config: dict, name: str, cls, **overrides):
    body = dict(config.get(name, {}))
    body.update({k: v for k, v in overrides.items() if v is not None})
    hints = typing.get_type_hints(cls)
    for key, value in body.items():
        if isinstance(value, list) and typing.get_origin(hints[key]) is tuple:
            body[key] = tuple(value)
    return cls(**body)


def _region(config: dict, shape: tuple[int, int]) -> SafeRegion:
    body = dict(config.get("region", {}))
    h, w = shape
    x0, y0, x1, y1 = body.pop("permitted_rect", (0, 0, w, h))
    if not (0 <= x0 < x1 <= w and 0 <= y0 < y1 <= h):
        raise ConfigError(f"region.permitted_rect {[x0, y0, x1, y1]} must satisfy "
                          f"0 <= x0 < x1 <= {w} and 0 <= y0 < y1 <= {h}")
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[y0:y1, x0:x1] = 255
    return SafeRegion(mask=ImageBuffer(mask), **body)


def _gen_cfg(config: dict) -> UNetConfig:
    return _section(config, "generator", UNetConfig)


def cmd_synth(args) -> int:
    config = load_config(args.config)
    scene = _section(config, "scene", SceneConfig, seed=args.seed)
    manifest = synth_dataset(scene, args.count, args.out, fmt=args.format,
                             start_index=args.start)
    print(f"synth: wrote {manifest.count} pairs to {args.out}")
    return 0


def cmd_prepare(args) -> int:
    manifest = build_manifest(args.dir, pattern=args.pattern, fmt=args.format)
    path = manifest.save()
    print(f"prepare: manifest with {manifest.count} entries at {path}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    cfg = _section(config, "train", TrainConfig, manifest_path=args.manifest,
                   output_dir=args.out, seed=args.seed, epochs=args.epochs)
    gen_cfg = _gen_cfg(config)
    if "in_channels" in config.get("discriminator", {}):
        raise ConfigError("config: 'discriminator.in_channels' cannot be set; it is "
                          "the generator's in_channels + 1 label channel")
    disc_cfg = _section(config, "discriminator", DiscriminatorConfig,
                        in_channels=gen_cfg.in_channels + 1)
    ckpts, records = train(cfg, gen_cfg, disc_cfg, resume_from=args.resume,
                           progress=not args.quiet)
    print(f"train: {len(records)} epochs, {len(ckpts)} checkpoints in {cfg.output_dir}")
    return 0


def cmd_infer(args) -> int:
    config = load_config(args.config)
    gen, *_ = load_checkpoint(args.ckpt, _gen_cfg(config))
    manifest = load_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (cond, _label) in enumerate(manifest.load_pairs_unit_interval()):
        write_netpbm(predict_mask(gen, cond)[0], out_dir / f"pred_{i:05d}.pgm")
    print(f"infer: wrote {manifest.count} predictions to {out_dir}")
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config)
    manifest = load_manifest(args.manifest)
    report = compare_checkpoints(args.ckpt_baseline, args.ckpt, manifest,
                                 _gen_cfg(config), out_dir=args.out)
    summary = report.summary()
    print(json.dumps(summary, indent=2))
    if args.assert_ratio is not None and report.improvement_ratio < args.assert_ratio:
        print(f"eval: improvement ratio {report.improvement_ratio:.3f} "
              f"below required {args.assert_ratio}", file=sys.stderr)
        return ASSERT_EXIT
    return 0


def cmd_probe_single_arm(args) -> int:
    config = load_config(args.config)
    scene = _section(config, "scene", SceneConfig, seed=args.seed)
    scene = dataclasses.replace(scene, arm_count=1)
    report = single_arm_probe(args.ckpt, scene, args.count, _gen_cfg(config),
                              out_dir=args.out)
    print(json.dumps(report.summary(), indent=2))
    return 0


def _guard_setup(args):
    """The budget, manifest frames, region and segmenter that `bench` and `guard` share."""
    config = load_config(args.config)
    budget = _section(config, "budget", LatencyBudget, budget_ms=args.budget_ms)
    frames = [cond for cond, _ in load_manifest(args.manifest).load_pairs_unit_interval()]
    region = _region(config, frames[0].shape[1:])
    return budget, frames, region, make_segmenter(args.ckpt, _gen_cfg(config))


def cmd_bench(args) -> int:
    if args.repetitions < 1:
        raise ValueError(f"bench: --repetitions must be >= 1, got {args.repetitions}")
    budget, frames, region, segmenter = _guard_setup(args)
    segmenter(frames[0])  # warm-up, excluded from the timings
    events = guard_run(segmenter, frames * args.repetitions, region, budget)
    for e in events:  # guard_run fails closed; a failed frame has no timing to report
        if e.reason.startswith("error:"):
            raise RuntimeError(f"bench: frame {e.frame % len(frames)} failed ({e.reason})")
    report = LatencyReport([e.ms for e in events], budget.budget_ms)
    if args.out:
        report.write(args.out)
    print(json.dumps(report.summary(), indent=2))
    if args.assert_budget and report.violations > 0:
        print(f"bench: {report.violations} frames over the "
              f"{budget.budget_ms} ms budget", file=sys.stderr)
        return ASSERT_EXIT
    return 0


def cmd_guard(args) -> int:
    budget, frames, region, segmenter = _guard_setup(args)
    events = guard_run(segmenter, frames, region, budget, log_path=args.out)
    halts = sum(1 for e in events if e.decision == "HALT")
    print(f"guard: {len(events)} frames, {halts} HALT events, log at {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="armsentinel",
                     description="cGAN arm-segmentation safety stack")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--config", default=None, help="JSON run config")
        return p

    p = add("synth", cmd_synth, "generate a synthetic paired dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--start", type=int, default=0, help="first frame index")
    p.add_argument("--format", choices=["paired-files", "stitched"],
                   default="paired-files")
    p.add_argument("--out", required=True)

    p = add("prepare", cmd_prepare, "scan a frame directory into a manifest")
    p.add_argument("--dir", required=True)
    p.add_argument("--pattern", default=None,
                   help="file glob (default: frame_*.p?m, or pair_*.p?m when stitched)")
    p.add_argument("--format", choices=["paired-files", "stitched"],
                   default="paired-files")

    p = add("train", cmd_train, "adversarial training run")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--quiet", action="store_true")

    p = add("infer", cmd_infer, "write predicted masks for a manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    p = add("eval", cmd_eval, "compare baseline vs trained checkpoint")
    p.add_argument("--ckpt-baseline", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--assert-ratio", type=float, default=None,
                   help="exit 4 if improvement ratio is below this")

    p = add("probe-single-arm", cmd_probe_single_arm,
            "evaluate a checkpoint on single-arm scenes")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)

    p = add("bench", cmd_bench, "time inference against the latency budget")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--assert-budget", action="store_true",
                   help="exit 4 on any budget violation")

    p = add("guard", cmd_guard, "run the safety interlock over a frame source")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--budget-ms", type=float, default=None)
    p.add_argument("--out", default="guard_events.jsonl")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # ConfigError, ShapeError and JSONDecodeError are ValueErrors; NonFiniteError is arithmetic.
    except (NetpbmError, CheckpointError, FileNotFoundError, ValueError) as exc:
        print(f"armsentinel {args.command}: data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (ArithmeticError, RuntimeError) as exc:
        print(f"armsentinel {args.command}: runtime error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
