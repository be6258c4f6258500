"""Data preparation: Netpbm IO, label combination, pair stitching, manifests,
and a seeded synthetic two-arm scene generator.

The scene generator stands in for endoscopic footage at desk scale: a
reddish value-noise background with one or two jointed bright "instrument"
capsules drawn over it, and a pixel-exact binary label of the drawn
instrument pixels.  Everything is deterministic in (seed, frame_index).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ImageBuffer", "PairedSample", "SceneConfig", "DatasetManifest",
    "NetpbmError", "read_netpbm", "write_netpbm",
    "combine_labels", "stitch_pair", "split_pair",
    "generate_scene", "rasterize_arm_masks",
    "synth_dataset", "build_manifest", "load_manifest",
]


class NetpbmError(IOError):
    pass


@dataclass
class ImageBuffer:
    """8-bit image, (H, W, C) row-major with C in {1, 3}."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError(f"ImageBuffer: need (H, W, 1|3) array, got shape {arr.shape}")
        self.pixels = arr.astype(np.uint8)  # always a copy: no caller's array is shared

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    def gray(self) -> np.ndarray:
        """(H, W) uint8; multi-channel collapses by rounded integer mean."""
        if self.channels == 1:
            return self.pixels[:, :, 0]
        return np.rint(self.pixels.mean(axis=2)).astype(np.uint8)

    def mask(self) -> np.ndarray:
        """(H, W) bool: the one on/off rule, gray level 128 and up is on."""
        return self.gray() >= 128

    def unit_chw(self) -> np.ndarray:
        """(C, H, W) float32 in [0, 1]."""
        return (self.pixels.astype(np.float32) / 255.0).transpose(2, 0, 1)


@dataclass
class PairedSample:
    condition: ImageBuffer
    label: ImageBuffer

    def __post_init__(self):
        if (self.condition.width, self.condition.height) != (self.label.width, self.label.height):
            raise ValueError("PairedSample: condition and label dimensions differ")


# ---------------------------------------------------------------------------
# Netpbm P5/P6, maxval 255


def _read_header_token(raw: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(raw):
        c = raw[pos:pos + 1]
        if c == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < len(raw) and not raw[pos:pos + 1].isspace() and raw[pos:pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise NetpbmError("truncated header")
    return raw[start:pos], pos


def _header_int(tok: bytes) -> int:
    # ASCII digits only: int() alone also takes "+1" and "1_0".  A minus sign
    # still parses, so a negative size is reported as non-positive.
    if not re.fullmatch(rb"-?[0-9]+", tok):
        raise NetpbmError(f"header token {tok!r} is not a decimal number")
    return int(tok)


def read_netpbm(path: str | Path) -> ImageBuffer:
    raw = Path(path).read_bytes()
    magic = raw[:2]
    if magic not in (b"P5", b"P6"):
        raise NetpbmError(f"{path}: bad magic {magic!r}, expected P5 or P6")
    channels = 1 if magic == b"P5" else 3
    pos = 2
    try:
        w_tok, pos = _read_header_token(raw, pos)
        h_tok, pos = _read_header_token(raw, pos)
        m_tok, pos = _read_header_token(raw, pos)
        width, height, maxval = (_header_int(t) for t in (w_tok, h_tok, m_tok))
    except (ValueError, NetpbmError) as exc:
        raise NetpbmError(f"{path}: malformed header ({exc})") from exc
    if width < 1 or height < 1:
        raise NetpbmError(f"{path}: non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise NetpbmError(f"{path}: unsupported maxval {maxval}, only 255")
    if not raw[pos:pos + 1].isspace():  # "#" too: a comment here would be read as pixels
        raise NetpbmError(f"{path}: maxval must be followed by one whitespace byte, "
                          f"got {raw[pos:pos + 1]!r}")
    pos += 1
    expected = width * height * channels
    payload = raw[pos:pos + expected]
    if len(payload) < expected:
        raise NetpbmError(f"{path}: truncated payload, {len(payload)} of {expected} bytes")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return ImageBuffer(pixels)


def write_netpbm(img: ImageBuffer, path: str | Path) -> None:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    Path(path).write_bytes(header + img.pixels.tobytes())


# ---------------------------------------------------------------------------
# label combination and pair stitching


def combine_labels(left: ImageBuffer, right: ImageBuffer) -> ImageBuffer:
    """Merge per-arm masks into one label: 255 where either arm's `mask()` is on."""
    if (left.width, left.height) != (right.width, right.height):
        raise ValueError(f"combine_labels: dimensions {left.width}x{left.height} "
                         f"vs {right.width}x{right.height}")
    return ImageBuffer(np.where(left.mask() | right.mask(), 255, 0).astype(np.uint8))


def stitch_pair(condition: ImageBuffer, label: ImageBuffer) -> ImageBuffer:
    """Condition on the left, label on the right, side by side."""
    if condition.height != label.height:
        raise ValueError(f"stitch_pair: heights {condition.height} vs {label.height}")
    if condition.channels != label.channels:
        raise ValueError(f"stitch_pair: channel counts {condition.channels} "
                         f"vs {label.channels}")
    return ImageBuffer(np.concatenate([condition.pixels, label.pixels], axis=1))


def split_pair(stitched: ImageBuffer) -> tuple[ImageBuffer, ImageBuffer]:
    if stitched.width % 2:
        raise ValueError(f"split_pair: odd width {stitched.width}")
    half = stitched.width // 2
    return ImageBuffer(stitched.pixels[:, :half]), ImageBuffer(stitched.pixels[:, half:])


# ---------------------------------------------------------------------------
# synthetic scenes


@dataclass
class SceneConfig:
    width: int = 64
    height: int = 64
    channels: int = 3
    arm_count: int = 2
    segment_length_range: tuple[float, float] = (0.25, 0.40)  # fraction of min dim
    arm_width_range: tuple[float, float] = (0.08, 0.13)
    background_scale: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.width < 8 or self.height < 8:
            raise ValueError(f"SceneConfig: frame {self.width}x{self.height} too small")
        if self.arm_count not in (1, 2):
            raise ValueError(f"SceneConfig: arm_count must be 1 or 2, got {self.arm_count}")
        if self.channels not in (1, 3):
            raise ValueError(f"SceneConfig: channels must be 1 or 3, got {self.channels}")
        for name in ("segment_length_range", "arm_width_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:  # also NaN
                raise ValueError(f"SceneConfig: {name} needs lo <= hi, got {[lo, hi]}")
        if self.background_scale < 2:
            raise ValueError(f"SceneConfig: background_scale must be >= 2, "
                             f"got {self.background_scale}")
        if self.seed < 0:
            raise ValueError(f"SceneConfig: seed must be >= 0, got {self.seed}")
        min_dim = min(self.width, self.height)
        if self.segment_length_range[0] * min_dim < 2 or self.arm_width_range[0] * min_dim < 1:
            raise ValueError("SceneConfig: arms degenerate to zero area")


def _segment_distance(xx, yy, a, b):
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    norm2 = dx * dx + dy * dy
    t = np.clip(((xx - ax) * dx + (yy - ay) * dy) / max(norm2, 1e-9), 0.0, 1.0)
    return np.hypot(xx - (ax + t * dx), yy - (ay + t * dy))


def rasterize_arm_masks(cfg: SceneConfig, frame_index: int) -> list[np.ndarray]:
    """Per-arm boolean masks; the union is the ground-truth label.

    Arm 0 draws its geometry first, so a one-arm scene has the same arm 0 as
    the two-arm scene of the same seed.
    """
    rng = np.random.default_rng((cfg.seed, 0xA12))
    min_dim = min(cfg.width, cfg.height)
    yy, xx = np.mgrid[0:cfg.height, 0:cfg.width].astype(np.float64)
    t = float(frame_index)
    masks = []
    for a in range(cfg.arm_count):
        seg1, seg2 = rng.uniform(*cfg.segment_length_range, size=2) * min_dim
        half_width = rng.uniform(*cfg.arm_width_range) * min_dim / 2
        freq = rng.uniform(0.015, 0.035, size=2)
        phase = rng.uniform(0.0, 2 * np.pi, size=2)
        # Anchored below the bottom edge; y points down, so arm 0 rises up-right.
        anchor = ((0.12 if a == 0 else 0.88) * cfg.width, 1.02 * cfg.height)
        base_angle = -np.pi / 3 if a == 0 else -2 * np.pi / 3
        th1 = base_angle + 0.45 * np.sin(2 * np.pi * freq[0] * t + phase[0])
        th2 = 0.7 * np.sin(2 * np.pi * freq[1] * t + phase[1])
        elbow = (anchor[0] + seg1 * np.cos(th1), anchor[1] + seg1 * np.sin(th1))
        tip = (elbow[0] + seg2 * np.cos(th1 + th2), elbow[1] + seg2 * np.sin(th1 + th2))
        d1 = _segment_distance(xx, yy, anchor, elbow)
        d2 = _segment_distance(xx, yy, elbow, tip)
        masks.append(np.minimum(d1, d2) <= half_width)
    return masks


def _value_noise(cfg: SceneConfig, frame_index: int) -> np.ndarray:
    """Smooth [0,1] texture from a bilinearly upsampled coarse random grid."""
    rng = np.random.default_rng((cfg.seed, 0xB6, frame_index))
    scale = cfg.background_scale
    gh = cfg.height // scale + 2
    gw = cfg.width // scale + 2
    grid = rng.random((gh, gw))
    ys = np.arange(cfg.height) / scale
    xs = np.arange(cfg.width) / scale
    y0 = ys.astype(int)
    x0 = xs.astype(int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    g00 = grid[np.ix_(y0, x0)]
    g01 = grid[np.ix_(y0, x0 + 1)]
    g10 = grid[np.ix_(y0 + 1, x0)]
    g11 = grid[np.ix_(y0 + 1, x0 + 1)]
    return (g00 * (1 - fy) * (1 - fx) + g01 * (1 - fy) * fx
            + g10 * fy * (1 - fx) + g11 * fy * fx)


def generate_scene(cfg: SceneConfig, frame_index: int) -> PairedSample:
    """One (condition, label) pair; label is exact by construction."""
    noise = _value_noise(cfg, frame_index)
    if cfg.channels == 3:
        frame = np.stack([90 + 110 * noise, 30 + 55 * noise, 35 + 45 * noise], axis=2)
    else:
        frame = (70 + 100 * noise)[:, :, None]
    masks = rasterize_arm_masks(cfg, frame_index)
    union = np.zeros((cfg.height, cfg.width), dtype=bool)
    shade_rng = np.random.default_rng((cfg.seed, 0xC4, frame_index))
    for mask in masks:
        union |= mask
        shade = 185 + 45 * shade_rng.random()
        frame[mask] = shade
    condition = ImageBuffer(np.clip(np.rint(frame), 0, 255).astype(np.uint8))
    label = ImageBuffer(np.where(union, 255, 0).astype(np.uint8))
    assert np.array_equal(label.mask(), union)  # label is the draw log
    return PairedSample(condition, label)


# ---------------------------------------------------------------------------
# manifests


_ENTRY_KEYS = {"paired-files": ("condition", "label"), "stitched": ("pair",)}
_DEFAULT_PATTERNS = {"paired-files": "frame_*.p?m", "stitched": "pair_*.p?m"}


@dataclass
class DatasetManifest:
    root: Path
    format: str  # "paired-files" | "stitched"
    entries: list[dict] = field(default_factory=list)
    seed: int | None = None
    scene_config: dict | None = None

    @property
    def count(self) -> int:
        return len(self.entries)

    def save(self) -> Path:
        path = self.root / "manifest.json"
        doc = {"format": self.format, "count": self.count, "entries": self.entries,
               "seed": self.seed, "scene_config": self.scene_config}
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return path

    def load_pairs_unit_interval(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """All pairs as ((C,H,W) condition, (1,H,W) label) float32 in [0,1]."""
        pairs = []
        for e in self.entries:
            if self.format == "paired-files":
                cond = read_netpbm(self.root / e["condition"])
                label = read_netpbm(self.root / e["label"])
            else:
                cond, label = split_pair(read_netpbm(self.root / e["pair"]))
            label_gray = ImageBuffer(label.gray())
            pairs.append((cond.unit_chw(), label_gray.unit_chw()))
        return pairs


def synth_dataset(cfg: SceneConfig, count: int, out_dir: str | Path,
                  fmt: str = "paired-files", start_index: int = 0) -> DatasetManifest:
    """Generate `count` scenes to disk plus a manifest.json."""
    if count < 1:
        raise ValueError(f"synth_dataset: count must be >= 1, got {count}")
    if fmt not in _ENTRY_KEYS:
        raise ValueError(f"synth_dataset: unknown format {fmt!r}")
    if start_index < 0:
        raise ValueError(f"synth_dataset: start_index must be >= 0, got {start_index}")
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    from dataclasses import asdict
    manifest = DatasetManifest(root=root, format=fmt, seed=cfg.seed,
                               scene_config=asdict(cfg))
    for i in range(start_index, start_index + count):
        sample = generate_scene(cfg, i)
        if fmt == "paired-files":
            cond_ext = "pgm" if cfg.channels == 1 else "ppm"
            cond_name = f"frame_{i:05d}.{cond_ext}"
            label_name = f"label_{i:05d}.pgm"
            write_netpbm(sample.condition, root / cond_name)
            write_netpbm(sample.label, root / label_name)
            manifest.entries.append({"condition": cond_name, "label": label_name})
        else:
            rgb_label = sample.label if cfg.channels == 1 else ImageBuffer(
                np.repeat(sample.label.pixels, 3, axis=2))
            pair = stitch_pair(sample.condition, rgb_label)
            pair_name = f"pair_{i:05d}.{'pgm' if cfg.channels == 1 else 'ppm'}"
            write_netpbm(pair, root / pair_name)
            manifest.entries.append({"pair": pair_name})
    manifest.save()
    return manifest


def build_manifest(directory: str | Path, pattern: str | None = None,
                   fmt: str = "paired-files") -> DatasetManifest:
    """Scan an existing frame directory into a manifest; `pattern=None` means
    the format's default from `_DEFAULT_PATTERNS`."""
    if fmt not in _ENTRY_KEYS:
        raise ValueError(f"build_manifest: unknown format {fmt!r}")
    if pattern is None:
        pattern = _DEFAULT_PATTERNS[fmt]
    root = Path(directory)
    manifest = DatasetManifest(root=root, format=fmt)
    for p in sorted(root.glob(pattern)):
        if fmt == "stitched":
            manifest.entries.append({"pair": p.name})
        else:
            if not p.stem.startswith("frame_"):
                raise ValueError(f"build_manifest: {p.name} matches {pattern!r} but is not "
                                 "a frame_* condition file")
            label_name = re.sub(r"^frame_", "label_", p.stem) + ".pgm"
            if not (root / label_name).exists():
                raise FileNotFoundError(
                    f"build_manifest: condition {p.name} lacks its label {label_name}")
            manifest.entries.append({"condition": p.name, "label": label_name})
    if not manifest.entries:
        raise ValueError(f"build_manifest: no matches for {pattern!r} in {root}")
    return manifest


def load_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"manifest {path}: top level must be an object")
    fmt = doc.get("format")
    if not isinstance(fmt, str) or fmt not in _ENTRY_KEYS:
        raise ValueError(f"manifest {path}: unknown format {fmt!r}")
    if not (isinstance(doc.get("entries"), list)
            and all(isinstance(e, dict) for e in doc["entries"])):
        raise ValueError(f"manifest {path}: 'entries' must be a list of objects")
    if not doc["entries"]:
        raise ValueError(f"manifest {path}: zero entries")
    for i, e in enumerate(doc["entries"]):
        for key in _ENTRY_KEYS[fmt]:
            if not isinstance(e.get(key), str):
                raise ValueError(f"manifest {path}: entry {i} lacks a '{key}' file name")
            if not (path.parent / e[key]).exists():
                raise FileNotFoundError(f"manifest {path}: missing file {path.parent / e[key]}")
    return DatasetManifest(root=path.parent, format=fmt, entries=doc["entries"],
                           seed=doc.get("seed"), scene_config=doc.get("scene_config"))
