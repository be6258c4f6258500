import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from armsentinel.pipeline import (DatasetManifest, ImageBuffer, NetpbmError,
                                  PairedSample, SceneConfig, build_manifest,
                                  combine_labels, generate_scene, load_manifest,
                                  rasterize_arm_masks, read_netpbm, split_pair,
                                  stitch_pair, synth_dataset, write_netpbm)

gray_images = arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12)))


def mask_image(shape, rng=None, fill=None):
    if fill is not None:
        data = np.full(shape, fill, dtype=np.uint8)
    else:
        data = (rng.random(shape) > 0.5).astype(np.uint8) * 255
    return ImageBuffer(data)


class TestNetpbm:
    def test_p5_sample_order(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = read_netpbm(path)
        assert img.channels == 1
        assert img.pixels[:, :, 0].tolist() == [[0, 255], [128, 64]]

    def test_read_write_read_fixpoint(self, tmp_path):
        rng = np.random.default_rng(0)
        for channels in (1, 3):
            img = ImageBuffer(rng.integers(0, 256, (5, 7, channels), dtype=np.uint8))
            p1 = tmp_path / f"a{channels}.pnm"
            p2 = tmp_path / f"b{channels}.pnm"
            write_netpbm(img, p1)
            write_netpbm(read_netpbm(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_header_comments_allowed(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x01\x02")
        img = read_netpbm(path)
        assert img.pixels[:, :, 0].tolist() == [[1, 2]]

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(40))
        with pytest.raises(NetpbmError, match="truncated payload"):
            read_netpbm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0")
        with pytest.raises(NetpbmError, match="bad magic"):
            read_netpbm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "v.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(NetpbmError, match="maxval"):
            read_netpbm(path)

    @pytest.mark.parametrize("header", [b"P5\n-2 3\n255\n", b"P5\n0 3\n255\n",
                                        b"P6\n-1 -1\n255\n"],
                             ids=["p5-negative-width", "p5-zero-width", "p6-negative"])
    def test_non_positive_dimensions(self, tmp_path, header):
        path = tmp_path / "d.pnm"
        path.write_bytes(header + b"\x00" * 9)
        with pytest.raises(NetpbmError, match="non-positive"):
            read_netpbm(path)

    @pytest.mark.parametrize("header", [b"P5 1_0 1 255\n", b"P5 10 +1 255\n",
                                        b"P5 10 1 2_55\n"],
                             ids=["underscore-width", "plus-height", "underscore-maxval"])
    def test_non_decimal_header_token(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes(10))
        with pytest.raises(NetpbmError, match="not a decimal"):
            read_netpbm(path)

    # A maxval token ends at whitespace, "#" or the end of the file; only
    # whitespace may follow it.
    @pytest.mark.parametrize("tail", [b"#c\n\x01\x02", b""], ids=["comment", "end-of-file"])
    def test_maxval_needs_whitespace_byte(self, tmp_path, tail):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n2 1\n255" + tail)
        with pytest.raises(NetpbmError, match="whitespace byte"):
            read_netpbm(path)


netpbm_bytes = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda magic, tokens, payload: magic + b" ".join(tokens) + b"\n" + payload,
              st.sampled_from([b"P5\n", b"P6\n", b"P5 # c\n", b"P3\n"]),
              st.lists(st.integers(-2, 300).map(lambda v: str(v).encode())
                       | st.binary(max_size=3), max_size=4),
              st.binary(max_size=64)))


@given(raw=netpbm_bytes)
@settings(max_examples=200, deadline=None)
def test_netpbm_fuzz_only_netpbm_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "f.pnm"
    path.write_bytes(raw)
    try:
        img = read_netpbm(path)
    except NetpbmError:
        return
    assert img.pixels.dtype == np.uint8 and img.channels in (1, 3)


class TestCombineLabels:
    def test_disjoint_union_counts(self):
        left = np.zeros((6, 6), dtype=np.uint8)
        right = np.zeros((6, 6), dtype=np.uint8)
        left.flat[:10] = 255
        right.flat[10:30] = 255
        out = combine_labels(ImageBuffer(left), ImageBuffer(right))
        assert (out.pixels == 255).sum() == 30

    def test_union_idempotent_on_identical(self):
        rng = np.random.default_rng(1)
        img = mask_image((5, 5), rng)
        out = combine_labels(img, img)
        assert np.array_equal(out.pixels, img.pixels)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            combine_labels(mask_image((2, 2), fill=0), mask_image((3, 3), fill=0))

    @given(a=gray_images.filter(lambda x: x.size > 0))
    @settings(max_examples=50, deadline=None)
    def test_union_commutative(self, a):
        rng = np.random.default_rng(int(a.sum()) % 1000)
        b = (rng.random(a.shape) > 0.5).astype(np.uint8) * 255
        ab = combine_labels(ImageBuffer(a), ImageBuffer(b))
        ba = combine_labels(ImageBuffer(b), ImageBuffer(a))
        assert np.array_equal(ab.pixels, ba.pixels)

    def test_union_associative_and_count_bound(self):
        rng = np.random.default_rng(2)
        a, b, c = (mask_image((8, 8), rng) for _ in range(3))
        left = combine_labels(combine_labels(a, b), c)
        right = combine_labels(a, combine_labels(b, c))
        assert np.array_equal(left.pixels, right.pixels)
        count = int((combine_labels(a, b).pixels == 255).sum())
        assert count <= int((a.pixels == 255).sum()) + int((b.pixels == 255).sum())


class TestStitchSplit:
    def test_shape(self):
        rng = np.random.default_rng(3)
        cond = ImageBuffer(rng.integers(0, 256, (64, 64, 3), dtype=np.uint8))
        label = ImageBuffer(rng.integers(0, 256, (64, 64, 3), dtype=np.uint8))
        pair = stitch_pair(cond, label)
        assert (pair.width, pair.height) == (128, 64)

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            h = int(rng.integers(1, 20))
            w = int(rng.integers(1, 20))
            c = int(rng.choice([1, 3]))
            a = ImageBuffer(rng.integers(0, 256, (h, w, c), dtype=np.uint8))
            b = ImageBuffer(rng.integers(0, 256, (h, w, c), dtype=np.uint8))
            ra, rb = split_pair(stitch_pair(a, b))
            assert np.array_equal(ra.pixels, a.pixels)
            assert np.array_equal(rb.pixels, b.pixels)

    def test_odd_width_split_rejected(self):
        with pytest.raises(ValueError, match="odd width"):
            split_pair(ImageBuffer(np.zeros((4, 5, 1), dtype=np.uint8)))

    def test_height_mismatch(self):
        a = ImageBuffer(np.zeros((4, 4, 1), dtype=np.uint8))
        b = ImageBuffer(np.zeros((5, 4, 1), dtype=np.uint8))
        with pytest.raises(ValueError, match="height"):
            stitch_pair(a, b)


class TestSceneGenerator:
    def test_label_matches_raster_log(self):
        cfg = SceneConfig(seed=5)
        for frame in (0, 13, 57):
            sample = generate_scene(cfg, frame)
            union = np.zeros((cfg.height, cfg.width), dtype=bool)
            for mask in rasterize_arm_masks(cfg, frame):
                union |= mask
            assert np.array_equal(sample.label.gray() == 255, union)

    def test_deterministic_pairs(self):
        cfg = SceneConfig(seed=6)
        a = generate_scene(cfg, 3)
        b = generate_scene(cfg, 3)
        assert np.array_equal(a.condition.pixels, b.condition.pixels)
        assert np.array_equal(a.label.pixels, b.label.pixels)

    def test_single_vs_two_arm(self):
        one = generate_scene(SceneConfig(seed=7, arm_count=1), 0)
        two = generate_scene(SceneConfig(seed=7, arm_count=2), 0)
        one_set = set(zip(*np.nonzero(one.label.gray())))
        two_set = set(zip(*np.nonzero(two.label.gray())))
        assert one_set <= two_set
        assert one_set != two_set

    def test_arms_have_area(self):
        sample = generate_scene(SceneConfig(seed=8), 0)
        assert (sample.label.gray() == 255).sum() > 20

    def test_smooth_trajectory(self):
        # Consecutive frames move the arms but keep heavy mask overlap.
        cfg = SceneConfig(seed=9)
        m0 = generate_scene(cfg, 0).label.gray() == 255
        m1 = generate_scene(cfg, 1).label.gray() == 255
        inter = (m0 & m1).sum()
        assert inter / max(m0.sum(), m1.sum()) > 0.7

    def test_degenerate_config_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            SceneConfig(arm_width_range=(0.0, 0.001))

    def test_scene_bytes_pinned(self):
        # Pins the exact scene bytes, so a rewrite of the rasterizer or the
        # background cannot change a dataset silently.
        digest = hashlib.sha256()
        for arms in (1, 2):
            for channels in (1, 3):
                for frame in (0, 57):
                    sample = generate_scene(SceneConfig(seed=5, arm_count=arms,
                                                        channels=channels), frame)
                    digest.update(sample.condition.pixels.tobytes())
                    digest.update(sample.label.pixels.tobytes())
        assert digest.hexdigest() == (
            "c6a883582b1117f9acc22c4605f691207009b43dc1aa391ed3a7218e29771822")


class TestManifests:
    def test_synth_dataset_entries_readable(self, tmp_path):
        manifest = synth_dataset(SceneConfig(width=16, height=16, seed=1), 5, tmp_path)
        assert manifest.count == 5
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded.count == 5
        pairs = loaded.load_pairs_unit_interval()
        assert len(pairs) == 5
        assert pairs[0][0].shape == (3, 16, 16)
        assert pairs[0][1].shape == (1, 16, 16)

    def test_count_one(self, tmp_path):
        manifest = synth_dataset(SceneConfig(width=16, height=16, seed=1), 1, tmp_path)
        assert manifest.count == 1

    def test_stitched_format_round_trips(self, tmp_path):
        manifest = synth_dataset(SceneConfig(width=16, height=16, seed=2), 3,
                                 tmp_path, fmt="stitched")
        pairs = load_manifest(tmp_path / "manifest.json").load_pairs_unit_interval()
        assert pairs[0][0].shape == (3, 16, 16)
        direct = generate_scene(SceneConfig(width=16, height=16, seed=2), 0)
        assert np.allclose(pairs[0][1][0] * 255, direct.label.gray())

    def test_orphan_condition_detected(self, tmp_path):
        synth_dataset(SceneConfig(width=16, height=16, seed=3), 2, tmp_path)
        (tmp_path / "label_00001.pgm").unlink()
        with pytest.raises(FileNotFoundError, match="label_00001"):
            build_manifest(tmp_path)

    def test_build_manifest_scans(self, tmp_path):
        synth_dataset(SceneConfig(width=16, height=16, seed=4), 3, tmp_path)
        manifest = build_manifest(tmp_path)
        assert manifest.count == 3

    def test_stitched_pattern(self, tmp_path):
        synth_dataset(SceneConfig(width=16, height=16, seed=4), 2, tmp_path, fmt="stitched")
        assert build_manifest(tmp_path, fmt="stitched").count == 2
        for p in tmp_path.glob("pair_*.ppm"):
            p.rename(tmp_path / p.name.replace("pair_", "frame_"))
        manifest = build_manifest(tmp_path, pattern="frame_*.p?m", fmt="stitched")
        assert [e["pair"] for e in manifest.entries] == ["frame_00000.ppm", "frame_00001.ppm"]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ValueError, match="no matches"):
            build_manifest(tmp_path)

    def test_dataset_determinism_bytewise(self, tmp_path):
        cfg = SceneConfig(width=16, height=16, seed=12)
        synth_dataset(cfg, 3, tmp_path / "a")
        synth_dataset(cfg, 3, tmp_path / "b")
        for name in ("frame_00000.ppm", "label_00002.pgm", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("doc, problem", [
        ({}, "unknown format None"),
        ([1], "top level"),
        ({"format": "zip", "entries": [{"condition": "a", "label": "b"}]}, "unknown format 'zip'"),
        ({"format": "stitched", "entries": 5}, "'entries' must be a list"),
        ({"format": "stitched", "entries": [{}]}, "entry 0 lacks a 'pair'"),
    ], ids=["empty-object", "list", "unknown-format", "entries-not-list", "entry-without-file"])
    def test_malformed_manifest(self, tmp_path, doc, problem):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=problem):
            load_manifest(path)

    def test_paired_sample_dimension_check(self):
        cond = ImageBuffer(np.zeros((4, 4, 3), dtype=np.uint8))
        label = ImageBuffer(np.zeros((5, 4, 1), dtype=np.uint8))
        with pytest.raises(ValueError, match="dimensions"):
            PairedSample(cond, label)
