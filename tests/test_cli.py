import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armsentinel.checkpoint import load_tensors, save_tensors
from armsentinel import cli
from armsentinel.cli import ConfigError, load_config, main
from armsentinel.evaluate import predict_mask
from armsentinel.guard import make_segmenter
from armsentinel.pipeline import load_manifest, synth_dataset, write_netpbm
from armsentinel.train import load_checkpoint
from tests.conftest import SMALL_GEN_CFG, SMALL_SCENE, slowed


def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "scene": {"width": 16, "height": 16},
        "generator": {"base_filters": SMALL_GEN_CFG.base_filters,
                      "depth": SMALL_GEN_CFG.depth},
        "discriminator": {"base_filters": 8, "num_layers": 2},
    }))
    return str(path)


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--count", "3"])
        assert exc.value.code == 1

    def test_non_integer_count(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--count", "three", "--out", "x"])
        assert exc.value.code == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestDataErrors:
    def test_missing_manifest(self, tmp_path):
        code = main(["train", "--manifest", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "run"), "--epochs", "1", "--quiet"])
        assert code == 2

    def test_unknown_config_section(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenery": {}}))
        code = main(["synth", "--count", "1", "--out", str(tmp_path / "d"),
                     "--config", str(cfg)])
        assert code == 2
        assert "unknown section" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scene": {"widht": 16}}))
        code = main(["synth", "--count", "1", "--out", str(tmp_path / "d"),
                     "--config", str(cfg)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = main(["synth", "--count", "1", "--out", str(tmp_path / "d"),
                     "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("doc", [{"scene": {"width": "64"}},
                                     {"budget": {"budget_ms": "300"}},
                                     {"region": {"permitted_rect": [0, 0, 8]}},
                                     {"train": {"epochs": True}}],
                             ids=["str-for-int", "str-for-float", "short-list", "bool-for-int"])
    def test_mistyped_config_value(self, tmp_path, capsys, doc):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        code = main(["synth", "--count", "1", "--out", str(tmp_path / "d"),
                     "--config", str(cfg)])
        assert code == 2
        assert "must be" in capsys.readouterr().err

    def test_config_ints_for_floats_and_lists_for_tuples(self, tmp_path):
        cfg = tmp_path / "ok.json"
        doc = {"budget": {"budget_ms": 300}, "scene": {"arm_width_range": [0.1, 0.2]},
               "region": {"permitted_rect": [0, 0, 8, 8]}}
        cfg.write_text(json.dumps(doc))
        assert load_config(str(cfg)) == doc

    @pytest.mark.parametrize("rect", [[-16, 0, 16, 16], [0, 0, 100, 16], [4, 0, 4, 16]],
                             ids=["negative-x0", "x1-past-width", "empty"])
    def test_permitted_rect_outside_frame(self, tmp_path, capsys, small_run, rect):
        cfg = small_config(tmp_path)
        doc = json.loads((tmp_path / "config.json").read_text())
        doc["region"] = {"permitted_rect": rect}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        code = main(["guard", "--ckpt", str(small_run["final_ckpt"]),
                     "--manifest", str(small_run["manifest_path"]),
                     "--out", str(tmp_path / "events.jsonl"), "--config", cfg])
        assert code == 2
        assert "permitted_rect" in capsys.readouterr().err
        assert not (tmp_path / "events.jsonl").exists()

    def test_corrupt_checkpoint(self, tmp_path, small_run):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        code = main(["infer", "--ckpt", str(bad),
                     "--manifest", str(small_run["manifest_path"]),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    BAD_COUNTS = {"two-values": [4.0, 4.0], "inf": [np.inf], "nan": [np.nan],
                  "negative": [-3.0], "fraction": [2.5]}

    @pytest.mark.parametrize("command", ["infer", "guard", "bench"])
    @pytest.mark.parametrize("edit", ["drop", *BAD_COUNTS])
    def test_checkpoint_bad_epoch_entry(self, tmp_path, capsys, small_run, command, edit):
        tensors = load_tensors(small_run["final_ckpt"])
        if edit == "drop":
            del tensors["meta/epoch"]
        else:
            tensors["meta/epoch"] = np.array(self.BAD_COUNTS[edit], dtype=np.float32)
        bad = tmp_path / "bad.bin"
        save_tensors(bad, tensors)
        code = main([command, "--ckpt", str(bad),
                     "--manifest", str(small_run["manifest_path"]),
                     "--out", str(tmp_path / "out"), "--config", small_config(tmp_path)])
        assert code == 2
        assert "meta/epoch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["infer", "guard", "bench"])
    @pytest.mark.parametrize("edit", ["drop", "nan"])
    def test_checkpoint_bad_parameter_entry(self, tmp_path, capsys, small_run, command, edit):
        tensors = load_tensors(small_run["final_ckpt"])
        if edit == "drop":
            del tensors["gen/enc0.weight"]
        else:
            tensors["gen/enc0.weight"].flat[5] = np.nan
        bad = tmp_path / "bad.bin"
        save_tensors(bad, tensors)
        out = tmp_path / "out"
        code = main([command, "--ckpt", str(bad),
                     "--manifest", str(small_run["manifest_path"]),
                     "--out", str(out), "--config", small_config(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "gen/enc0.weight" in err
        assert not out.exists()

    def test_prepare_rejects_label_match(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth_dataset(SMALL_SCENE, 2, data)
        (data / "manifest.json").unlink()
        code = main(["prepare", "--dir", str(data), "--pattern", "*.p?m"])
        assert code == 2
        assert "label_00000.pgm" in capsys.readouterr().err
        assert not (data / "manifest.json").exists()

    @pytest.mark.parametrize("entry", ["opt_g/step", "opt_d/v003"])
    def test_resume_missing_optimizer_entry(self, tmp_path, capsys, small_run, entry):
        tensors = load_tensors(small_run["final_ckpt"])
        del tensors[entry]
        bad = tmp_path / "bad.bin"
        save_tensors(bad, tensors)
        code = main(["train", "--manifest", str(small_run["manifest_path"]),
                     "--out", str(tmp_path / "run"), "--epochs", "5", "--resume", str(bad),
                     "--quiet", "--config", small_config(tmp_path)])
        assert code == 2
        assert entry in capsys.readouterr().err

    @pytest.mark.parametrize("entry, value", [
        ("opt_g/step", [np.inf]), ("opt_d/step", [-1.0]), ("opt_g/step", [2.5]),
        ("opt_g/m000", [0.0, 0.0]), ("opt_d/v003", [0.0]),
    ], ids=["inf-step", "negative-step", "fraction-step", "short-moment", "scalar-moment"])
    def test_resume_bad_optimizer_entry(self, tmp_path, capsys, small_run, entry, value):
        tensors = load_tensors(small_run["final_ckpt"])
        tensors[entry] = np.array(value, dtype=np.float32)
        bad = tmp_path / "bad.bin"
        save_tensors(bad, tensors)
        code = main(["train", "--manifest", str(small_run["manifest_path"]),
                     "--out", str(tmp_path / "run"), "--epochs", "5", "--resume", str(bad),
                     "--quiet", "--config", small_config(tmp_path)])
        assert code == 2
        assert entry in capsys.readouterr().err
        assert not (tmp_path / "run" / "epochs.csv").exists()

    def test_discriminator_in_channels_rejected(self, tmp_path, capsys, small_run):
        doc = json.loads(Path(small_config(tmp_path)).read_text())
        doc["discriminator"]["in_channels"] = 9
        (tmp_path / "config.json").write_text(json.dumps(doc))
        code = main(["train", "--manifest", str(small_run["manifest_path"]),
                     "--out", str(tmp_path / "run"), "--epochs", "1", "--quiet",
                     "--config", str(tmp_path / "config.json")])
        assert code == 2
        assert "discriminator.in_channels" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [{"batch_size": -1}, {"batch_size": 0},
                                      {"learning_rate": -1e-4}, {"beta1": 1.0}],
                             ids=["batch-negative", "batch-zero", "lr-negative", "beta1-one"])
    def test_train_config_out_of_range(self, tmp_path, capsys, small_run, body):
        doc = json.loads(Path(small_config(tmp_path)).read_text())
        doc["train"] = body
        (tmp_path / "config.json").write_text(json.dumps(doc))
        run = tmp_path / "run"
        code = main(["train", "--manifest", str(small_run["manifest_path"]),
                     "--out", str(run), "--epochs", "1", "--quiet",
                     "--config", str(tmp_path / "config.json")])
        assert code == 2
        assert next(iter(body)) in capsys.readouterr().err
        assert not (run / "epochs.csv").exists()
        assert not list(run.glob("ckpt_*"))

    @pytest.mark.parametrize("text", ['{"budget": {"budget_ms": Infinity}}',
                                      '{"train": {"learning_rate": NaN}}',
                                      '{"scene": {"arm_width_range": [-Infinity, 0.1]}}',
                                      '{"budget": {"budget_ms": 1e999}}'],
                             ids=["Infinity", "NaN", "-Infinity", "overflow"])
    def test_non_finite_config_number(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match="non-finite"):
            load_config(str(cfg))
        code = main(["synth", "--count", "1", "--out", str(tmp_path / "d"),
                     "--config", str(cfg)])
        assert code == 2
        assert not (tmp_path / "d").exists()


class TestBench:
    LATENCY_KEYS = {"frames", "budget_ms", "violations", "min_ms", "mean_ms",
                    "p50_ms", "p95_ms", "max_ms"}

    def test_injected_delay_counts(self, tmp_path, small_run, monkeypatch):
        monkeypatch.setattr(cli, "make_segmenter",
                            lambda ckpt, cfg: slowed(make_segmenter(ckpt, cfg), 301.0))
        code = main(["bench", "--ckpt", str(small_run["final_ckpt"]),
                     "--manifest", str(small_run["manifest_path"]),
                     "--out", str(tmp_path), "--config", small_config(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "latency.json").read_text())
        assert set(summary) == self.LATENCY_KEYS
        assert summary["frames"] == summary["violations"] == 12
        assert summary["min_ms"] > 301.0

    def test_bad_repetitions(self, tmp_path, capsys, small_run):
        code = main(["bench", "--ckpt", str(small_run["final_ckpt"]),
                     "--manifest", str(small_run["manifest_path"]), "--repetitions", "0",
                     "--config", small_config(tmp_path)])
        assert code == 2
        assert "repetitions" in capsys.readouterr().err

    def test_mixed_frame_sizes_fail(self, tmp_path, capsys, small_run):
        data, big = tmp_path / "data", tmp_path / "big"
        synth_dataset(SMALL_SCENE, 3, data)
        synth_dataset(dataclasses.replace(SMALL_SCENE, width=32, height=32), 1, big,
                      start_index=1)
        for name in ("frame_00001.ppm", "label_00001.pgm"):
            shutil.copy(big / name, data / name)
        code = main(["bench", "--ckpt", str(small_run["final_ckpt"]),
                     "--manifest", str(data / "manifest.json"), "--out", str(tmp_path / "b"),
                     "--config", small_config(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "frame 1" in err and "error:ValueError" in err
        assert not (tmp_path / "b").exists()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)
config_keys = st.sampled_from(["width", "seed", "arm_width_range", "learning_rate",
                               "epochs", "output_dir", "depth", "budget_ms",
                               "policy", "permitted_rect", "breach_fraction_threshold",
                               "consecutive_frames_to_override", "bogus"])
config_docs = st.dictionaries(
    st.sampled_from(["scene", "train", "generator", "discriminator", "budget", "region",
                     "bogus"]),
    st.dictionaries(config_keys, json_values, max_size=3) | json_values, max_size=3)
config_bytes = st.one_of(st.binary(max_size=64),
                         json_values.map(lambda v: json.dumps(v).encode()),
                         config_docs.map(lambda d: json.dumps(d).encode()))


@given(raw=config_bytes)
@settings(max_examples=200, deadline=None)
def test_config_fuzz_only_config_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "c.json"
    path.write_bytes(raw)
    try:
        assert isinstance(load_config(str(path)), dict)
    except ConfigError:
        pass


class TestEndToEnd:
    def test_synth_prepare(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        data = tmp_path / "data"
        assert main(["synth", "--count", "4", "--seed", "3",
                     "--out", str(data), "--config", cfg]) == 0
        assert (data / "manifest.json").exists()
        assert main(["prepare", "--dir", str(data)]) == 0
        out = capsys.readouterr().out
        assert "4 pairs" in out and "4 entries" in out

    def test_train_eval_bench_guard(self, small_run, tmp_path, capsys):
        cfg = small_config(tmp_path)
        manifest = str(small_run["manifest_path"])
        first = str(small_run["first_ckpt"])
        final = str(small_run["final_ckpt"])

        assert main(["infer", "--ckpt", final, "--manifest", manifest,
                     "--out", str(tmp_path / "preds"), "--config", cfg]) == 0
        # infer, guard and eval share one inference path.
        gen, *_ = load_checkpoint(final, SMALL_GEN_CFG)
        cond = load_manifest(manifest).load_pairs_unit_interval()[0][0]
        raw, binary = predict_mask(gen, cond)
        write_netpbm(raw, tmp_path / "expected.pgm")
        assert ((tmp_path / "preds" / "pred_00000.pgm").read_bytes()
                == (tmp_path / "expected.pgm").read_bytes())
        mask = make_segmenter(final, SMALL_GEN_CFG)(cond)
        assert np.array_equal(mask.pixels, binary.pixels)

        assert main(["eval", "--ckpt-baseline", first, "--ckpt", final,
                     "--manifest", manifest, "--out", str(tmp_path / "eval"),
                     "--config", cfg]) == 0
        assert (tmp_path / "eval" / "summary.json").exists()

        capsys.readouterr()
        code = main(["eval", "--ckpt-baseline", final, "--ckpt", first,
                     "--manifest", manifest, "--config", cfg,
                     "--assert-ratio", "1000000"])
        assert code == 4
        assert "below required" in capsys.readouterr().err

        assert main(["probe-single-arm", "--ckpt", final, "--count", "3",
                     "--seed", "2", "--config", cfg]) == 0

        assert main(["bench", "--ckpt", final, "--manifest", manifest,
                     "--out", str(tmp_path / "bench"), "--config", cfg]) == 0
        assert (tmp_path / "bench" / "latency.json").exists()

        capsys.readouterr()
        code = main(["bench", "--ckpt", final, "--manifest", manifest,
                     "--budget-ms", "0.001", "--assert-budget", "--config", cfg])
        assert code == 4
        assert "budget" in capsys.readouterr().err

        log = tmp_path / "events.jsonl"
        assert main(["guard", "--ckpt", final, "--manifest", manifest,
                     "--out", str(log), "--config", cfg]) == 0
        lines = log.read_text().splitlines()
        assert len(lines) == 12
        assert {"frame", "decision", "mode"} <= set(json.loads(lines[0]))

    def test_train_cli_single_epoch(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        data = tmp_path / "d"
        assert main(["synth", "--count", "4", "--seed", "9",
                     "--out", str(data), "--config", cfg]) == 0
        assert main(["train", "--manifest", str(data / "manifest.json"),
                     "--out", str(tmp_path / "run"), "--epochs", "1",
                     "--seed", "1", "--quiet", "--config", cfg]) == 0
        assert (tmp_path / "run" / "ckpt_epoch_0001.bin").exists()
        assert (tmp_path / "run" / "epochs.csv").exists()
