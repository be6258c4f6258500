import json

import numpy as np
import pytest

from armsentinel.cli import main
from armsentinel.evaluate import predict_mask
from armsentinel.guard import make_segmenter
from armsentinel.pipeline import load_manifest, write_netpbm
from armsentinel.train import load_checkpoint
from tests.conftest import SMALL_GEN_CFG, SMALL_SCENE


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

    def test_corrupt_checkpoint(self, tmp_path, small_run):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        code = main(["infer", "--ckpt", str(bad),
                     "--manifest", str(small_run["manifest_path"]),
                     "--out", str(tmp_path / "out")])
        assert code == 2


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
