import time

import numpy as np
import pytest

from armsentinel.nets import DiscriminatorConfig, UNetConfig
from armsentinel.pipeline import SceneConfig, synth_dataset
from armsentinel.train import TrainConfig, train

SMALL_GEN_CFG = UNetConfig(in_channels=3, base_filters=8, depth=3)
SMALL_DISC_CFG = DiscriminatorConfig(in_channels=4, base_filters=8, num_layers=2)
SMALL_SCENE = SceneConfig(width=16, height=16, seed=11)


def slowed(segmenter, delay_ms):
    """`segmenter` behind a fixed sleep: how tests model a slow model."""
    def slow(frame):
        time.sleep(delay_ms / 1000.0)
        return segmenter(frame)
    return slow


@pytest.fixture(scope="session")
def small_run(tmp_path_factory):
    """A tiny trained run shared by eval/guard/CLI tests: 12 pairs, 4 epochs."""
    root = tmp_path_factory.mktemp("small_run")
    data = root / "data"
    manifest = synth_dataset(SMALL_SCENE, 12, data)
    cfg = TrainConfig(epochs=4, checkpoint_every=2, batch_size=4, seed=5,
                      manifest_path=str(data / "manifest.json"),
                      output_dir=str(root / "run"))
    ckpts, records = train(cfg, SMALL_GEN_CFG, SMALL_DISC_CFG)
    return {
        "root": root,
        "data": data,
        "manifest_path": data / "manifest.json",
        "manifest": manifest,
        "run_dir": root / "run",
        "ckpts": ckpts,
        "records": records,
        "first_ckpt": root / "run" / "ckpt_epoch_0001.bin",
        "final_ckpt": ckpts[-1],
        "train_cfg": cfg,
    }
