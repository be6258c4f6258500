import hashlib
import math

import numpy as np
import pytest

from armsentinel import tensor as T
from armsentinel.checkpoint import CheckpointError
from armsentinel.nets import Discriminator, DiscriminatorConfig, Generator, UNetConfig
from armsentinel.optim import AdamState
from armsentinel.pipeline import SceneConfig, synth_dataset
from armsentinel.tensor import ShapeError, Tensor
from armsentinel.train import (TrainConfig, _checkpoint_epochs, discriminator_loss,
                               gan_value, generator_loss, load_checkpoint,
                               save_checkpoint, train, train_step)

GEN_CFG = UNetConfig(base_filters=4, depth=3)
DISC_CFG = DiscriminatorConfig(in_channels=4, base_filters=4, num_layers=2)
SCENE = SceneConfig(width=16, height=16, seed=2)


def make_run(tmp_path, count=4, **overrides):
    data = tmp_path / "data"
    synth_dataset(SCENE, count, data)
    defaults = dict(epochs=1, checkpoint_every=1, batch_size=2, seed=9,
                    manifest_path=str(data / "manifest.json"),
                    output_dir=str(tmp_path / "run"))
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestGanValue:
    def test_uncertain_discriminator(self):
        v = gan_value(np.full(6, 0.5), np.full(6, 0.5))
        assert v == pytest.approx(2 * math.log(0.5), abs=1e-9)

    def test_confident_discriminator(self):
        v = gan_value(np.full(3, 0.9), np.full(3, 0.1))
        assert v == pytest.approx(2 * math.log(0.9), abs=1e-9)

    def test_clamp_path(self):
        v = gan_value(np.array([0.5]), np.array([1.0]), clamp_eps=1e-7)
        assert v == pytest.approx(math.log(0.5) + math.log(1e-7), abs=1e-6)
        assert v == pytest.approx(-16.8112, abs=1e-3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            gan_value(np.array([1.5]), np.array([0.5]))


class TestLosses:
    def test_perfect_discriminator_loss_near_zero(self):
        eps = 1e-7
        real = Tensor(np.full(4, 1.0 - eps))
        fake = Tensor(np.full(4, eps))
        loss = discriminator_loss(real, fake)
        assert abs(loss.item()) < 1e-5

    def test_uncertain_loss_value(self):
        loss = discriminator_loss(Tensor(np.full(4, 0.5)), Tensor(np.full(4, 0.5)))
        assert loss.item() == pytest.approx(-2 * math.log(0.5), abs=1e-6)

    def test_loss_is_negated_gan_value(self):
        rng = np.random.default_rng(0)
        real = rng.uniform(0.1, 0.9, 8)
        fake = rng.uniform(0.1, 0.9, 8)
        loss = discriminator_loss(Tensor(real), Tensor(fake))
        assert loss.item() + gan_value(real, fake) == pytest.approx(0.0, abs=1e-12)

    def test_discriminator_loss_gradient(self):
        # Two-score toy case against central differences.
        real_data = np.array([0.7, 0.4])
        fake_data = np.array([0.3, 0.6])
        real = Tensor(real_data.copy(), requires_grad=True)
        fake = Tensor(fake_data.copy(), requires_grad=True)
        discriminator_loss(real, fake).backward()
        h = 1e-6
        for tensor, base in ((real, real_data), (fake, fake_data)):
            for i in range(2):
                bumped = base.copy()
                bumped[i] += h
                up = discriminator_loss(Tensor(bumped if tensor is real else real_data),
                                        Tensor(bumped if tensor is fake else fake_data))
                bumped[i] -= 2 * h
                dn = discriminator_loss(Tensor(bumped if tensor is real else real_data),
                                        Tensor(bumped if tensor is fake else fake_data))
                numeric = (up.item() - dn.item()) / (2 * h)
                assert tensor.grad[i] == pytest.approx(numeric, rel=1e-4)

    def test_generator_optimum(self):
        eps = 1e-7
        gen = Tensor(np.full((1, 1, 2, 2), 0.5))
        loss = generator_loss(Tensor(np.full(4, 1.0 - eps)), gen, gen, 100.0)
        assert abs(loss.item()) < 1e-5

    def test_lambda_zero_is_pure_adversarial(self):
        d_fake = Tensor(np.full(4, 0.5))
        gen = Tensor(np.full((2, 2), 0.9))
        target = Tensor(np.full((2, 2), 0.1))
        loss = generator_loss(d_fake, gen, target, 0.0)
        assert loss.item() == pytest.approx(-math.log(0.5), abs=1e-6)

    def test_half_difference_hand_value(self):
        d_fake = Tensor(np.full(4, 0.5))
        gen = Tensor(np.full((2, 2), 0.75))
        target = Tensor(np.full((2, 2), 0.25))
        loss = generator_loss(d_fake, gen, target, 100.0)
        assert loss.item() == pytest.approx(math.log(2) + 50.0, abs=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            generator_loss(Tensor(np.full(4, 0.5)), Tensor(np.zeros((2, 2))),
                           Tensor(np.zeros((3, 3))))


class TestTrainStep:
    def batch(self, n=2):
        rng = np.random.default_rng(1)
        return (rng.random((n, 3, 16, 16)).astype(np.float32),
                (rng.random((n, 1, 16, 16)) > 0.7).astype(np.float32))

    def test_zero_learning_rate_is_null_update(self):
        gen = Generator(GEN_CFG, seed=0)
        disc = Discriminator(DISC_CFG, seed=1)
        before_g = [p.data.copy() for p in gen.store.tensors()]
        before_d = [p.data.copy() for p in disc.store.tensors()]
        cfg = TrainConfig(learning_rate=0.0, manifest_path="x")
        conds, labels = self.batch()
        train_step(gen, disc, conds, labels, AdamState(0.0), AdamState(0.0), cfg, 7)
        for before, p in zip(before_g, gen.store.tensors()):
            assert np.array_equal(before, p.data)
        for before, p in zip(before_d, disc.store.tensors()):
            assert np.array_equal(before, p.data)

    def test_step_determinism(self):
        records = []
        for _ in range(2):
            gen = Generator(GEN_CFG, seed=0)
            disc = Discriminator(DISC_CFG, seed=1)
            cfg = TrainConfig(manifest_path="x")
            conds, labels = self.batch()
            rec = train_step(gen, disc, conds, labels,
                             AdamState(cfg.learning_rate, cfg.beta1),
                             AdamState(cfg.learning_rate, cfg.beta1), cfg, 7)
            records.append((rec, gen.store.tensors()[0].data.copy()))
        assert records[0][0] == records[1][0]
        assert np.array_equal(records[0][1], records[1][1])

    def test_discriminator_update_leaves_generator_grads_zero(self):
        # The fake path must be detached during the discriminator update.
        gen = Generator(GEN_CFG, seed=0)
        disc = Discriminator(DISC_CFG, seed=1)
        conds, labels = self.batch()
        cond_t = Tensor(conds)
        fake = gen.forward(cond_t, mode="train", seed=3)
        gen.store.zero_grad()
        d_real = disc.forward(cond_t, Tensor(labels))
        d_fake = disc.forward(cond_t, fake.detach())
        discriminator_loss(d_real, d_fake).backward()
        for p in gen.store.tensors():
            assert np.abs(p.grad).max() == 0.0
        assert any(np.abs(p.grad).max() > 0 for p in disc.store.tensors())

    def test_l1_descent_on_tiny_dataset(self):
        # Heavy L1 weight on two fixed samples must drive reconstruction down.
        gen = Generator(GEN_CFG, seed=0)
        disc = Discriminator(DISC_CFG, seed=1)
        cfg = TrainConfig(l1_weight=1000.0, manifest_path="x")
        opt_g = AdamState(cfg.learning_rate, cfg.beta1)
        opt_d = AdamState(cfg.learning_rate, cfg.beta1)
        conds, labels = self.batch()
        l1_values = [train_step(gen, disc, conds, labels, opt_g, opt_d, cfg, s).g_l1
                     for s in range(50)]
        assert l1_values[-1] < l1_values[0]
        assert np.mean(l1_values[-10:]) < np.mean(l1_values[:10])

    def test_g_l1_logged_at_zero_weight(self):
        # The first step's fake comes from the same weights and dropout seed
        # whatever the weight, so the logged reconstruction error must match.
        conds, labels = self.batch()
        logged = []
        for weight in (0.0, 100.0):
            gen = Generator(GEN_CFG, seed=0)
            disc = Discriminator(DISC_CFG, seed=1)
            cfg = TrainConfig(l1_weight=weight, manifest_path="x")
            logged.append(train_step(gen, disc, conds, labels, AdamState(), AdamState(),
                                     cfg, 7).g_l1)
        assert logged[0] > 0.0
        assert logged[0] == logged[1]

    def test_empty_batch_rejected(self):
        gen = Generator(GEN_CFG, seed=0)
        disc = Discriminator(DISC_CFG, seed=1)
        with pytest.raises(ValueError, match="empty"):
            train_step(gen, disc, np.zeros((0, 3, 16, 16)), np.zeros((0, 1, 16, 16)),
                       AdamState(), AdamState(), TrainConfig(manifest_path="x"), 0)


class TestTrainLoop:
    def test_checkpoint_schedule_default_run(self):
        assert len(_checkpoint_epochs(200, 5)) == 41
        assert 1 in _checkpoint_epochs(200, 5)
        assert 200 in _checkpoint_epochs(200, 5)

    def test_single_epoch_single_checkpoint(self, tmp_path):
        cfg = make_run(tmp_path, epochs=1)
        ckpts, records = train(cfg, GEN_CFG, DISC_CFG)
        assert len(ckpts) == 1
        assert len(records) == 1
        assert (tmp_path / "run" / "epochs.csv").exists()

    def test_missing_manifest_fails_before_training(self, tmp_path):
        cfg = TrainConfig(epochs=1, manifest_path=str(tmp_path / "nope.json"),
                          output_dir=str(tmp_path / "run"))
        with pytest.raises(FileNotFoundError):
            train(cfg, GEN_CFG, DISC_CFG)

    def test_bit_identical_reruns(self, tmp_path):
        cfg_a = make_run(tmp_path, epochs=2, output_dir=str(tmp_path / "a"))
        cfg_b = make_run(tmp_path, epochs=2, output_dir=str(tmp_path / "b"))
        ckpts_a, _ = train(cfg_a, GEN_CFG, DISC_CFG)
        ckpts_b, _ = train(cfg_b, GEN_CFG, DISC_CFG)
        for pa, pb in zip(ckpts_a, ckpts_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_resume_equals_uninterrupted(self, tmp_path):
        cfg_full = make_run(tmp_path, epochs=2, output_dir=str(tmp_path / "full"))
        train(cfg_full, GEN_CFG, DISC_CFG)
        cfg_part = make_run(tmp_path, epochs=1, output_dir=str(tmp_path / "part"))
        train(cfg_part, GEN_CFG, DISC_CFG)
        cfg_resume = make_run(tmp_path, epochs=2, output_dir=str(tmp_path / "part"))
        train(cfg_resume, GEN_CFG, DISC_CFG,
              resume_from=str(tmp_path / "part" / "ckpt_epoch_0001.bin"))
        full = (tmp_path / "full" / "ckpt_epoch_0002.bin").read_bytes()
        resumed = (tmp_path / "part" / "ckpt_epoch_0002.bin").read_bytes()
        assert full == resumed

    def test_epoch_log_columns(self, tmp_path):
        cfg = make_run(tmp_path, epochs=1)
        train(cfg, GEN_CFG, DISC_CFG)
        header = (tmp_path / "run" / "epochs.csv").read_text().splitlines()[0]
        assert header == "epoch,d_loss,g_adv,g_l1,v_estimate,seconds"

    def test_checkpoint_bytes_pinned(self, tmp_path):
        ckpts, _ = train(make_run(tmp_path), GEN_CFG, DISC_CFG)
        digest = hashlib.sha256(ckpts[0].read_bytes()).hexdigest()
        assert digest == "df945b2b304051206aa4bdb3796a2f41e5cd77ead6cd1e0beaa8a03768236a9f"


class TestCheckpointIO:
    def test_save_load_save_byte_identical(self, tmp_path):
        gen = Generator(GEN_CFG, seed=0)
        disc = Discriminator(DISC_CFG, seed=1)
        opt_g = AdamState(2e-4, 0.5)
        opt_d = AdamState(2e-4, 0.5)
        conds = np.random.default_rng(0).random((2, 3, 16, 16)).astype(np.float32)
        labels = np.zeros((2, 1, 16, 16), dtype=np.float32)
        train_step(gen, disc, conds, labels, opt_g, opt_d,
                   TrainConfig(manifest_path="x"), 0)
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        save_checkpoint(a, gen, disc, opt_g, opt_d, epoch=3)
        gen2, disc2, og2, od2, epoch = load_checkpoint(a, GEN_CFG, DISC_CFG)
        assert epoch == 3
        save_checkpoint(b, gen2, disc2, og2, od2, epoch=3)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_config_names_tensor(self, tmp_path):
        gen = Generator(GEN_CFG, seed=0)
        disc = Discriminator(DISC_CFG, seed=1)
        path = tmp_path / "c.bin"
        save_checkpoint(path, gen, disc, AdamState(), AdamState(), epoch=1)
        with pytest.raises(CheckpointError, match="gen/enc0.weight"):
            load_checkpoint(path, UNetConfig(base_filters=8, depth=3))
