import numpy as np
import pytest

from armsentinel.nets import DiscriminatorConfig, Discriminator, Generator, UNetConfig
from armsentinel.tensor import ShapeError, Tensor


def rand_input(shape, seed=0):
    return Tensor(np.random.default_rng(seed).random(shape).astype(np.float32))


def expected_generator_params(cfg: UNetConfig) -> int:
    """Closed-form stage arithmetic, independent of the builder."""
    k2 = 16  # 4x4 kernels
    f = [min(cfg.base_filters * 2 ** i, 8 * cfg.base_filters) for i in range(cfg.depth)]
    total = 0
    ch = cfg.in_channels
    for i in range(cfg.depth):
        total += f[i] * ch * k2 + f[i]          # conv weight + bias
        if 0 < i < cfg.depth - 1:
            total += 2 * f[i]                   # norm gain + shift
        ch = f[i]
    dec_in = f[-1]
    for j in range(cfg.depth):
        out_ch = f[cfg.depth - 2 - j] if j < cfg.depth - 1 else cfg.base_filters
        total += dec_in * out_ch * k2 + out_ch + 2 * out_ch
        skip = f[cfg.depth - 2 - j] if j < cfg.depth - 1 else 0
        dec_in = out_ch + skip
    total += cfg.base_filters + 1              # 1x1 one-channel head
    return total


class TestGeneratorBuild:
    def test_parameter_count_default_config(self):
        cfg = UNetConfig(in_channels=3, base_filters=16, depth=4)
        gen = Generator(cfg, seed=0)
        count = sum(t.data.size for t in gen.store.tensors())
        assert count == expected_generator_params(cfg)
        assert count == 394817  # hand-computed for this config

    def test_same_seed_bit_identical(self):
        a = Generator(UNetConfig(), seed=42)
        b = Generator(UNetConfig(), seed=42)
        for (na, ta), (nb, tb) in zip(a.store.params.items(), b.store.params.items()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = Generator(UNetConfig(), seed=1)
        b = Generator(UNetConfig(), seed=2)
        assert not np.array_equal(a.store.params["enc0.weight"].data,
                                  b.store.params["enc0.weight"].data)

    def test_minimal_network(self):
        gen = Generator(UNetConfig(depth=2, base_filters=1), seed=0)
        out = gen.forward(rand_input((1, 3, 4, 4)))
        assert out.shape == (1, 1, 4, 4)

    def test_init_distribution(self):
        gen = Generator(UNetConfig(), seed=3)
        w = gen.store.params["dec0.weight"].data
        assert abs(w.mean()) < 0.005
        assert abs(w.std() - 0.02) < 0.005


class TestGeneratorForward:
    def test_shape_preservation(self):
        gen = Generator(UNetConfig(), seed=0)
        out = gen.forward(rand_input((1, 3, 64, 64)))
        assert out.shape == (1, 1, 64, 64)

    def test_output_in_open_unit_interval(self):
        gen = Generator(UNetConfig(), seed=0)
        out = gen.forward(rand_input((2, 3, 32, 32), seed=5))
        assert out.data.min() > 0.0
        assert out.data.max() < 1.0

    def test_infer_mode_deterministic(self):
        gen = Generator(UNetConfig(), seed=0)
        x = rand_input((1, 3, 32, 32), seed=1)
        a = gen.forward(x)
        b = gen.forward(x)
        assert np.array_equal(a.data, b.data)

    def test_train_mode_seeds_differ(self):
        gen = Generator(UNetConfig(), seed=0)
        x = rand_input((1, 3, 32, 32), seed=1)
        a = gen.forward(x, dropout_seed=1)
        b = gen.forward(x, dropout_seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_divisibility_error_names_multiple(self):
        gen = Generator(UNetConfig(depth=4), seed=0)
        with pytest.raises(ShapeError, match="multiples of 16"):
            gen.forward(rand_input((1, 3, 24, 24)))

    def test_batch_permutation_equivariance(self):
        gen = Generator(UNetConfig(), seed=0)
        x = np.random.default_rng(8).random((3, 3, 32, 32)).astype(np.float32)
        out = gen.forward(Tensor(x)).data
        perm = [2, 0, 1]
        out_perm = gen.forward(Tensor(x[perm])).data
        assert np.allclose(out[perm], out_perm, atol=1e-6)

    def test_skip_connections_carry_gradients(self):
        # Zero every bottleneck-path decoder weight: input gradients must
        # still be non-zero through the skip concatenations.
        from armsentinel import tensor as T
        gen = Generator(UNetConfig(depth=3, base_filters=4), seed=0)
        gen.store.params["dec0.weight"].data[...] = 0.0
        x = Tensor(np.random.default_rng(9).random((1, 3, 16, 16)).astype(np.float32),
                   requires_grad=True)
        out = gen.forward(x)
        T.mean(out).backward()
        assert np.abs(x.grad).max() > 0.0


class TestDiscriminator:
    def test_patch_map_shape_64(self):
        # Shape oracle: three 4/2/1 stages 64->32->16->8, then two 4/1/1
        # stages 8->7->6.
        disc = Discriminator(DiscriminatorConfig(num_layers=3), seed=0)
        cond = rand_input((2, 3, 64, 64))
        label = rand_input((2, 1, 64, 64), seed=1)
        out = disc.forward(cond, label)
        assert out.shape == (2, 1, 6, 6)

    def test_scores_in_open_unit_interval(self):
        disc = Discriminator(DiscriminatorConfig(), seed=0)
        out = disc.forward(rand_input((1, 3, 64, 64)), rand_input((1, 1, 64, 64), seed=2))
        assert out.data.min() > 0.0
        assert out.data.max() < 1.0

    def test_same_seed_identical_params(self):
        a = Discriminator(DiscriminatorConfig(), seed=7)
        b = Discriminator(DiscriminatorConfig(), seed=7)
        for ta, tb in zip(a.store.tensors(), b.store.tensors()):
            assert np.array_equal(ta.data, tb.data)

    def test_minimal_two_layers(self):
        disc = Discriminator(DiscriminatorConfig(base_filters=2, num_layers=2), seed=0)
        out = disc.forward(rand_input((1, 3, 16, 16)), rand_input((1, 1, 16, 16), seed=3))
        assert out.shape[0:2] == (1, 1)

    def test_candidate_sensitivity(self):
        disc = Discriminator(DiscriminatorConfig(), seed=0)
        cond = rand_input((1, 3, 64, 64))
        a = disc.forward(cond, rand_input((1, 1, 64, 64), seed=4))
        b = disc.forward(cond, rand_input((1, 1, 64, 64), seed=5))
        assert not np.array_equal(a.data, b.data)

    def test_batch_doubling(self):
        disc = Discriminator(DiscriminatorConfig(), seed=0)
        one = disc.forward(rand_input((1, 3, 64, 64)), rand_input((1, 1, 64, 64), seed=6))
        two = disc.forward(rand_input((2, 3, 64, 64)), rand_input((2, 1, 64, 64), seed=6))
        assert two.shape == (2,) + one.shape[1:]

    def test_spatial_mismatch(self):
        disc = Discriminator(DiscriminatorConfig(), seed=0)
        with pytest.raises(ShapeError, match="spatial"):
            disc.forward(rand_input((1, 3, 64, 64)), rand_input((1, 1, 32, 32)))
