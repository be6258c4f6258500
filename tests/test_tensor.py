import numpy as np
import pytest

from armsentinel import tensor as T
from armsentinel.tensor import NonFiniteError, ShapeError, Tensor


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestConv2d:
    def test_pointwise_kernel_scales(self):
        x = t(np.ones((1, 1, 3, 3)))
        k = t(np.full((1, 1, 1, 1), 2.0))
        b = t(np.zeros(1))
        out = T.conv2d(x, k, b, stride=1, padding=0)
        assert np.array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_hand_cross_correlation(self):
        x = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        k = t(np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2))
        out = T.conv2d(x, k, t(np.zeros(1)), stride=1, padding=0)
        assert out.data.reshape(()) == 5.0  # 1*1 + 4*1

    def test_strided_shape(self):
        x = t(np.zeros((2, 3, 64, 64)))
        k = t(np.zeros((8, 3, 4, 4)))
        out = T.conv2d(x, k, t(np.zeros(8)), stride=2, padding=1)
        assert out.shape == (2, 8, 32, 32)

    def test_channel_mismatch_names_dims(self):
        x = t(np.zeros((1, 2, 5, 5)))
        k = t(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="channels 2 != kernel channels 3"):
            T.conv2d(x, k, t(np.zeros(1)))

    def test_nonpositive_stride(self):
        x = t(np.zeros((1, 1, 4, 4)))
        k = t(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ShapeError, match="stride"):
            T.conv2d(x, k, t(np.zeros(1)), stride=0)

    def test_kernel_larger_than_input(self):
        x = t(np.zeros((1, 1, 2, 2)))
        k = t(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ShapeError, match="smaller than kernel"):
            T.conv2d(x, k, t(np.zeros(1)))


class TestConvTranspose2d:
    def test_inverse_shape_of_conv(self):
        x = t(np.zeros((1, 8, 32, 32)))
        k = t(np.zeros((8, 3, 4, 4)))
        out = T.conv_transpose2d(x, k, t(np.zeros(3)), stride=2, padding=1)
        assert out.shape == (1, 3, 64, 64)

    def test_hand_expansion(self):
        x = t(np.full((1, 1, 1, 1), 5.0))
        k = t(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = T.conv_transpose2d(x, k, t(np.zeros(1)), stride=1, padding=0)
        assert np.array_equal(out.data.reshape(2, 2), [[5, 10], [15, 20]])

    def test_negative_output_dim(self):
        x = t(np.zeros((1, 1, 2, 2)))
        k = t(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ShapeError, match="not positive"):
            T.conv_transpose2d(x, k, t(np.zeros(1)), stride=1, padding=3)

    def test_negative_padding(self):
        x = t(np.zeros((1, 1, 3, 3)))
        k = t(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError, match="negative padding -1"):
            T.conv_transpose2d(x, k, t(np.zeros(1)), stride=1, padding=-1)

    def test_non_square_kernel(self):
        x = t(np.zeros((1, 1, 3, 3)))
        k = t(np.zeros((1, 1, 3, 2)))
        with pytest.raises(ShapeError, match="non-square kernel 3x2"):
            T.conv_transpose2d(x, k, t(np.zeros(1)))

    def test_gradient_matches_finite_differences(self):
        # conv2d -> conv_transpose2d chain checked end to end.
        rng = np.random.default_rng(0)
        x = t(rng.standard_normal((1, 2, 6, 6)))
        k = t(rng.standard_normal((3, 2, 3, 3)))
        kt = t(rng.standard_normal((3, 2, 3, 3)))
        proj = rng.standard_normal((1, 2, 6, 6))

        def forward():
            mid = T.conv2d(x, k, t(np.zeros(3)), stride=1, padding=1)
            out = T.conv_transpose2d(mid, kt, t(np.zeros(2)), stride=1, padding=1)
            return out

        loss = T.total(forward() * Tensor(proj))
        loss.backward()
        analytic = x.grad.copy()
        h = 1e-5
        numeric = np.zeros_like(analytic)
        flat = x.data.reshape(-1)
        nflat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float((forward().data * proj).sum())
            flat[i] = orig - h
            fm = float((forward().data * proj).sum())
            flat[i] = orig
            nflat[i] = (fp - fm) / (2 * h)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1.0)
        assert rel.max() < 1e-4


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(t([0.0])).data[0] == 0.5

    def test_leaky_relu_definition(self):
        assert T.leaky_relu(t([-2.0])).data[0] == pytest.approx(-0.4)

    def test_dropout_inactive_is_identity(self):
        x = t(np.random.default_rng(1).standard_normal((3, 5)))
        out = T.dropout(x, 0.5, rng_seed=42, active=False)
        assert np.array_equal(out.data, x.data)
        assert out is x
        assert T.dropout(x, 0.0, rng_seed=42, active=True) is x

    def test_dropout_active_scales_survivors(self):
        x = t(np.ones((100, 100)))
        out = T.dropout(x, 0.5, rng_seed=7, active=True)
        survivors = out.data[out.data != 0]
        assert np.allclose(survivors, 2.0)
        assert 0.4 < (out.data != 0).mean() < 0.6

    def test_dropout_deterministic_for_seed(self):
        x = t(np.random.default_rng(2).standard_normal((8, 8)))
        a = T.dropout(x, 0.3, rng_seed=9, active=True)
        b = T.dropout(x, 0.3, rng_seed=9, active=True)
        assert np.array_equal(a.data, b.data)

    def test_dropout_rate_one_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            T.dropout(t([1.0]), 1.0, 0, True)

    def test_total_and_mean_check_finite(self):
        big = Tensor(np.full(4, 3e38, dtype=np.float32))
        for op in (T.total, T.mean):
            with pytest.raises(NonFiniteError, match="sum|mean"):
                op(big)


class TestInstanceNorm:
    def test_constant_plane_collapses_to_bias(self):
        x = t(np.full((1, 1, 3, 3), 4.2))
        out = T.instance_norm(x, t(np.ones(1)), t(np.zeros(1)))
        assert np.allclose(out.data, 0.0)

    def test_two_value_plane(self):
        x = t(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
        out = T.instance_norm(x, t(np.ones(1)), t(np.zeros(1)))
        assert np.allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-4)

    def test_zero_gain_annihilates(self):
        x = t(np.random.default_rng(3).standard_normal((2, 2, 4, 4)))
        out = T.instance_norm(x, t(np.zeros(2)), t(np.full(2, 7.0)))
        assert np.allclose(out.data, 7.0)

    def test_normalized_statistics(self):
        x = t(np.random.default_rng(4).standard_normal((2, 3, 8, 8)) * 5 + 2)
        out = T.instance_norm(x, t(np.ones(3)), t(np.zeros(3)))
        assert np.allclose(out.data.mean(axis=(2, 3)), 0.0, atol=1e-10)
        assert np.allclose(out.data.var(axis=(2, 3)), 1.0, atol=1e-3)

    def test_degenerate_plane_rejected(self):
        x = t(np.zeros((1, 1, 1, 1)))
        with pytest.raises(ShapeError, match="degenerate"):
            T.instance_norm(x, t(np.ones(1)), t(np.zeros(1)))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t(np.random.default_rng(5).standard_normal((3, 4)))
        T.total(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic(self):
        x = t([1.0, 2.0, 3.0])
        T.total(x * x).backward()
        assert np.allclose(x.grad, [2.0, 4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = t(np.ones((2, 2)))
        with pytest.raises(ShapeError, match="scalar"):
            (x * x).backward()

    def test_accumulation_without_zeroing(self):
        x = t([1.0, 1.0])
        T.total(x).backward()
        T.total(x).backward()
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_unreached_nodes_stay_zero(self):
        x = t([1.0])
        y = t([2.0])
        T.total(x * 3.0).backward()
        assert np.allclose(y.grad, 0.0)

    def test_diamond_graph_visits_once(self):
        x = t([2.0])
        y = x * x
        z = y + y
        T.total(z).backward()
        assert np.allclose(x.grad, 8.0)  # d/dx 2x^2


class TestInvariants:
    def test_conv_shape_roundtrip_randomized(self):
        # conv2d then conv_transpose2d with mirrored hyperparameters
        # restores spatial dimensions exactly, and with the same kernel the
        # two are adjoint: <conv2d(x), y> == <x, conv_transpose2d(y)>.
        rng = np.random.default_rng(6)
        for _ in range(20):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 4))
            k = int(rng.integers(2, 5))
            s = int(rng.integers(1, 3))
            p = int(rng.integers(0, k // 2 + 1))
            h = int(rng.integers(k, 12)) * s + k - 2 * p
            if h < k:
                continue
            x = t(rng.standard_normal((1, c_in, h, h)))
            kern = t(rng.standard_normal((c_out, c_in, k, k)))
            mid = T.conv2d(x, kern, t(np.zeros(c_out)), stride=s, padding=p)
            y = rng.standard_normal(mid.shape)
            back = T.conv_transpose2d(t(y), kern, t(np.zeros(c_in)), stride=s, padding=p)
            assert back.shape[2:] == x.shape[2:], (h, k, s, p)
            assert np.isclose((mid.data * y).sum(), (x.data * back.data).sum(),
                              rtol=1e-12, atol=1e-12), (h, k, s, p)

    def test_nonfinite_raises(self):
        x = t([1e308])
        with pytest.raises(NonFiniteError):
            x * 1e308  # overflows to inf

    def test_log_of_negative_raises(self):
        with pytest.raises(NonFiniteError):
            T.log(t([-1.0]))

    def test_empty_tensor_rejected(self):
        with pytest.raises(ShapeError, match="empty"):
            Tensor(np.zeros((0, 3)))

    def test_forward_determinism(self):
        rng = np.random.default_rng(7)
        x_data = rng.standard_normal((2, 3, 8, 8))
        k_data = rng.standard_normal((4, 3, 3, 3))

        def run():
            x = t(x_data.copy())
            k = t(k_data.copy())
            out = T.sigmoid(T.conv2d(x, k, t(np.zeros(4)), 1, 1))
            T.mean(out).backward()
            return out.data.copy(), x.grad.copy()

        o1, g1 = run()
        o2, g2 = run()
        assert np.array_equal(o1, o2)
        assert np.array_equal(g1, g2)
