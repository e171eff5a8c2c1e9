"""Layer kernels against brute-force, hand, and finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from oracles import grad_check, rmsprop_oracle

from uavfuse import worker
from uavfuse.errors import ConfigError, NumericFault, ShapeError
from uavfuse.ops import (
    _RMSPROP_BLOCK,
    _patches,
    BCE_EPS,
    ConvParams,
    DenseParams,
    RmspropState,
    bce_loss,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dropout_apply,
    dropout_backward,
    relu,
    relu_backward,
    RmspropUpdate,
    rmsprop_step,
    sigmoid,
    sigmoid_backward,
)
from uavfuse.rng import Rng


def conv_oracle(x, kernels, bias):
    """Six-nested-loop direct summation; the independent reference."""
    h, w, c_in = x.shape
    kh, kw, _, c_out = kernels.shape
    out = np.zeros((h - kh + 1, w - kw + 1, c_out), dtype=np.float64)
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            for f in range(c_out):
                acc = float(bias[f])
                for a in range(kh):
                    for b in range(kw):
                        for c in range(c_in):
                            acc += x[i + a, j + b, c] * kernels[a, b, c, f]
                out[i, j, f] = acc
    return out


def dense_oracle(x, weights, bias):
    n_in, n_out = weights.shape
    out = np.zeros(n_out, dtype=np.float64)
    for j in range(n_out):
        acc = float(bias[j])
        for i in range(n_in):
            acc += x[i] * weights[i, j]
        out[j] = acc
    return out


def _rand_conv(rng, h, w, c_in, c_out, kh=3, kw=3, dtype=np.float64):
    x = rng.normal((h, w, c_in)).astype(dtype)
    params = ConvParams(
        kernels=rng.normal((kh, kw, c_in, c_out)).astype(dtype),
        bias=rng.normal(c_out).astype(dtype),
    )
    return x, params


class TestConvForward:
    def test_zero_input_gives_bias(self):
        rng = Rng(0)
        _, params = _rand_conv(rng, 6, 6, 2, 3)
        out = conv2d_forward(np.zeros((6, 6, 2)), params)
        assert np.allclose(out, np.broadcast_to(params.bias, out.shape))

    def test_ones_sum(self):
        params = ConvParams(np.ones((3, 3, 1, 1)), np.zeros(1))
        out = conv2d_forward(np.ones((3, 3, 1)), params)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 9.0

    def test_matches_brute_force(self):
        rng = Rng(1)
        x, params = _rand_conv(rng, 5, 5, 2, 3)
        got = conv2d_forward(x, params)
        want = conv_oracle(x, params.kernels, params.bias)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_paper_scale_output_shape(self):
        params = ConvParams(
            np.zeros((3, 3, 1536, 512), dtype=np.float32),
            np.zeros(512, dtype=np.float32),
        )
        out = conv2d_forward(np.zeros((7, 7, 1536), dtype=np.float32), params)
        assert out.shape == (5, 5, 512)

    def test_linearity_with_zero_bias(self):
        rng = Rng(2)
        x1, params = _rand_conv(rng, 6, 7, 3, 2)
        params = ConvParams(params.kernels, np.zeros(2))
        x2 = rng.normal(x1.shape)
        lhs = conv2d_forward(2.5 * x1 - 1.25 * x2, params)
        rhs = 2.5 * conv2d_forward(x1, params) - 1.25 * conv2d_forward(x2, params)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_batch_axis_matches_per_sample(self):
        rng = Rng(3)
        x, params = _rand_conv(rng, 5, 5, 2, 3)
        batch = np.stack([x, 2 * x, x - 1])
        got = conv2d_forward(batch, params)
        for i in range(3):
            # batched BLAS blocking may differ in the last ulp only
            assert np.allclose(got[i], conv2d_forward(batch[i], params), rtol=1e-13)

    def test_pure_function_bit_identical_on_repeat(self):
        rng = Rng(30)
        x, params = _rand_conv(rng, 6, 6, 2, 3, dtype=np.float32)
        assert np.array_equal(conv2d_forward(x, params), conv2d_forward(x, params))
        x_before = x.copy()
        conv2d_forward(x, params)
        assert np.array_equal(x, x_before)

    def test_channel_mismatch_rejected(self):
        _, params = _rand_conv(Rng(4), 5, 5, 2, 3)
        with pytest.raises(ShapeError, match="channel"):
            conv2d_forward(np.zeros((5, 5, 7)), params)

    def test_too_small_input_rejected(self):
        _, params = _rand_conv(Rng(4), 5, 5, 2, 3)
        with pytest.raises(ShapeError, match="height"):
            conv2d_forward(np.zeros((2, 5, 2)), params)


class TestConvBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = Rng(5)
        x, params = _rand_conv(rng, 5, 5, 2, 3)
        gx, gk, gb = conv2d_backward(x, params, np.zeros((3, 3, 3)))
        assert not gx.any() and not gk.any() and not gb.any()

    def test_grad_bias_is_upstream_sum(self):
        rng = Rng(6)
        x, params = _rand_conv(rng, 6, 5, 2, 4)
        g = rng.normal((4, 3, 4))
        _, _, gb = conv2d_backward(x, params, g)
        want = np.array([g[:, :, f].sum() for f in range(4)])
        assert np.allclose(gb, want, rtol=1e-12)

    def test_finite_differences(self):
        rng = Rng(7)
        x, params = _rand_conv(rng, 5, 5, 3, 4)
        proj = rng.normal((3, 3, 4))  # random scalarizer
        gx, gk, gb = conv2d_backward(x, params, proj)

        assert grad_check(lambda v: float(np.sum(conv2d_forward(v, params) * proj)), x, gx) < 1e-5
        assert (
            grad_check(
                lambda v: float(np.sum(conv2d_forward(x, ConvParams(v, params.bias)) * proj)),
                params.kernels,
                gk,
            )
            < 1e-5
        )
        assert (
            grad_check(
                lambda v: float(np.sum(conv2d_forward(x, ConvParams(params.kernels, v)) * proj)),
                params.bias,
                gb,
            )
            < 1e-5
        )

    def test_wrong_upstream_shape_rejected(self):
        rng = Rng(8)
        x, params = _rand_conv(rng, 5, 5, 2, 3)
        with pytest.raises(ShapeError, match="upstream"):
            conv2d_backward(x, params, np.zeros((3, 3, 5)))


def _window_patches(x, kh, kw):
    """The sliding_window_view windows that _patches replaced."""
    axes = (0, 1) if x.ndim == 3 else (1, 2)
    win = sliding_window_view(x, (kh, kw), axis=axes)
    return np.ascontiguousarray(np.moveaxis(win, -3, -1))


def _tensordot_forward(x, params):
    """The tensordot formulation that conv2d_forward replaced."""
    kh, kw = params.kernels.shape[:2]
    return np.tensordot(_window_patches(x, kh, kw), params.kernels, axes=3) + params.bias


def _tensordot_param_grads(x, params, g):
    """The tensordot formulation that conv2d_backward's parameter gradients replaced."""
    kh, kw = params.kernels.shape[:2]
    spatial = tuple(range(g.ndim - 1))
    grad_kernels = np.tensordot(_window_patches(x, kh, kw), g, axes=(spatial, spatial))
    return grad_kernels, g.sum(axis=spatial)


class TestConvBlasProducts:
    """The np.dot products give the old tensordot results bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [None, 1, 12])
    @pytest.mark.parametrize("dims", [(6, 5, 4, 3, 3, 3), (7, 7, 48, 16, 3, 3), (5, 6, 3, 7, 2, 4)])
    def test_forward_and_param_grads_match_tensordot(self, dtype, batch, dims):
        h, w, c_in, c_out, kh, kw = dims
        rng = Rng(h * 100 + c_in)
        x, params = _rand_conv(rng, h, w, c_in, c_out, kh, kw, dtype=dtype)
        if batch is not None:
            x = rng.normal((batch, h, w, c_in)).astype(dtype)
        out = conv2d_forward(x, params)
        want = _tensordot_forward(x, params)
        assert out.dtype == want.dtype and np.array_equal(out, want)
        g = rng.normal(out.shape).astype(dtype)
        gk, gb = conv2d_backward(x, params, g)[1:]
        want_k, want_b = _tensordot_param_grads(x, params, g)
        assert gk.shape == want_k.shape and gk.dtype == want_k.dtype
        assert np.array_equal(gk, want_k)
        assert np.array_equal(gb, want_b)

    @pytest.mark.parametrize("batch", [None, 2])
    def test_patches_of_strided_views_match_windows(self, batch):
        rng = Rng(43)
        shape = (9, 8, 6) if batch is None else (batch, 9, 8, 6)
        base = rng.normal(shape)
        # reversed rows and every other channel: a view with unusual strides
        x = base[..., ::-1, :, ::2]
        got = _patches(x, 3, 2)
        assert got.flags.c_contiguous
        assert np.array_equal(got, _window_patches(x, 3, 2))

    def test_grad_input_unchanged(self):
        rng = Rng(44)
        x, params = _rand_conv(rng, 6, 5, 4, 3)
        g = rng.normal((4, 3, 3))
        grad_input, _, _ = conv2d_backward(x, params, g)
        g_pad = np.pad(g, [(2, 2), (2, 2), (0, 0)])
        flipped = params.kernels[::-1, ::-1].transpose(0, 1, 3, 2)
        want = np.tensordot(_window_patches(g_pad, 3, 3), flipped, axes=3)
        assert np.array_equal(grad_input, want)


class TestDense:
    def test_identity_weights(self):
        x = np.array([1.0, -2.0, 3.0])
        out = dense_forward(x, DenseParams(np.eye(3), np.zeros(3)))
        assert np.array_equal(out, x)

    def test_hand_case(self):
        params = DenseParams(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([3.0, 4.0]))
        assert np.array_equal(dense_forward(np.array([1.0, 2.0]), params), [4.0, 6.0])

    def test_matches_brute_force(self):
        rng = Rng(9)
        x = rng.normal(11)
        params = DenseParams(rng.normal((11, 7)), rng.normal(7))
        assert np.allclose(
            dense_forward(x, params), dense_oracle(x, params.weights, params.bias),
            rtol=1e-12,
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="length"):
            dense_forward(np.zeros(5), DenseParams(np.zeros((4, 2)), np.zeros(2)))

    def test_backward_zero(self):
        rng = Rng(10)
        x = rng.normal(6)
        params = DenseParams(rng.normal((6, 3)), rng.normal(3))
        gx, gw, gb = dense_backward(x, params, np.zeros(3))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_grad_bias_equals_upstream(self):
        rng = Rng(11)
        x = rng.normal(6)
        params = DenseParams(rng.normal((6, 3)), rng.normal(3))
        g = rng.normal(3)
        _, _, gb = dense_backward(x, params, g)
        assert np.array_equal(gb, g)

    def test_finite_differences(self):
        rng = Rng(12)
        x = rng.normal(6)
        params = DenseParams(rng.normal((6, 3)), rng.normal(3))
        proj = rng.normal(3)
        gx, gw, gb = dense_backward(x, params, proj)
        assert grad_check(lambda v: float(dense_forward(v, params) @ proj), x, gx) < 1e-5
        assert (
            grad_check(
                lambda v: float(dense_forward(x, DenseParams(v, params.bias)) @ proj),
                params.weights,
                gw,
            )
            < 1e-5
        )

    def test_linear_layer_central_differences_near_exact(self):
        rng = Rng(13)
        x = rng.normal(5)
        params = DenseParams(rng.normal((5, 4)), rng.normal(4))
        proj = rng.normal(4)
        gx, _, _ = dense_backward(x, params, proj)
        assert grad_check(lambda v: float(dense_forward(v, params) @ proj), x, gx) < 1e-8


class TestActivations:
    def test_relu_definition(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_idempotent(self):
        x = Rng(14).normal(100)
        assert np.array_equal(relu(relu(x)), relu(x))

    def test_relu_backward_hand_case(self):
        g = relu_backward(np.array([5.0, 5.0]), np.array([1.0, -1.0]))
        assert np.array_equal(g, [5.0, 0.0])

    def test_relu_subgradient_at_zero_is_zero(self):
        assert relu_backward(np.array([7.0]), np.array([0.0]))[0] == 0.0

    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_derivative_at_zero(self):
        s = sigmoid(np.array([0.0]))
        assert sigmoid_backward(np.array([1.0]), s)[0] == 0.25

    def test_sigmoid_complement_symmetry(self):
        x = Rng(15).normal(1000) * 4
        total = sigmoid(x) + sigmoid(-x)
        assert np.allclose(total, 1.0, rtol=0, atol=1e-15)

    def test_sigmoid_strictly_inside_unit_interval(self):
        x = np.array([-1e4, -100.0, 0.0, 100.0, 1e4])
        for dtype in (np.float32, np.float64):
            s = sigmoid(x.astype(dtype))
            assert np.all(s > 0) and np.all(s < 1)


class TestDropout:
    def test_eval_mode_identity(self):
        x = Rng(16).normal((4, 5))
        y, mask = dropout_apply(x, 0.5, "eval")
        assert y is x and mask is None

    def test_zero_rate_identity(self):
        x = Rng(17).normal(64)
        y, mask = dropout_apply(x, 0.0, "train", Rng(0))
        assert np.array_equal(y, x) and mask.all()

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones(1_000_000)
        y, _ = dropout_apply(x, 0.5, "train", Rng(18))
        assert abs(y.mean() - 1.0) < 0.01

    def test_same_seed_same_mask(self):
        x = Rng(19).normal(512)
        y1, m1 = dropout_apply(x, 0.3, "train", Rng(77))
        y2, m2 = dropout_apply(x, 0.3, "train", Rng(77))
        assert np.array_equal(y1, y2) and np.array_equal(m1, m2)

    def test_backward_routes_through_mask(self):
        x = Rng(20).normal(128)
        y, mask = dropout_apply(x, 0.25, "train", Rng(5))
        g = dropout_backward(np.ones(128), mask, 0.25)
        # survivors get the 1/(1-rate) scale, dropped elements get zero
        assert np.allclose(g[mask], 1 / 0.75)
        assert not g[~mask].any()

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout_apply(np.zeros(3), 1.0, "train", Rng(0))


class _Words:
    """Stands in for an Rng whose next raw words are given."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def u64(self, n):
        out, self.words = self.words[:n], self.words[n:]
        return out.copy()

    # Rng.uniform reads its words through u64 only
    uniform = Rng.uniform


# Exact multiples of 2^-53 are where a threshold rounding error would show.
_MULTIPLE_RATES = st.integers(0, 2**53 - 1).map(lambda k: k * 2.0**-53)
_DROPOUT_RATES = st.one_of(
    st.floats(0, 1, exclude_max=True),
    _MULTIPLE_RATES,
    st.tuples(_MULTIPLE_RATES, st.sampled_from([-1.0, 2.0])).map(
        lambda rv: float(np.nextafter(rv[0], rv[1]))
    ),
).filter(lambda r: 0 < r < 1)


class TestDropoutMask:
    """The integer keep mask is exactly Rng.uniform(shape) >= rate."""

    @given(rate=_DROPOUT_RATES, seed=st.integers(0, 2**64 - 1))
    def test_mask_equals_uniform_comparison(self, rate, seed):
        x = np.ones((3, 50), dtype=np.float32)
        rng, ref = Rng(seed), Rng(seed)
        _, mask = dropout_apply(x, rate, "train", rng)
        assert mask.dtype == bool and mask.shape == x.shape
        assert np.array_equal(mask, ref.uniform(x.shape) >= rate)
        # the same words were consumed: both streams continue alike
        assert np.array_equal(rng.u64(5), ref.u64(5))

    @given(
        rate=_DROPOUT_RATES,
        low_bits=st.lists(st.integers(0, 2**11 - 1), min_size=5, max_size=5),
    )
    def test_mask_at_the_threshold(self, rate, low_bits):
        # 53-bit mantissas just below, at and above rate * 2^53, plus the ends
        m0 = int(rate * 2.0**53)
        mantissas = [0, max(m0 - 1, 0), m0, min(m0 + 1, 2**53 - 1), 2**53 - 1]
        words = [(m << 11) | low for m, low in zip(mantissas, low_bits)]
        x = np.ones(len(words))
        _, mask = dropout_apply(x, rate, "train", _Words(words))
        assert np.array_equal(mask, _Words(words).uniform(len(words)) >= rate)


class TestBce:
    def test_half_probability(self):
        loss, _ = bce_loss(np.array([0.5]), np.array([1.0]))
        assert abs(loss - math.log(2)) < 1e-12

    def test_perfect_prediction_is_clamped(self):
        loss, grad = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert abs(loss - (-math.log1p(-BCE_EPS))) < 1e-12
        assert not grad.any()  # clamp active, exact gradient is zero

    def test_hand_batch(self):
        loss, _ = bce_loss(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
        assert abs(loss - (-math.log(0.9) - math.log(0.8)) / 2) < 1e-12

    def test_gradient_matches_finite_differences(self):
        p = np.array([0.3, 0.6, 0.9, 0.2])
        y = np.array([1.0, 0.0, 1.0, 0.0])
        _, grad = bce_loss(p, y)
        assert grad_check(lambda v: bce_loss(v, y)[0], p, grad) < 1e-7

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            bce_loss(np.zeros(3), np.zeros(4))


class TestRmsprop:
    def test_zero_gradient_keeps_param(self):
        p = np.array([1.0, -2.0])
        state = RmspropState(np.array([0.5, 0.25]), 3)
        p2, s2 = rmsprop_step(p, np.zeros(2), state, 1e-4, 1e-7)
        assert np.array_equal(p2, p)
        assert np.allclose(s2.mean_square, 0.9 * state.mean_square)
        assert s2.step_count == 4

    def test_hand_first_step(self):
        p = np.array([0.0])
        p2, s2 = rmsprop_step(p, np.array([1.0]), RmspropState(np.zeros(1)), 1e-4, 1e-7)
        assert abs(s2.mean_square[0] - 0.1) < 1e-15
        want = -1e-4 / (math.sqrt(0.1) + 1e-7)
        assert abs(p2[0] - want) < 1e-12
        assert abs(p2[0] - (-3.16228e-4)) < 1e-8

    def test_hand_two_steps(self):
        p = np.array([0.0])
        state = RmspropState(np.zeros(1))
        g = np.array([1.0])
        p, state = rmsprop_step(p, g, state, 1e-4, 1e-7)
        p, state = rmsprop_step(p, g, state, 1e-4, 1e-7)
        assert abs(state.mean_square[0] - 0.19) < 1e-15
        theta1 = -1e-4 / (math.sqrt(0.1) + 1e-7)
        eta1 = 1e-4 / (1 + 1e-7)
        want = theta1 - eta1 / (math.sqrt(0.19) + 1e-7)
        assert abs(p[0] - want) < 1e-15
        assert state.step_count == 2

    def test_inputs_not_mutated(self):
        p = np.array([1.0])
        g = np.array([2.0])
        state = RmspropState(np.array([0.5]), 1)
        rmsprop_step(p, g, state, 1e-4, 1e-7)
        assert p[0] == 1.0 and g[0] == 2.0 and state.mean_square[0] == 0.5

    def test_non_finite_gradient_faults(self):
        with pytest.raises(NumericFault):
            rmsprop_step(
                np.zeros(2), np.array([1.0, np.nan]), RmspropState(np.zeros(2)), 1e-4, 0
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            rmsprop_step(np.zeros(2), np.zeros(3), RmspropState(np.zeros(2)), 1e-4, 0)


class TestRmspropBlocks:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "size",
        [1, _RMSPROP_BLOCK - 1, _RMSPROP_BLOCK, _RMSPROP_BLOCK + 1, 3 * _RMSPROP_BLOCK + 7],
    )
    def test_matches_whole_tensor_expression_bitwise(self, dtype, size):
        rng = Rng(size)
        param = rng.normal(size).astype(dtype)
        want_p, want_e = param, np.zeros(size, dtype=dtype)
        state = RmspropState(want_e.copy())
        for step in range(4):
            grad = (rng.normal(size) * 10.0 ** -step).astype(dtype)
            before = (param.copy(), grad.copy(), state.mean_square.copy())
            new_p, new_state = rmsprop_step(param, grad, state, 1e-3, 1e-2)
            want_p, want_e = rmsprop_oracle(want_p, grad, want_e, step, 1e-3, 1e-2)
            for arr, old in zip((param, grad, state.mean_square), before):
                assert np.array_equal(arr, old)
            assert new_p.dtype == dtype and new_state.mean_square.dtype == dtype
            assert np.array_equal(new_p, want_p)
            assert np.array_equal(new_state.mean_square, want_e)
            assert new_state.step_count == step + 1
            param, state = new_p, new_state

    def test_multi_dimensional_tensor_keeps_its_shape(self):
        rng = Rng(42)
        shape = (3, 3, 7, _RMSPROP_BLOCK // 50)
        param = rng.normal(shape).astype(np.float32)
        grad = rng.normal(shape).astype(np.float32)
        mean_square = np.abs(rng.normal(shape)).astype(np.float32)
        new_p, state = rmsprop_step(param, grad, RmspropState(mean_square, 5), 1e-4, 1e-7)
        want_p, want_e = rmsprop_oracle(param, grad, mean_square, 5, 1e-4, 1e-7)
        assert new_p.shape == shape and state.mean_square.shape == shape
        assert np.array_equal(new_p, want_p)
        assert np.array_equal(state.mean_square, want_e)

    def test_non_finite_gradient_in_a_later_block_faults(self):
        grad = np.zeros(2 * _RMSPROP_BLOCK + 3, dtype=np.float32)
        grad[-1] = np.inf
        param = np.zeros_like(grad)
        with pytest.raises(NumericFault):
            rmsprop_step(param, grad, RmspropState(np.zeros_like(grad)), 1e-4, 0)


class TestRmspropUpdate:
    """The in-place kernel training runs on its flat parameter vector."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "size",
        [1, _RMSPROP_BLOCK - 1, _RMSPROP_BLOCK, _RMSPROP_BLOCK + 1, 3 * _RMSPROP_BLOCK + 7],
    )
    def test_in_place_matches_whole_tensor_expression_bitwise(self, dtype, size):
        rng = Rng(size + 1)
        param = rng.normal(size).astype(dtype)
        mean_square = np.zeros(size, dtype=dtype)
        want_p, want_e = param.copy(), mean_square.copy()
        param_buf, mean_square_buf = param, mean_square
        for step in range(4):
            grad = (rng.normal(size) * 10.0 ** -step).astype(dtype)
            grad_before = grad.copy()
            lr = 1e-3 / (1.0 + 1e-2 * step)
            assert RmspropUpdate(param, grad, mean_square)(lr) is None
            want_p, want_e = rmsprop_oracle(want_p, grad, want_e, step, 1e-3, 1e-2)
            assert param is param_buf and mean_square is mean_square_buf
            assert param.dtype == dtype and mean_square.dtype == dtype
            assert np.array_equal(grad, grad_before)
            assert np.array_equal(param, want_p)
            assert np.array_equal(mean_square, want_e)

    def test_updates_views_of_the_buffer(self):
        flat = np.zeros(7, dtype=np.float32)
        head = flat[:3].reshape(3, 1)
        RmspropUpdate(flat, np.ones(7, dtype=np.float32), np.zeros_like(flat))(1e-3)
        assert np.all(head < 0) and np.shares_memory(head, flat)

    def test_non_contiguous_param_rejected(self):
        param = np.zeros(8)[::2]
        with pytest.raises(ShapeError, match="contiguous"):
            RmspropUpdate(param, np.zeros(4), np.zeros(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="mean_square"):
            RmspropUpdate(np.zeros(4), np.zeros(4), np.zeros(5))
        with pytest.raises(ShapeError, match="mean_square"):
            rmsprop_step(np.zeros(4), np.zeros(4), RmspropState(np.zeros(5)), 1e-3, 0)

    def test_non_finite_gradient_in_a_later_block_faults(self):
        grad = np.zeros(2 * _RMSPROP_BLOCK + 3, dtype=np.float32)
        grad[-1] = np.nan
        with pytest.raises(NumericFault):
            RmspropUpdate(np.zeros_like(grad), grad, np.zeros_like(grad))(1e-4)

    @pytest.mark.parametrize("operand", [0, 1, 2])
    @pytest.mark.parametrize("fault", ["shape", "strided"])
    def test_checked_once_when_built_and_copied_by_the_pure_form(self, operand, fault):
        # training checks its operands once, by building RmspropUpdate;
        # rmsprop_step rejects a shape mismatch and copies a strided operand
        arrays = [np.zeros(6), np.ones(6), np.zeros(6)]
        arrays[operand] = np.zeros(7) if fault == "shape" else arrays[operand].repeat(2)[::2]
        with pytest.raises(ShapeError):
            RmspropUpdate(*arrays)
        param, grad, mean_square = arrays
        if fault == "shape":
            with pytest.raises(ShapeError):
                rmsprop_step(param, grad, RmspropState(mean_square), 1e-3, 0)
        else:
            new_p, state = rmsprop_step(param, grad, RmspropState(mean_square), 1e-3, 0)
            want_p, want_e = rmsprop_oracle(np.zeros(6), np.ones(6), np.zeros(6), 0, 1e-3, 0)
            assert np.array_equal(new_p, want_p) and np.array_equal(state.mean_square, want_e)

    def test_a_built_update_reads_the_current_gradient(self):
        param, grad, mean_square = np.zeros(5), np.empty(5), np.zeros(5)
        update = RmspropUpdate(param, grad, mean_square)
        want_p, want_e = param.copy(), mean_square.copy()
        for step in range(3):
            grad[...] = np.arange(5) - step
            update(1e-3)
            want_p, want_e = rmsprop_oracle(want_p, grad, want_e, 0, 1e-3, 0)
            assert np.array_equal(param, want_p) and np.array_equal(mean_square, want_e)


class TestSplitRmspropUpdate:
    """The update with its blocks in two halves, the second on the package's worker thread."""

    @pytest.fixture(autouse=True)
    def split_on(self, monkeypatch):
        monkeypatch.setattr(worker, "_gate", True)

    @staticmethod
    def _update(size, dtype, seed):
        rng = Rng(seed)
        param, mean_square = rng.normal(size).astype(dtype), np.zeros(size, dtype)
        grad = np.empty(size, dtype)
        return RmspropUpdate(param, grad, mean_square), param, grad, mean_square, rng

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks, tail", [(8, 0), (9, 0), (10, 3), (11, _RMSPROP_BLOCK - 1)])
    def test_halves_match_the_whole_tensor_expression_bitwise(self, blocks, tail, dtype):
        size = blocks * _RMSPROP_BLOCK + tail
        update, param, grad, mean_square, rng = self._update(size, dtype, blocks)
        first, second = update._halves
        assert len(first) + len(second) == blocks + (tail > 0) and len(second) - len(first) in (0, 1)
        assert not np.shares_memory(first[-1][3], second[-1][3])  # temporary rows of their own
        want_p, want_e = param.copy(), mean_square.copy()
        for step in range(3):
            grad[...] = rng.normal(size) * 10.0 ** -step
            update(1e-3 / (1.0 + 1e-2 * step))
            want_p, want_e = rmsprop_oracle(want_p, grad, want_e, step, 1e-3, 1e-2)
            assert np.array_equal(param, want_p) and np.array_equal(mean_square, want_e)

    def test_fewer_blocks_stay_whole(self):
        update = self._update(7 * _RMSPROP_BLOCK, np.float32, 1)[0]
        first, second = update._halves
        assert len(first) == 7 and second == []

    @pytest.mark.parametrize("at", [0, -1], ids=["first_half", "second_half"])
    def test_a_non_finite_gradient_in_either_half_faults_and_the_next_update_works(self, at):
        update, param, grad, mean_square, rng = self._update(9 * _RMSPROP_BLOCK + 3, np.float32, 2)
        grad[...] = rng.normal(grad.size)
        grad[at] = np.inf
        before = param.copy()
        with pytest.raises(NumericFault, match="non-finite gradient"):
            update(1e-3)
        # the faulting element's block is left alone; the other half ran to its end
        assert param[at] == before[at] and param[-1 - at] != before[-1 - at]
        grad[at] = 0.5
        want_p, want_e = rmsprop_oracle(param, grad, mean_square, 0, 1e-3, 0)
        update(1e-3)
        assert np.array_equal(param, want_p) and np.array_equal(mean_square, want_e)


class TestGradCheckHarness:
    def test_detects_corrupted_gradient(self):
        rng = Rng(21)
        x = rng.normal(6)
        params = DenseParams(rng.normal((6, 3)), rng.normal(3))
        proj = rng.normal(3)
        gx, _, _ = dense_backward(x, params, proj)
        err = grad_check(lambda v: float(dense_forward(v, params) @ proj), x, gx * 1.01)
        assert err > 1e-3


def test_all_backward_ops_match_finite_differences_many_seeds():
    """Randomized-shape sweep; every op below 1e-5 relative error at 64-bit."""
    for seed in range(20):
        rng = Rng(1000 + seed)
        h = 4 + int(rng.uniform() * 3)
        w = 4 + int(rng.uniform() * 3)
        c_in = 1 + int(rng.uniform() * 3)
        c_out = 1 + int(rng.uniform() * 3)
        x, params = _rand_conv(rng, h, w, c_in, c_out)
        proj = rng.normal((h - 2, w - 2, c_out))
        gx, gk, gb = conv2d_backward(x, params, proj)
        assert grad_check(lambda v: float(np.sum(conv2d_forward(v, params) * proj)), x, gx) < 1e-5

        n_in = 3 + int(rng.uniform() * 5)
        n_out = 1 + int(rng.uniform() * 4)
        xd = rng.normal(n_in)
        dparams = DenseParams(rng.normal((n_in, n_out)), rng.normal(n_out))
        dproj = rng.normal(n_out)
        gxd, gwd, gbd = dense_backward(xd, dparams, dproj)
        assert grad_check(lambda v: float(dense_forward(v, dparams) @ dproj), xd, gxd) < 1e-5
        assert (
            grad_check(
                lambda v: float(dense_forward(xd, DenseParams(v, dparams.bias)) @ dproj),
                dparams.weights,
                gwd,
            )
            < 1e-5
        )

        xa = rng.normal(9)
        proj_a = rng.normal(9)
        ga = relu_backward(proj_a, xa)
        assert grad_check(lambda v: float(relu(v) @ proj_a), xa, ga) < 1e-5
        s = sigmoid(xa)
        gs = sigmoid_backward(proj_a, s)
        assert grad_check(lambda v: float(sigmoid(v) @ proj_a), xa, gs) < 1e-5
