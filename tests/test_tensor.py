"""Tests for the dense-tensor kernel and its recorded adjoints."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from milvad.errors import InputError
from milvad.gradient_checks import CHECKS
from milvad.tensor import (
    Tape,
    Tensor,
    affine,
    adaptive_mean_rows,
    backward,
    concatenate,
    conv1d,
    grad_check,
    lstm_forward,
    parameter_leaves,
    pool,
    sigmoid,
    uniform_param,
    zero_grads,
)

# conv1d and adaptive_mean_rows sum in GEMM order, not in the oracles' loop
# order, so they agree to rounding: entries here are O(10), errors O(1e-15).
ORACLE_ATOL = 1e-12


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestAffine:
    def test_sigmoid_of_zero_input(self):
        x = Tensor(np.zeros((2, 3)))
        w = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        b = Tensor(np.zeros(4))
        y = affine(x, w, b, activation="sigmoid")
        assert np.allclose(y.data, 0.5)

    def test_identity_weights(self):
        x = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        y = affine(x, Tensor(np.eye(3)), Tensor(np.zeros(3)), activation="none")
        assert np.array_equal(y.data, x.data)

    def test_hand_arithmetic(self):
        y = affine(Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([0.5]), "relu")
        assert np.allclose(y.data, [[3.5]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            affine(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), Tensor(np.ones(2)))
        with pytest.raises(InputError):
            affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), Tensor(np.ones(5)))

    def test_unknown_activation_rejected(self):
        with pytest.raises(InputError):
            affine(Tensor(np.ones((1, 1))), Tensor(np.ones((1, 1))), Tensor(np.ones(1)), "gelu")


class TestConv1d:
    def test_zero_kernel_gives_zero_output(self):
        x = Tensor(np.random.default_rng(1).normal(size=(6, 3)))
        y = conv1d(x, Tensor(np.zeros((3, 3, 2))), Tensor(np.zeros(2)), dilation=2)
        assert np.array_equal(y.data, np.zeros((6, 2)))

    def test_hand_convolution_with_zero_padding(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
        w = Tensor(np.ones((3, 1, 1)))
        y = conv1d(x, w, Tensor(np.zeros(1)), dilation=1)
        assert np.allclose(y.data[:, 0], [3.0, 6.0, 9.0, 12.0, 9.0])

    def test_length_preserved_for_valid_dilations(self):
        rng = np.random.default_rng(2)
        for length in (3, 5, 8):
            for k, d in ((1, 1), (3, 1), (5, 4), (3, 8)):
                if (k - 1) * d >= 2 * length:
                    continue
                x = Tensor(rng.normal(size=(length, 2)))
                w = Tensor(rng.normal(size=(k, 2, 3)))
                y = conv1d(x, w, Tensor(rng.normal(size=3)), dilation=d)
                assert y.shape == (length, 3)

    def test_bad_params_rejected(self):
        x = Tensor(np.ones((4, 2)))
        with pytest.raises(InputError):
            conv1d(x, Tensor(np.ones((0, 2, 2))), Tensor(np.ones(2)))
        with pytest.raises(InputError):
            conv1d(x, Tensor(np.ones((3, 2, 2))), Tensor(np.ones(2)), dilation=0)
        with pytest.raises(InputError):
            conv1d(x, Tensor(np.ones((3, 5, 2))), Tensor(np.ones(2)))


def _conv_oracle(x, w, b, dilation):
    """out[t] = b + sum_j x[t + j*dilation - left] @ w[j], rows off either end being zero."""
    k = w.shape[0]
    left = (k - 1) * dilation // 2
    out = np.tile(b, (x.shape[0], 1))
    for t in range(x.shape[0]):
        for j in range(k):
            source = t + j * dilation - left
            if 0 <= source < x.shape[0]:
                out[t] += x[source] @ w[j]
    return out


class TestConv1dOracle:
    @settings(max_examples=80, deadline=None)
    @given(length=st.integers(1, 12), k=st.integers(1, 6), dilation=st.integers(1, 9),
           c_in=st.integers(1, 4), c_out=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(length=6, k=5, dilation=4, c_in=3, c_out=2, seed=0)    # the first pyramid layer
    @example(length=4, k=3, dilation=8, c_in=2, c_out=2, seed=1)    # span 17 over 4 rows
    @example(length=7, k=4, dilation=3, c_in=2, c_out=3, seed=2)    # even kernel
    def test_matches_zero_padded_tap_loop(self, length, k, dilation, c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(length, c_in))
        w = rng.normal(size=(k, c_in, c_out))
        b = rng.normal(size=c_out)
        got = conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=dilation).data
        np.testing.assert_allclose(got, _conv_oracle(x, w, b, dilation), rtol=0, atol=ORACLE_ATOL)

    def test_tape_nodes_do_not_grow_with_kernel_size(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        counts = set()
        for k in (1, 2, 5, 9):
            w = Tensor(rng.normal(size=(k, 3, 2)), requires_grad=True)
            b = Tensor(rng.normal(size=2), requires_grad=True)
            counts.add(len(Tape.trace(conv1d(x, w, b, dilation=2).sum()).nodes))
        assert len(counts) == 1


class TestLstm:
    def test_zero_parameters_give_zero_output(self):
        seq = Tensor(np.random.default_rng(3).normal(size=(5, 4)))
        y = lstm_forward(seq, Tensor(np.zeros((4, 12))), Tensor(np.zeros((3, 12))), Tensor(np.zeros(12)))
        assert np.array_equal(y.data, np.zeros((5, 3)))

    def test_output_shape(self):
        seq = Tensor(np.ones((7, 4)))
        rng = np.random.default_rng(4)
        y = lstm_forward(
            seq,
            Tensor(rng.normal(size=(4, 20))),
            Tensor(rng.normal(size=(5, 20))),
            Tensor(rng.normal(size=20)),
        )
        assert y.shape == (7, 5)

    def test_single_step_matches_hand_unrolled_recurrence(self):
        # scalar input, scalar hidden unit: unroll the gate equations by hand
        x0 = 0.7
        wx = np.array([[0.2, -0.4, 0.5, 0.3]])
        wh = np.array([[0.1, 0.2, -0.3, 0.4]])
        b = np.array([0.05, -0.1, 0.2, 0.0])
        z = x0 * wx[0] + b
        gate_in, gate_forget = _sigmoid(z[0]), _sigmoid(z[1])
        candidate, gate_out = np.tanh(z[2]), _sigmoid(z[3])
        c1 = gate_in * candidate
        h1 = gate_out * np.tanh(c1)
        y = lstm_forward(Tensor([[x0]]), Tensor(wx), Tensor(wh), Tensor(b))
        assert np.allclose(y.data, [[h1]], atol=1e-12)


def _lstm_oracle(seq, wx, wh, b):
    """Per-step LSTM over the rows of one (L, C) sequence; gates i, f, g, o."""
    h = c = np.zeros(wh.shape[0])
    out = []
    for x in seq:
        gate_in, gate_forget, candidate, gate_out = np.split(x @ wx + h @ wh + b, 4)
        c = _sigmoid(gate_forget) * c + _sigmoid(gate_in) * np.tanh(candidate)
        h = _sigmoid(gate_out) * np.tanh(c)
        out.append(h)
    return np.array(out)


# Over 2,000 random shapes the central difference at this step missed
# sum(grad * v) by at most 1.4e-9, relative to max(1, |sum(grad * v)|).
FD_EPS = 1e-6
FD_RTOL = 1e-6


def _assert_directional_derivatives(arrays, weights, grads, rng):
    """Central differences of sum(weights * oracle) along a random direction
    on each of seq, wx, wh and bias agree with sum(grad * direction)."""
    def loss(arrs):
        return sum((w * _lstm_oracle(s, *arrs[1:])).sum() for s, w in zip(arrs[0], weights))

    for k, grad in enumerate(grads):
        v = rng.normal(size=arrays[k].shape)
        up, down = (loss([a + sign * FD_EPS * v if j == k else a for j, a in enumerate(arrays)])
                    for sign in (1.0, -1.0))
        want = np.sum(grad * v)
        assert abs((up - down) / (2 * FD_EPS) - want) <= FD_RTOL * max(1.0, abs(want)), k


class TestLstmOracle:
    # A (B, L, C) call forms the input projection and each parameter
    # gradient in one GEMM over the batch, B separate calls in B, so the sums
    # run in another order. Over 400 random shapes, with gradients up to 6,
    # the two differed by at most 1.8e-15.
    BATCH_ATOL = 1e-12

    @settings(max_examples=80, deadline=None)
    @given(batch=st.integers(1, 4), length=st.integers(1, 6), channels=st.integers(1, 5),
           hidden=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(batch=1, length=1, channels=1, hidden=1, seed=0)
    @example(batch=4, length=6, channels=5, hidden=4, seed=1)
    def test_batch_matches_per_step_loop_and_separate_calls(self, batch, length, channels,
                                                            hidden, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.normal(size=shape) for shape in ((batch, length, channels),
                  (channels, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))]
        weights = rng.normal(size=(batch, length, hidden))
        seq, *params = (Tensor(a, requires_grad=True) for a in arrays)

        batched = lstm_forward(seq, *params)
        expect = np.stack([_lstm_oracle(s, *arrays[1:]) for s in arrays[0]])
        np.testing.assert_allclose(batched.data, expect, rtol=0, atol=ORACLE_ATOL)
        backward((batched * Tensor(weights)).sum())
        batched_grads = [seq.grad, *(p.grad for p in params)]
        _assert_directional_derivatives(arrays, weights, batched_grads, rng)

        zero_grads(params)
        rows = [Tensor(s, requires_grad=True) for s in arrays[0]]
        separate = [lstm_forward(row, *params) for row in rows]
        backward(sum((out * Tensor(w)).sum() for out, w in zip(separate, weights)))
        separate_grads = [np.stack([row.grad for row in rows]), *(p.grad for p in params)]
        _assert_directional_derivatives(arrays, weights, separate_grads, rng)
        np.testing.assert_allclose(batched.data, np.stack([out.data for out in separate]),
                                   rtol=0, atol=self.BATCH_ATOL)
        for got, want in zip(batched_grads, separate_grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=self.BATCH_ATOL)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4, 4), (0, 4), (2, 0, 4), (0, 3, 4)])
    def test_bad_input_shape_rejected_naming_it(self, shape):
        rng = np.random.default_rng(5)
        with pytest.raises(InputError, match=re.escape(str(shape))):
            lstm_forward(Tensor(np.zeros(shape)), Tensor(rng.normal(size=(4, 8))),
                         Tensor(rng.normal(size=(2, 8))), Tensor(rng.normal(size=8)))


class TestPool:
    def test_max_over_rows(self):
        y = pool(Tensor([[1.0, 2.0], [3.0, 0.0]]), axis=0, mode="max")
        assert np.array_equal(y.data, [3.0, 2.0])

    def test_mean_of_constant(self):
        y = pool(Tensor(np.full((4, 3), 2.5)), axis=0, mode="mean")
        assert np.allclose(y.data, 2.5)

    def test_max_tie_routes_gradient_to_first(self):
        x = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        backward(pool(x, axis=0, mode="max"))
        assert np.array_equal(x.grad, [1.0, 0.0])

    def test_matches_brute_force_maximum(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
            x = rng.normal(size=shape)
            axis = int(rng.integers(0, len(shape)))
            got = pool(Tensor(x), axis=axis, mode="max").data
            expect = np.apply_along_axis(lambda v: max(v), axis, x)
            assert np.allclose(got, expect)

    def test_empty_axis_rejected(self):
        with pytest.raises(InputError):
            pool(Tensor(np.zeros((0, 3))), axis=0, mode="max")
        with pytest.raises(InputError):
            pool(Tensor(np.zeros((2, 3))), axis=5, mode="mean")


class TestConcat:
    def test_channel_concat_shapes(self):
        a = Tensor(np.zeros((6, 4)))
        b = Tensor(np.zeros((6, 4)))
        assert concatenate([a, b], axis=1).shape == (6, 8)

    def test_concat_with_empty_channel_tensor(self):
        a = Tensor(np.random.default_rng(6).normal(size=(2, 3)))
        empty = Tensor(np.zeros((2, 0)))
        assert np.array_equal(concatenate([empty, a], axis=1).data, a.data)

    def test_values_preserved_positionally(self):
        a = Tensor([[1.0], [2.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        y = concatenate([a, b], axis=1)
        assert np.array_equal(y.data, [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])

    def test_extent_mismatch_rejected(self):
        with pytest.raises(InputError):
            concatenate([Tensor(np.zeros((2, 1))), Tensor(np.zeros((3, 1)))], axis=1)


class TestAdaptiveMeanRows:
    def test_bin_layout(self):
        x = Tensor(np.array([[0.0], [1.0], [2.0], [3.0]]))
        y = adaptive_mean_rows(x, 2)
        assert np.allclose(y.data[:, 0], [0.5, 2.5])

    def test_rejects_upsampling(self):
        with pytest.raises(InputError):
            adaptive_mean_rows(Tensor(np.zeros((2, 1))), 3)


class TestAdaptiveMeanRowsOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 40), channels=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_slice_means(self, data, rows, channels, seed):
        out_len = data.draw(st.integers(1, rows), label="out_len")
        x = np.random.default_rng(seed).normal(size=(rows, channels))
        expect = np.stack([x[i * rows // out_len:(i + 1) * rows // out_len].mean(axis=0)
                           for i in range(out_len)])
        got = adaptive_mean_rows(Tensor(x), out_len).data
        np.testing.assert_allclose(got, expect, rtol=0, atol=ORACLE_ATOL)


class TestSigmoid:
    def test_saturates_without_overflow_warning(self):
        x = Tensor(np.array([-1000.0, 0.0, 1000.0]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = sigmoid(x)
            backward(y.sum())
        assert np.array_equal(y.data, [0.0, 0.5, 1.0])
        assert np.array_equal(x.grad, [0.0, 0.25, 0.0])


class TestBackward:
    def test_matmul_adjoint_skips_constant_operand(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        y = a @ Tensor(np.ones((3, 4)))
        grad_a, grad_const = y._vjp(np.ones((2, 4)))
        assert grad_const is None
        assert np.array_equal(grad_a, np.full((2, 3), 4.0))

    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(7).normal(size=(3, 2)), requires_grad=True)
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor(np.array(0.0), requires_grad=True)
        backward(x.sigmoid())
        assert np.allclose(x.grad, 0.25)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(InputError):
            backward(x.relu())

    def test_grad_exists_exactly_on_flagged_tensors(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        c = Tensor(np.ones((2, 2)))
        backward((x * c).sum())
        assert x.grad is not None and c.grad is None

    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        backward((x * x).sum())
        assert np.allclose(x.grad, [4.0])

    def test_random_composite_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)

        def build():
            h = affine(x, w, b, activation="tanh")
            return (h.sigmoid() * h).mean()

        assert grad_check(build) < 1e-4


class TestGradCheck:
    def test_linear_graph_is_nearly_exact(self):
        w = Tensor(np.array([[0.5, -1.25], [2.0, 0.75]]), requires_grad=True)
        c = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))

        def build():
            return (w * c).sum()

        assert grad_check(build) <= 1e-10

    def test_conv_sigmoid_chain(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(6, 2)))
        w = uniform_param(rng, (3, 2, 2), fan_in=6)
        b = uniform_param(rng, (2,), fan_in=6)

        def build():
            return conv1d(x, w, b, dilation=2).sigmoid().sum()

        assert grad_check(build) < 1e-4

    def test_lstm_three_steps(self):
        rng = np.random.default_rng(10)
        seq = Tensor(rng.normal(size=(3, 2)))
        wx = uniform_param(rng, (2, 8), fan_in=2)
        wh = uniform_param(rng, (2, 8), fan_in=2)
        b = uniform_param(rng, (8,), fan_in=2)

        def build():
            return lstm_forward(seq, wx, wh, b).sum()

        assert grad_check(build) < 1e-4

    def test_structural_ops(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def build():
            joined = concatenate([a, b, a * b], axis=1)
            squeezed = adaptive_mean_rows(joined.reshape((6, 3)), 2)
            return pool(squeezed, axis=1, mode="max").sum() + pool(joined, axis=0, mode="mean").mean()

        assert grad_check(build) < 1e-4


class TestGradientCheckTable:
    @pytest.mark.parametrize("factory", [f for _, f in CHECKS], ids=[n for n, _ in CHECKS])
    def test_every_parameter_gets_a_nonzero_gradient(self, factory):
        # an all-zero gradient, e.g. behind dead ReLUs, is checked against nothing
        loss = factory()()
        params = parameter_leaves(loss)
        backward(loss)
        assert all(p.grad is not None and np.any(p.grad) for p in params)


class TestDeterminism:
    def test_forward_is_bit_identical(self):
        rng = np.random.default_rng(12)
        x = np.ascontiguousarray(rng.normal(size=(5, 3)))
        w = np.ascontiguousarray(rng.normal(size=(2, 3, 3)))
        b = rng.normal(size=3)

        def run():
            return conv1d(Tensor(x), Tensor(w), Tensor(b), dilation=3).tanh().sum().item()

        assert run() == run()

    def test_no_graph_recorded_for_constant_inputs(self):
        y = affine(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))), Tensor(np.ones(2)))
        assert y._parents == () and not y.requires_grad


class TestUniformParam:
    def test_bound_and_reproducibility(self):
        a = uniform_param(np.random.default_rng(13), (100,), fan_in=16)
        b = uniform_param(np.random.default_rng(13), (100,), fan_in=16)
        assert np.array_equal(a.data, b.data)
        assert np.all(np.abs(a.data) <= 0.25)
        assert a.requires_grad
