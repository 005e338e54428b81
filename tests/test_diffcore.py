"""Differentiation engine: forward semantics, oracles, gradient checks."""

import numpy as np
import pytest

from ccrn import diffcore as dc


def conv1d_loops(x, w, b, padding):
    """Nested-loop cross-correlation oracle, written before the main build."""
    c_out, c_in, k = w.shape
    c, t = x.shape
    xp = np.zeros((c, t + 2 * padding))
    xp[:, padding:padding + t] = x
    t_out = t + 2 * padding - k + 1
    out = np.zeros((c_out, t_out))
    for o in range(c_out):
        for tt in range(t_out):
            acc = 0.0
            for i in range(c_in):
                for j in range(k):
                    acc += xp[i, tt + j] * w[o, i, j]
            out[o, tt] = acc + b[o]
    return out


class TestConv1d:
    def test_identity_kernel(self):
        x = dc.constant(np.array([[1.0, 2.0, 3.0, 4.0]]))
        w = dc.parameter(np.array([[[0.0, 1.0, 0.0]]]))
        b = dc.parameter(np.zeros(1))
        out = dc.conv1d(x, w, b)
        assert np.array_equal(out.value, [[1.0, 2.0, 3.0, 4.0]])

    def test_identity_kernel_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            c = int(rng.integers(1, 5))
            t = int(rng.integers(3, 17))
            x = rng.standard_normal((c, t))
            w = np.zeros((c, c, 3))
            for i in range(c):
                w[i, i, 1] = 1.0
            out = dc.conv1d(dc.constant(x), dc.parameter(w), dc.parameter(np.zeros(c)))
            assert np.array_equal(out.value, x)

    def test_zero_weight_gives_zero(self):
        rng = np.random.default_rng(1)
        x = dc.constant(rng.standard_normal((3, 8)))
        w = dc.parameter(np.zeros((2, 3, 3)))
        b = dc.parameter(np.zeros(2))
        assert np.all(dc.conv1d(x, w, b).value == 0.0)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            k = int(rng.choice([1, 3, 5]))
            t = int(rng.integers(1, 17))
            x = rng.standard_normal((c_in, t))
            w = rng.standard_normal((c_out, c_in, k))
            b = rng.standard_normal(c_out)
            got = dc.conv1d(dc.constant(x), dc.parameter(w), dc.parameter(b)).value
            want = conv1d_loops(x, w, b, (k - 1) // 2)
            assert np.max(np.abs(got - want)) < 1e-6

    def test_batched_matches_per_example(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 3, 10))
        w = dc.parameter(rng.standard_normal((2, 3, 3)))
        b = dc.parameter(rng.standard_normal(2))
        batched = dc.conv1d(dc.constant(x), w, b).value
        for i in range(4):
            single = dc.conv1d(dc.constant(x[i]), w, b).value
            assert np.allclose(batched[i], single, atol=1e-12)

    def test_channel_mismatch_rejected(self):
        x = dc.constant(np.zeros((3, 8)))
        w = dc.parameter(np.zeros((2, 4, 3)))
        b = dc.parameter(np.zeros(2))
        with pytest.raises(ValueError, match="channels"):
            dc.conv1d(x, w, b)

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError, match="too few"):
            dc.conv1d(
                dc.constant(np.zeros((1, 0))),
                dc.parameter(np.zeros((1, 1, 3))),
                dc.parameter(np.zeros(1)),
            )

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            dc.conv1d(
                dc.constant(np.zeros((1, 8))),
                dc.parameter(np.zeros((1, 1, 4))),
                dc.parameter(np.zeros(1)),
            )


class TestBatchNorm:
    def test_constant_input_gives_beta(self):
        state = dc.batchnorm_state(3, dtype=np.float64)
        state.beta.value[:] = [1.0, -2.0, 0.5]
        x = dc.constant(np.full((3, 10), 7.0))
        out = dc.batchnorm1d(x, state)
        assert np.allclose(out.value, np.array([1.0, -2.0, 0.5])[:, None], atol=1e-7)

    def test_normalized_input_passes_through(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 400))
        x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
        state = dc.batchnorm_state(2, dtype=np.float64)
        out = dc.batchnorm1d(dc.constant(x), state)
        assert np.max(np.abs(out.value - x)) < 1e-4

    def test_inference_identity_statistics(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 6))
        state = dc.batchnorm_state(3, dtype=np.float64)
        state.training = False
        out = dc.batchnorm1d(dc.constant(x), state)
        assert np.allclose(out.value, x / np.sqrt(1.0 + state.eps), atol=1e-12)

    def test_training_output_statistics(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 128)) * 3.0 + 1.5
        state = dc.batchnorm_state(4, dtype=np.float64)
        out = dc.batchnorm1d(dc.constant(x), state).value
        assert np.max(np.abs(out.mean(axis=1))) < 1e-5
        assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-3

    def test_running_stats_updated(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 50)) + 5.0
        state = dc.batchnorm_state(2, dtype=np.float64)
        dc.batchnorm1d(dc.constant(x), state)
        assert np.all(state.running_mean > 0.2)

    def test_short_training_input_rejected(self):
        state = dc.batchnorm_state(2, dtype=np.float64)
        with pytest.raises(ValueError, match="2 samples"):
            dc.batchnorm1d(dc.constant(np.zeros((2, 1))), state)


class TestPrelu:
    def test_positive_branch(self):
        x = dc.constant(np.array([[5.0]]))
        out = dc.prelu(x, dc.parameter(np.array([0.9])))
        assert out.value[0, 0] == 5.0

    def test_negative_branch(self):
        x = dc.constant(np.array([[-2.0]]))
        out = dc.prelu(x, dc.parameter(np.array([0.25])))
        assert out.value[0, 0] == -0.5

    def test_unit_slope_is_identity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 20))
        out = dc.prelu(dc.constant(x), dc.parameter(np.ones(3)))
        assert np.array_equal(out.value, x)


class TestBackprop:
    def test_square_gradient(self):
        p = dc.parameter(np.array([3.0]))
        loss = dc.mse(p, np.array([0.0]))
        dc.backprop(loss)
        assert np.allclose(p.grad, [6.0])

    def test_mean_of_sum_gradient(self):
        a = dc.parameter(np.ones((2, 3)))
        b = dc.parameter(np.ones((2, 3)))
        loss = dc.scale(dc.mse(dc.add(a, b), np.zeros((2, 3))), 0.25)
        # d/da mean((a+b)^2)/4 = 2*(a+b)/numel/4 = 1/6 at a=b=1
        dc.backprop(loss)
        assert np.allclose(a.grad, 1.0 / 6.0)
        assert np.allclose(b.grad, 1.0 / 6.0)

    def test_non_scalar_loss_rejected(self):
        p = dc.parameter(np.ones(3))
        node = dc.add(p, p)
        with pytest.raises(ValueError, match="scalar"):
            dc.backprop(node)

    def test_accumulates_without_reset(self):
        p = dc.parameter(np.array([2.0]))
        dc.backprop(dc.mse(p, np.array([0.0])))
        first = p.grad.copy()
        dc.backprop(dc.mse(p, np.array([0.0])))
        assert np.allclose(p.grad, 2.0 * first)

    def test_bit_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 12))
        w = rng.standard_normal((4, 4, 3))
        target = rng.standard_normal((4, 12))

        def run():
            p = dc.parameter(w.copy())
            b = dc.parameter(np.zeros(4))
            s = dc.parameter(np.full(4, 0.25))
            out = dc.prelu(dc.conv1d(dc.constant(x), p, b), s)
            dc.backprop(dc.mse(out, target))
            return p.grad.copy(), b.grad.copy(), s.grad.copy()

        g1, g2 = run(), run()
        for a, b_ in zip(g1, g2):
            assert np.array_equal(a, b_)


class TestNoGrad:
    @staticmethod
    def small_graph(p, b, s):
        x = dc.constant(np.linspace(-1.0, 1.0, 24).reshape(2, 12))
        return dc.mse(dc.prelu(dc.conv1d(x, p, b), s), np.zeros((2, 12)))

    @staticmethod
    def params():
        w = np.random.default_rng(10).standard_normal((2, 2, 3))
        return dc.parameter(w), dc.parameter(np.zeros(2)), dc.parameter(np.full(2, 0.25))

    def reference_grads(self):
        params = self.params()
        dc.backprop(self.small_graph(*params))
        return [p.grad.copy() for p in params]

    def test_ops_keep_no_graph(self):
        p, b, s = params = self.params()
        bn = dc.batchnorm_state(2, dtype=np.float64)
        with dc.no_grad():
            conv = dc.conv1d(dc.constant(np.ones((2, 12))), p, b)
            ops = [conv, dc.batchnorm1d(conv, bn), dc.prelu(conv, s), dc.add(conv, conv),
                   dc.concat_channels(conv, conv), dc.scale(conv, 2.0)]
            ops += [dc.mse(node, np.zeros(node.shape)) for node in ops]
            ops.append(dc.add_scalars(ops[-6:]))
            dc.backprop(ops[-1])
        for node in ops:
            assert node.parents == () and node._backward is None, node.op
        assert all(q.grad is None for q in (*params, bn.gamma, bn.beta))

    def test_values_match_graph_mode(self):
        params = self.params()
        with dc.no_grad():
            inside = self.small_graph(*params).value
        assert np.array_equal(inside, self.small_graph(*params).value)

    @pytest.mark.parametrize("raises", [False, True])
    def test_graph_mode_restored_on_exit(self, raises):
        expected = self.reference_grads()
        if raises:
            with pytest.raises(RuntimeError):
                with dc.no_grad():
                    raise RuntimeError("inside")
        else:
            with dc.no_grad():
                pass
        params = self.params()
        loss = self.small_graph(*params)
        assert loss.parents and loss._backward is not None
        dc.backprop(loss)
        for p, g in zip(params, expected):
            assert np.array_equal(p.grad, g)


class TestGradCheck:
    def test_linear_layer_mse(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 9))
        target = rng.standard_normal((3, 9))
        w = dc.parameter(rng.standard_normal((3, 2, 3)) * 0.4)
        b = dc.parameter(rng.standard_normal(3) * 0.1)

        def loss_fn():
            return dc.mse(dc.conv1d(dc.constant(x), w, b), target)

        assert dc.grad_check(loss_fn, [w, b]) < 1e-6

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_conv_input_gradient(self, batch, padding):
        rng = np.random.default_rng(16)
        x = dc.parameter(rng.standard_normal(batch + (2, 9)))
        w = dc.parameter(rng.standard_normal((3, 2, 2 * padding + 1)) * 0.4)
        b = dc.parameter(rng.standard_normal(3) * 0.1)
        target = rng.standard_normal(batch + (3, 9))

        def loss_fn():
            return dc.mse(dc.conv1d(x, w, b), target)

        assert dc.grad_check(loss_fn, [x, w, b]) < 1e-6

    def test_prelu_away_from_kink(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 8))
        x = np.where(np.abs(x) < 0.1, 0.5, x)  # margin >> 10*h
        target = rng.standard_normal((3, 8))
        xs = dc.parameter(x)
        slope = dc.parameter(np.full(3, 0.25))

        def loss_fn():
            return dc.mse(dc.prelu(xs, slope), target)

        assert dc.grad_check(loss_fn, [xs, slope]) < 1e-6

    def test_batchnorm_training_gradients(self):
        rng = np.random.default_rng(12)
        x = dc.parameter(rng.standard_normal((3, 16)))
        target = rng.standard_normal((3, 16))
        state = dc.batchnorm_state(3, dtype=np.float64)

        def loss_fn():
            return dc.mse(dc.batchnorm1d(x, state), target)

        assert dc.grad_check(loss_fn, [x, state.gamma, state.beta]) < 1e-4

    def test_batchnorm_inference_gradients(self):
        rng = np.random.default_rng(13)
        x = dc.parameter(rng.standard_normal((3, 16)))
        target = rng.standard_normal((3, 16))
        state = dc.batchnorm_state(3, dtype=np.float64)
        state.running_mean[:] = rng.standard_normal(3)
        state.running_var[:] = 0.5 + rng.random(3)
        state.training = False

        def loss_fn():
            return dc.mse(dc.batchnorm1d(x, state), target)

        assert dc.grad_check(loss_fn, [x, state.gamma, state.beta]) < 1e-6

    def test_concat_gradients(self):
        rng = np.random.default_rng(14)
        a = dc.parameter(rng.standard_normal((2, 7)))
        b = dc.parameter(rng.standard_normal((3, 7)))
        target = rng.standard_normal((5, 7))

        def loss_fn():
            return dc.mse(dc.concat_channels(a, b), target)

        assert dc.grad_check(loss_fn, [a, b]) < 1e-6

    def test_zero_loss_is_zero_error(self):
        p = dc.parameter(np.ones(4))

        def loss_fn():
            return dc.scale(dc.mse(p, p.value.copy()), 0.0)

        assert dc.grad_check(loss_fn, [p]) == 0.0

    def test_nondeterministic_builder_rejected(self):
        p = dc.parameter(np.ones(2))
        rng = np.random.default_rng(15)

        def loss_fn():
            return dc.mse(p, rng.standard_normal(2))

        with pytest.raises(ValueError, match="deterministic"):
            dc.grad_check(loss_fn, [p])

    def test_bad_step_rejected(self):
        p = dc.parameter(np.ones(2))
        with pytest.raises(ValueError, match="step"):
            dc.grad_check(lambda: dc.mse(p, np.zeros(2)), [p], h=0.0)
