"""Differentiation engine: forward semantics, oracles, gradient checks."""

import math

import numpy as np
import pytest

from ccrn import diffcore as dc


def conv1d_loops(x, w, b, padding):
    """Nested-loop cross-correlation oracle on a (T, C) or (B, T, C) input."""
    if x.ndim == 3:
        return np.stack([conv1d_loops(example, w, b, padding) for example in x])
    c_out, c_in, k = w.shape
    t, c = x.shape
    xp = np.zeros((t + 2 * padding, c))
    xp[padding:padding + t] = x
    t_out = t + 2 * padding - k + 1
    out = np.zeros((t_out, c_out))
    for o in range(c_out):
        for tt in range(t_out):
            acc = 0.0
            for i in range(c_in):
                for j in range(k):
                    acc += xp[tt + j, i] * w[o, i, j]
            out[tt, o] = acc + b[o]
    return out


def bn_state(channels):
    """Fresh float64 batch-norm state: gamma 1, beta 0, running statistics at the identity."""
    return dc.BatchNormState(
        gamma=dc.parameter(np.ones(channels)),
        beta=dc.parameter(np.zeros(channels)),
        running_mean=np.zeros(channels),
        running_var=np.ones(channels),
    )


class TestConv1d:
    def test_identity_kernel(self):
        x = dc.Node(np.array([[1.0], [2.0], [3.0], [4.0]]))
        w = dc.parameter(np.array([[[0.0, 1.0, 0.0]]]))
        b = dc.parameter(np.zeros(1))
        out = dc.conv1d(x, w, b)
        assert np.array_equal(out.value, [[1.0], [2.0], [3.0], [4.0]])

    def test_identity_kernel_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            c = int(rng.integers(1, 5))
            t = int(rng.integers(3, 17))
            x = rng.standard_normal((t, c))
            w = np.zeros((c, c, 3))
            for i in range(c):
                w[i, i, 1] = 1.0
            out = dc.conv1d(dc.Node(x), dc.parameter(w), dc.parameter(np.zeros(c)))
            assert np.array_equal(out.value, x)

    def test_zero_weight_gives_zero(self):
        rng = np.random.default_rng(1)
        x = dc.Node(rng.standard_normal((8, 3)))
        w = dc.parameter(np.zeros((2, 3, 3)))
        b = dc.parameter(np.zeros(2))
        assert np.all(dc.conv1d(x, w, b).value == 0.0)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(2)
        for i in range(150):
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            k = int(rng.choice([1, 3, 5]))
            t = int(rng.integers(1, 17))
            batch = ((), (1,), (3,))[i % 3]
            x = rng.standard_normal(batch + (t, c_in))
            w = rng.standard_normal((c_out, c_in, k))
            b = rng.standard_normal(c_out)
            got = dc.conv1d(dc.Node(x), dc.parameter(w), dc.parameter(b)).value
            want = conv1d_loops(x, w, b, (k - 1) // 2)
            assert np.max(np.abs(got - want)) < 1e-6

    def test_batched_matches_per_example(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 10, 3))
        w = dc.parameter(rng.standard_normal((2, 3, 3)))
        b = dc.parameter(rng.standard_normal(2))
        batched = dc.conv1d(dc.Node(x), w, b).value
        for i in range(4):
            single = dc.conv1d(dc.Node(x[i]), w, b).value
            assert np.allclose(batched[i], single, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("batch", [(), (2,)])
    @pytest.mark.parametrize("surplus", [-1, 0, 1])
    def test_unfold_path_boundary_matches_oracle(self, surplus, batch, k):
        # R = B*(T+2p) - 2p flat rows; R < C_out unfolds the input, R >= C_out runs one GEMM per tap
        rng = np.random.default_rng(18)
        t, c_in, p = 7, 3, (k - 1) // 2
        rows = (batch[0] if batch else 1) * (t + 2 * p) - 2 * p
        c_out = rows - surplus
        x = rng.standard_normal(batch + (t, c_in))
        w = rng.standard_normal((c_out, c_in, k))
        b = rng.standard_normal(c_out)
        got = dc.conv1d(dc.Node(x), dc.parameter(w), dc.parameter(b)).value
        assert got.shape == batch + (t, c_out)
        assert np.max(np.abs(got - conv1d_loops(x, w, b, p))) < 1e-12

    def test_unfold_path_is_deterministic(self):
        rng = np.random.default_rng(19)
        x = dc.Node(rng.standard_normal((2, 30, 24)).astype(np.float32))
        w = dc.parameter(rng.standard_normal((96, 24, 3)).astype(np.float32))
        b = dc.parameter(rng.standard_normal(96).astype(np.float32))
        first = dc.conv1d(x, w, b).value
        assert np.array_equal(first, dc.conv1d(x, w, b).value)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_backward_matches_zero_filled_sums_bit_for_bit(self, dtype, batch, k):
        rng = np.random.default_rng(20)
        t, c_in, c_out, p = 9, 4, 5, (k - 1) // 2
        x = rng.standard_normal(batch + (t, c_in)).astype(dtype)
        w = rng.standard_normal((c_out, c_in, k)).astype(dtype)
        g = rng.standard_normal(batch + (t, c_out)).astype(dtype)
        xs, ws, bs = dc.parameter(x), dc.parameter(w), dc.parameter(np.zeros(c_out, dtype))
        dc.conv1d(xs, ws, bs)._backward(g)

        # the sums over whole zero-filled buffers
        x3, g3 = (x, g) if batch else (x[None], g[None])
        b, span = len(x3), t + 2 * p
        rows = b * span - 2 * p
        flat = np.pad(x3, ((0, 0), (p, p), (0, 0))).reshape(b * span, c_in)
        gflat = np.zeros((b * span, c_out), dtype)
        gflat.reshape(b, span, c_out)[:, :t] = g3
        gflat = gflat[:rows]
        dflat = np.zeros((b * span, c_in), dtype)
        dw = np.empty_like(w)
        for j in range(k):
            dw[:, :, j] = gflat.T @ flat[j:j + rows]
            dflat[j:j + rows] += gflat @ w[:, :, j]
        dx = dflat.reshape(b, span, c_in)[:, p:p + t]
        assert xs.grad.tobytes() == (dx if batch else dx[0]).tobytes()
        assert ws.grad.tobytes() == dw.tobytes()
        assert bs.grad.tobytes() == g3.sum(axis=(0, 1)).tobytes()

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_examples_do_not_leak_into_neighbours(self, k):
        # the flat GEMM computes rows that straddle two examples; none may reach the result
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 6, 3))
        changed = x.copy()
        changed[1] = rng.standard_normal((6, 3)) * 100.0
        for c_out in (4, 40):  # 40 > every flat row count R here: the forward unfolds
            w = dc.parameter(rng.standard_normal((c_out, 3, k)))
            b = dc.parameter(rng.standard_normal(c_out))
            target = rng.standard_normal((3, 6, c_out))

            def run(x):
                xs = dc.parameter(x)
                out = dc.conv1d(xs, w, b)
                dc.backprop(dc.mse(out, target))
                return out.value, xs.grad

            out, dx = run(x)
            out_changed, dx_changed = run(changed)
            for i in (0, 2):
                assert np.array_equal(out[i], out_changed[i])
                assert np.array_equal(dx[i], dx_changed[i])
            assert not np.array_equal(out[1], out_changed[1])

    def test_channel_mismatch_rejected(self):
        x = dc.Node(np.zeros((8, 3)))
        w = dc.parameter(np.zeros((2, 4, 3)))
        b = dc.parameter(np.zeros(2))
        with pytest.raises(ValueError, match="channels"):
            dc.conv1d(x, w, b)

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError, match="too few"):
            dc.conv1d(
                dc.Node(np.zeros((0, 1))),
                dc.parameter(np.zeros((1, 1, 3))),
                dc.parameter(np.zeros(1)),
            )

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            dc.conv1d(
                dc.Node(np.zeros((8, 1))),
                dc.parameter(np.zeros((1, 1, 4))),
                dc.parameter(np.zeros(1)),
            )


class TestBatchNorm:
    def test_constant_input_gives_beta(self):
        state = bn_state(3)
        state.beta.value[:] = [1.0, -2.0, 0.5]
        x = dc.Node(np.full((10, 3), 7.0))
        out = dc.batchnorm1d(x, state)
        assert np.allclose(out.value, np.array([1.0, -2.0, 0.5]), atol=1e-7)

    def test_normalized_input_passes_through(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((400, 2))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        state = bn_state(2)
        out = dc.batchnorm1d(dc.Node(x), state)
        assert np.max(np.abs(out.value - x)) < 1e-4

    def test_inference_identity_statistics(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 3))
        state = bn_state(3)
        with dc.no_grad():
            out = dc.batchnorm1d(dc.Node(x), state)
        assert np.allclose(out.value, x / np.sqrt(1.0 + state.eps), atol=1e-12)

    def test_no_grad_uses_running_stats_and_writes_nothing(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 9, 3)) * 2.0 + 1.0
        state = bn_state(3)
        state.running_mean[:] = [0.5, -1.0, 2.0]
        state.running_var[:] = [0.25, 4.0, 1.5]
        mean, var = state.running_mean.copy(), state.running_var.copy()
        with dc.no_grad():
            out = dc.batchnorm1d(dc.Node(x), state)
        assert np.array_equal(state.running_mean, mean)
        assert np.array_equal(state.running_var, var)
        want = (x - mean) / np.sqrt(var + state.eps)
        assert np.allclose(out.value, want, atol=1e-12)

    def test_training_output_statistics(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((128, 4)) * 3.0 + 1.5
        state = bn_state(4)
        out = dc.batchnorm1d(dc.Node(x), state).value
        assert np.max(np.abs(out.mean(axis=0))) < 1e-5
        assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-3

    def test_running_stats_updated(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 2)) + 5.0
        state = bn_state(2)
        dc.batchnorm1d(dc.Node(x), state)
        assert np.all(state.running_mean > 0.2)

    def test_state_has_no_mode_field(self):
        state = bn_state(2)
        with pytest.raises(AttributeError):
            state.training = False

    def test_short_training_input_rejected(self):
        state = bn_state(2)
        with pytest.raises(ValueError, match="2 samples"):
            dc.batchnorm1d(dc.Node(np.zeros((1, 2))), state)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(40, 6), (3, 40, 6)])
    @pytest.mark.parametrize("graph", [True, False])
    def test_matches_the_textbook_formulas_bit_for_bit(self, dtype, shape, graph):
        rng = np.random.default_rng(19)
        c = shape[-1]
        x = (rng.standard_normal(shape) * 2.0 + 0.5).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        gamma, beta = rng.uniform(0.5, 1.5, c).astype(dtype), rng.standard_normal(c).astype(dtype)
        mean, var = rng.standard_normal(c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype)
        state = dc.BatchNormState(dc.parameter(gamma.copy()), dc.parameter(beta.copy()), mean.copy(), var.copy())
        xs = dc.parameter(x)
        axes, m, eps, momentum = tuple(range(len(shape) - 1)), math.prod(shape[:-1]), state.eps, state.momentum
        if not graph:
            with dc.no_grad():
                out = dc.batchnorm1d(xs, state)
            inv_std = (1.0 / np.sqrt(var + eps)).astype(dtype)
            assert out.value.tobytes() == (gamma * ((x - mean) * inv_std) + beta).tobytes()
            return

        out = dc.batchnorm1d(xs, state)
        out._backward(g)
        mu = x.mean(axis=axes)
        xhat = x - mu
        batch_var = np.mean(xhat * xhat, axis=axes)
        inv_std = 1.0 / np.sqrt(batch_var + eps)
        xhat *= inv_std
        assert out.value.tobytes() == (gamma * xhat + beta).tobytes()
        assert state.running_mean.tobytes() == (mean + momentum * (mu - mean)).tobytes()
        assert state.running_var.tobytes() == (var + momentum * (batch_var - var)).tobytes()
        dxhat = g * gamma
        s1, s2 = dxhat.sum(axis=axes), (dxhat * xhat).sum(axis=axes)
        assert xs.grad.tobytes() == ((dxhat - (s1 + xhat * s2) / m) * inv_std).tobytes()
        assert state.gamma.grad.tobytes() == (g * xhat).sum(axis=axes).tobytes()
        assert state.beta.grad.tobytes() == g.sum(axis=axes).tobytes()


class TestPrelu:
    def test_positive_branch(self):
        x = dc.Node(np.array([[5.0]]))
        out = dc.prelu(x, dc.parameter(np.array([0.9])))
        assert out.value[0, 0] == 5.0

    def test_negative_branch(self):
        x = dc.Node(np.array([[-2.0]]))
        out = dc.prelu(x, dc.parameter(np.array([0.25])))
        assert out.value[0, 0] == -0.5

    def test_unit_slope_is_identity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((20, 3))
        out = dc.prelu(dc.Node(x), dc.parameter(np.ones(3)))
        assert np.array_equal(out.value, x)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_kink_takes_negative_branch(self, zero):
        x = dc.parameter(np.array([[zero, 1.0], [-1.0, zero]]))
        slope = dc.parameter(np.array([0.25, -0.5]))
        out = dc.prelu(x, slope)
        g = np.array([[2.0, 3.0], [5.0, 7.0]])
        out._backward(g)
        assert np.array_equal(out.value, [[0.0, 1.0], [-0.25, 0.0]])
        assert np.array_equal(x.grad, [[0.25 * 2.0, 3.0], [0.25 * 5.0, -0.5 * 7.0]])
        # the zero inputs add nothing to their slope's gradient
        assert np.array_equal(slope.grad, [5.0 * -1.0, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(40, 6), (3, 40, 6)])
    def test_matches_where_formula_bit_for_bit(self, dtype, shape):
        rng = np.random.default_rng(18)
        x = rng.standard_normal(shape).astype(dtype)
        s = rng.uniform(-0.5, 1.5, shape[-1]).astype(dtype)
        g = rng.standard_normal(shape).astype(dtype)
        axes = tuple(range(len(shape) - 1))
        xs, slope = dc.parameter(x), dc.parameter(s)
        out = dc.prelu(xs, slope)
        out._backward(g)
        positive = x > 0
        assert out.value.tobytes() == np.where(positive, x, s * x).tobytes()
        assert xs.grad.tobytes() == np.where(positive, g, g * s).tobytes()
        assert slope.grad.tobytes() == np.where(positive, 0.0, g * x).sum(axis=axes).tobytes()


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
        assert np.array_equal(p.grad, 2.0 * first)

    def test_second_pass_over_one_graph_adds_one_gradient(self):
        p = dc.parameter(np.array([2.0]))
        loss = dc.mse(p, np.array([0.0]))
        dc.backprop(loss)
        assert np.array_equal(p.grad, [4.0])
        assert loss.grad is None
        dc.backprop(loss)
        assert np.array_equal(p.grad, [8.0])

    def test_bit_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((12, 4))
        w = rng.standard_normal((4, 4, 3))
        target = rng.standard_normal((12, 4))

        def run():
            p = dc.parameter(w.copy())
            b = dc.parameter(np.zeros(4))
            s = dc.parameter(np.full(4, 0.25))
            out = dc.prelu(dc.conv1d(dc.Node(x), p, b), s)
            dc.backprop(dc.mse(out, target))
            return p.grad.copy(), b.grad.copy(), s.grad.copy()

        g1, g2 = run(), run()
        for a, b_ in zip(g1, g2):
            assert np.array_equal(a, b_)

    # Graphs where one gradient reaches a node more than once. Each builder
    # returns (loss_fn, leaves); loss_fn rebuilds the graph from the leaves.
    # Values are small multiples of 1/4 and each cost averages a power of two
    # of elements, so every gradient sum is exact and two passes give exactly 2x.

    @staticmethod
    def quarters(rng, shape, nonzero=False):
        return rng.integers(1 if nonzero else 0, 5, shape) * rng.choice([-0.25, 0.25], shape)

    @classmethod
    def residual_diamond(cls, other_first):
        # add(x, f(x)) with x also feeding a PReLU, made before or after the add
        rng = np.random.default_rng(20)
        x = dc.parameter(cls.quarters(rng, (2, 4, 4), nonzero=True))  # clear of the PReLU kink
        w = dc.parameter(cls.quarters(rng, (4, 4, 3)))
        b = dc.parameter(cls.quarters(rng, 4))
        s = dc.parameter(np.full(4, 0.25))
        t1, t2 = cls.quarters(rng, (2, 2, 4, 4))

        def loss_fn():
            fx = dc.conv1d(x, w, b)
            if other_first:
                other = dc.prelu(x, s)
                res = dc.add(x, fx)
            else:
                res = dc.add(x, fx)
                other = dc.prelu(x, s)
            return dc.add_scalars([dc.mse(res, t1), dc.mse(other, t2)])

        return loss_fn, [x, w, b, s]

    @classmethod
    def add_self(cls):
        rng = np.random.default_rng(21)
        p = dc.parameter(cls.quarters(rng, (4, 2)))
        target = cls.quarters(rng, (4, 2))
        return lambda: dc.mse(dc.add(p, p), target), [p]

    @classmethod
    def concat_then_reuse(cls, reuse_first):
        # concat_channels(a, b) with a also feeding a convolution, made before or after the concat
        rng = np.random.default_rng(22)
        a = dc.parameter(cls.quarters(rng, (2, 4, 2)))
        b = dc.parameter(cls.quarters(rng, (2, 4, 2)))
        w = dc.parameter(cls.quarters(rng, (2, 2, 3)))
        bias = dc.parameter(cls.quarters(rng, 2))
        t1, t2 = cls.quarters(rng, (2, 4, 4)), cls.quarters(rng, (2, 4, 2))

        def loss_fn():
            if reuse_first:
                reuse = dc.conv1d(a, w, bias)
                cat = dc.concat_channels(a, b)
            else:
                cat = dc.concat_channels(a, b)
                reuse = dc.conv1d(a, w, bias)
            return dc.add_scalars([dc.mse(cat, t1), dc.mse(reuse, t2)])

        return loss_fn, [a, b, w, bias]

    @classmethod
    def add_scalars_twice(cls):
        rng = np.random.default_rng(23)
        p = dc.parameter(cls.quarters(rng, (4, 4)))
        target = cls.quarters(rng, (4, 4))

        def loss_fn():
            # c twice in one sum, and once more beside it, as the progressive cost has it
            c = dc.mse(p, target)
            return dc.add_scalars([dc.add_scalars([c, c]), c])

        return loss_fn, [p]

    @pytest.mark.parametrize(
        "builder, args",
        [
            pytest.param("residual_diamond", (True,), id="diamond, other op first"),
            pytest.param("residual_diamond", (False,), id="diamond, other op last"),
            pytest.param("add_self", (), id="add(p, p)"),
            pytest.param("concat_then_reuse", (True,), id="concat, reuse first"),
            pytest.param("concat_then_reuse", (False,), id="concat, reuse last"),
            pytest.param("add_scalars_twice", (), id="add_scalars([c, c])"),
        ],
    )
    def test_shared_gradient_owned_once(self, builder, args):
        loss_fn, leaves = getattr(self, builder)(*args)
        assert dc.grad_check(loss_fn, leaves) < 1e-6

        dc.zero_grads(leaves)
        dc.backprop(loss_fn())
        first = [p.grad.copy() for p in leaves]
        for i, p in enumerate(leaves):
            assert p.grad.flags.c_contiguous
            for q in leaves[i + 1:]:
                assert not np.shares_memory(p.grad, q.grad)
        dc.backprop(loss_fn())
        for p, g in zip(leaves, first):
            assert np.array_equal(p.grad, 2.0 * g)

    def test_first_gradient_is_adopted_and_later_ones_added(self):
        p = dc.parameter(np.zeros((2, 3)))
        g = np.ones((2, 3))
        dc._accumulate(p, g)
        assert p.grad is g
        dc._accumulate(p, np.full((2, 3), 2.0))
        assert np.array_equal(p.grad, np.full((2, 3), 3.0))
        const = dc.Node(np.zeros(3))
        dc._accumulate(const, np.ones(3))
        assert const.grad is None

    @pytest.mark.parametrize("filled", [False, True])
    @pytest.mark.parametrize(
        "g", [np.ones((3, 2)), np.ones(3), np.ones((1, 3)), np.ones((2, 3), dtype=np.float32)],
        ids=["transposed", "broadcast row", "broadcast (1, 3)", "float32"],
    )
    def test_mismatched_gradient_rejected(self, g, filled):
        p = dc.parameter(np.zeros((2, 3)))
        if filled:
            dc._accumulate(p, np.ones((2, 3)))
        with pytest.raises(ValueError, match="does not match"):
            dc._accumulate(p, g)
        assert np.array_equal(p.grad, np.ones((2, 3))) if filled else p.grad is None


class TestNoGrad:
    @staticmethod
    def small_graph(p, b, s):
        x = dc.Node(np.linspace(-1.0, 1.0, 24).reshape(12, 2))
        return dc.mse(dc.prelu(dc.conv1d(x, p, b), s), np.zeros((12, 2)))

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
        bn = bn_state(2)
        with dc.no_grad():
            conv = dc.conv1d(dc.Node(np.ones((12, 2))), p, b)
            ops = [conv, dc.batchnorm1d(conv, bn), dc.prelu(conv, s), dc.add(conv, conv),
                   dc.concat_channels(conv, conv), dc.scale(conv, 2.0)]
            ops += [dc.mse(node, np.zeros(node.value.shape)) for node in ops]
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
        x = rng.standard_normal((9, 2))
        target = rng.standard_normal((9, 3))
        w = dc.parameter(rng.standard_normal((3, 2, 3)) * 0.4)
        b = dc.parameter(rng.standard_normal(3) * 0.1)

        def loss_fn():
            return dc.mse(dc.conv1d(dc.Node(x), w, b), target)

        assert dc.grad_check(loss_fn, [w, b]) < 1e-6

    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_conv_input_gradient(self, batch, padding):
        rng = np.random.default_rng(16)
        x = dc.parameter(rng.standard_normal(batch + (9, 2)))
        w = dc.parameter(rng.standard_normal((3, 2, 2 * padding + 1)) * 0.4)
        b = dc.parameter(rng.standard_normal(3) * 0.1)
        target = rng.standard_normal(batch + (9, 3))

        def loss_fn():
            return dc.mse(dc.conv1d(x, w, b), target)

        assert dc.grad_check(loss_fn, [x, w, b]) < 1e-6

    def test_conv_gradients_where_the_forward_unfolds(self):
        rng = np.random.default_rng(20)
        x = dc.parameter(rng.standard_normal((2, 5, 3)))  # R = 2*7 - 2 = 12 flat rows < 16 output channels
        w = dc.parameter(rng.standard_normal((16, 3, 3)) * 0.4)
        b = dc.parameter(rng.standard_normal(16) * 0.1)
        target = rng.standard_normal((2, 5, 16))

        def loss_fn():
            return dc.mse(dc.conv1d(x, w, b), target)

        assert dc.grad_check(loss_fn, [x, w, b]) < 1e-6

    def test_prelu_away_from_kink(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 3))
        x = np.where(np.abs(x) < 0.1, 0.5, x)  # margin >> 10*h
        target = rng.standard_normal((8, 3))
        xs = dc.parameter(x)
        slope = dc.parameter(np.full(3, 0.25))

        def loss_fn():
            return dc.mse(dc.prelu(xs, slope), target)

        assert dc.grad_check(loss_fn, [xs, slope]) < 1e-6

    def test_batchnorm_training_gradients(self):
        rng = np.random.default_rng(12)
        x = dc.parameter(rng.standard_normal((16, 3)))
        target = rng.standard_normal((16, 3))
        state = bn_state(3)

        def loss_fn():
            return dc.mse(dc.batchnorm1d(x, state), target)

        assert dc.grad_check(loss_fn, [x, state.gamma, state.beta]) < 1e-4

    def test_concat_gradients(self):
        rng = np.random.default_rng(14)
        a = dc.parameter(rng.standard_normal((7, 2)))
        b = dc.parameter(rng.standard_normal((7, 3)))
        target = rng.standard_normal((7, 5))

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

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, h):
        p = dc.parameter(np.ones(2))
        with pytest.raises(ValueError, match="step"):
            dc.grad_check(lambda: dc.mse(p, np.zeros(2)), [p], h=h)

    def test_step_that_compares_nothing_rejected(self):
        # eps*|f|/h covers every element, so no non-zero gradient would be compared
        p = dc.parameter(np.ones(2))
        with pytest.raises(ValueError, match="step size 1e-300 is too small"):
            dc.grad_check(lambda: dc.mse(p, np.zeros(2)), [p], h=1e-300)

    @pytest.mark.parametrize("broken", ["analytic", "numeric"])
    def test_non_finite_gradient_scores_inf(self, broken):
        p = dc.parameter(np.ones(3))

        def loss_fn():
            # analytic: the backward hands p NaNs; numeric: the loss is NaN below p = 1
            value = np.nan if broken == "numeric" and p.value.min() < 1.0 else p.value.sum()

            def backward(g):
                dc._accumulate(p, np.full(3, np.nan if broken == "analytic" else 1.0))

            return dc.Node(np.asarray(value), parents=(p,), backward=backward, op="sum")

        assert dc.grad_check(loss_fn, [p]) == math.inf
