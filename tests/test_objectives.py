"""Costs, optimizer, example sampling, and the training loop."""

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from ccrn import corpus as cp, diffcore as dc, frontend as fe, netmodel as nm, objectives as obj
from ccrn.frontend import LogSpectrogram


def cost_loops(y, x):
    """Double-loop cost oracle over the frame matrix."""
    t, n = y.shape
    acc = 0.0
    for nn in range(n):
        inner = 0.0
        for tt in range(t):
            inner += (y[tt, nn] - x[tt, nn]) ** 2
        acc += inner / t
    return acc / n


class AdamOracle:
    """Adam, then decoupled decay of the updated weights: the trajectory reference.

    theta <- (theta - lr * m_hat / (sqrt(v_hat) + eps)) * (1 - lr * wd), the
    order ``adamw_step`` documents; wd = 0 is plain Adam.
    """

    def __init__(self, lr, beta1, beta2, eps, wd=0.0):
        self.lr, self.b1, self.b2, self.eps, self.wd = lr, beta1, beta2, eps, wd
        self.m = None
        self.v = None
        self.t = 0

    def step(self, theta, grad):
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        mhat = self.m / (1 - self.b1**self.t)
        vhat = self.v / (1 - self.b2**self.t)
        return (theta - self.lr * mhat / (np.sqrt(vhat) + self.eps)) * (1 - self.lr * self.wd)


class TestCost:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(40)
        y = rng.standard_normal((6, 512))
        assert obj.mse_cost(LogSpectrogram(y), LogSpectrogram(y.copy())) == 0.0

    def test_constant_offset(self):
        rng = np.random.default_rng(41)
        y = rng.standard_normal((5, 512))
        assert abs(obj.mse_cost(y, y + 0.7) - 0.49) < 1e-12

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            t = int(rng.integers(2, 6))
            n = int(rng.integers(2, 8))
            y = rng.standard_normal((t, n))
            x = rng.standard_normal((t, n))
            assert abs(obj.mse_cost(y, x) - cost_loops(y, x)) < 1e-9

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            y = rng.standard_normal((4, 9))
            x = rng.standard_normal((4, 9))
            assert obj.mse_cost(y, x) == obj.mse_cost(x, y)
            assert obj.mse_cost(y, x) > 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            obj.mse_cost(np.zeros((3, 4)), np.zeros((3, 5)))


class TestProgressiveCost:
    def test_alpha_zero_reduces_to_plain(self):
        rng = np.random.default_rng(44)
        y = rng.standard_normal((4, 16))
        probes = [rng.standard_normal((4, 16)) for _ in range(3)]
        report = obj.progressive_cost(y, probes, alpha=0.0)
        assert report.total == report.main == obj.mse_cost(y, probes[-1])

    def test_equal_probes_scale(self):
        rng = np.random.default_rng(45)
        y = rng.standard_normal((4, 16))
        x = rng.standard_normal((4, 16))
        report = obj.progressive_cost(y, [x.copy() for _ in range(5)], alpha=0.1)
        assert abs(report.total - 1.1 * obj.mse_cost(y, x)) < 1e-12

    def test_hand_evaluated_example(self):
        # per-block costs {4, 2, 1}: total = 1 + 0.1 * (7/3)
        y = np.zeros((1, 4))
        probes = [np.full((1, 4), 2.0), np.full((1, 4), np.sqrt(2.0)), np.full((1, 4), 1.0)]
        report = obj.progressive_cost(y, probes, alpha=0.1)
        assert abs(report.total - (1.0 + 0.1 * (7.0 / 3.0))) < 1e-12
        assert [round(c, 9) for c in report.per_block] == [4.0, 2.0, 1.0]

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError, match="block"):
            obj.progressive_cost(np.zeros((2, 2)), [], alpha=0.1)
        with pytest.raises(ValueError, match="block"):
            obj.cost_graph([], np.zeros((2, 2)), alpha=0.1)

    def test_graph_matches_report(self):
        rng = np.random.default_rng(46)
        y = rng.standard_normal((4, 10))
        probes = [dc.parameter(rng.standard_normal((4, 10))) for _ in range(3)]
        total, report = obj.cost_graph(probes, y, alpha=0.1)
        want = obj.progressive_cost(y.T, [p.value.T for p in probes], alpha=0.1)
        assert abs(float(total.value) - want.total) < 1e-12
        assert abs(report.total - want.total) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(47)
        config = nm.ModelConfig(blocks=2, channels=8, input_dim=12)
        model = nm.build_model(config, seed=1, dtype=np.float64)
        x = rng.standard_normal((12, 12))
        y = rng.standard_normal((12, 8))

        def loss_fn():
            _, probes = nm.forward_nodes(model, dc.Node(x), want_probes=True)
            total, _ = obj.cost_graph(probes, y, alpha=0.1)
            return total

        assert dc.kink_margin(loss_fn()) > 1e-3
        params = [node for _, node in nm.named_parameters(model)]
        assert dc.grad_check(loss_fn, params) < 1e-4


class TestAdamW:
    def test_zero_gradient_no_decay_keeps_parameters(self):
        p = dc.parameter(np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        cfg = obj.TrainConfig(weight_decay=0.0, lr=1e-3)
        state = obj.OptimizerState()
        obj.adamw_step([("p", p)], state, cfg)
        assert np.array_equal(p.value, [1.0, -2.0])

    def test_first_step_hand_evaluated(self):
        p = dc.parameter(np.array([1.0]))
        p.grad = np.array([0.5])
        cfg = obj.TrainConfig(lr=1e-3, weight_decay=0.0)
        obj.adamw_step([("p", p)], obj.OptimizerState(), cfg)
        # bias-corrected mhat = 0.5, sqrt(vhat) = 0.5: step ~ lr
        assert abs(p.value[0] - (1.0 - 1e-3 * 0.5 / (0.5 + 1e-8))) < 1e-12

    def test_decay_only_step(self):
        p = dc.parameter(np.array([2.0]))
        p.grad = np.zeros(1)
        cfg = obj.TrainConfig(lr=1e-3, weight_decay=0.1)
        obj.adamw_step([("p", p)], obj.OptimizerState(), cfg)
        assert abs(p.value[0] - 2.0 * (1.0 - 1e-4)) < 1e-12

    def test_missing_gradient_rejected(self):
        p = dc.parameter(np.ones(2))
        with pytest.raises(ValueError, match="no gradient"):
            obj.adamw_step([("p", p)], obj.OptimizerState(), obj.TrainConfig())

    def test_nan_gradient_rejects_whole_step(self):
        a = dc.parameter(np.ones(2))
        b = dc.parameter(np.ones(2))
        a.grad = np.ones(2)
        b.grad = np.array([np.nan, 0.0])
        state = obj.OptimizerState()
        with pytest.raises(ValueError, match="non-finite"):
            obj.adamw_step([("a", a), ("b", b)], state, obj.TrainConfig())
        assert np.array_equal(a.value, np.ones(2))
        assert state.t == 0

    def test_wd_zero_matches_adam_oracle(self):
        # and at wd > 0 the documented decay order, so reordering it must be deliberate
        rng = np.random.default_rng(48)
        for i in range(100):
            theta = rng.standard_normal(5)
            p = dc.parameter(theta.copy())
            cfg = obj.TrainConfig(lr=1e-3, weight_decay=(0.0, 0.5)[i % 2])
            state = obj.OptimizerState()
            oracle = AdamOracle(cfg.lr, cfg.beta1, cfg.beta2, cfg.epsilon, cfg.weight_decay)
            ref = theta.copy()
            for _step in range(10):
                g = rng.standard_normal(5)
                p.grad = g.copy()
                obj.adamw_step([("p", p)], state, cfg)
                ref = oracle.step(ref, g)
            assert np.max(np.abs(p.value - ref)) < 1e-9

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.3])
    def test_matches_the_out_of_place_expression_bit_for_bit(self, dtype, weight_decay):
        rng = np.random.default_rng(49)
        cfg = obj.TrainConfig(lr=1e-2, weight_decay=weight_decay)
        shapes = {"w": (6, 4, 3), "b": (6,)}
        params = [(name, dc.parameter(rng.standard_normal(shape).astype(dtype))) for name, shape in shapes.items()]
        theta = {name: p.value.copy() for name, p in params}
        m = {name: np.zeros(shape, dtype) for name, shape in shapes.items()}
        v = {name: np.zeros(shape, dtype) for name, shape in shapes.items()}
        state = obj.OptimizerState()
        for t in range(1, 4):
            for name, p in params:
                p.grad = rng.standard_normal(shapes[name]).astype(dtype)
            obj.adamw_step(params, state, cfg)
            bc1, bc2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
            for name, p in params:
                g = p.grad
                m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
                v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * g * g
                theta[name] -= cfg.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.epsilon)
                if weight_decay:
                    theta[name] -= (cfg.lr * cfg.weight_decay) * theta[name]
                assert p.value.dtype == dtype
                assert p.value.tobytes() == theta[name].tobytes()
                assert state.m[name].tobytes() == m[name].tobytes() and state.v[name].tobytes() == v[name].tobytes()


@pytest.fixture(scope="module")
def small_corpus():
    return [cp.synth_speech(1.5, seed=60 + i) for i in range(3)]


@pytest.fixture(scope="module")
def mixed_corpus(small_corpus):
    """``small_corpus`` (143 frames each) interleaved with 0.5 s utterances (43 frames)."""
    shorts = [cp.synth_speech(0.5, seed=90 + i) for i in range(4)]
    return [shorts[0], small_corpus[0], shorts[1], small_corpus[1], shorts[2], small_corpus[2], shorts[3]]


def small_train_config(**kw):
    base = dict(steps=3, seq_len=60, batch_size=2, lr=1e-3, seed=13, checkpoint_interval=0)
    base.update(kw)
    return obj.TrainConfig(**base)


class TestSampling:
    def test_deterministic(self, small_corpus):
        cfg = small_train_config()
        f1, y1 = obj.sample_example(small_corpus, cfg, 5)
        f2, y2 = obj.sample_example(small_corpus, cfg, 5)
        assert np.array_equal(f1.frames, f2.frames)
        assert np.array_equal(y1.frames, y2.frames)

    def test_segment_shapes(self, small_corpus):
        cfg = small_train_config(seq_len=50)
        feats, target = obj.sample_example(small_corpus, cfg, 2)
        assert feats.frames.shape == (50, 876)
        assert target.frames.shape == (50, 512)

    def test_default_length_segments(self):
        corpus = [cp.synth_speech(2.5, seed=77)]
        feats, target = obj.sample_example(corpus, obj.TrainConfig(), 0)
        assert feats.frames.shape == (200, 876)
        assert target.frames.shape == (200, 512)

    def test_identity_corruption_aligns_features_with_target(self, small_corpus):
        cfg = small_train_config(rt60_choices=(0.0,), snr_db=float("inf"))
        feats, target = obj.sample_example(small_corpus, cfg, 1)
        restored = feats.frames[:, :512] * feats.norm_scale[:512]
        assert np.max(np.abs(restored - target.frames)) < 1e-6

    def test_too_short_utterances_never_drawn(self, small_corpus, mixed_corpus, monkeypatch):
        cfg = small_train_config()
        trainable = obj.check_start(obj.OptimizerState(), cfg, mixed_corpus)
        assert [id(w) for w in trainable] == [id(w) for w in small_corpus]
        # given a short utterance anyway, the draw fails before it corrupts anything
        corrupted = []
        monkeypatch.setattr(cp, "corrupt", lambda *a: corrupted.append(a))
        with pytest.raises(ValueError, match="utterance 0 has 43 frames, not long enough for 60"):
            obj.sample_example(mixed_corpus[:1], cfg, 0)
        assert corrupted == []

    def test_impossible_length_rejected(self, small_corpus):
        cfg = small_train_config(seq_len=400)
        with pytest.raises(ValueError, match="long enough"):
            obj.sample_example(small_corpus, cfg, 0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            obj.sample_example([], small_train_config(), 0)

    def test_check_start_takes_the_longest_utterance(self, small_corpus):
        corpus = small_corpus + [cp.synth_speech(0.05, seed=69)]  # shorter than one 75 ms window
        longest = max(fe.assemble_features(w)[0].frames.shape[0] for w in small_corpus)
        trainable = obj.check_start(obj.OptimizerState(), small_train_config(seq_len=longest), corpus)
        # the same objects, in corpus order, without the one too short
        assert [id(w) for w in trainable] == [id(w) for w in small_corpus]
        with pytest.raises(ValueError, match=f"no utterance long enough for {longest + 1} frames"):
            obj.check_start(obj.OptimizerState(), small_train_config(seq_len=longest + 1), corpus)
        with pytest.raises(ValueError, match="empty corpus"):
            obj.check_start(obj.OptimizerState(), small_train_config(), [])

    def test_target_memo_is_bit_identical(self, small_corpus):
        cfg = small_train_config()
        memo = {}
        for _ in range(2):  # filling the memo, then reading it
            for index in range(8):
                f1, y1 = obj.sample_example(small_corpus, cfg, index)
                f2, y2 = obj.sample_example(small_corpus, cfg, index, targets=memo)
                assert np.array_equal(f1.frames, f2.frames)
                assert np.array_equal(y1.frames, y2.frames)
        assert 0 < len(memo) <= len(small_corpus)
        for pick, target in memo.items():
            assert np.array_equal(target.frames, fe.target_spectrum(small_corpus[pick]).frames)
            assert not target.frames.flags.writeable


class TestTrain:
    def test_reports_structure(self, small_corpus):
        model = nm.build_model(nm.ModelConfig(blocks=2, channels=64), seed=2)
        reports = obj.train(model, small_corpus, small_train_config())
        assert len(reports) == 3
        assert all(len(r.per_block) == 2 for r in reports)
        assert all(np.isfinite(r.total) for r in reports)

    def test_log_csv_columns(self, small_corpus, tmp_path):
        model = nm.build_model(nm.ModelConfig(blocks=2, channels=64), seed=2)
        log = tmp_path / "log.csv"
        obj.train(model, small_corpus, small_train_config(), log_path=log)
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "step,total,main,per_block_1,per_block_2"
        assert len(lines) == 4
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_alpha_zero_equals_plain_cost_trajectory(self, small_corpus):
        config = nm.ModelConfig(blocks=2, channels=64)
        cfg = small_train_config(alpha=0.0, steps=4)

        trained = nm.build_model(config, seed=3)
        obj.train(trained, small_corpus, cfg)

        manual = nm.build_model(config, seed=3)
        params = nm.named_parameters(manual)
        state = obj.OptimizerState()
        # train runs a model this small at one BLAS thread, whose sums round differently
        with obj._one_blas_thread():
            for step in range(cfg.steps):
                x_np, y_np = obj._batch(small_corpus, cfg, step, np.float32, config.channels)
                final, _ = nm.forward_nodes(manual, dc.Node(x_np), want_probes=True)
                loss = dc.mse(final, y_np)
                dc.zero_grads(node for _, node in params)
                dc.backprop(loss)
                obj.adamw_step(params, state, cfg)

        for (_, a), (_, b) in zip(nm.named_parameters(trained), params):
            assert np.array_equal(a.value, b.value)

    def test_checkpoints_bit_identical_across_runs(self, small_corpus, tmp_path):
        config = nm.ModelConfig(blocks=2, channels=64)
        blobs = []
        for run in range(2):
            model = nm.build_model(config, seed=4)
            path = tmp_path / f"run{run}.bin"
            obj.train(model, small_corpus, small_train_config(), checkpoint_path=path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_short_utterances_change_no_bit(self, small_corpus, mixed_corpus, tmp_path):
        (tmp_path / "long").mkdir()
        (tmp_path / "mixed").mkdir()
        assert train_outputs(mixed_corpus, tmp_path / "mixed") == train_outputs(small_corpus, tmp_path / "long")

    def test_resume_reproduces_trajectory(self, small_corpus, tmp_path):
        config = nm.ModelConfig(blocks=2, channels=64)
        full_cfg = small_train_config(steps=6)
        half_cfg = small_train_config(steps=3)

        log = tmp_path / "log.csv"
        straight = nm.build_model(config, seed=5)
        obj.train(straight, small_corpus, full_cfg, checkpoint_path=tmp_path / "straight.bin", log_path=log)
        straight_log = log.read_text()

        half = nm.build_model(config, seed=5)
        obj.train(half, small_corpus, half_cfg, checkpoint_path=tmp_path / "half.bin")
        resumed, extra = nm.load_checkpoint(tmp_path / "half.bin")
        state = obj.resume_state(extra, resumed)
        assert state.t == 3
        # resuming onto the straight run's log drops its rows from step 3 on
        obj.train(resumed, small_corpus, full_cfg, opt_state=state,
                  checkpoint_path=tmp_path / "resumed.bin", log_path=log)

        assert (tmp_path / "straight.bin").read_bytes() == (tmp_path / "resumed.bin").read_bytes()
        assert log.read_text() == straight_log

    def test_last_checkpoint_saved_once(self, small_corpus, tmp_path, monkeypatch):
        saved_steps = []
        save = nm.save_checkpoint

        def counting_save(path, model, extra=None):
            saved_steps.append(int(extra["train.step"][0]))
            save(path, model, extra)

        monkeypatch.setattr(nm, "save_checkpoint", counting_save)
        model = nm.build_model(nm.ModelConfig(blocks=2, channels=64), seed=2)
        cfg = small_train_config(steps=4, checkpoint_interval=2)
        obj.train(model, small_corpus, cfg, checkpoint_path=tmp_path / "ck.bin")
        assert saved_steps == [2, 4]

    def test_log_on_disk_holds_every_row_below_each_checkpoint(self, small_corpus, tmp_path, monkeypatch):
        log = tmp_path / "log.csv"
        seen = []
        save = nm.save_checkpoint

        def reading_save(path, model, extra=None):
            step = int(extra["train.step"][0])
            rows = log.read_text().splitlines()[1:]
            seen.append((step, [int(row.split(",")[0]) for row in rows]))
            save(path, model, extra)

        monkeypatch.setattr(nm, "save_checkpoint", reading_save)
        model = nm.build_model(nm.ModelConfig(blocks=2, channels=64), seed=2)
        cfg = small_train_config(steps=6, checkpoint_interval=2)
        obj.train(model, small_corpus, cfg, checkpoint_path=tmp_path / "ck.bin", log_path=log)
        assert seen == [(s, list(range(s))) for s in (2, 4, 6)]

    def test_each_clean_target_computed_once(self, small_corpus, monkeypatch):
        calls = []
        target_spectrum = fe.target_spectrum

        def counting_target(w):
            calls.append(next(i for i, u in enumerate(small_corpus) if u is w))
            return target_spectrum(w)

        monkeypatch.setattr(fe, "target_spectrum", counting_target)
        model = nm.build_model(nm.ModelConfig(blocks=2, channels=64), seed=2)
        obj.train(model, small_corpus, small_train_config(steps=4))
        assert calls and len(calls) == len(set(calls))

    def test_last_step_graph_released_before_the_next_forward_returns(self, small_corpus, monkeypatch):
        # Node has no __weakref__ slot, so the reference is to the output node's value
        forward_nodes = nm.forward_nodes
        last, alive = [], []

        def watched(*args, **kwargs):
            out, probes = forward_nodes(*args, **kwargs)
            alive.extend(ref() is not None for ref in last)
            last[:] = [weakref.ref(out.value)]
            return out, probes

        monkeypatch.setattr(obj.netmodel, "forward_nodes", watched)
        model = nm.build_model(nm.ModelConfig(blocks=2, channels=64), seed=2)
        obj.train(model, small_corpus, small_train_config(steps=3))
        assert alive == [False, False]

    @pytest.mark.parametrize("kind", [nm.KIND_CCRN, nm.KIND_CCRN_STATE])
    def test_backward_closures_store_no_second_copy_of_an_activation(self, kind):
        b, t, c = 2, 60, 64
        model = nm.build_model(nm.ModelConfig(kind=kind, blocks=2, channels=c, state_step=4), seed=2)
        rng = np.random.default_rng(17)
        x = rng.standard_normal((b, t, model.config.input_dim)).astype(np.float32)
        target = rng.standard_normal((b, t, c)).astype(np.float32)
        _, probes = nm.forward_nodes(model, dc.Node(x), want_probes=True)
        total, _ = obj.cost_graph(probes, target, alpha=0.1)

        nodes, seen, stack = [], set(), [total]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node.parents)
        held = [n.value for n in nodes] + [target]
        copies = []
        for node in nodes:
            closure = node._backward.__closure__ if node._backward else None
            for cell in closure or ():
                arr = cell.cell_contents
                if isinstance(arr, np.ndarray) and arr.size >= b * t * c // 2:
                    if not any(np.shares_memory(arr, v) for v in held):
                        copies.append(f"{node.op}: {arr.dtype}{arr.shape}")
        assert copies == []

    def test_batches_through_one_scratch_match_fresh_scratches(self, small_corpus):
        cfg = small_train_config(batch_size=3)
        scratch = fe._Scratch()
        for step in range(4):
            shared = obj._batch(small_corpus, cfg, step, np.float32, 64, scratch=scratch)
            fresh = obj._batch(small_corpus, cfg, step, np.float32, 64, scratch=fe._Scratch())
            assert all(a.tobytes() == b.tobytes() for a, b in zip(shared, fresh))

    def test_step_counters_validated_on_resume(self):
        model = nm.build_model(nm.ModelConfig(blocks=1, channels=4, input_dim=6), seed=1)
        moments = {f"opt.{k}.{name}": np.ones_like(node.value) for name, node in nm.named_parameters(model) for k in "mv"}

        def extra(t, step):
            return {**moments, "opt.t": np.array(t, dtype=np.float32), "train.step": np.array(step, dtype=np.float32)}

        state = obj.resume_state(extra([2.0**24], [2.0**24]), model)
        assert state.t == 2**24
        assert state.m["first.bias"] is moments["opt.m.first.bias"] and state.v["first.bias"] is moments["opt.v.first.bias"]
        # a run saved at step 0 (train.steps = 0) has taken no step, so it carries no moments
        fresh = obj.resume_state({"opt.t": np.zeros(1, np.float32), "train.step": np.zeros(1, np.float32)}, model)
        assert fresh.t == 0 and fresh.m == fresh.v == {}
        bad = [
            ([2.0**24 + 2], [1.0], "opt.t"),
            ([1.0, 2.0], [1.0], "opt.t"),
            ([1.0], [np.nan], "train.step"),
            ([1.0], 1.0, "train.step"),
            ([2.0**24], [0.0], "opt.t is 16777216 but train.step is 0"),
        ]
        for t, step, name in bad:
            with pytest.raises(ValueError, match=name):
                obj.resume_state(extra(t, step), model)

    @pytest.mark.parametrize("name, value", [
        ("alpha", np.nan), ("alpha", np.inf), ("lr", np.nan), ("lr", np.inf),
        ("weight_decay", np.nan), ("weight_decay", np.inf), ("weight_decay", -1.0),
    ])
    def test_non_finite_or_negative_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            obj.TrainConfig(**{name: value})

    def test_steps_capped_at_exact_float32_counters(self):
        assert obj.TrainConfig(steps=2**24).steps == 2**24
        with pytest.raises(ValueError, match="2\\*\\*24"):
            obj.TrainConfig(steps=2**24 + 1)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_aborts(self, small_corpus, tmp_path):
        model = nm.build_model(nm.ModelConfig(blocks=2, channels=64), seed=6)
        # an absurd learning rate blows the cost up within a few steps
        cfg = small_train_config(steps=40, lr=1e6, checkpoint_interval=1)
        path = tmp_path / "ck.bin"
        with pytest.raises((obj.TrainingDiverged, ValueError)):
            obj.train(model, small_corpus, cfg, checkpoint_path=path)
        assert path.exists()  # last good checkpoint retained


def blas_threads() -> int:
    api = obj._openblas_threads_api()
    if api is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read here")
    return api[0]()


class Watch:
    """Records, while ``train`` runs, which threads build examples, each example index as it starts, and the BLAS
    count of each forward pass.

    ``fail_at_batch`` makes that batch's examples raise; ``worker_sleep`` delays each example built off the
    training thread by that many seconds; ``forward_error`` is raised by the forward pass of step 2, 50 ms after it
    starts, time for the worker to run as far ahead as it may.
    """

    def __init__(self, monkeypatch, fail_at_batch=None, worker_sleep=0.0, forward_error=None):
        self.builders: set[str] = set()
        self.started: list[int] = []
        self.forward_blas: set[int] = set()
        self.forwards = 0
        self.training_thread = threading.current_thread().name
        sample_example, forward_nodes = obj.sample_example, nm.forward_nodes
        blas_count = obj._openblas_threads_api()[0]

        def watched_sample(corpus, cfg, index, **kw):
            self.started.append(index)
            self.builders.add(threading.current_thread().name)
            if worker_sleep and threading.current_thread().name != self.training_thread:
                time.sleep(worker_sleep)
            if index // cfg.batch_size == fail_at_batch:
                raise ValueError(f"no example for batch {fail_at_batch}")
            return sample_example(corpus, cfg, index, **kw)

        def watched_forward(*args, **kw):
            self.forward_blas.add(blas_count())
            self.forwards += 1
            if forward_error is not None and self.forwards == 3:
                time.sleep(0.05)
                raise forward_error("at step 2")
            return forward_nodes(*args, **kw)

        monkeypatch.setattr(obj, "sample_example", watched_sample)
        monkeypatch.setattr(nm, "forward_nodes", watched_forward)

    @property
    def prefetched(self) -> bool:
        """At least one example was built off the training thread."""
        return bool(self.builders - {self.training_thread})


def train_outputs(corpus, directory, steps=4):
    model = nm.build_model(nm.ModelConfig(blocks=2, channels=64), seed=8)
    obj.train(model, corpus, small_train_config(steps=steps, checkpoint_interval=2),
              log_path=directory / "log.csv", checkpoint_path=directory / "ck.bin")
    return (directory / "ck.bin").read_bytes(), (directory / "log.csv").read_bytes()


class TestBatchPrefetch:
    @pytest.mark.parametrize("serial_because", ["model too large", "no BLAS thread api"])
    def test_serial_run_at_one_blas_thread_gives_the_same_bytes(self, small_corpus, tmp_path, monkeypatch,
                                                                serial_because):
        blas_threads()
        (tmp_path / "prefetched").mkdir()
        (tmp_path / "serial").mkdir()
        watch = Watch(monkeypatch)
        prefetched = train_outputs(small_corpus, tmp_path / "prefetched")
        assert watch.prefetched and watch.forward_blas == {1}

        watch = Watch(monkeypatch)
        with obj._one_blas_thread():
            if serial_because == "model too large":
                monkeypatch.setattr(obj, "OVERLAP_MAX_MACS", 0)
            else:
                monkeypatch.setattr(obj, "_openblas_threads_api", lambda: None)
            serial = train_outputs(small_corpus, tmp_path / "serial")
        assert not watch.prefetched and watch.forward_blas == {1}
        assert serial == prefetched

    @pytest.mark.parametrize("blocks, channels, overlaps", [(4, 128, True), (14, 512, False)])
    def test_rule_follows_the_model_size(self, monkeypatch, blocks, channels, overlaps):
        before = blas_threads()
        model = nm.build_model(nm.ModelConfig(blocks=blocks, channels=channels), seed=1)
        corpus = [cp.synth_speech(0.5, seed=61)]
        watch = Watch(monkeypatch)
        obj.train(model, corpus, small_train_config(steps=2, seq_len=8, batch_size=1))
        assert watch.prefetched == overlaps
        assert watch.forward_blas == ({1} if overlaps else {before})

    @pytest.mark.parametrize("fails", [False, True])
    def test_blas_count_and_threads_restored(self, small_corpus, monkeypatch, fails):
        get, set_ = obj._openblas_threads_api() or pytest.skip("numpy's OpenBLAS thread count cannot be set here")
        before = get()
        set_(2)
        try:
            if get() != 2:
                pytest.skip("OpenBLAS does not run two threads here")
            threads = threading.active_count()
            watch = Watch(monkeypatch, fail_at_batch=2 if fails else None)
            model = nm.build_model(nm.ModelConfig(blocks=2, channels=64), seed=8)
            if fails:
                with pytest.raises(ValueError, match="batch 2"):
                    obj.train(model, small_corpus, small_train_config(steps=4))
            else:
                obj.train(model, small_corpus, small_train_config(steps=4))
            assert watch.prefetched and watch.forward_blas == {1}
            assert get() == 2
            assert threading.active_count() == threads
        finally:
            set_(before)

    def test_batch_error_surfaces_at_its_step(self, small_corpus, tmp_path, monkeypatch):
        blas_threads()
        (tmp_path / "two_steps").mkdir()
        two_steps = train_outputs(small_corpus, tmp_path / "two_steps", steps=2)

        watch = Watch(monkeypatch, fail_at_batch=2)
        with pytest.raises(ValueError, match="batch 2"):
            train_outputs(small_corpus, tmp_path)
        assert watch.prefetched
        # steps 0 and 1 ran and refreshed the checkpoint, as a run of two steps would
        assert (tmp_path / "ck.bin").read_bytes() == two_steps[0]
        assert (tmp_path / "log.csv").read_bytes() == two_steps[1]

    def test_slow_worker_leaves_examples_to_the_training_thread_with_the_same_bytes(self, small_corpus, tmp_path,
                                                                                   monkeypatch):
        blas_threads()
        (tmp_path / "serial").mkdir()
        (tmp_path / "slow").mkdir()
        with obj._one_blas_thread(), monkeypatch.context() as serial_patch:
            serial_patch.setattr(obj, "OVERLAP_MAX_MACS", 0)
            serial = train_outputs(small_corpus, tmp_path / "serial")

        watch = Watch(monkeypatch, worker_sleep=0.05)
        slow = train_outputs(small_corpus, tmp_path / "slow")
        assert watch.prefetched and watch.training_thread in watch.builders and watch.forward_blas == {1}
        # every example was built once
        assert sorted(watch.started) == list(range(4 * 2))
        assert slow == serial

    @pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
    def test_interrupt_or_error_at_a_step_stops_the_worker(self, small_corpus, tmp_path, monkeypatch, error):
        blas_before = blas_threads()
        (tmp_path / "two_steps").mkdir()
        two_steps = train_outputs(small_corpus, tmp_path / "two_steps", steps=2)
        threads = threading.active_count()

        watch = Watch(monkeypatch, forward_error=error)
        with pytest.raises(error, match="at step 2"):
            train_outputs(small_corpus, tmp_path, steps=8)
        started = len(watch.started)
        assert threading.active_count() == threads and blas_threads() == blas_before
        # the checkpoint saved after step 1 is the last one, intact
        assert (tmp_path / "ck.bin").read_bytes() == two_steps[0]
        assert watch.prefetched
        # while step 2 ran, no example of a batch past step 3 was started
        batch_size = 2
        assert max(watch.started) // batch_size <= 2 + 1
        time.sleep(0.2)
        assert len(watch.started) == started

    def test_at_most_two_batches_alive_at_each_forward(self, small_corpus, tmp_path, monkeypatch):
        blas_threads()
        batches, alive = [], []
        empty_batch = obj._empty_batch

        def tracked_batch(*args):
            batch = empty_batch(*args)
            batches.append(weakref.ref(batch[0]))
            return batch

        watch = Watch(monkeypatch)
        forward_nodes = nm.forward_nodes

        def forward(*args, **kw):
            time.sleep(0.05)  # time for the worker to run as far ahead as it may
            alive.append(sum(ref() is not None for ref in batches))
            return forward_nodes(*args, **kw)

        monkeypatch.setattr(obj, "_empty_batch", tracked_batch)
        monkeypatch.setattr(nm, "forward_nodes", forward)
        train_outputs(small_corpus, tmp_path, steps=6)
        assert watch.prefetched
        # the batch being trained and the one queued after it (AHEAD = 1); the last step has no next batch
        assert alive == [2] * 5 + [1]

    def test_training_thread_holds_no_scratch_while_the_network_runs(self, small_corpus, tmp_path, monkeypatch):
        blas_threads()
        made, held = [], []  # (thread, weakref) of every scratch; the training thread's alive at each forward

        class Scratch(fe._Scratch):
            def __init__(self):
                super().__init__()
                made.append((threading.current_thread().name, weakref.ref(self)))

        watch = Watch(monkeypatch, worker_sleep=0.05)
        forward_nodes = nm.forward_nodes

        def forward(*args, **kw):
            held.append(sum(name == watch.training_thread and ref() is not None for name, ref in made))
            return forward_nodes(*args, **kw)

        monkeypatch.setattr(fe, "_Scratch", Scratch)
        monkeypatch.setattr(nm, "forward_nodes", forward)
        gc.disable()  # so that a reference cycle keeping a scratch alive is not collected behind the test's back
        try:
            train_outputs(small_corpus, tmp_path)
            assert all(ref() is None for _, ref in made)  # every scratch, the worker's too, is freed on return
        finally:
            gc.enable()
        assert watch.prefetched and watch.training_thread in watch.builders
        assert any(name == watch.training_thread for name, _ in made)
        assert held == [0] * 4

    def test_failures_on_both_threads_raise_the_lower_example(self, small_corpus, tmp_path, monkeypatch):
        blas_threads()
        training_thread = threading.current_thread()
        worker_started, training_failed = threading.Event(), threading.Event()
        sample_example, forward_nodes = obj.sample_example, nm.forward_nodes

        def failing_sample(corpus, cfg, index, **kw):
            # batch 2 is examples 4 and 5: the worker fails 4 after the training thread fails 5
            if index == 4 and threading.current_thread() is not training_thread:
                worker_started.set()
                assert training_failed.wait(20)
                raise ValueError("example 4, on the worker")
            if index == 5 and threading.current_thread() is training_thread:
                training_failed.set()
                raise ValueError("example 5, on the training thread")
            return sample_example(corpus, cfg, index, **kw)

        forwards = []

        def forward(*args, **kw):
            if len(forwards) == 1:
                assert worker_started.wait(20)  # step 1 holds the training thread until the worker starts 4
            forwards.append(None)
            return forward_nodes(*args, **kw)

        monkeypatch.setattr(obj, "sample_example", failing_sample)
        monkeypatch.setattr(nm, "forward_nodes", forward)
        with pytest.raises(ValueError, match="example 4, on the worker"):
            train_outputs(small_corpus, tmp_path)
        assert training_failed.is_set() and len(forwards) == 2

    def test_each_example_built_once_under_a_short_switch_interval(self, small_corpus, tmp_path, monkeypatch):
        blas_threads()
        cfg = small_train_config(steps=12, seq_len=20, batch_size=3)

        def run(directory):
            model = nm.build_model(nm.ModelConfig(blocks=1, channels=32), seed=8)
            finished = []
            # a thread of its own, so that a lost wakeup fails the test instead of hanging it
            runner = threading.Thread(target=lambda: finished.append(
                obj.train(model, small_corpus, cfg, checkpoint_path=directory / "ck.bin")), daemon=True)
            runner.start()
            runner.join(120)
            assert not runner.is_alive() and finished
            return (directory / "ck.bin").read_bytes()

        (tmp_path / "serial").mkdir()
        (tmp_path / "shared").mkdir()
        with obj._one_blas_thread(), monkeypatch.context() as serial_patch:
            serial_patch.setattr(obj, "OVERLAP_MAX_MACS", 0)
            serial = run(tmp_path / "serial")
        watch = Watch(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            shared = run(tmp_path / "shared")
        finally:
            sys.setswitchinterval(interval)
        assert sorted(watch.started) == list(range(12 * 3))
        assert shared == serial
