"""Architectures: structure, probes, truncation, checkpoint format."""

import numpy as np
import pytest

from ccrn import diffcore as dc, netmodel as nm
from ccrn.frontend import FeatureSequence


def tiny_config(kind="ccrn", blocks=3):
    return nm.ModelConfig(kind=kind, blocks=blocks, channels=8, state_step=4, input_dim=10)


def tiny_features(rng, frames=20):
    return FeatureSequence(rng.standard_normal((frames, 876)), np.ones(876))


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = nm.ModelConfig()
        assert (cfg.kind, cfg.blocks, cfg.channels, cfg.state_step, cfg.kernel, cfg.input_dim) == (
            "ccrn", 14, 512, 32, 3, 876,
        )

    def test_state_widths(self):
        cfg = nm.ModelConfig(kind="ccrn-state")
        assert [cfg.state_width(l) for l in (0, 1, 2, 14)] == [0, 32, 64, 448]

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            nm.ModelConfig(kind="resnet")

    def test_bad_state_step_rejected(self):
        with pytest.raises(ValueError, match="state_step"):
            nm.ModelConfig(kind="ccrn-state", state_step=0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            nm.ModelConfig(kernel=4)

    @pytest.mark.parametrize("channels", [100, 768])
    def test_channels_must_divide_512(self, channels):
        with pytest.raises(ValueError, match="divide 512"):
            nm.ModelConfig(channels=channels)


class TestBuild:
    def test_parameter_count_closed_form(self):
        model = nm.build_model(nm.ModelConfig(), seed=0)
        expected = 876 * 512 * 3 + 512 + 14 * 2 * (512 * 512 * 3 + 512 + 2 * 512 + 512)
        assert sum(node.value.size for _, node in nm.named_parameters(model)) == expected

    def test_state_block1_has_no_state_input(self):
        model = nm.build_model(nm.ModelConfig(kind="ccrn-state", blocks=2), seed=0)
        # stage-1 conv of block 1 consumes only the residual width
        assert model.blocks[0].stage1.conv.weight.value.shape == (32, 512, 3)
        assert model.blocks[1].stage1.conv.weight.value.shape == (64, 512 + 32, 3)

    def test_state_channel_progression(self):
        model = nm.build_model(nm.ModelConfig(kind="ccrn-state", blocks=14), seed=0)
        for l, block in enumerate(model.blocks, start=1):
            assert block.stage1.conv.weight.value.shape[0] == 32 * l
            assert block.out_res.weight.value.shape == (512, 32 * l, 3)
            if l < 14:
                assert block.out_state.weight.value.shape == (32 * l, 32 * l, 3)
        # nothing reads the last block's state, so it has no state output
        assert model.blocks[-1].out_state is None

    def test_same_seed_bit_identical(self):
        a = nm.build_model(tiny_config(), seed=9)
        b = nm.build_model(tiny_config(), seed=9)
        for (na, pa), (nb, pb) in zip(nm.named_parameters(a), nm.named_parameters(b)):
            assert na == nb
            assert np.array_equal(pa.value, pb.value)

    def test_different_seed_differs(self):
        a = nm.build_model(tiny_config(), seed=9)
        b = nm.build_model(tiny_config(), seed=10)
        assert not np.array_equal(a.first_layer.weight.value, b.first_layer.weight.value)


class TestForward:
    @pytest.mark.parametrize("kind", ["ccrn", "ccrn-state"])
    def test_shapes_and_probe_count(self, kind):
        rng = np.random.default_rng(30)
        model = nm.build_model(tiny_config(kind), seed=1, dtype=np.float64)
        x = dc.Node(rng.standard_normal((17, 10)))
        out, probes = nm.forward_nodes(model, x, want_probes=True)
        assert out.value.shape == (17, 8)
        assert len(probes) == 3
        assert all(p.value.shape == (17, 8) for p in probes)

    def test_both_kinds_same_output_shape(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((12, 10))
        shapes = []
        for kind in ("ccrn", "ccrn-state"):
            model = nm.build_model(tiny_config(kind), seed=1, dtype=np.float64)
            out, _ = nm.forward_nodes(model, dc.Node(x), want_probes=False)
            shapes.append(out.value.shape)
        assert shapes[0] == shapes[1]

    def test_last_probe_is_output(self):
        rng = np.random.default_rng(32)
        model = nm.build_model(tiny_config(), seed=1, dtype=np.float64)
        out, probes = nm.forward_nodes(model, dc.Node(rng.standard_normal((9, 10))), want_probes=True)
        assert probes[-1] is out

    @pytest.mark.parametrize("kind", ["ccrn", "ccrn-state"])
    def test_zeroed_block_is_identity(self, kind):
        rng = np.random.default_rng(33)
        model = nm.build_model(tiny_config(kind), seed=1, dtype=np.float64)
        block = model.blocks[1]
        for conv in (block.stage1.conv, block.stage2.conv, block.out_res, block.out_state):
            if conv is not None:
                conv.weight.value[...] = 0.0
                conv.bias.value[...] = 0.0
        _, probes = nm.forward_nodes(model, dc.Node(rng.standard_normal((9, 10))), want_probes=True)
        assert np.array_equal(probes[1].value, probes[0].value)

    def test_width_mismatch_rejected(self):
        model = nm.build_model(tiny_config(), seed=1)
        with pytest.raises(ValueError, match="feature"):
            nm.forward_nodes(model, dc.Node(np.zeros((9, 11))))

    def test_block_matches_manual_composition(self):
        rng = np.random.default_rng(34)
        model = nm.build_model(tiny_config("ccrn", blocks=1), seed=2, dtype=np.float64)
        block = model.blocks[0]
        x = rng.standard_normal((11, 8))
        got, _ = nm.block_forward(block, dc.Node(x))

        def stage(params, value):
            h = dc.batchnorm1d(dc.Node(value), params.bn)
            h = dc.prelu(h, params.slope)
            return dc.conv1d(h, params.conv.weight, params.conv.bias).value

        # manual two-stage composition oracle from the primitives
        want = x + stage(block.stage2, stage(block.stage1, x))
        assert np.max(np.abs(got.value - want)) < 1e-9

    def test_public_forward_returns_full_spectra(self):
        rng = np.random.default_rng(35)
        model = nm.build_model(nm.ModelConfig(blocks=2, channels=128), seed=1)
        feats = tiny_features(rng)
        out, trace = nm.forward(model, feats, want_probes=True)
        assert out.frames.shape == (20, 512)
        assert len(trace) == 2
        # folded-domain output expands by bin groups of 4
        assert np.array_equal(out.frames[:, 0], out.frames[:, 3])

    def test_public_forward_builds_no_graph(self, monkeypatch):
        rng = np.random.default_rng(39)
        model = nm.build_model(nm.ModelConfig(blocks=3, channels=128), seed=1)
        feats = tiny_features(rng)
        built = []
        forward_nodes = nm.forward_nodes

        def recording(*args, **kwargs):
            final, probes = forward_nodes(*args, **kwargs)
            built.extend([final, *probes])
            return final, probes

        monkeypatch.setattr(nm, "forward_nodes", recording)
        out, trace = nm.forward(model, feats, want_probes=True)
        monkeypatch.undo()
        assert built and all(n.parents == () and n._backward is None for n in built)
        assert np.array_equal(out.frames, nm.forward(model, feats)[0].frames)
        for depth in (1, 2, 3):
            truncated, _ = nm.forward(nm.truncate(model, depth), feats)
            assert np.array_equal(truncated.frames, trace[depth - 1].frames)

    @pytest.mark.parametrize("kind", ["ccrn", "ccrn-state"])
    def test_public_forward_changes_no_array(self, kind):
        rng = np.random.default_rng(40)
        model = nm.build_model(nm.ModelConfig(kind=kind, blocks=2, channels=64, state_step=4), seed=1)
        before = [(name, arr.copy()) for name, arr in nm.named_arrays(model)]
        nm.forward(model, tiny_features(rng), want_probes=True)
        for (name, saved), (_, arr) in zip(before, nm.named_arrays(model)):
            assert np.array_equal(arr, saved), name

    @pytest.mark.parametrize("kind", ["ccrn", "ccrn-state"])
    def test_public_forward_equals_checkpoint_copy(self, tmp_path, kind):
        rng = np.random.default_rng(41)
        model = nm.build_model(nm.ModelConfig(kind=kind, blocks=2, channels=64, state_step=4), seed=1)
        feats = tiny_features(rng)
        path = tmp_path / "model.bin"
        nm.save_checkpoint(path, model)
        loaded, _ = nm.load_checkpoint(path)
        out, trace = nm.forward(model, feats, want_probes=True)
        loaded_out, loaded_trace = nm.forward(loaded, feats, want_probes=True)
        assert np.array_equal(out.frames, loaded_out.frames)
        for probe, loaded_probe in zip(trace.outputs, loaded_trace.outputs):
            assert np.array_equal(probe.frames, loaded_probe.frames)


class TestTruncate:
    @pytest.mark.parametrize("kind", ["ccrn", "ccrn-state"])
    def test_prefix_property(self, kind):
        rng = np.random.default_rng(36)
        model = nm.build_model(tiny_config(kind, blocks=4), seed=5, dtype=np.float64)
        x = rng.standard_normal((13, 10))
        with dc.no_grad():
            _, probes = nm.forward_nodes(model, dc.Node(x), want_probes=True)
            for depth in (1, 2, 3, 4):
                out, _ = nm.forward_nodes(nm.truncate(model, depth), dc.Node(x))
                assert np.array_equal(out.value, probes[depth - 1].value)

    def test_full_depth_is_noop(self):
        rng = np.random.default_rng(37)
        model = nm.build_model(tiny_config(), seed=5, dtype=np.float64)
        x = rng.standard_normal((13, 10))
        with dc.no_grad():
            full, _ = nm.forward_nodes(model, dc.Node(x))
            trunc, _ = nm.forward_nodes(nm.truncate(model, 3), dc.Node(x))
        assert np.array_equal(full.value, trunc.value)

    def test_state_view_drops_last_state_output(self):
        model = nm.build_model(tiny_config("ccrn-state", blocks=3), seed=5)
        view = nm.truncate(model, 2)
        assert view.blocks[-1].out_state is None
        assert [name for name, _ in nm.named_parameters(view) if "out_state" in name] == [
            "block01.out_state.weight", "block01.out_state.bias",
        ]
        # the view shares parameters and leaves the full model as it was
        assert view.blocks[-1].out_res is model.blocks[1].out_res
        assert model.blocks[1].out_state is not None

    def test_out_of_range_rejected(self):
        model = nm.build_model(tiny_config(), seed=5)
        for bad in (0, 4):
            with pytest.raises(ValueError, match="depth"):
                nm.truncate(model, bad)


class TestSelectDepth:
    def test_selects_last_significant_block(self):
        # block 2 improves 50%, block 3 improves 0.5%: select 2
        assert nm.select_depth([4.0, 2.0, 1.99]) == 2

    def test_all_insignificant_selects_one(self):
        assert nm.select_depth([1.0, 0.999, 0.9985]) == 1

    def test_full_depth_when_all_improve(self):
        assert nm.select_depth([8.0, 4.0, 2.0, 1.0]) == 4

    def test_recomputable_from_logged_costs(self):
        costs = [5.0, 3.0, 2.9, 1.5, 1.499]
        assert nm.select_depth(costs) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            nm.select_depth([])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(38)
        model = nm.build_model(tiny_config("ccrn-state"), seed=7)
        # dirty the running stats so they are exercised too
        model.blocks[0].stage1.bn.running_mean[:] = rng.standard_normal(8).astype(np.float32)
        path = tmp_path / "model.bin"
        nm.save_checkpoint(path, model, extra={"opt.t": np.array([3.0], dtype=np.float32)})
        loaded, extra = nm.load_checkpoint(path)
        assert loaded.config == model.config
        for (name, a), (_, b) in zip(nm.named_arrays(model), nm.named_arrays(loaded)):
            assert np.array_equal(a, b), name
        assert extra["opt.t"][0] == 3.0

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTCCRN" + b"\0" * 40)
        with pytest.raises(ValueError, match="CCRN01"):
            nm.load_checkpoint(path)

    def test_every_truncation_rejected(self, tmp_path):
        model = nm.build_model(nm.ModelConfig(blocks=1, channels=4, input_dim=6), seed=7)
        full = tmp_path / "full.bin"
        nm.save_checkpoint(full, model)
        data = full.read_bytes()
        for size in range(len(data)):
            # a new file per cut: rewriting one file in place can cost a flush each time
            path = tmp_path / f"cut{size}.bin"
            path.write_bytes(data[:size])
            with pytest.raises(ValueError, match=path.name):
                nm.load_checkpoint(path)

    def test_corrupt_array_count_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        nm.save_checkpoint(path, nm.build_model(tiny_config(), seed=7))
        data = bytearray(path.read_bytes())
        data[27:31] = (2**32 - 1).to_bytes(4, "little")  # after magic, kind byte and five u32
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="truncated"):
            nm.load_checkpoint(path)

    def test_loaded_arrays_are_aligned_and_disjoint(self, tmp_path):
        path = tmp_path / "model.bin"
        nm.save_checkpoint(path, nm.build_model(tiny_config("ccrn-state"), seed=7))
        arrays = [arr for _, arr in nm.named_arrays(nm.load_checkpoint(path)[0])]
        assert all(arr.ctypes.data % 64 == 0 for arr in arrays)
        spans = sorted((arr.ctypes.data, arr.ctypes.data + arr.nbytes) for arr in arrays)
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))

    @pytest.mark.parametrize("kind", ["ccrn", "ccrn-state"])
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch, kind):
        model = nm.build_model(tiny_config(kind), seed=8)
        path = tmp_path / "model.bin"
        nm.save_checkpoint(path, model)

        def forbidden(*args, **kwargs):
            raise AssertionError("load_checkpoint must not initialize a model")

        monkeypatch.setattr(nm.np.random, "default_rng", forbidden)
        monkeypatch.setattr(nm, "build_model", forbidden)
        loaded, _ = nm.load_checkpoint(path)
        for (name, saved), (_, arr) in zip(nm.named_arrays(model), nm.named_arrays(loaded)):
            assert arr.dtype == np.float32 and arr.flags.writeable and arr.flags.c_contiguous, name
            assert np.array_equal(arr, saved), name

    @pytest.mark.parametrize("attr", ["running_mean", "running_var"])
    def test_bn_buffer_shape_checked(self, tmp_path, attr):
        model = nm.build_model(tiny_config(), seed=7)
        # a (1,) statistic would broadcast over every channel if written in place
        setattr(model.blocks[1].stage2.bn, attr, np.ones(1, dtype=np.float32))
        path = tmp_path / "model.bin"
        nm.save_checkpoint(path, model)
        with pytest.raises(ValueError, match=rf"model.bin.*block02\.stage2\.bn\.{attr}.*\(1,\)"):
            nm.load_checkpoint(path)

    def test_layout_starts_with_magic(self, tmp_path):
        model = nm.build_model(tiny_config(), seed=7)
        path = tmp_path / "model.bin"
        nm.save_checkpoint(path, model)
        assert path.read_bytes()[:6] == b"CCRN01"

    def test_save_deterministic(self, tmp_path):
        model = nm.build_model(tiny_config(), seed=7)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        nm.save_checkpoint(p1, model)
        nm.save_checkpoint(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()])
    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "model.bin"
        nm.save_checkpoint(path, nm.build_model(tiny_config(), seed=7))
        before = path.read_bytes()
        writes = []
        real_write = nm._write_array

        def fail_midway(fh, name, arr):
            writes.append(name)
            if len(writes) == 5:
                raise failure
            real_write(fh, name, arr)

        monkeypatch.setattr(nm, "_write_array", fail_midway)
        with pytest.raises(type(failure)):
            nm.save_checkpoint(path, nm.build_model(tiny_config(), seed=8))
        assert len(writes) == 5
        assert path.read_bytes() == before
        nm.load_checkpoint(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]

    def test_header_cut_with_a_bad_kind_byte_reads_as_truncated(self, tmp_path):
        # the header is read whole before the kind byte is checked
        path = tmp_path / "cut.bin"
        path.write_bytes(b"CCRN01\x07" + b"\0" * 8)
        with pytest.raises(ValueError, match="cut.bin: checkpoint is truncated"):
            nm.load_checkpoint(path)
        path.write_bytes(b"CCRN01\x07" + b"\0" * 24)
        with pytest.raises(ValueError, match="cut.bin: unknown model kind code 7"):
            nm.load_checkpoint(path)
