"""Command-line surface: config parsing, synth/train/enhance/evaluate flows."""

import argparse
import filecmp
from pathlib import Path

import numpy as np
import pytest

import ccrn
from ccrn import cli, corpus as cp, frontend as fe, netmodel as nm
from ccrn.cli import ConfigError, load_config, main, parse_config_text


def corrupt_dims_checkpoint(directory, dims):
    """A 1-block, 4-channel, 6-input checkpoint whose first array claims ``dims``."""
    path = directory / "corrupt.bin"
    nm.save_checkpoint(path, nm.build_model(nm.ModelConfig(blocks=1, channels=4, input_dim=6), seed=7))
    data = bytearray(path.read_bytes())
    at = data.index(b"first.weight") + len(b"first.weight")
    assert data[at] == 3  # rank
    data[at + 1:at + 13] = np.array(dims, dtype="<u4").tobytes()
    path.write_bytes(bytes(data))
    return path


class TestConfigParsing:
    def test_defaults_match_contract(self):
        config = load_config(None)
        assert config.model.blocks == 14
        assert config.model.channels == 512
        assert config.model.kernel == 3
        assert config.train.alpha == 0.1
        assert config.train.seq_len == 200
        assert config.train.snr_db == 20.0

    def test_parses_typed_values(self):
        text = """
        # training setup
        model.kind = ccrn-state
        model.blocks = 4
        train.alpha = 0.2
        corpus.rt60 = 0.25,0.5
        paths.out = /tmp/run
        """
        config = parse_config_text(text)
        assert config.model.kind == "ccrn-state"
        assert config.model.blocks == 4
        assert config.train.alpha == 0.2
        assert config.train.rt60_choices == (0.25, 0.5)
        assert config.paths["out"] == "/tmp/run"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("model.depth = 3")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("model.blocks = many")

    def test_invalid_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words")

    def test_invalid_config_value_caught(self):
        with pytest.raises(ConfigError):
            parse_config_text("model.kind = transformer")

    def test_missing_file_is_validation_error(self):
        assert main(["synth", "--config", "/nonexistent.cfg", "--out", "/tmp/x"]) == 1


class TestPublicSurface:
    """Public names, config keys and CLI flags are a contract: change them on purpose."""

    def test_names_keys_and_flags(self):
        assert ccrn.__all__ == [
            "Node", "backprop", "grad_check",
            "Waveform", "LogSpectrogram", "FeatureSequence", "PhaseSpectrogram",
            "assemble_features", "target_spectrum", "reconstruct",
            "ModelConfig", "ModelParams", "ProbeTrace", "build_model", "forward", "truncate",
            "select_depth", "save_checkpoint", "load_checkpoint",
            "TrainConfig", "OptimizerState", "CostReport", "mse_cost", "progressive_cost",
            "adamw_step", "train",
            "RirSpec", "CorruptionSpec", "synth_rir", "synth_speech", "corrupt", "read_wav", "write_wav",
            "QualityReport", "vad_mask", "lpc", "llr", "srmr",
        ]
        assert list(cli._CONFIG_KEYS) == [
            "model.kind", "model.blocks", "model.channels", "model.state_step", "model.kernel",
            "train.alpha", "train.seq_len", "train.batch_size", "train.lr", "train.weight_decay",
            "train.steps", "train.seed", "train.checkpoint_interval", "train.sum_excludes_final",
            "corpus.rt60", "corpus.drr_db", "corpus.snr_db", "corpus.noise",
            "corpus.utterances", "corpus.duration", "corpus.seed",
        ]
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: [flag for action in parser._actions for flag in action.option_strings]
            for name, parser in subparsers.choices.items()
        }
        assert flags == {
            "synth": ["-h", "--help", "--config", "--out"],
            "train": ["-h", "--help", "--config", "--out", "--corpus", "--resume"],
            "enhance": ["-h", "--help", "--checkpoint", "--in", "--out", "--blocks", "--probes"],
            "evaluate": [
                "-h", "--help", "--manifest", "--enhanced-dir", "--noisy-dir", "--report", "--check-direction",
            ],
            "gradcheck": ["-h", "--help", "--step"],
        }


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_header_only_manifest_exits_1(tmp_path, capsys, command):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("id,path,duration_s\n")
    argv = {
        "train": ["train", "--corpus", str(manifest), "--out", str(tmp_path / "run")],
        "evaluate": ["evaluate", "--manifest", str(manifest), "--enhanced-dir", str(tmp_path)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {manifest}: manifest lists no utterances\n"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    cfg = out / "synth.cfg"
    cfg.write_text(
        "corpus.utterances = 3\ncorpus.duration = 1.3\ncorpus.seed = 55\ncorpus.rt60 = 0.25,0.5\n"
    )
    assert main(["synth", "--config", str(cfg), "--out", str(out / "data")]) == 0
    return out / "data"


class TestSynth:
    def test_structure(self, synth_dir):
        assert (synth_dir / "manifest.csv").is_file()
        assert len(list((synth_dir / "clean").glob("*.wav"))) == 3
        for cond in ("rt60_0.25", "rt60_0.50"):
            assert len(list((synth_dir / "noisy" / cond).glob("*.wav"))) == 3

    def test_manifest_rows(self, synth_dir):
        rows = cp.read_manifest(synth_dir / "manifest.csv")
        assert [r[0] for r in rows] == ["utt000", "utt001", "utt002"]

    def test_byte_identical_rerun(self, synth_dir, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(
            "corpus.utterances = 3\ncorpus.duration = 1.3\ncorpus.seed = 55\ncorpus.rt60 = 0.25,0.5\n"
        )
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "again")]) == 0
        for rel in sorted(p.relative_to(synth_dir) for p in synth_dir.rglob("*.wav")):
            assert filecmp.cmp(synth_dir / rel, tmp_path / "again" / rel, shallow=False), rel

    def test_identity_condition_equals_clean(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(
            "corpus.utterances = 2\ncorpus.duration = 1.2\ncorpus.seed = 7\n"
            "corpus.rt60 = 0\ncorpus.snr_db = inf\n"
        )
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "ident")]) == 0
        for i in range(2):
            clean = (tmp_path / "ident" / "clean" / f"utt{i:03d}.wav").read_bytes()
            noisy = (tmp_path / "ident" / "noisy" / "rt60_0.00" / f"utt{i:03d}.wav").read_bytes()
            assert clean == noisy


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    cfg = out / "train.cfg"
    cfg.write_text(
        "model.blocks = 2\nmodel.channels = 128\n"
        "train.steps = 4\ntrain.seq_len = 60\ntrain.batch_size = 2\ntrain.seed = 3\n"
        "train.lr = 0.001\ntrain.checkpoint_interval = 2\n"
        "corpus.utterances = 3\ncorpus.duration = 1.2\ncorpus.seed = 9\n"
    )
    assert main(["train", "--config", str(cfg), "--out", str(out / "run")]) == 0
    return out


class TestTrain:
    def test_outputs_exist(self, trained_run):
        assert (trained_run / "run" / "checkpoint.bin").is_file()
        assert (trained_run / "run" / "train_log.csv").is_file()

    def test_log_column_count(self, trained_run):
        lines = (trained_run / "run" / "train_log.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == ["step", "total", "main", "per_block_1", "per_block_2"]
        assert len(lines) == 5

    def test_resume_matches_straight_run(self, trained_run, tmp_path):
        base = (
            "model.blocks = 2\nmodel.channels = 128\n"
            "train.seq_len = 60\ntrain.batch_size = 2\ntrain.seed = 3\n"
            "train.lr = 0.001\ntrain.checkpoint_interval = 0\n"
            "corpus.utterances = 3\ncorpus.duration = 1.2\ncorpus.seed = 9\n"
        )
        cfg6 = tmp_path / "six.cfg"
        cfg6.write_text(base + "train.steps = 6\n")
        assert main(["train", "--config", str(cfg6), "--out", str(tmp_path / "straight")]) == 0

        cfg3 = tmp_path / "three.cfg"
        cfg3.write_text(base + "train.steps = 3\n")
        assert main(["train", "--config", str(cfg3), "--out", str(tmp_path / "half")]) == 0
        assert main([
            "train", "--config", str(cfg6), "--out", str(tmp_path / "resumed"),
            "--resume", str(tmp_path / "half" / "checkpoint.bin"),
        ]) == 0

        straight = (tmp_path / "straight" / "checkpoint.bin").read_bytes()
        resumed = (tmp_path / "resumed" / "checkpoint.bin").read_bytes()
        assert straight == resumed

        straight_log = (tmp_path / "straight" / "train_log.csv").read_text().splitlines()
        resumed_log = (tmp_path / "resumed" / "train_log.csv").read_text().splitlines()
        assert resumed_log[0] == straight_log[0] == "step,total,main,per_block_1,per_block_2"
        assert [row.split(",")[0] for row in resumed_log[1:]] == ["3", "4", "5"]
        assert resumed_log[1:] == straight_log[4:]

    def test_state_model_trains(self, tmp_path):
        cfg = tmp_path / "state.cfg"
        cfg.write_text(
            "model.kind = ccrn-state\nmodel.blocks = 2\nmodel.channels = 64\n"
            "train.steps = 2\ntrain.seq_len = 60\ntrain.batch_size = 2\n"
            "corpus.utterances = 2\ncorpus.duration = 1.2\n"
        )
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        model, extra = nm.load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert model.blocks[-1].out_state is None
        assert extra["train.step"][0] == 2

    @pytest.mark.parametrize("row", ["utt000,clean/utt000.wav", "utt000,clean/utt000.wav,abc"])
    def test_bad_manifest_row_exits_1(self, trained_run, tmp_path, capsys, row):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"id,path,duration_s\n{row}\n")
        code = main([
            "train", "--config", str(trained_run / "train.cfg"), "--corpus", str(manifest),
            "--out", str(tmp_path / "run"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {manifest}:2: ") and "Traceback" not in err

    @pytest.mark.parametrize("counter", ["opt.t", "train.step"])
    @pytest.mark.parametrize("value", [np.inf, -1.0, 2.5])
    def test_corrupt_step_counter_exits_1(self, trained_run, tmp_path, capsys, counter, value):
        model, extra = nm.load_checkpoint(trained_run / "run" / "checkpoint.bin")
        extra[counter] = np.array([value], dtype=np.float32)
        corrupt = tmp_path / "corrupt.bin"
        nm.save_checkpoint(corrupt, model, extra)
        code = main([
            "train", "--config", str(trained_run / "train.cfg"), "--out", str(tmp_path / "resumed"),
            "--resume", str(corrupt),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: checkpoint {counter} is ") and "Traceback" not in err


class TestEnhance:
    def test_enhance_and_probes(self, trained_run, synth_dir, tmp_path):
        checkpoint = trained_run / "run" / "checkpoint.bin"
        in_wav = synth_dir / "noisy" / "rt60_0.25" / "utt000.wav"
        out_wav = tmp_path / "enh.wav"
        probes = tmp_path / "probes"
        assert main([
            "enhance", "--checkpoint", str(checkpoint), "--in", str(in_wav),
            "--out", str(out_wav), "--probes", str(probes),
        ]) == 0
        assert out_wav.is_file()
        assert len(list(probes.glob("*.csv"))) == 2
        assert len(list(probes.glob("*.wav"))) == 2
        spectrum = np.loadtxt(probes / "block_01.csv", delimiter=",")
        assert spectrum.shape[1] == 512

    def test_last_probe_equals_output_spectrum(self, trained_run, synth_dir, tmp_path):
        checkpoint = trained_run / "run" / "checkpoint.bin"
        model, _ = nm.load_checkpoint(checkpoint)
        in_wav = synth_dir / "noisy" / "rt60_0.25" / "utt000.wav"
        noisy = cp.read_wav(in_wav)
        enhanced_full, probes, phase = cli.enhance_waveform(model, noisy, want_probes=True)
        enhanced_trunc, _, _ = cli.enhance_waveform(model, noisy, blocks=model.config.blocks)
        assert np.array_equal(enhanced_full.samples, enhanced_trunc.samples)
        rebuilt = fe.reconstruct(probes[-1], phase, noisy.samples.size)
        assert np.array_equal(rebuilt.samples, enhanced_full.samples)
        out, trace = nm.forward(model, fe.assemble_features(noisy)[0], True)
        assert np.array_equal(trace[len(trace) - 1].frames, out.frames)

    def test_silent_input_gives_finite_audio(self, trained_run, tmp_path):
        silent = tmp_path / "silent.wav"
        cp.write_wav(silent, fe.Waveform(np.zeros(16000)))
        out_wav = tmp_path / "enh.wav"
        assert main([
            "enhance", "--checkpoint", str(trained_run / "run" / "checkpoint.bin"),
            "--in", str(silent), "--out", str(out_wav),
        ]) == 0
        assert cp.read_wav(out_wav).samples.size == 16000

    def test_truncated_checkpoint_exits_1(self, trained_run, synth_dir, tmp_path, capsys):
        cut = tmp_path / "cut.bin"
        cut.write_bytes((trained_run / "run" / "checkpoint.bin").read_bytes()[:40])
        code = main([
            "enhance", "--checkpoint", str(cut),
            "--in", str(synth_dir / "noisy" / "rt60_0.25" / "utt000.wav"), "--out", str(tmp_path / "x.wav"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and str(cut) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dims", [(4, 6, 2**30), (2**32 - 1,) * 3])
    def test_corrupt_dims_exit_1(self, synth_dir, tmp_path, capsys, dims):
        checkpoint = corrupt_dims_checkpoint(tmp_path, dims)
        code = main([
            "enhance", "--checkpoint", str(checkpoint),
            "--in", str(synth_dir / "noisy" / "rt60_0.25" / "utt000.wav"), "--out", str(tmp_path / "x.wav"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {checkpoint}: checkpoint is truncated\n"

    def test_bad_blocks_rejected(self, trained_run, synth_dir, tmp_path):
        assert main([
            "enhance", "--checkpoint", str(trained_run / "run" / "checkpoint.bin"),
            "--in", str(synth_dir / "noisy" / "rt60_0.25" / "utt000.wav"),
            "--out", str(tmp_path / "x.wav"), "--blocks", "9",
        ]) == 1


class TestEvaluate:
    def test_report_and_direction(self, synth_dir, tmp_path):
        # "enhanced" dir holds the clean files themselves: direction must pass
        enhanced = tmp_path / "enhanced"
        for cond in ("rt60_0.25", "rt60_0.50"):
            (enhanced / cond).mkdir(parents=True)
            for wav in (synth_dir / "clean").glob("*.wav"):
                (enhanced / cond / wav.name).write_bytes(wav.read_bytes())
        report = tmp_path / "report.csv"
        assert main([
            "evaluate", "--manifest", str(synth_dir / "manifest.csv"),
            "--enhanced-dir", str(enhanced), "--noisy-dir", str(synth_dir / "noisy"),
            "--report", str(report), "--check-direction",
        ]) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "id,condition,llr,srmr,n_active_frames"
        assert len(lines) == 1 + 2 * 3
        assert report.with_name("report_unprocessed.csv").is_file()

    def test_clean_vs_clean_llr_zero(self, synth_dir, tmp_path, capsys):
        enhanced = tmp_path / "self"
        (enhanced / "rt60_0.25").mkdir(parents=True)
        for wav in (synth_dir / "clean").glob("*.wav"):
            (enhanced / "rt60_0.25" / wav.name).write_bytes(wav.read_bytes())
        report = tmp_path / "self.csv"
        assert main([
            "evaluate", "--manifest", str(synth_dir / "manifest.csv"),
            "--enhanced-dir", str(enhanced), "--report", str(report),
        ]) == 0
        rows = report.read_text().strip().splitlines()[1:]
        assert all(float(row.split(",")[2]) == 0.0 for row in rows)

    def test_missing_files_listed_before_failing(self, synth_dir, tmp_path, capsys):
        empty = tmp_path / "none"
        (empty / "rt60_0.25").mkdir(parents=True)
        code = main([
            "evaluate", "--manifest", str(synth_dir / "manifest.csv"),
            "--enhanced-dir", str(empty),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("utt") == 3  # every missing file named

    def test_failed_direction_exits_nonzero(self, synth_dir, tmp_path):
        # "enhanced" dir holds the corrupted files themselves: no improvement
        assert main([
            "evaluate", "--manifest", str(synth_dir / "manifest.csv"),
            "--enhanced-dir", str(synth_dir / "noisy"), "--noisy-dir", str(synth_dir / "noisy"),
            "--report", str(tmp_path / "r.csv"), "--check-direction",
        ]) == 2


class TestGradcheckCommand:
    def test_passes_with_default_step(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "ccrn" in out and "ccrn-state" in out
