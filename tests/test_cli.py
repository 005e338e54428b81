"""Command-line surface: config parsing, synth/train/enhance/evaluate flows."""

import argparse
import ast
import dataclasses
import inspect
import filecmp
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ccrn
from ccrn import cli, corpus as cp, frontend as fe, netmodel as nm, objectives as obj
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
        """
        config = parse_config_text(text)
        assert config.model.kind == "ccrn-state"
        assert config.model.blocks == 4
        assert config.train.alpha == 0.2
        assert config.train.rt60_choices == (0.25, 0.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("model.depth = 3")
        with pytest.raises(ConfigError, match="unknown key 'paths.out'"):
            parse_config_text("paths.out = /tmp/run")
        with pytest.raises(ConfigError, match="unknown key 'train.sum_excludes_final'"):
            parse_config_text("train.sum_excludes_final = true")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("model.blocks = many")

    def test_invalid_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words")

    def test_invalid_config_value_caught(self):
        with pytest.raises(ConfigError):
            parse_config_text("model.kind = transformer")

    def test_channels_must_divide_512(self):
        with pytest.raises(ConfigError, match="divide 512"):
            parse_config_text("model.channels = 100")

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
            "train.steps", "train.seed", "train.checkpoint_interval",
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

    def test_train_parameters_and_config_fields(self):
        assert list(inspect.signature(ccrn.train).parameters) == [
            "model", "corpus", "cfg", "log_path", "checkpoint_path", "opt_state", "print_every",
        ]
        fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
                  for cls in (cli.RunConfig, ccrn.TrainConfig, ccrn.ModelConfig)}
        assert fields == {
            "RunConfig": ["model", "train", "utterances", "duration_s", "corpus_seed"],
            "TrainConfig": [
                "alpha", "seq_len", "batch_size", "lr", "weight_decay", "steps", "seed", "rt60_choices",
                "drr_choices", "snr_db", "noise_kind", "checkpoint_interval",
            ],
            "ModelConfig": ["kind", "blocks", "channels", "state_step", "kernel", "input_dim"],
        }


def _referenced_names(tree, skip=None):
    """Every name, attribute, imported name and string constant in ``tree``, except under ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # the benchmark's tracer names functions by string
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_library_code_that_only_tests_call():
    # a public function or class outside ccrn.__all__ must be used by the program,
    # the benchmark or the scripts; tests alone do not keep it alive
    root = Path(__file__).resolve().parent.parent
    modules = {path: ast.parse(path.read_text()) for path in sorted((root / "src" / "ccrn").glob("*.py"))}
    used = {path: _referenced_names(tree) for path, tree in modules.items()}
    tools = set().union(*(_referenced_names(ast.parse(path.read_text()))
                          for d in ("perfbench", "scripts") for path in (root / d).glob("*.py")))
    unused = []
    for path, tree in modules.items():
        elsewhere = tools.union(*(names for other, names in used.items() if other != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in ccrn.__all__ or node.name in elsewhere:
                continue
            if node.name not in _referenced_names(tree, skip=node):
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []


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


BAD_CORPUS_SETTINGS = [
    "corpus.rt60 = -1", "corpus.rt60 = nan", "corpus.rt60 = 0.5,11", "corpus.drr_db = 5,inf",
    "corpus.snr_db = -inf", "corpus.snr_db = nan", "corpus.duration = -1", "corpus.duration = 0",
    "corpus.duration = nan", "corpus.duration = 61", "corpus.noise = pink", "corpus.utterances = 0",
    "corpus.seed = -1",
]


class TestSynth:
    @pytest.mark.parametrize("line", BAD_CORPUS_SETTINGS)
    def test_bad_corpus_setting_exits_1_before_any_output(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"corpus.utterances = 1\n{line}\n")
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {cfg}: ") and "Traceback" not in err
        assert not (tmp_path / "data").exists()

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


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_wav_cut_mid_sample_exits_1_naming_it(synth_dir, tmp_path, capsys, command):
    shutil.copytree(synth_dir / "clean", tmp_path / "clean")
    shutil.copy(synth_dir / "manifest.csv", tmp_path)
    cut = tmp_path / "clean" / "utt001.wav"
    cut.write_bytes(cut.read_bytes()[:-1])
    argv = {
        "train": ["train", "--corpus", str(tmp_path / "manifest.csv"), "--out", str(tmp_path / "run")],
        "evaluate": [
            "evaluate", "--manifest", str(tmp_path / "manifest.csv"), "--enhanced-dir", str(synth_dir / "noisy"),
            "--report", str(tmp_path / "report.csv"),
        ],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cut}: data chunk ends mid-sample") and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_wav_chunk_past_the_riff_chunk_exits_1_naming_it(synth_dir, tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    data = bytearray((synth_dir / "clean" / "utt000.wav").read_bytes())
    data[19] = 0x40  # high byte of the fmt chunk's size
    bad.write_bytes(bytes(data))
    model = tmp_path / "model.bin"
    nm.save_checkpoint(model, nm.build_model(nm.ModelConfig(blocks=1, channels=4), seed=7))
    assert main(["enhance", "--checkpoint", str(model), "--in", str(bad), "--out", str(tmp_path / "x.wav")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: not a readable PCM WAV file (chunk size out of range)\n"
    assert not (tmp_path / "x.wav").exists()


def _child_env():
    """The environment of a ``python -m ccrn.cli`` child that imports this checkout's ccrn."""
    src = str(Path(ccrn.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


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

    def test_interrupt_exits_2_keeping_a_checkpoint_that_resumes(self, tmp_path):
        base = (
            "model.blocks = 1\nmodel.channels = 16\n"
            "train.seq_len = 20\ntrain.batch_size = 1\ntrain.seed = 5\ntrain.checkpoint_interval = 1\n"
            "corpus.utterances = 2\ncorpus.duration = 0.5\ncorpus.seed = 9\n"
        )
        endless = tmp_path / "endless.cfg"
        endless.write_text(base + "train.steps = 1000000\n")
        run = tmp_path / "run"
        child = subprocess.Popen(
            [sys.executable, "-m", "ccrn.cli", "train", "--config", str(endless), "--out", str(run)],
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 120
            while not (run / "checkpoint.bin").exists():
                assert child.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
        assert child.returncode == 2
        assert err == "error: interrupted\n"

        # the checkpoint the interrupt left resumes to the bytes of an uninterrupted run
        _, extra = nm.load_checkpoint(run / "checkpoint.bin")
        steps = int(extra["opt.t"][0]) + 2
        cfg = tmp_path / "short.cfg"
        cfg.write_text(base + f"train.steps = {steps}\n")
        resume = ["--resume", str(run / "checkpoint.bin")]
        assert main(["train", "--config", str(cfg), "--out", str(run), *resume]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "straight")]) == 0
        for name in ("checkpoint.bin", "train_log.csv"):
            assert (run / name).read_bytes() == (tmp_path / "straight" / name).read_bytes(), name
        assert sorted(p.name for p in run.iterdir()) == ["checkpoint.bin", "train_log.csv"]

    def test_bad_channels_exit_1_before_any_output(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("model.blocks = 2\nmodel.channels = 100\ntrain.steps = 2\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert "divide 512" in err and "Traceback" not in err
        assert not (tmp_path / "run" / "train_log.csv").exists()

    @pytest.mark.parametrize("line", [
        "train.lr = nan", "train.alpha = nan", "train.weight_decay = -1",
        "corpus.rt60 = -1", "corpus.drr_db = nan", "corpus.snr_db = -inf", "corpus.duration = 1e12",
        "corpus.noise = pink", "corpus.utterances = 0", "corpus.seed = -1", "train.seed = -1",
        "train.checkpoint_interval = -2",
    ])
    def test_bad_train_setting_exits_1_before_any_output(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"model.blocks = 2\nmodel.channels = 128\ntrain.steps = 2\n{line}\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_batch_error_exits_1_keeping_the_last_checkpoint(self, trained_run, tmp_path, capsys, monkeypatch):
        sample_example = obj.sample_example

        def failing(corpus, cfg, index, **kw):
            if index // cfg.batch_size == 2:
                raise ValueError("no example for batch 2")
            return sample_example(corpus, cfg, index, **kw)

        monkeypatch.setattr(obj, "sample_example", failing)
        code = main(["train", "--config", str(trained_run / "train.cfg"), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: no example for batch 2\n"
        _, extra = nm.load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert extra["train.step"][0] == 2

    def test_training_bits_do_not_depend_on_blas_thread_count(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "model.blocks = 4\nmodel.channels = 128\n"
            "train.steps = 3\ntrain.seq_len = 100\ntrain.batch_size = 4\ntrain.lr = 0.001\n"
            "corpus.utterances = 2\ncorpus.duration = 1.5\n"
        )
        src = str(Path(ccrn.__file__).resolve().parent.parent)
        checkpoints = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / f"threads{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "ccrn.cli", "train", "--config", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
            checkpoints.append((out / "checkpoint.bin").read_bytes())
        assert checkpoints[0] == checkpoints[1]

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


    def test_resume_past_the_configured_steps_exits_1_changing_nothing(self, trained_run, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        for name in ("checkpoint.bin", "train_log.csv"):
            (run / name).write_bytes((trained_run / "run" / name).read_bytes())
        cfg = tmp_path / "three.cfg"
        cfg.write_text((trained_run / "train.cfg").read_text() + "train.steps = 3\n")
        code = main(["train", "--config", str(cfg), "--out", str(run), "--resume", str(run / "checkpoint.bin")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: optimizer state is at step 4, past the configured 3 steps\n"
        for name in ("checkpoint.bin", "train_log.csv"):
            assert (run / name).read_bytes() == (trained_run / "run" / name).read_bytes()

    def test_sequence_longer_than_every_utterance_exits_1_changing_nothing(self, trained_run, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        for name in ("checkpoint.bin", "train_log.csv"):
            (run / name).write_bytes((trained_run / "run" / name).read_bytes())
        cfg = tmp_path / "long.cfg"
        # 1.2 s utterances have 113 feature frames
        cfg.write_text((trained_run / "train.cfg").read_text() + "train.seq_len = 114\n")
        for out in (run, tmp_path / "new" / "run"):
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: no utterance long enough for 114 frames\n"
        for name in ("checkpoint.bin", "train_log.csv"):
            assert (run / name).read_bytes() == (trained_run / "run" / name).read_bytes()
        assert not (tmp_path / "new").exists()

    def test_short_utterances_skipped_changing_no_bit(self, trained_run, synth_dir, tmp_path, capsys):
        # synth_dir's 1.3 s utterances have 123 frames, these 0.5 s ones 43; train.seq_len is 60
        longs = [(f"utt{i:03d}", str(synth_dir / "clean" / f"utt{i:03d}.wav"), 1.3) for i in range(3)]
        shorts = []
        for i in range(2):
            cp.write_wav(tmp_path / f"short{i}.wav", cp.synth_speech(0.5, seed=30 + i))
            shorts.append((f"short{i}", f"short{i}.wav", 0.5))
        cp.write_manifest(tmp_path / "long.csv", longs)
        cp.write_manifest(tmp_path / "mixed.csv", [shorts[0], longs[0], longs[1], shorts[1], longs[2]])
        cfg = str(trained_run / "train.cfg")
        assert main(["train", "--config", cfg, "--corpus", str(tmp_path / "long.csv"), "--out", str(tmp_path / "a")]) == 0
        assert "training on" not in capsys.readouterr().out
        assert main(["train", "--config", cfg, "--corpus", str(tmp_path / "mixed.csv"), "--out", str(tmp_path / "b")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "training on 3 of 5 utterances; 2 are shorter than train.seq_len = 60 frames"
        for name in ("checkpoint.bin", "train_log.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_disagreeing_step_counters_exit_1(self, trained_run, tmp_path, capsys):
        model, extra = nm.load_checkpoint(trained_run / "run" / "checkpoint.bin")
        extra["train.step"] = np.array([2.0], dtype=np.float32)
        corrupt = tmp_path / "corrupt.bin"
        nm.save_checkpoint(corrupt, model, extra)
        code = main([
            "train", "--config", str(trained_run / "train.cfg"), "--out", str(tmp_path / "resumed"),
            "--resume", str(corrupt),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: checkpoint opt.t is 4 but train.step is 2; they must agree\n"
        assert not (tmp_path / "resumed" / "train_log.csv").exists()

    @pytest.mark.parametrize("damage", ["dropped moments", "short moment", "stray moment"])
    def test_mismatched_optimizer_moments_exit_1_before_any_output(self, trained_run, tmp_path, capsys, damage):
        model, extra = nm.load_checkpoint(trained_run / "run" / "checkpoint.bin")  # 2 x 128, at step 4
        if damage == "dropped moments":
            del extra["opt.m.first.weight"], extra["opt.v.first.weight"]
        elif damage == "short moment":
            extra["opt.m.first.bias"] = np.zeros(3, dtype=np.float32)
        else:
            extra["opt.v.block03.slope"] = np.zeros(1, dtype=np.float32)
        message = {
            "dropped moments": "checkpoint at step 4 is missing opt.m.first.weight",
            "short moment": "checkpoint opt.m.first.bias has shape (3,), expected (128,)",
            "stray moment": "checkpoint opt.v.block03.slope belongs to no model parameter",
        }[damage]
        damaged = tmp_path / "damaged.bin"
        nm.save_checkpoint(damaged, model, extra)
        cfg = tmp_path / "six.cfg"
        cfg.write_text((trained_run / "train.cfg").read_text() + "train.steps = 6\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "resumed"), "--resume", str(damaged)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("failure, code", [
        ("missing manifest", 2), ("bad manifest row", 1), ("rejected checkpoint", 1), ("resume past the steps", 1),
    ])
    def test_rejected_input_leaves_no_out_directory(self, trained_run, tmp_path, capsys, failure, code):
        manifest = tmp_path / "manifest.csv"
        checkpoint = tmp_path / "checkpoint.bin"
        cfg = tmp_path / "train.cfg"
        if failure == "bad manifest row":
            manifest.write_text("id,path,duration_s\nutt000,clean/utt000.wav\n")
        model, extra = nm.load_checkpoint(trained_run / "run" / "checkpoint.bin")  # at step 4
        if failure == "rejected checkpoint":
            del extra["opt.t"]
        nm.save_checkpoint(checkpoint, model, extra)
        steps = "train.steps = 3\n" if failure == "resume past the steps" else ""
        cfg.write_text((trained_run / "train.cfg").read_text() + steps)
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "out" / "run")]
        argv += ["--corpus", str(manifest)] if "manifest" in failure else ["--resume", str(checkpoint)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("damage", ["blank line", "row cut short", "non-integer step"])
    def test_damaged_log_on_resume_exits_1(self, trained_run, tmp_path, capsys, damage):
        run = tmp_path / "run"
        run.mkdir()
        lines = (trained_run / "run" / "train_log.csv").read_text().splitlines()
        lines[2:3], message = {
            "blank line": (["", lines[2]], "training log row has no integer step"),
            "row cut short": ([lines[2][:lines[2].index(",", 2)]], "2 columns, expected 5"),
            "non-integer step": (["1.0" + lines[2][1:]], "training log row has no integer step"),
        }[damage]
        (run / "train_log.csv").write_text("\n".join(lines) + "\n")
        damaged = (run / "train_log.csv").read_bytes()
        code = main([
            "train", "--config", str(trained_run / "train.cfg"), "--out", str(run),
            "--resume", str(trained_run / "run" / "checkpoint.bin"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {run / 'train_log.csv'}:3: {message}\n"
        assert (run / "train_log.csv").read_bytes() == damaged
        assert not (run / "checkpoint.bin").exists()


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

    def test_bad_channels_checkpoint_exits_1(self, synth_dir, tmp_path, capsys):
        path = tmp_path / "channels.bin"
        nm.save_checkpoint(path, nm.build_model(nm.ModelConfig(blocks=1, channels=4, input_dim=6), seed=7))
        data = bytearray(path.read_bytes())
        # magic (6 bytes), kind (1), blocks (u32), then channels (u32)
        assert data[11:15] == np.array([4], dtype="<u4").tobytes()
        data[11:15] = np.array([100], dtype="<u4").tobytes()
        path.write_bytes(bytes(data))
        code = main([
            "enhance", "--checkpoint", str(path),
            "--in", str(synth_dir / "noisy" / "rt60_0.25" / "utt000.wav"), "--out", str(tmp_path / "x.wav"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: ") and "divide 512" in err
        assert not (tmp_path / "x.wav").exists()

    def test_output_in_a_missing_directory_exits_2_before_any_work(self, trained_run, synth_dir, tmp_path):
        out_wav = tmp_path / "nodir" / "x.wav"
        argv = [
            "enhance", "--checkpoint", str(trained_run / "run" / "checkpoint.bin"),
            "--in", str(synth_dir / "noisy" / "rt60_0.25" / "utt000.wav"), "--out", str(out_wav),
        ]
        # a subprocess, so that an exception raised while a half-built writer is collected reaches stderr
        result = subprocess.run(
            [sys.executable, "-m", "ccrn.cli", *argv], env=_child_env(), capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 2
        assert result.stderr == f"error: {out_wav}: directory {out_wav.parent} does not exist\n"
        assert not out_wav.parent.exists()

    def test_output_directory_checked_before_the_checkpoint_is_read(self, trained_run, synth_dir, tmp_path,
                                                                     capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(nm, "load_checkpoint", lambda *a: loads.append(a))
        assert main([
            "enhance", "--checkpoint", str(trained_run / "run" / "checkpoint.bin"),
            "--in", str(synth_dir / "noisy" / "rt60_0.25" / "utt000.wav"),
            "--out", str(tmp_path / "nodir" / "x.wav"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert loads == []

    def test_probes_naming_a_file_exits_2_before_any_work(self, trained_run, synth_dir, tmp_path, capsys,
                                                          monkeypatch):
        probes = tmp_path / "probes"
        probes.write_text("not a directory\n")
        loads = []
        monkeypatch.setattr(nm, "load_checkpoint", lambda *a: loads.append(a))
        assert main([
            "enhance", "--checkpoint", str(trained_run / "run" / "checkpoint.bin"),
            "--in", str(synth_dir / "noisy" / "rt60_0.25" / "utt000.wav"),
            "--out", str(tmp_path / "x.wav"), "--probes", str(probes),
        ]) == 2
        assert capsys.readouterr().err == f"error: {probes}: --probes names a file, not a directory\n"
        assert loads == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["probes"]

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

    def test_report_in_a_missing_directory_exits_2_before_scoring(self, synth_dir, tmp_path, capsys, monkeypatch):
        scored = []
        monkeypatch.setattr(cli.quality, "quality_report", lambda *a: scored.append(a))
        report = tmp_path / "nodir" / "r.csv"
        assert main([
            "evaluate", "--manifest", str(synth_dir / "manifest.csv"),
            "--enhanced-dir", str(synth_dir / "noisy"), "--report", str(report),
        ]) == 2
        assert capsys.readouterr().err == f"error: {report}: directory {report.parent} does not exist\n"
        assert scored == []

    @pytest.mark.parametrize("case", ["missing noisy dir", "noisy dir lacks a condition", "check direction alone"])
    def test_bad_noisy_dir_exits_1_before_scoring(self, synth_dir, tmp_path, capsys, monkeypatch, case):
        scored = []
        quality_report = cli.quality.quality_report
        monkeypatch.setattr(cli.quality, "quality_report", lambda *a: scored.append(a) or quality_report(*a))
        noisy = tmp_path / "noisy"
        argv = [
            "evaluate", "--manifest", str(synth_dir / "manifest.csv"), "--enhanced-dir", str(synth_dir / "noisy"),
            "--report", str(tmp_path / "report.csv"),
        ]
        argv += {
            "missing noisy dir": ["--noisy-dir", str(noisy)],
            "noisy dir lacks a condition": ["--noisy-dir", str(noisy), "--check-direction"],
            "check direction alone": ["--check-direction"],
        }[case]
        message = {
            "missing noisy dir": f"not a directory: {noisy}",
            "noisy dir lacks a condition": f"--check-direction: {noisy} has no condition rt60_0.50",
            "check direction alone": "--check-direction needs --noisy-dir",
        }[case]
        if case == "noisy dir lacks a condition":
            shutil.copytree(synth_dir / "noisy" / "rt60_0.25", noisy / "rt60_0.25")
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert scored == []
        assert not list(tmp_path.glob("report*.csv"))

    def test_silent_enhanced_file_exits_1_naming_it(self, synth_dir, tmp_path, capsys):
        enhanced = tmp_path / "enhanced"
        shutil.copytree(synth_dir / "clean", enhanced / "rt60_0.25")
        silent = enhanced / "rt60_0.25" / "utt001.wav"
        cp.write_wav(silent, fe.Waveform(np.zeros(cp.read_wav(silent).samples.size)))
        assert main([
            "evaluate", "--manifest", str(synth_dir / "manifest.csv"),
            "--enhanced-dir", str(enhanced), "--report", str(tmp_path / "r.csv"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {silent}: no scorable active frames\n"

    @pytest.mark.parametrize("case", [
        "silent enhanced", "short enhanced", "silent noisy", "short noisy", "silent reference", "short reference",
    ])
    def test_unscorable_file_exits_1_before_anything_is_scored(self, synth_dir, tmp_path, capsys, monkeypatch, case):
        # the last file of the last directory scored is the bad one, so a late check would score others first
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        enhanced = tmp_path / "enhanced"
        shutil.copytree(data / "clean", enhanced / "rt60_0.25")
        shutil.copytree(data / "clean", enhanced / "rt60_0.50")
        kind, role = case.split()
        where = {"enhanced": enhanced / "rt60_0.50", "noisy": data / "noisy" / "rt60_0.50", "reference": data / "clean"}
        bad = where[role] / "utt002.wav"
        samples = cp.read_wav(bad).samples
        short = 399 if role == "reference" else 7999  # under one 25 ms frame; under 0.5 s
        cp.write_wav(bad, fe.Waveform(np.zeros_like(samples) if kind == "silent" else samples[:short]))
        tested = enhanced / "rt60_0.50" / "utt002.wav" if role == "reference" else bad
        with pytest.raises(ValueError) as raised:  # the message scoring it would give
            cli.quality.quality_report(cp.read_wav(data / "clean" / "utt002.wav"), cp.read_wav(tested))
        scored = []
        monkeypatch.setattr(cli.quality, "quality_report", lambda *a: scored.append(a))
        assert main([
            "evaluate", "--manifest", str(data / "manifest.csv"), "--enhanced-dir", str(enhanced),
            "--noisy-dir", str(data / "noisy"), "--report", str(tmp_path / "r.csv"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {raised.value}\n"
        assert scored == []
        assert not list(tmp_path.glob("r*.csv"))

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

    @pytest.mark.parametrize("step", ["nan", "inf", "1e-300"])
    def test_nonsense_step_exits_1(self, capsys, step):
        assert main(["gradcheck", "--step", step]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
