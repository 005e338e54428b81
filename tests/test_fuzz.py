"""Seeded fuzzing of every reader: malformed input raises its documented error and nothing else.

Each test mutates one valid input many times with a fixed numpy seed (bit
flips, byte swaps, byte overwrites and truncations) and collects every
exception that is not the reader's documented one.
"""

import numpy as np

from ccrn import cli, corpus as cp, netmodel as nm, objectives as obj


def mutations(data: bytes, rng: np.random.Generator, trials: int, span: int | None = None):
    """``trials`` copies of ``data``, each with one bit flip, byte swap, byte overwrite or truncation.

    Flips, swaps and overwrites hit the first ``span`` bytes (all by default).
    """
    span = len(data) if span is None else span
    for trial in range(trials):
        out = bytearray(data)
        kind = trial % 4
        if kind == 0:
            out[rng.integers(span)] ^= 1 << int(rng.integers(8))
        elif kind == 1:
            a, b = rng.integers(span, size=2)
            out[a], out[b] = out[b], out[a]
        elif kind == 2:
            out[rng.integers(span)] = int(rng.integers(256))
        else:
            del out[rng.integers(len(data)):]
        yield bytes(out)


def escapes(cases, read, allowed):
    """(index, what it raised) of each case on which ``read`` raised something other than ``allowed``."""
    found = []
    for i, case in enumerate(cases):
        try:
            read(case)
        except allowed:
            pass
        except Exception as err:  # noqa: BLE001 - collecting what escapes is the point
            found.append((i, f"{type(err).__name__}: {err}"))
    return found


def test_checkpoint_bytes(tmp_path):
    config = nm.ModelConfig(kind="ccrn-state", blocks=2, channels=4, state_step=2, input_dim=6)
    model = nm.build_model(config, seed=11)
    rng = np.random.default_rng(2001)
    extra = {"opt.t": np.array([3.0], np.float32), "train.step": np.array([3.0], np.float32)}
    for name, node in nm.named_parameters(model):
        extra[f"opt.m.{name}"] = rng.standard_normal(node.value.shape).astype(np.float32)
        extra[f"opt.v.{name}"] = rng.random(node.value.shape).astype(np.float32)
    path = tmp_path / "model.bin"
    nm.save_checkpoint(path, model, extra)
    data = path.read_bytes()
    loaded, loaded_extra = nm.load_checkpoint(path)
    assert obj.resume_state(loaded_extra, loaded).t == 3

    def load_and_resume(case):
        path.write_bytes(case)
        loaded, loaded_extra = nm.load_checkpoint(path)
        obj.resume_state(loaded_extra, loaded)

    assert escapes(mutations(data, rng, 1600), load_and_resume, ValueError) == []


def test_wav_header(tmp_path):
    path = tmp_path / "x.wav"
    cp.write_wav(path, cp.synth_speech(0.05, seed=3))
    data = path.read_bytes()
    fmt_size_high_byte = bytearray(data)
    fmt_size_high_byte[19] = 0x40  # a fmt chunk that runs past the RIFF chunk
    cases = [bytes(fmt_size_high_byte), *mutations(data, np.random.default_rng(2002), 2000, span=44)]

    def read(case):
        path.write_bytes(case)
        cp.read_wav(path)

    assert escapes(cases, read, ValueError) == []


def test_manifest_bytes(tmp_path):
    path = tmp_path / "manifest.csv"
    cp.write_manifest(path, [(f"utt{i:03d}", f"clean/utt{i:03d}.wav", 1.25 * i) for i in range(4)])
    data = path.read_bytes()

    def read(case):
        path.write_bytes(case)
        cp.read_manifest(path)

    assert escapes(mutations(data, np.random.default_rng(2003), 2000), read, ValueError) == []


ODD_VALUES = [
    "", " ", "0", "-0", "-1", "1", "3", "7", "512", "2**31", "4294967296", "9" * 5000, "1e309", "1e-320",
    "-inf", "inf", "nan", "0.5", "-0.5", "1,2", ",", "0.25,", "1_0", "0x10", "٣", "abc", "ccrn-state",
    "white", "speech-shaped", "true", "=",
]


def test_config_lines():
    rng = np.random.default_rng(2004)
    keys = list(cli._CONFIG_KEYS) + ["model.width", "", "train"]
    texts = [
        "\n".join(
            f"{keys[rng.integers(len(keys))]} = {ODD_VALUES[rng.integers(len(ODD_VALUES))]}"
            for _ in range(rng.integers(1, 5))
        )
        for _ in range(3000)
    ]
    texts += ["model.blocks", "= 3", "model.blocks = 2 = 3", "# only a comment", "\0"]
    assert escapes(texts, cli.parse_config_text, cli.ConfigError) == []
