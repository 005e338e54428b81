"""The helper scripts under scripts/."""

import importlib.util
from pathlib import Path

import numpy as np

from ccrn import corpus as cp, frontend as fe, netmodel as nm


def load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_reports_each_kind_of_difference(tmp_path, capsys):
    compare = load_script("compare_outputs")
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    model = nm.build_model(nm.ModelConfig(blocks=1, channels=4, input_dim=6), seed=7)
    nm.save_checkpoint(a / "m.bin", model, extra={"opt.m.first.bias": np.zeros(4, np.float32)})
    model.first_layer.bias.value[:] = [0.0, 0.5, 0.0, 0.0]
    nm.save_checkpoint(b / "m.bin", model, extra={"opt.m.first.bias": np.array([0, 0, 0.25, 0], np.float32)})
    samples = np.zeros(100)
    cp.write_wav(a / "x.wav", fe.Waveform(samples))
    samples[7] = 3 / cp.PCM_SCALE
    cp.write_wav(b / "x.wav", fe.Waveform(samples))
    (a / "r.csv").write_text("id,llr\nu,1.5\n")
    (b / "r.csv").write_text("id,llr\nu,1.25\n")
    for d in (a, b):
        (d / "same.txt").write_text("x")
    (a / "log.txt").write_text("x")
    (b / "log.txt").write_text("y")
    (a / "only.txt").write_text("x")
    arrays = len(nm.named_arrays(model)) + 1

    assert compare.main(["compare_outputs.py", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "log.txt: bytes differ",
        "m.bin: first.bias: max abs 5.000e-01, max rel 1.000e+00",
        "m.bin: opt.m.first.bias: max abs 2.500e-01, max rel 1.000e+00",
        f"m.bin: 2 of {arrays} arrays differ",
        f"only.txt: only in {a}",
        "r.csv: max numeric difference 2.500e-01",
        "x.wav: max 3 LSB, 1 of 100 samples differ",
    ]
    assert compare.main(["compare_outputs.py", str(a), str(a)]) == 0
    assert capsys.readouterr().out == ""
