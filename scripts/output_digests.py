#!/usr/bin/env python3
"""Run a fixed tiny matrix of ccrn commands and print one sha256 per output.

Usage: python scripts/output_digests.py OUT_DIR

OUT_DIR must be new or empty. The commands run in-process through
``ccrn.cli.main``, from the ``src`` beside this script, with OUT_DIR as the
working directory, so every path they print is relative. The matrix:

- ``synth`` of 3 utterances of 1.3 s at rt60 0.25 and 0.5;
- ``train`` of 2-block ``ccrn`` models at 128 and 512 channels and a
  2-block 64-channel ``ccrn-state`` model, on that corpus;
- a ``--resume`` of a copy of the 128-channel run to 6 steps;
- ``enhance`` of one noisy file by each checkpoint, with and without
  ``--blocks 1 --probes``;
- ``evaluate --noisy-dir --check-direction`` of every noisy file enhanced
  by the 128-channel model.

Each command's exit code, stdout and stderr go to ``logs/NN_name.txt``.
The last step prints ``<sha256>  <path relative to OUT_DIR>`` for every
file under OUT_DIR, in path order. No digest is stored anywhere: compare
two runs (two directories, or two checkouts) with ``diff``.
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ccrn.cli import main as ccrn_main  # noqa: E402

CORPUS = "corpus.utterances = 3\ncorpus.duration = 1.3\ncorpus.seed = 55\ncorpus.rt60 = 0.25,0.5\n"
TRAIN = "train.seq_len = 60\ntrain.batch_size = 4\ntrain.seed = 13\ntrain.lr = 0.001\n"
CCRN128 = "model.blocks = 2\nmodel.channels = 128\ntrain.checkpoint_interval = 2\n" + TRAIN
CONFIGS = {
    "synth": CORPUS,
    "ccrn128": CCRN128 + "train.steps = 4\n",
    "ccrn128_resume": CCRN128 + "train.steps = 6\n",
    "ccrn512": "model.blocks = 2\nmodel.channels = 512\ntrain.steps = 3\n" + TRAIN,
    "state64": "model.kind = ccrn-state\nmodel.blocks = 2\nmodel.channels = 64\ntrain.steps = 4\n" + TRAIN,
}
RUNS = ("ccrn128", "ccrn512", "state64")
ENHANCE_IN = "corpus/noisy/rt60_0.50/utt000.wav"


def ccrn(name: str, *argv: str) -> None:
    """``ccrn <argv>``; its exit code and output go to the next ``logs/NN_name.txt``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ccrn_main(list(argv))
    n = len(list(Path("logs").iterdir())) + 1
    Path("logs", f"{n:02d}_{name}.txt").write_text(
        f"$ ccrn {' '.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    root = Path(argv[1])
    if root.exists() and any(root.iterdir()):
        print(f"{root}: not empty", file=sys.stderr)
        return 1
    for sub in ("configs", "logs", "enhance"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    for name, text in CONFIGS.items():
        Path("configs", f"{name}.cfg").write_text(text)

    ccrn("synth", "synth", "--config", "configs/synth.cfg", "--out", "corpus")
    for name in RUNS:
        ccrn(f"train_{name}", "train", "--config", f"configs/{name}.cfg", "--corpus", "corpus/manifest.csv",
             "--out", f"runs/{name}")
    shutil.copytree("runs/ccrn128", "runs/ccrn128_resume")
    ccrn("resume_ccrn128", "train", "--config", "configs/ccrn128_resume.cfg", "--corpus", "corpus/manifest.csv",
         "--out", "runs/ccrn128_resume", "--resume", "runs/ccrn128_resume/checkpoint.bin")
    for name in RUNS:
        checkpoint = f"runs/{name}/checkpoint.bin"
        ccrn(f"enhance_{name}", "enhance", "--checkpoint", checkpoint, "--in", ENHANCE_IN,
             "--out", f"enhance/{name}.wav")
        ccrn(f"enhance_{name}_probes", "enhance", "--checkpoint", checkpoint, "--in", ENHANCE_IN,
             "--out", f"enhance/{name}_b1.wav", "--blocks", "1", "--probes", f"enhance/{name}_probes")
    for noisy in sorted(Path("corpus/noisy").glob("*/*.wav")):
        Path("enhanced", noisy.parent.name).mkdir(parents=True, exist_ok=True)
        ccrn(f"enhance_{noisy.parent.name}_{noisy.stem}", "enhance", "--checkpoint", "runs/ccrn128/checkpoint.bin",
             "--in", noisy.as_posix(), "--out", f"enhanced/{noisy.parent.name}/{noisy.name}")
    ccrn("evaluate", "evaluate", "--manifest", "corpus/manifest.csv", "--enhanced-dir", "enhanced",
         "--noisy-dir", "corpus/noisy", "--check-direction")

    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{sha256(path)}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
