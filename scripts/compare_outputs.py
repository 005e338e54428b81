#!/usr/bin/env python3
"""Say how far apart two ``output_digests.py`` directories are, file by file.

Usage: python scripts/compare_outputs.py DIR_A DIR_B

Every file under either directory is compared by its path relative to it.
For each file whose bytes differ, one line per difference is printed:

- a ``.bin`` checkpoint, read with ``load_checkpoint``: the max absolute
  and max relative difference of every array that differs (model arrays
  and extra arrays such as optimizer moments);
- a ``.wav``: the max sample difference in LSB of its 16-bit PCM;
- a ``.csv``: the max difference over the cells that are numbers in both
  files, and the count of other cells that differ;
- any other file: that its bytes differ.

The relative difference of two elements is |a - b| / max(|a|, |b|).
Exit code: 0 when every file is byte-identical, 1 when any differs or is
in one directory only, 2 for a usage error.
"""

import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ccrn import corpus, netmodel  # noqa: E402


def _max_diffs(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    a, b = a.astype(np.float64), b.astype(np.float64)
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def _checkpoint_arrays(path: Path) -> dict[str, np.ndarray]:
    model, extra = netmodel.load_checkpoint(path)
    return dict(netmodel.named_arrays(model)) | extra


def compare_checkpoints(a: Path, b: Path) -> list[str]:
    arrays_a, arrays_b = _checkpoint_arrays(a), _checkpoint_arrays(b)
    if arrays_a.keys() != arrays_b.keys() or any(arrays_a[n].shape != arrays_b[n].shape for n in arrays_a):
        return ["array names or shapes differ"]
    lines = []
    for name, x in arrays_a.items():
        if not np.array_equal(x, arrays_b[name]):
            abs_diff, rel_diff = _max_diffs(x, arrays_b[name])
            lines.append(f"{name}: max abs {abs_diff:.3e}, max rel {rel_diff:.3e}")
    return lines + [f"{len(lines)} of {len(arrays_a)} arrays differ"]


def compare_wavs(a: Path, b: Path) -> list[str]:
    x, y = corpus.read_wav(a).samples, corpus.read_wav(b).samples
    if x.size != y.size:
        return [f"{x.size} vs {y.size} samples"]
    lsb = np.rint(np.abs(x - y) * corpus.PCM_SCALE)
    return [f"max {int(lsb.max())} LSB, {int(np.count_nonzero(lsb))} of {x.size} samples differ"]


def compare_csvs(a: Path, b: Path) -> list[str]:
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return [f"row or column counts differ ({len(rows_a)} vs {len(rows_b)} rows)"]
    worst, other = 0.0, 0
    for cell_a, cell_b in zip((c for r in rows_a for c in r), (c for r in rows_b for c in r)):
        if cell_a == cell_b:
            continue
        try:
            worst = max(worst, abs(float(cell_a) - float(cell_b)))
        except ValueError:
            other += 1
    return [f"max numeric difference {worst:.3e}" + (f", {other} non-numeric cells differ" if other else "")]


COMPARE = {".bin": compare_checkpoints, ".wav": compare_wavs, ".csv": compare_csvs}


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not all(Path(d).is_dir() for d in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    root_a, root_b = Path(argv[1]), Path(argv[2])
    files_a, files_b = ({p.relative_to(r) for p in r.rglob("*") if p.is_file()} for r in (root_a, root_b))
    differ = False
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            print(f"{rel.as_posix()}: only in {root_a if rel in files_a else root_b}")
            differ = True
            continue
        a, b = root_a / rel, root_b / rel
        if a.read_bytes() == b.read_bytes():
            continue
        differ = True
        compare = COMPARE.get(rel.suffix, lambda a, b: ["bytes differ"])
        for line in compare(a, b):
            print(f"{rel.as_posix()}: {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
