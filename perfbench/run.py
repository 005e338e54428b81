"""End-to-end benchmark of the ccrn command line: train, enhance and evaluate.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

A run makes the workload's inputs from --seed (set-up), then calls
``ccrn.cli.main`` in-process, one call at a time (a closed loop with one
caller), in whole rounds until --seconds have passed, and then checks the
program's outputs against oracles and properties of the method. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Results and traces are also written
under ``.bench_out/``; scratch files live under ``.bench_work/`` and are
removed when the run ends.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, before the imports below

import argparse
import contextlib
import csv
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import oracles  # noqa: E402  (the benchmark's own modules sit beside this file)
from tracing import DERIVED_METRICS, SPAN_METRICS, Recorder, metric_unit  # noqa: E402

HOP_S = 0.01
SAMPLE_RATE = 16000
EVAL_RT60 = (0.0, 0.25, 0.5, 0.7)
ENHANCE_RT60 = (0.25, 0.5, 0.7)
MODEL_SEED = 1904  # the enhance network is the same for every --seed
TRAIN_ALPHA = 0.1
TRAIN_LR = 1e-3
PCM_SCALE = 32767  # 16-bit WAV full scale


@dataclass(frozen=True)
class Sizes:
    duration_s: float = 3.0
    # train: the C5 acceptance configuration, shortened to a fixed step count
    train_blocks: int = 4
    train_channels: int = 128
    batch_size: int = 8
    seq_len: int = 200
    train_utterances: int = 5
    train_steps: int = 40
    checkpoint_interval: int = 20
    # enhance: the paper-size network
    enhance_blocks: int = 14
    enhance_channels: int = 512
    enhance_utterances: int = 2
    # evaluate
    evaluate_utterances: int = 4


FULL = Sizes()


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    audio_s: float  # seconds of audio the call processes
    units: int  # operation units the per-layer metrics are normalized to


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Workload:
    """Inputs, one round of CLI calls, and the checks of one workload."""

    def __init__(self, ccrn, work: Path, seed: int, sizes: Sizes):
        self.ccrn = ccrn
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.rng = np.random.default_rng(seed)
        self.reference_digest: dict[Call, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Call]:
        raise NotImplementedError

    def outputs(self, call: Call) -> tuple[Path, ...]:
        raise NotImplementedError

    def check_call(self, call: Call) -> list[str]:
        """Every call must reproduce the first call's outputs byte for byte."""
        digest = _digest(*self.outputs(call))
        first = self.reference_digest.setdefault(call, digest)
        return [] if digest == first else [f"ccrn {call.argv[0]}: outputs differ from the first identical call"]

    def final_checks(self) -> list[str]:
        raise NotImplementedError


class TrainWorkload(Workload):
    """``ccrn train`` at the C5 config on a synthesized 5-utterance corpus."""

    def setup(self) -> None:
        ccrn, s = self.ccrn, self.sizes
        corpus_seed, train_seed = (int(v) for v in self.rng.integers(1_000_000, size=2))
        (self.work / "clean").mkdir(parents=True)
        rows = []
        for i in range(s.train_utterances):
            wave = ccrn.corpus.synth_speech(s.duration_s, corpus_seed + i)
            ccrn.corpus.write_wav(self.work / "clean" / f"utt{i:03d}.wav", wave)
            rows.append((f"utt{i:03d}", f"clean/utt{i:03d}.wav", wave.duration_s))
        ccrn.corpus.write_manifest(self.work / "manifest.csv", rows)
        (self.work / "train.cfg").write_text(
            "model.kind = ccrn\n"
            f"model.blocks = {s.train_blocks}\n"
            f"model.channels = {s.train_channels}\n"
            f"train.alpha = {TRAIN_ALPHA}\n"
            f"train.seq_len = {s.seq_len}\n"
            f"train.batch_size = {s.batch_size}\n"
            f"train.lr = {TRAIN_LR}\n"
            f"train.steps = {s.train_steps}\n"
            f"train.seed = {train_seed}\n"
            f"train.checkpoint_interval = {s.checkpoint_interval}\n"
        )
        self.out = self.work / "run"
        self.call = Call(
            ("train", "--config", str(self.work / "train.cfg"), "--corpus", str(self.work / "manifest.csv"),
             "--out", str(self.out)),
            audio_s=s.train_steps * s.batch_size * s.seq_len * HOP_S,
            units=s.train_steps,
        )

    def round(self) -> list[Call]:
        return [self.call]

    def outputs(self, call: Call) -> tuple[Path, ...]:
        return self.out / "train_log.csv", self.out / "checkpoint.bin"

    def final_checks(self) -> list[str]:
        s, problems = self.sizes, []
        with open(self.out / "train_log.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header = ["step", "total", "main"] + [f"per_block_{l}" for l in range(1, s.train_blocks + 1)]
        if rows[0] != header:
            problems.append(f"train_log.csv header {rows[0]}")
        steps = [int(r[0]) for r in rows[1:]]
        if steps != list(range(s.train_steps)):
            problems.append(f"train_log.csv steps {steps[:3]}... ({len(steps)} rows)")
        values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        total, main, per_block = values[:, 0], values[:, 1], values[:, 2:]
        expected = main + TRAIN_ALPHA * per_block.mean(axis=1)
        # float32 arithmetic: a few units in the last place of the result
        if np.any(np.abs(total - expected) > 8 * np.finfo(np.float32).eps * np.abs(expected)):
            problems.append("logged total != main + alpha * mean(per_block)")
        if np.any(main != per_block[:, -1]):
            problems.append("logged main cost != last block's probe cost")
        tenth = max(1, s.train_steps // 10)
        first, last = float(main[:tenth].mean()), float(main[-tenth:].mean())
        if not last < 0.25 * first:
            problems.append(f"main cost did not fall: first tenth {first:.3f}, last tenth {last:.3f}")

        model, extra = self.ccrn.netmodel.load_checkpoint(self.out / "checkpoint.bin")
        if (model.config.blocks, model.config.channels) != (s.train_blocks, s.train_channels):
            problems.append(f"checkpoint config {model.config}")
        if extra.get("train.step", [None])[0] != s.train_steps:
            problems.append(f"checkpoint train.step {extra.get('train.step')} != {s.train_steps}")
        if not all(np.all(np.isfinite(a)) for _, a in self.ccrn.netmodel.named_arrays(model)):
            problems.append("checkpoint holds non-finite parameters")
        return problems


def build_enhance_model(ccrn, sizes: Sizes):
    """Paper-size network with non-trivial BN statistics and PReLU slopes.

    Freshly initialized BN layers are identities in inference mode, which
    would let a fault in how running statistics are applied go unseen.
    """
    config = ccrn.netmodel.ModelConfig(blocks=sizes.enhance_blocks, channels=sizes.enhance_channels)
    model = ccrn.netmodel.build_model(config, seed=MODEL_SEED)
    rng = np.random.default_rng(MODEL_SEED)
    for block in model.blocks:
        for stage in (block.stage1, block.stage2):
            c = stage.slope.value.size
            stage.bn.gamma.value[...] = rng.uniform(0.5, 1.5, c)
            stage.bn.beta.value[...] = rng.normal(0.0, 0.1, c)
            stage.bn.running_mean[...] = rng.normal(0.0, 0.2, c)
            stage.bn.running_var[...] = rng.uniform(0.5, 2.0, c)
            stage.slope.value[...] = rng.uniform(0.05, 0.45, c)
    return model


class EnhanceWorkload(Workload):
    """``ccrn enhance`` on each 3 s noisy file with a 14 x 512 checkpoint."""

    def setup(self) -> None:
        ccrn, s = self.ccrn, self.sizes
        corpus_mod = ccrn.corpus
        self.checkpoint = self.work / "model.bin"
        ccrn.netmodel.save_checkpoint(self.checkpoint, build_enhance_model(ccrn, s))
        (self.work / "clean").mkdir(parents=True)
        (self.work / "enhanced").mkdir()
        self.calls = []
        self.clean_paths = []
        for u in range(s.enhance_utterances):
            utt_seed, rir_seed, noise_seed = (int(v) for v in self.rng.integers(1_000_000, size=3))
            clean = corpus_mod.synth_speech(s.duration_s, utt_seed)
            self.clean_paths.append(self.work / "clean" / f"utt{u:03d}.wav")
            corpus_mod.write_wav(self.clean_paths[-1], clean)
            for j, rt60 in enumerate(ENHANCE_RT60):
                spec = corpus_mod.CorruptionSpec(
                    rir=corpus_mod.make_rir_spec(rt60, corpus_mod.room_drr(rt60, (5.0, -5.0)[(u + j) % 2]), rir_seed + j),
                    seed=noise_seed + j,
                )
                noisy = corpus_mod.corrupt(clean, spec)
                peak = float(np.max(np.abs(noisy.samples)))
                if peak > 0.99:  # level control so that writing does not clip
                    noisy = ccrn.frontend.Waveform(noisy.samples * (0.99 / peak))
                name = f"rt60_{rt60:.2f}_utt{u:03d}.wav"
                corpus_mod.write_wav(self.work / name, noisy)
                self.calls.append(Call(
                    ("enhance", "--checkpoint", str(self.checkpoint), "--in", str(self.work / name),
                     "--out", str(self.work / "enhanced" / name)),
                    audio_s=noisy.duration_s,
                    units=1,
                ))

    def round(self) -> list[Call]:
        return self.calls

    def outputs(self, call: Call) -> tuple[Path, ...]:
        return (Path(call.argv[-1]),)

    def check_call(self, call: Call) -> list[str]:
        problems = super().check_call(call)
        samples = oracles.read_wav(call.argv[-1])
        if samples.size != round(call.audio_s * SAMPLE_RATE):
            problems.append(f"{call.argv[-1]}: {samples.size} samples, input has a different length")
        if not np.any(samples):
            problems.append(f"{call.argv[-1]}: silent output")
        return problems

    def final_checks(self) -> list[str]:
        ccrn, s, problems = self.ccrn, self.sizes, []
        netmodel, frontend = ccrn.netmodel, ccrn.frontend
        pick = self.seed % len(self.calls)
        noisy = ccrn.corpus.read_wav(self.calls[pick].argv[4])
        feats, noisy_phase = frontend.assemble_features(noisy)
        model, _ = netmodel.load_checkpoint(self.checkpoint)
        out, trace = netmodel.forward(model, feats, want_probes=True)

        config, arrays = oracles.read_ccrn01(self.checkpoint)
        reference = oracles.plain_forward(arrays, config["blocks"], feats.frames)
        reference = np.repeat(reference, frontend.FFT_BINS // config["channels"], axis=1)
        error = float(np.max(np.abs(out.frames - reference)) / np.max(np.abs(reference)))
        if not error <= 1e-4:
            problems.append(f"forward differs from the numpy oracle: relative error {error:.2e}")

        # the file the timed CLI call wrote must be the oracle's spectrum,
        # resynthesized, peak-normalized and quantized as ``ccrn enhance`` documents
        expected = frontend.reconstruct(frontend.LogSpectrogram(reference), noisy_phase, noisy.samples.size).samples
        peak = np.max(np.abs(expected))
        if peak > 1.0:
            expected = expected / peak
        expected = np.round(np.clip(expected, -1.0, 1.0) * PCM_SCALE)
        written = np.round(oracles.read_wav(self.calls[pick].argv[-1]) * PCM_SCALE)
        lsb = float(np.max(np.abs(written - expected))) if written.shape == expected.shape else np.inf
        if not lsb <= 2:
            problems.append(f"{self.calls[pick].argv[-1]}: differs from the oracle's enhanced audio by {lsb} LSB")

        depth = 1 + self.seed % s.enhance_blocks
        truncated, _ = netmodel.forward(netmodel.truncate(model, depth), feats)
        if not np.array_equal(truncated.frames, trace.outputs[depth - 1].frames):
            problems.append(f"truncate(model, {depth}) output != probe {depth}")
        if not np.array_equal(out.frames, trace.outputs[-1].frames):
            problems.append("full output != last probe")

        clean = ccrn.corpus.read_wav(self.clean_paths[pick // len(ENHANCE_RT60)])
        target = frontend.target_spectrum(clean)
        _, phase = frontend.assemble_features(clean)
        n = phase.frames.shape[0]
        rebuilt = frontend.reconstruct(frontend.LogSpectrogram(target.frames[:n]), phase, clean.samples.size)
        covered = (n - 1) * 160 + 400
        snr = oracles.snr_db(clean.samples, rebuilt.samples, slice(200, covered - 200))
        if not snr >= 30.0:
            problems.append(f"analysis/resynthesis round trip SNR {snr:.1f} dB < 30 dB")
        return problems


class EvaluateWorkload(Workload):
    """``ccrn evaluate`` of a ``ccrn synth`` corpus: dry and three RT60 conditions."""

    def setup(self) -> None:
        s = self.sizes
        corpus_seed = int(self.rng.integers(1_000_000))
        (self.work / "synth.cfg").write_text(
            f"corpus.rt60 = {','.join(str(r) for r in EVAL_RT60)}\n"
            f"corpus.utterances = {s.evaluate_utterances}\n"
            f"corpus.duration = {s.duration_s}\n"
            f"corpus.seed = {corpus_seed}\n"
        )
        self.corpus = self.work / "corpus"
        with contextlib.redirect_stdout(sys.stderr):
            rc = self.ccrn.cli.main(["synth", "--config", str(self.work / "synth.cfg"), "--out", str(self.corpus)])
        if rc != 0:
            raise RuntimeError(f"ccrn synth exited with {rc}")
        self.report = self.work / "report.csv"
        files = s.evaluate_utterances * len(EVAL_RT60)
        self.call = Call(
            ("evaluate", "--manifest", str(self.corpus / "manifest.csv"), "--enhanced-dir",
             str(self.corpus / "noisy"), "--report", str(self.report)),
            audio_s=files * s.duration_s,
            units=files,
        )

    def round(self) -> list[Call]:
        return [self.call]

    def outputs(self, call: Call) -> tuple[Path, ...]:
        return (self.report,)

    def final_checks(self) -> list[str]:
        ccrn, s, problems = self.ccrn, self.sizes, []
        with open(self.report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ids = [f"utt{i:03d}" for i in range(s.evaluate_utterances)]
        conditions = [f"rt60_{r:.2f}" for r in EVAL_RT60]
        if sorted((r["id"], r["condition"]) for r in rows) != sorted((i, c) for i in ids for c in conditions):
            problems.append(f"report.csv rows {[(r['id'], r['condition']) for r in rows]}")
            return problems
        llr = {c: [float(r["llr"]) for r in rows if r["condition"] == c] for c in conditions}
        srmr = {c: [float(r["srmr"]) for r in rows if r["condition"] == c] for c in conditions}
        if not all(0.0 <= v <= 2.0 for vs in llr.values() for v in vs):
            problems.append("an LLR lies outside [0, 2]")
        if not all(v > 0.0 for vs in srmr.values() for v in vs):
            problems.append("an SRMR is not positive")
        dry, far = conditions[0], conditions[-1]
        if not np.mean(srmr[dry]) > np.mean(srmr[far]):
            problems.append(f"mean SRMR dry {np.mean(srmr[dry]):.3f} <= {far} {np.mean(srmr[far]):.3f}")
        if not np.mean(llr[dry]) < np.mean(llr[far]):
            problems.append(f"mean LLR dry {np.mean(llr[dry]):.4f} >= {far} {np.mean(llr[far]):.4f}")

        # one report row, recomputed from the same files, must read the same
        row = rows[self.seed % len(rows)]
        reference = ccrn.corpus.read_wav(self.corpus / "clean" / f"{row['id']}.wav")
        scored = ccrn.corpus.read_wav(self.corpus / "noisy" / row["condition"] / f"{row['id']}.wav")
        recomputed = (f"{ccrn.quality.llr(reference, scored):.6f}", f"{ccrn.quality.srmr(scored):.6f}")
        if (row["llr"], row["srmr"]) != recomputed:
            problems.append(f"report row {row['id']}/{row['condition']}: llr, srmr {row['llr']}, {row['srmr']} "
                            f"!= recomputed {recomputed[0]}, {recomputed[1]}")

        clean = ccrn.corpus.read_wav(self.corpus / "clean" / "utt000.wav")
        if ccrn.quality.llr(clean, clean) != 0.0:
            problems.append("llr(clean, clean) != 0")

        order = ccrn.quality.LPC_ORDER
        for path in (self.corpus / "clean" / "utt000.wav", self.corpus / "noisy" / far / "utt000.wav"):
            samples = oracles.read_wav(path)
            starts = np.arange(0, samples.size - 400, 160)
            energy = np.array([np.sum(samples[i:i + 400] ** 2) for i in starts])
            active = starts[energy >= energy.max() * 10 ** -3.5]
            for start in self.rng.choice(active, size=min(8, active.size), replace=False):
                frame = samples[start:start + 400] * np.hamming(400)
                coeffs, autocorr = oracles.lpc_by_toeplitz(frame, order)
                got = ccrn.quality.lpc(frame, order)
                if not np.allclose(got.autocorr, autocorr, rtol=1e-10, atol=0.0):
                    problems.append(f"{path.name}@{start}: lpc autocorrelation differs from numpy")
                if not np.max(np.abs(got.coeffs[1:] - coeffs)) <= 1e-6 * max(1.0, np.max(np.abs(coeffs))):
                    problems.append(f"{path.name}@{start}: lpc differs from scipy.linalg.solve_toeplitz")
        return problems


WORKLOAD_CLASSES = {"train": TrainWorkload, "enhance": EnhanceWorkload, "evaluate": EvaluateWorkload}


def _import_ccrn():
    if not (SRC / "ccrn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ccrn sources under {SRC}")
    import ccrn.cli

    if Path(ccrn.__file__).resolve().parent != SRC / "ccrn":
        raise ImportError(f"imported ccrn from {ccrn.__file__}, not from {SRC}")
    return ccrn


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """One benchmark run; returns the result object."""
    ccrn = _import_ccrn()
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        workload = WORKLOAD_CLASSES[name](ccrn, work, seed, sizes)
        workload.setup()
        setup_s = time.perf_counter() - _START

        recorder = Recorder() if trace else None
        main = ccrn.cli.main
        if recorder is not None:
            recorder.install(ccrn)
            main = recorder.wrap("cli.main", main)
        problems: list[str] = []
        rates: list[float] = []
        attempted = failed = units = 0
        loop_start = time.perf_counter()
        try:
            while True:
                for call in workload.round():
                    # every call writes its outputs afresh: rewriting an existing
                    # file can cost a synchronous flush (ext4 does this on
                    # truncate-and-rewrite) that a caller writing new files never pays
                    for path in workload.outputs(call):
                        path.unlink(missing_ok=True)
                    attempted += 1
                    started = time.perf_counter()
                    try:
                        with contextlib.redirect_stdout(sys.stderr):
                            rc = main(list(call.argv))
                    except (Exception, SystemExit):
                        traceback.print_exc()
                        rc = None
                    elapsed = time.perf_counter() - started
                    if rc != 0:
                        failed += 1
                        print(f"failed ({rc}): ccrn {' '.join(call.argv)}", file=sys.stderr)
                        continue
                    rates.append(call.audio_s / elapsed)
                    units += call.units
                    problems.extend(workload.check_call(call))
                if time.perf_counter() - loop_start >= seconds:
                    break
        finally:
            if recorder is not None:
                recorder.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        audio_s_per_s = statistics.median(rates) if rates else 0.0

        try:
            problems.extend(workload.final_checks())
        except Exception:  # a broken output must still yield a result, marked incorrect
            traceback.print_exc()
            problems.append("final checks raised")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

        if recorder is None:
            metrics = {
                "audio_s_per_s": (audio_s_per_s, "s/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "setup_s": (setup_s, "s"),
            }
        else:
            values = recorder.per_layer_metrics(max(units, 1), audio_s_per_s)
            metrics = {m: (values[m], metric_unit(m)) for m in (*SPAN_METRICS, *DERIVED_METRICS)}
            recorder.write(out_dir / f"trace-{name}-seed{seed}.json", loop_start,
                           {"workload": name, "seed": seed, "operations": attempted, "units": units})
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": float(v), "unit": u} for m, (v, u) in metrics.items()},
        }
        (out_dir / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result) + "\n")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_ccrn()
    except (ImportError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
