"""Command-line entry point: synth, train, enhance, evaluate, gradcheck.

Configuration is flat ``key = value`` text (``#`` comments allowed) with a
fixed key list; unknown keys are rejected before any side effect. Exit
codes, by exception base class: 0 success, 1 validation error
(``ValueError``), 2 runtime failure (``RuntimeError``, ``OSError``) or Ctrl-C.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import diffcore, frontend, netmodel, objectives, quality
from .frontend import LogSpectrogram, PhaseSpectrogram, Waveform
from .netmodel import ModelConfig, ModelParams
from .objectives import TrainConfig


class ConfigError(ValueError):
    pass


class CommandError(RuntimeError):
    pass


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(","))


# longest synthesized utterance; the 75 ms stream's rfft buffer alone is ~100 MB per minute
MAX_DURATION_S = 60.0


@dataclass
class RunConfig:
    """Union of model, training, and corpus settings."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    utterances: int = 20
    duration_s: float = 3.0
    corpus_seed: int = 100

    def __post_init__(self):
        if self.utterances < 1:
            raise ValueError(f"utterances must be >= 1, got {self.utterances}")
        if not 0.0 < self.duration_s <= MAX_DURATION_S:
            raise ValueError(f"duration must be in (0, {MAX_DURATION_S:g}] s, got {self.duration_s}")
        if self.corpus_seed < 0:
            raise ValueError(f"corpus seed must be >= 0, got {self.corpus_seed}")


# key -> (section, attribute, coercion)
_CONFIG_KEYS = {
    "model.kind": ("model", "kind", str),
    "model.blocks": ("model", "blocks", int),
    "model.channels": ("model", "channels", int),
    "model.state_step": ("model", "state_step", int),
    "model.kernel": ("model", "kernel", int),
    "train.alpha": ("train", "alpha", float),
    "train.seq_len": ("train", "seq_len", int),
    "train.batch_size": ("train", "batch_size", int),
    "train.lr": ("train", "lr", float),
    "train.weight_decay": ("train", "weight_decay", float),
    "train.steps": ("train", "steps", int),
    "train.seed": ("train", "seed", int),
    "train.checkpoint_interval": ("train", "checkpoint_interval", int),
    "corpus.rt60": ("train", "rt60_choices", _parse_floats),
    "corpus.drr_db": ("train", "drr_choices", _parse_floats),
    "corpus.snr_db": ("train", "snr_db", float),
    "corpus.noise": ("train", "noise_kind", str),
    "corpus.utterances": ("top", "utterances", int),
    "corpus.duration": ("top", "duration_s", float),
    "corpus.seed": ("top", "corpus_seed", int),
}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    model_kw: dict = {}
    train_kw: dict = {}
    top_kw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        section, attr, coerce = _CONFIG_KEYS[key]
        try:
            value = coerce(raw)
        except ValueError as err:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {err}") from err
        {"model": model_kw, "train": train_kw, "top": top_kw}[section][attr] = value
    try:
        return RunConfig(model=ModelConfig(**model_kw), train=TrainConfig(**train_kw), **top_kw)
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from err


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(), str(p))


def _manifest_paths(manifest_path: str) -> dict[str, Path]:
    """Utterance id -> WAV path for every manifest row, in row order.

    Relative WAV paths resolve against the manifest's directory.
    """
    base = Path(manifest_path).parent
    paths = {utt_id: base / wav_path for utt_id, wav_path, _ in corpus_mod.read_manifest(manifest_path)}
    if not paths:
        raise ConfigError(f"{manifest_path}: manifest lists no utterances")
    return paths


def _load_corpus(config: RunConfig, manifest_path: str | None) -> list[Waveform]:
    if manifest_path is not None:
        return [corpus_mod.read_wav(p) for p in _manifest_paths(manifest_path).values()]
    return [
        corpus_mod.synth_speech(config.duration_s, config.corpus_seed + i)
        for i in range(config.utterances)
    ]


def cmd_synth(config: RunConfig, out_dir: str) -> int:
    """Materialize a clean/corrupted evaluation corpus with a manifest."""
    out = Path(out_dir)
    clean_dir = out / "clean"
    conditions = [(rt60, f"rt60_{rt60:.2f}") for rt60 in config.train.rt60_choices]

    clean_dir.mkdir(parents=True, exist_ok=True)
    for _, name in conditions:
        (out / "noisy" / name).mkdir(parents=True, exist_ok=True)

    rows = []
    for i in range(config.utterances):
        utt_id = f"utt{i:03d}"
        clean = corpus_mod.synth_speech(config.duration_s, config.corpus_seed + i)
        corpus_mod.write_wav(clean_dir / f"{utt_id}.wav", clean)
        rows.append((utt_id, f"clean/{utt_id}.wav", clean.duration_s))
        for j, (rt60, name) in enumerate(conditions):
            drr = config.train.drr_choices[(i + j) % len(config.train.drr_choices)]
            spec = corpus_mod.CorruptionSpec(
                rir=corpus_mod.make_rir_spec(
                    rt60, corpus_mod.room_drr(rt60, drr), config.corpus_seed * 7919 + i
                ),
                snr_db=config.train.snr_db,
                noise_kind=config.train.noise_kind,
                seed=config.corpus_seed * 104729 + i,
            )
            corpus_mod.write_wav(out / "noisy" / name / f"{utt_id}.wav", corpus_mod.corrupt(clean, spec))
    corpus_mod.write_manifest(out / "manifest.csv", rows)
    print(f"wrote {len(rows)} utterances x {len(conditions)} conditions under {out}")
    return 0


def cmd_train(config: RunConfig, out_dir: str, manifest_path: str | None, resume: str | None) -> int:
    waves = _load_corpus(config, manifest_path)

    opt_state = objectives.OptimizerState()
    if resume is not None:
        model, extra = netmodel.load_checkpoint(resume)
        if model.config != config.model:
            raise ConfigError(f"checkpoint model {model.config} does not match configured {config.model}")
        opt_state = objectives.resume_state(extra, model)
    else:
        model = netmodel.build_model(config.model, seed=config.train.seed)
    trainable = objectives.check_start(opt_state, config.train, waves)
    if len(trainable) < len(waves):
        print(
            f"training on {len(trainable)} of {len(waves)} utterances; {len(waves) - len(trainable)} are shorter"
            f" than train.seq_len = {config.train.seq_len} frames"
        )

    # the corpus and the resume state are read and checked first, so a rejected input leaves no directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = objectives.train(
        model,
        trainable,
        config.train,
        log_path=out / "train_log.csv",
        checkpoint_path=out / "checkpoint.bin",
        opt_state=opt_state,
        print_every=100,
    )
    if reports:
        final = reports[-1]
        print(f"finished at step {config.train.steps}: total {final.total:.5f} main {final.main:.5f}")
        depth = netmodel.select_depth(final.per_block)
        print(f"suggested evaluation depth from final per-block costs: {depth}/{config.model.blocks}")
    return 0


def enhance_waveform(
    model: ModelParams, noisy: Waveform, blocks: int | None = None, want_probes: bool = False
) -> tuple[Waveform, list[LogSpectrogram] | None, PhaseSpectrogram]:
    """Features -> forward (optionally truncated) -> overlap-add resynthesis.

    Also returns the noisy phase, which resynthesizes the probe spectra.
    """
    active = model if blocks is None else netmodel.truncate(model, blocks)
    feats, phase = frontend.assemble_features(noisy)
    spectrum, trace = netmodel.forward(active, feats, want_probes=want_probes)
    enhanced = frontend.reconstruct(spectrum, phase, noisy.samples.size)
    return enhanced, None if trace is None else trace.outputs, phase


def _write_peak_normalized(path, wave: Waveform) -> None:
    """Write ``wave`` as a WAV, scaled to a peak of 1 if it would clip."""
    peak = np.max(np.abs(wave.samples))
    corpus_mod.write_wav(path, Waveform(wave.samples / peak) if peak > 1.0 else wave)


def _check_out_dir(path) -> None:
    """Refuse, before any work, an output file whose directory does not exist."""
    if not Path(path).parent.is_dir():
        raise CommandError(f"{path}: directory {Path(path).parent} does not exist")


def cmd_enhance(checkpoint: str, in_wav: str, out_wav: str, blocks: int | None, probes_dir: str | None) -> int:
    _check_out_dir(out_wav)
    pdir = None if probes_dir is None else Path(probes_dir)
    if pdir is not None and pdir.exists() and not pdir.is_dir():
        raise CommandError(f"{pdir}: --probes names a file, not a directory")
    model, _ = netmodel.load_checkpoint(checkpoint)
    if blocks is not None and not 1 <= blocks <= model.config.blocks:
        raise ConfigError(f"--blocks must be in [1, {model.config.blocks}], got {blocks}")
    noisy = corpus_mod.read_wav(in_wav)

    enhanced, probes, phase = enhance_waveform(model, noisy, blocks, pdir is not None)
    if pdir is not None:
        pdir.mkdir(parents=True, exist_ok=True)  # a failure here leaves --out unwritten
    _write_peak_normalized(out_wav, enhanced)

    if probes is not None:
        for l, spectrum in enumerate(probes, start=1):
            np.savetxt(pdir / f"block_{l:02d}.csv", spectrum.frames, delimiter=",")
            _write_peak_normalized(
                pdir / f"block_{l:02d}.wav", frontend.reconstruct(spectrum, phase, noisy.samples.size)
            )
        print(f"wrote {len(probes)} probe spectra and reconstructions to {pdir}")
    return 0


def _condition_files(root: Path, ids) -> dict[str, dict[str, Path]]:
    """Condition name -> utterance id -> WAV path, for every id in ``ids``.

    The conditions are the subdirectories of ``root`` in name order, or
    ``root`` itself, named ".", when it has none. Rejects a ``root`` that
    is not a directory, and lists every missing file.
    """
    if not root.is_dir():
        raise ConfigError(f"not a directory: {root}")
    dirs = {p.name: p for p in sorted(root.iterdir()) if p.is_dir()} or {".": root}
    files = {name: {utt_id: d / f"{utt_id}.wav" for utt_id in ids} for name, d in dirs.items()}
    missing = [str(path) for paths in files.values() for path in paths.values() if not path.is_file()]
    if missing:
        raise CommandError("missing files:\n  " + "\n  ".join(missing))
    return files


def _check_scorable(path: Path) -> None:
    """Raise the error ``quality.quality_report`` gives first for a silent or sub-0.5 s test WAV.

    The samples are dropped on return, so checking a corpus holds one file at a time.
    """
    samples = corpus_mod.read_wav(path).samples
    if not samples.any():
        raise ConfigError(f"{path}: no scorable active frames")  # llr runs before srmr
    if samples.size < frontend.SAMPLE_RATE // 2:
        raise ConfigError(f"{path}: srmr needs at least 0.5 s of signal")


def _score(
    tag: str, clean: dict[str, Waveform], files: dict[str, dict[str, Path]], report: Path
) -> dict[str, tuple[float, float]]:
    """Score each file against its clean reference, write ``report``, print and return per-condition means."""

    def score(utt_id: str, path: Path) -> quality.QualityReport:
        wave = corpus_mod.read_wav(path)
        try:
            return quality.quality_report(clean[utt_id], wave)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err

    rows, means = [], {}
    for name, paths in files.items():
        scores = [score(utt_id, path) for utt_id, path in paths.items()]
        rows += [[utt_id, name, f"{s.llr:.6f}", f"{s.srmr:.6f}", s.n_active_frames] for utt_id, s in zip(paths, scores)]
        means[name] = (float(np.mean([s.llr for s in scores])), float(np.mean([s.srmr for s in scores])))
    with open(report, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "condition", "llr", "srmr", "n_active_frames"])
        writer.writerows(rows)
    for name, (mean_llr, mean_srmr) in means.items():
        print(f"{tag} {name}: n={len(clean)} mean_llr={mean_llr:.4f} mean_srmr={mean_srmr:.4f}")
    return means


def cmd_evaluate(
    manifest: str, enhanced_dir: str, noisy_dir: str | None, report_path: str | None, check_direction: bool
) -> int:
    if check_direction and noisy_dir is None:
        raise ConfigError("--check-direction needs --noisy-dir")
    if report_path:
        _check_out_dir(report_path)
    # both directories are listed and every file is checked before anything is scored or written
    clean_paths = _manifest_paths(manifest)
    clean = {utt_id: corpus_mod.read_wav(path) for utt_id, path in clean_paths.items()}
    enhanced = _condition_files(Path(enhanced_dir), clean)
    noisy = None if noisy_dir is None else _condition_files(Path(noisy_dir), clean)
    absent = [name for name in enhanced if name not in noisy] if check_direction else []
    if absent:
        raise ConfigError(f"--check-direction: {noisy_dir} has no condition {', '.join(absent)}")
    for utt_id, path in clean_paths.items():
        try:
            if not quality.vad_mask(clean[utt_id]).any():
                raise ValueError("reference has no active frames")
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from err
    for files in (enhanced, noisy or {}):
        for paths in files.values():
            for path in paths.values():
                _check_scorable(path)

    report = Path(report_path) if report_path else Path(enhanced_dir) / "report.csv"
    enh_means = _score("enhanced", clean, enhanced, report)
    if noisy is None:
        return 0
    raw_means = _score("unprocessed", clean, noisy, report.with_name(report.stem + "_unprocessed.csv"))

    if not check_direction:
        return 0
    failures = []
    for name, (enh_llr, enh_srmr) in enh_means.items():
        raw_llr, raw_srmr = raw_means[name]
        if enh_srmr <= raw_srmr:
            failures.append(f"{name}: enhanced mean SRMR {enh_srmr:.4f} <= unprocessed {raw_srmr:.4f}")
        if enh_llr >= raw_llr:
            failures.append(f"{name}: enhanced mean LLR {enh_llr:.4f} >= unprocessed {raw_llr:.4f}")
    if failures:
        raise CommandError("direction check failed:\n  " + "\n  ".join(failures))
    print("direction check passed: enhancement improves LLR and SRMR in every condition")
    return 0


def cmd_gradcheck(step: float) -> int:
    """Finite-difference check of small float64 models of both kinds."""
    if not 0 < step < math.inf:
        raise ConfigError(f"--step must be positive and finite, got {step}")
    worst = 0.0
    for kind in (netmodel.KIND_CCRN, netmodel.KIND_CCRN_STATE):
        rng = np.random.default_rng(44)
        config = ModelConfig(kind=kind, blocks=2, channels=8, state_step=4, input_dim=12)
        model = netmodel.build_model(config, seed=1, dtype=np.float64)
        x = rng.standard_normal((12, config.input_dim))
        target = rng.standard_normal((12, config.channels))

        def loss_fn():
            _, probes = netmodel.forward_nodes(model, diffcore.Node(x), want_probes=True)
            total, _ = objectives.cost_graph(probes, target, alpha=0.1)
            return total

        # finite differences are only valid away from the PReLU kink
        margin = diffcore.kink_margin(loss_fn())
        if margin <= 10.0 * step:
            raise CommandError(f"{kind}: kink margin {margin:.2e} too small for step {step:.0e}")
        params = [node for _, node in netmodel.named_parameters(model)]
        err = diffcore.grad_check(loss_fn, params, h=step)
        print(f"{kind}: max relative gradient error {err:.3e} (kink margin {margin:.2e})")
        worst = max(worst, err)
    if not worst < 1e-4:
        raise CommandError(f"gradient check failed: worst relative error {worst:.3e} >= 1e-4")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ccrn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a clean/corrupted evaluation corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_synth(load_config(a.config), a.out))

    p = sub.add_parser("train", help="train a model on on-the-fly corrupted examples")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--corpus", default=None, help="manifest of clean WAVs (default: synthesized)")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(run=lambda a: cmd_train(load_config(a.config), a.out, a.corpus, a.resume))

    p = sub.add_parser("enhance", help="enhance one WAV file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="in_wav", required=True)
    p.add_argument("--out", dest="out_wav", required=True)
    p.add_argument("--blocks", type=int, default=None, help="evaluate only the first N blocks")
    p.add_argument("--probes", default=None, help="directory for per-block CSV + WAV exports")
    p.set_defaults(run=lambda a: cmd_enhance(a.checkpoint, a.in_wav, a.out_wav, a.blocks, a.probes))

    p = sub.add_parser("evaluate", help="score enhanced (and optionally unprocessed) audio")
    p.add_argument("--manifest", required=True)
    p.add_argument("--enhanced-dir", required=True)
    p.add_argument("--noisy-dir", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--check-direction", action="store_true")
    p.set_defaults(run=lambda a: cmd_evaluate(a.manifest, a.enhanced_dir, a.noisy_dir, a.report, a.check_direction))

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--step", type=float, default=1e-5)
    p.set_defaults(run=lambda a: cmd_gradcheck(a.step))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as err:
        message, code = str(err), 1
    except (RuntimeError, OSError) as err:
        message, code = str(err), 2
    except KeyboardInterrupt:
        message, code = "interrupted", 2
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
