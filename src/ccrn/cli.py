"""Command-line entry point: synth, train, enhance, evaluate, gradcheck.

Configuration is flat ``key = value`` text (``#`` comments allowed) with a
fixed key list; unknown keys are rejected before any side effect. Exit
codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
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


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(","))


@dataclass
class RunConfig:
    """Union of model, training, and corpus settings plus I/O paths."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    utterances: int = 20
    duration_s: float = 3.0
    corpus_seed: int = 100
    paths: dict[str, str] = field(default_factory=dict)


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
    "train.sum_excludes_final": ("train", "sum_excludes_final", _parse_bool),
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
    paths: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key.startswith("paths."):
            paths[key[len("paths."):]] = raw
            continue
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        section, attr, coerce = _CONFIG_KEYS[key]
        try:
            value = coerce(raw)
        except ValueError as err:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {err}") from err
        {"model": model_kw, "train": train_kw, "top": top_kw}[section][attr] = value
    try:
        return RunConfig(
            model=ModelConfig(**model_kw), train=TrainConfig(**train_kw), paths=paths, **top_kw
        )
    except ValueError as err:
        raise ConfigError(f"{source}: {err}") from err


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(), str(p))


def _read_manifest_audio(manifest_path: str) -> dict[str, Waveform]:
    """Utterance id -> waveform for every manifest row, in row order.

    Relative WAV paths resolve against the manifest's directory.
    """
    base = Path(manifest_path).parent
    waves = {}
    for utt_id, wav_path, _ in corpus_mod.read_manifest(manifest_path):
        p = Path(wav_path)
        waves[utt_id] = corpus_mod.read_wav(p if p.is_absolute() else base / p)
    if not waves:
        raise ConfigError(f"{manifest_path}: manifest lists no utterances")
    return waves


def _load_corpus(config: RunConfig, manifest_path: str | None) -> list[Waveform]:
    if manifest_path is not None:
        return list(_read_manifest_audio(manifest_path).values())
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    waves = _load_corpus(config, manifest_path)

    opt_state = None
    start_step = 0
    if resume is not None:
        model, extra = netmodel.load_checkpoint(resume)
        if model.config != config.model:
            raise ConfigError(f"checkpoint model {model.config} does not match configured {config.model}")
        opt_state, start_step = objectives.resume_state(extra)
    else:
        model = netmodel.build_model(config.model, seed=config.train.seed)

    reports = objectives.train(
        model,
        waves,
        config.train,
        log_path=out / "train_log.csv",
        checkpoint_path=out / "checkpoint.bin",
        opt_state=opt_state,
        start_step=start_step,
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


def cmd_enhance(checkpoint: str, in_wav: str, out_wav: str, blocks: int | None, probes_dir: str | None) -> int:
    model, _ = netmodel.load_checkpoint(checkpoint)
    if blocks is not None and not 1 <= blocks <= model.config.blocks:
        raise ConfigError(f"--blocks must be in [1, {model.config.blocks}], got {blocks}")
    noisy = corpus_mod.read_wav(in_wav)

    enhanced, probes, phase = enhance_waveform(model, noisy, blocks, probes_dir is not None)
    _write_peak_normalized(out_wav, enhanced)

    if probes is not None:
        pdir = Path(probes_dir)
        pdir.mkdir(parents=True, exist_ok=True)
        for l, spectrum in enumerate(probes, start=1):
            np.savetxt(pdir / f"block_{l:02d}.csv", spectrum.frames, delimiter=",")
            _write_peak_normalized(
                pdir / f"block_{l:02d}.wav", frontend.reconstruct(spectrum, phase, noisy.samples.size)
            )
        print(f"wrote {len(probes)} probe spectra and reconstructions to {pdir}")
    return 0


def _condition_dirs(root: Path) -> list[Path]:
    if not root.is_dir():
        raise ConfigError(f"not a directory: {root}")
    dirs = sorted(p for p in root.iterdir() if p.is_dir())
    return dirs if dirs else [root]


def _score_directory(rows, clean: dict[str, Waveform], test_root: Path) -> dict[str, list[quality.QualityReport]]:
    conditions = _condition_dirs(test_root)
    missing = []
    for cond in conditions:
        for utt_id in clean:
            if not (cond / f"{utt_id}.wav").is_file():
                missing.append(str(cond / f"{utt_id}.wav"))
    if missing:
        raise CommandError("missing files:\n  " + "\n  ".join(missing))

    per_condition: dict[str, list[quality.QualityReport]] = {}
    for cond in conditions:
        name = cond.name if cond != test_root else "."
        reports = []
        for utt_id, ref in clean.items():
            report = quality.quality_report(ref, corpus_mod.read_wav(cond / f"{utt_id}.wav"))
            reports.append(report)
            rows.append([utt_id, name, f"{report.llr:.6f}", f"{report.srmr:.6f}", report.n_active_frames])
        per_condition[name] = reports
    return per_condition


def _write_report(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "condition", "llr", "srmr", "n_active_frames"])
        writer.writerows(rows)


def _summarize(tag: str, per_condition) -> dict[str, tuple[float, float]]:
    means = {}
    for name, reports in sorted(per_condition.items()):
        mean_llr = float(np.mean([r.llr for r in reports]))
        mean_srmr = float(np.mean([r.srmr for r in reports]))
        means[name] = (mean_llr, mean_srmr)
        print(f"{tag} {name}: n={len(reports)} mean_llr={mean_llr:.4f} mean_srmr={mean_srmr:.4f}")
    return means


def cmd_evaluate(
    manifest: str, enhanced_dir: str, noisy_dir: str | None, report_path: str | None, check_direction: bool
) -> int:
    rows_enh: list = []
    clean = _read_manifest_audio(manifest)
    enhanced = _score_directory(rows_enh, clean, Path(enhanced_dir))
    report = Path(report_path) if report_path else Path(enhanced_dir) / "report.csv"
    _write_report(report, rows_enh)
    enh_means = _summarize("enhanced", enhanced)

    if noisy_dir is None:
        return 0
    rows_noisy: list = []
    unprocessed = _score_directory(rows_noisy, clean, Path(noisy_dir))
    _write_report(report.with_name(report.stem + "_unprocessed.csv"), rows_noisy)
    raw_means = _summarize("unprocessed", unprocessed)

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
    worst = 0.0
    for kind in (netmodel.KIND_CCRN, netmodel.KIND_CCRN_STATE):
        rng = np.random.default_rng(44)
        config = ModelConfig(kind=kind, blocks=2, channels=8, state_step=4, input_dim=12)
        model = netmodel.build_model(config, seed=1, dtype=np.float64)
        x = rng.standard_normal((config.input_dim, 12))
        target = rng.standard_normal((config.channels, 12))

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
    if worst >= 1e-4:
        raise CommandError(f"gradient check failed: worst relative error {worst:.3e} >= 1e-4")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ccrn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a clean/corrupted evaluation corpus")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model on on-the-fly corrupted examples")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--corpus", default=None, help="manifest of clean WAVs (default: synthesized)")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")

    p = sub.add_parser("enhance", help="enhance one WAV file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="in_wav", required=True)
    p.add_argument("--out", dest="out_wav", required=True)
    p.add_argument("--blocks", type=int, default=None, help="evaluate only the first N blocks")
    p.add_argument("--probes", default=None, help="directory for per-block CSV + WAV exports")

    p = sub.add_parser("evaluate", help="score enhanced (and optionally unprocessed) audio")
    p.add_argument("--manifest", required=True)
    p.add_argument("--enhanced-dir", required=True)
    p.add_argument("--noisy-dir", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--check-direction", action="store_true")

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--step", type=float, default=1e-5)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(load_config(args.config), args.out)
        if args.command == "train":
            return cmd_train(load_config(args.config), args.out, args.corpus, args.resume)
        if args.command == "enhance":
            return cmd_enhance(args.checkpoint, args.in_wav, args.out_wav, args.blocks, args.probes)
        if args.command == "evaluate":
            return cmd_evaluate(
                args.manifest, args.enhanced_dir, args.noisy_dir, args.report, args.check_direction
            )
        if args.command == "gradcheck":
            return cmd_gradcheck(args.step)
        raise CommandError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (CommandError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
