"""Training costs, AdamW, and the on-the-fly training loop.

The base cost is the mean squared difference between the target log
spectrum and the network output; progressive supervision adds the same
cost at every block's probe output, weighted by alpha and averaged over
blocks (the final block therefore contributes to both terms). Examples
are synthesized on demand: a random utterance is corrupted (reverb +
noise) and a contiguous span of frames is cut from the aligned
noisy-feature / clean-target pair. Everything is deterministic given the
config seed.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from . import corpus as corpus_mod
from . import diffcore, frontend, netmodel
from .diffcore import Node
from .frontend import FeatureSequence, LogSpectrogram, Waveform
from .netmodel import ModelParams

# step counters are stored as float32 in checkpoints, which is exact up to here
MAX_STEPS = 2**24


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; the Adam moment decays and epsilon are fixed."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8

    alpha: float = 0.1
    seq_len: int = 200
    batch_size: int = 8
    lr: float = 1e-4
    weight_decay: float = 1e-5
    steps: int = 1000
    seed: int = 0
    rt60_choices: tuple[float, ...] = (0.25, 0.5, 0.7)
    drr_choices: tuple[float, ...] = (5.0, -5.0)
    snr_db: float = 20.0
    noise_kind: str = "speech-shaped"
    sum_excludes_final: bool = False
    checkpoint_interval: int = 500

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.seq_len < 2:
            raise ValueError(f"sequence length must be >= 2, got {self.seq_len}")
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.batch_size < 1 or self.steps < 0:
            raise ValueError("batch size must be >= 1 and steps >= 0")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be <= 2**24 (float32 step counters), got {self.steps}")
        if not self.rt60_choices:
            raise ValueError("at least one rt60 value is required")


@dataclass
class OptimizerState:
    """Per-parameter first/second moments and the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


@dataclass
class CostReport:
    total: float
    main: float
    per_block: list[float]


class TrainingDiverged(RuntimeError):
    pass


def mse_cost(target, estimate) -> float:
    """Mean squared elementwise difference of two equal-shape spectrograms."""
    return progressive_cost(target, [estimate], alpha=0.0).main


def progressive_cost(target, probes, alpha: float, exclude_final: bool = False) -> CostReport:
    """Final-block cost plus the alpha-weighted mean of all block costs.

    The report ``cost_graph`` gives for the same block outputs (a
    ``ProbeTrace``, or a sequence of spectrograms or arrays), computed
    without a graph. ``exclude_final`` drops the last block from the
    auxiliary sum (normalizing by L-1) for ablation; by default the sum
    runs over every block, so the final block is counted in both terms.
    """

    def frames(x):
        return x.frames if isinstance(x, LogSpectrogram) else x

    with diffcore.no_grad():
        return cost_graph([Node(frames(p)) for p in probes], frames(target), alpha, exclude_final)[1]


def cost_graph(
    probes: Sequence[Node], target: np.ndarray, alpha: float, exclude_final: bool = False
) -> tuple[Node, CostReport]:
    """Differentiable cost node plus the per-block report for logging.

    Each block's probe gets one cost node; the last block's node is the
    main cost, and the report reads its values from these nodes. With
    alpha = 0 the graph is exactly that main node (no other probe enters
    it), so the parameter trajectory is bit-identical to a run without
    progressive supervision.
    """
    if not probes:
        raise ValueError("progressive cost needs at least one block output")
    block_costs = [diffcore.mse(p, target) for p in probes]
    main = block_costs[-1]
    aux_nodes = block_costs[:-1] if exclude_final else block_costs
    if alpha == 0.0 or not aux_nodes:
        total = main
    else:
        aux = diffcore.scale(diffcore.add_scalars(aux_nodes), alpha / len(aux_nodes))
        total = diffcore.add_scalars([main, aux])
    per_block = [float(node.value) for node in block_costs]
    return total, CostReport(float(total.value), per_block[-1], per_block)


def adamw_step(params: Sequence[tuple[str, Node]], state: OptimizerState, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update over named parameters.

    Rejects the whole step (no parameter is touched) if any gradient is
    missing or non-finite.
    """
    for name, p in params:
        if p.grad is None:
            raise ValueError(f"adamw_step: parameter {name!r} has no gradient")
        if not np.all(np.isfinite(p.grad)):
            raise ValueError(f"adamw_step: non-finite gradient in {name!r}")

    state.t += 1
    bc1 = 1.0 - cfg.beta1**state.t
    bc2 = 1.0 - cfg.beta2**state.t
    for name, p in params:
        g = p.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
        m, v = state.m[name], state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        p.value -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
        if cfg.weight_decay:
            p.value -= (cfg.lr * cfg.weight_decay) * p.value


def sample_example(
    corpus: Sequence[Waveform],
    cfg: TrainConfig,
    index: int,
    *,
    targets: dict[int, LogSpectrogram] | None = None,
) -> tuple[FeatureSequence, LogSpectrogram]:
    """Deterministic (noisy features, clean target) pair for one step index.

    Picks an utterance and corruption draw from (seed, index), corrupts the
    whole clean waveform, and cuts the same contiguous ``seq_len``-frame
    span from the noisy features and the clean log spectrum. Utterances too
    short for the span are skipped with a deterministic redraw.

    ``targets`` memoizes each utterance's full (read-only) clean log
    spectrum by corpus index, so a caller drawing many examples from one
    fixed corpus computes each target once; it costs one T x 512 float64
    array per distinct utterance.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if targets is None:
        targets = {}
    for attempt in range(4 * len(corpus) + 4):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, index, attempt)))
        pick = int(rng.integers(len(corpus)))
        clean = corpus[pick]
        rt60 = float(rng.choice(np.asarray(cfg.rt60_choices, dtype=float)))
        distance_drr = float(rng.choice(np.asarray(cfg.drr_choices, dtype=float)))
        rir_seed, noise_seed = (int(s) for s in rng.integers(2**31, size=2))
        spec = corpus_mod.CorruptionSpec(
            rir=corpus_mod.make_rir_spec(rt60, corpus_mod.room_drr(rt60, distance_drr), rir_seed),
            snr_db=cfg.snr_db,
            noise_kind=cfg.noise_kind,
            seed=noise_seed,
        )
        noisy = corpus_mod.corrupt(clean, spec)
        feats, _ = frontend.assemble_features(noisy)
        n_frames = feats.frames.shape[0]
        if n_frames < cfg.seq_len:
            continue
        if pick not in targets:
            targets[pick] = frontend.target_spectrum(clean)
            targets[pick].frames.flags.writeable = False
        target = targets[pick]
        start = int(rng.integers(n_frames - cfg.seq_len + 1))
        stop = start + cfg.seq_len
        return (
            FeatureSequence(feats.frames[start:stop], feats.norm_scale),
            LogSpectrogram(target.frames[start:stop]),
        )
    raise ValueError(f"no utterance long enough for {cfg.seq_len} frames")


def _batch(
    corpus, cfg: TrainConfig, step: int, dtype, n_bands: int, clean_targets: dict[int, LogSpectrogram] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    feats, targets = [], []
    for j in range(cfg.batch_size):
        f, y = sample_example(corpus, cfg, step * cfg.batch_size + j, targets=clean_targets)
        target = y.frames if n_bands == y.frames.shape[1] else frontend.fold_spectrum(y.frames, n_bands)
        feats.append(f.frames.T)
        targets.append(target.T)
    return np.stack(feats).astype(dtype), np.stack(targets).astype(dtype)


def train(
    model: ModelParams,
    corpus: Sequence[Waveform],
    cfg: TrainConfig,
    *,
    log_path=None,
    checkpoint_path=None,
    opt_state: OptimizerState | None = None,
    start_step: int = 0,
    print_every: int = 0,
) -> list[CostReport]:
    """Run AdamW updates of the (progressive) cost; returns per-step reports.

    Writes one CSV row per step to ``log_path``; a resumed run first
    rewrites the log as the header plus the rows below ``start_step``.
    Refreshes ``checkpoint_path`` every ``cfg.checkpoint_interval`` steps
    and saves it once at the end (optimizer moments ride along, so a
    resumed run continues the exact trajectory). Divergence aborts with the
    last checkpoint intact.
    """
    params = netmodel.named_parameters(model)
    state = opt_state if opt_state is not None else OptimizerState()
    netmodel.set_training(model, True)
    dtype = model.first_layer.weight.value.dtype
    n_blocks = model.config.blocks
    reports: list[CostReport] = []
    clean_targets: dict[int, LogSpectrogram] = {}  # corpus index -> full clean log spectrum

    log_fh = None
    writer = None
    if log_path is not None:
        kept = []
        if start_step and os.path.exists(log_path):
            with open(log_path, newline="") as fh:
                kept = [row for row in list(csv.reader(fh))[1:] if int(row[0]) < start_step]
        log_fh = open(log_path, "w", newline="")
        writer = csv.writer(log_fh)
        writer.writerow(["step", "total", "main"] + [f"per_block_{l}" for l in range(1, n_blocks + 1)])
        writer.writerows(kept)

    def save(step: int) -> None:
        if checkpoint_path is None:
            return
        extra = {f"opt.m.{k}": v for k, v in state.m.items()}
        extra.update({f"opt.v.{k}": v for k, v in state.v.items()})
        extra["opt.t"] = np.array([state.t], dtype=np.float32)
        extra["train.step"] = np.array([step], dtype=np.float32)
        netmodel.save_checkpoint(checkpoint_path, model, extra)

    try:
        for step in range(start_step, cfg.steps):
            x_np, y_np = _batch(corpus, cfg, step, dtype, model.config.channels, clean_targets)
            x = Node(x_np)
            _, probes = netmodel.forward_nodes(model, x, want_probes=True)
            total, report = cost_graph(probes, y_np, cfg.alpha, cfg.sum_excludes_final)
            if not math.isfinite(report.total):
                raise TrainingDiverged(f"cost became {report.total} at step {step}")
            diffcore.zero_grads(node for _, node in params)
            diffcore.backprop(total)
            adamw_step(params, state, cfg)
            reports.append(report)
            if writer is not None:
                writer.writerow([step, repr(report.total), repr(report.main)] + [repr(c) for c in report.per_block])
            if print_every and (step + 1) % print_every == 0:
                blocks = " ".join(f"{c:.4f}" for c in report.per_block)
                print(f"step {step + 1}/{cfg.steps} total {report.total:.5f} main {report.main:.5f} blocks [{blocks}]")
            # the last step's checkpoint is the final save below
            if cfg.checkpoint_interval and (step + 1) % cfg.checkpoint_interval == 0 and step + 1 < cfg.steps:
                save(step + 1)
        save(cfg.steps)
    finally:
        if log_fh is not None:
            log_fh.close()
    return reports


def _step_counter(extra: dict[str, np.ndarray], name: str) -> int:
    """A stored step counter: one whole number in [0, MAX_STEPS]."""
    arr = extra[name]
    if arr.shape != (1,):
        raise ValueError(f"checkpoint {name} has shape {arr.shape}, expected (1,)")
    value = float(arr[0])
    if not (value.is_integer() and 0 <= value <= MAX_STEPS):
        raise ValueError(f"checkpoint {name} is {value}, expected a whole number in [0, 2**24]")
    return int(value)


def resume_state(extra: dict[str, np.ndarray]) -> tuple[OptimizerState, int]:
    """Optimizer state and next step index from checkpoint extras.

    The moment arrays are taken over as they are, not copied.
    """
    if "opt.t" not in extra or "train.step" not in extra:
        raise ValueError("checkpoint carries no optimizer state; it cannot be resumed")
    state = OptimizerState(t=_step_counter(extra, "opt.t"))
    for name, arr in extra.items():
        if name.startswith("opt.m."):
            state.m[name[len("opt.m."):]] = arr
        elif name.startswith("opt.v."):
            state.v[name[len("opt.v."):]] = arr
    return state, _step_counter(extra, "train.step")
