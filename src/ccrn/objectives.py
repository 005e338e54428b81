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

import contextlib
import csv
import ctypes
import functools
import glob
import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator, Sequence

import numpy as np

from . import corpus as corpus_mod
from . import diffcore, frontend, netmodel
from .diffcore import Node
from .frontend import FeatureSequence, LogSpectrogram, Waveform
from .netmodel import ModelParams

# step counters are stored as float32 in checkpoints, which is exact up to here
MAX_STEPS = 2**24
# longest reverberation time: a 10 s RIR is 160k taps, far beyond any room
MAX_RT60_S = 10.0
# held while a clean target is computed and memoized, so that each is computed once
_TARGETS_LOCK = threading.Lock()


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
    checkpoint_interval: int = 500

    def __post_init__(self):
        for name in ("alpha", "lr", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.seq_len < 2:
            raise ValueError(f"sequence length must be >= 2, got {self.seq_len}")
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1 or self.steps < 0:
            raise ValueError("batch size must be >= 1 and steps >= 0")
        if self.seed < 0:
            raise ValueError(f"train seed must be >= 0, got {self.seed}")
        if self.checkpoint_interval < 0:
            raise ValueError(f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}")
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be <= 2**24 (float32 step counters), got {self.steps}")
        if not self.rt60_choices:
            raise ValueError("at least one rt60 value is required")
        for rt60 in self.rt60_choices:
            if not 0.0 <= rt60 <= MAX_RT60_S:
                raise ValueError(f"rt60 values must be in [0, {MAX_RT60_S:g}] s, got {rt60}")
        for drr in self.drr_choices:
            if not math.isfinite(drr):
                raise ValueError(f"drr_db values must be finite, got {drr}")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be finite or inf (no noise), got {self.snr_db}")
        if self.noise_kind not in corpus_mod.NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {corpus_mod.NOISE_KINDS}, got {self.noise_kind!r}")


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


def progressive_cost(target, probes, alpha: float) -> CostReport:
    """Final-block cost plus the alpha-weighted mean of all block costs.

    The report ``cost_graph`` gives for the same block outputs (a
    ``ProbeTrace``, or a sequence of spectrograms or arrays), computed
    without a graph. The mean runs over every block, so the final block
    is counted in both terms.
    """

    def frames(x):
        return x.frames if isinstance(x, LogSpectrogram) else x

    with diffcore.no_grad():
        return cost_graph([Node(frames(p)) for p in probes], frames(target), alpha)[1]


def cost_graph(probes: Sequence[Node], target: np.ndarray, alpha: float) -> tuple[Node, CostReport]:
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
    if alpha == 0.0:
        total = main
    else:
        aux = diffcore.scale(diffcore.add_scalars(block_costs), alpha / len(block_costs))
        total = diffcore.add_scalars([main, aux])
    per_block = [float(node.value) for node in block_costs]
    return total, CostReport(float(total.value), per_block[-1], per_block)


def adamw_step(params: Sequence[tuple[str, Node]], state: OptimizerState, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update over named parameters.

    The decay applies to the weights after the Adam update:
    theta <- (theta - lr * m_hat / (sqrt(v_hat) + eps)) * (1 - lr * wd).
    Loshchilov & Hutter (arXiv:1711.05101) decay theta_{t-1} instead; the
    two differ by a term of order lr^2 * wd per step. Rejects the whole
    step (no parameter is touched) if any gradient is missing or
    non-finite.
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
        # the ufuncs of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and the update, in their
        # order, into two temporaries of the parameter's shape: the same bits with fewer arrays
        a, b = np.empty_like(p.value), np.empty_like(p.value)
        m *= cfg.beta1
        m += np.multiply(1.0 - cfg.beta1, g, out=a)
        v *= cfg.beta2
        np.multiply(1.0 - cfg.beta2, g, out=b)
        b *= g
        v += b
        # p.value -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.multiply(cfg.lr, np.divide(m, bc1, out=a), out=a)
        np.sqrt(np.divide(v, bc2, out=b), out=b)
        b += cfg.epsilon
        a /= b
        p.value -= a
        if cfg.weight_decay:
            p.value -= np.multiply(cfg.lr * cfg.weight_decay, p.value, out=a)


def sample_example(
    corpus: Sequence[Waveform],
    cfg: TrainConfig,
    index: int,
    *,
    targets: dict[int, LogSpectrogram] | None = None,
    scratch: frontend._Scratch | None = None,
) -> tuple[FeatureSequence, LogSpectrogram]:
    """Deterministic (noisy features, clean target) pair for one step index.

    Picks an utterance and corruption draw from (seed, index), corrupts the
    whole clean waveform, and cuts the same contiguous ``seq_len``-frame
    span from the noisy features and the clean log spectrum. A pick shorter
    than ``seq_len`` frames is a ``ValueError`` before it is corrupted.

    ``targets`` memoizes each utterance's full (read-only) clean log
    spectrum by corpus index, so a caller drawing many examples from one
    fixed corpus computes each target once; it costs one T x 512 float64
    array per distinct utterance. Targets are computed under a lock, so
    threads drawing at once may share one memo. ``scratch`` is the
    front-end's work buffer (a fresh one by default); a thread drawing many
    examples passes its own one to every call, since two threads may not
    use one scratch at once.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if targets is None:
        targets = {}
    if scratch is None:
        scratch = frontend._Scratch()
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, index, 0)))
    pick = int(rng.integers(len(corpus)))
    clean = corpus[pick]
    n_frames = frontend._n_frames(clean.samples.size)
    if n_frames < cfg.seq_len:
        raise ValueError(f"utterance {pick} has {n_frames} frames, not long enough for {cfg.seq_len}")
    rt60 = float(rng.choice(np.asarray(cfg.rt60_choices, dtype=float)))
    distance_drr = float(rng.choice(np.asarray(cfg.drr_choices, dtype=float)))
    rir_seed, noise_seed = (int(s) for s in rng.integers(2**31, size=2))
    spec = corpus_mod.CorruptionSpec(
        rir=corpus_mod.make_rir_spec(rt60, corpus_mod.room_drr(rt60, distance_drr), rir_seed),
        snr_db=cfg.snr_db,
        noise_kind=cfg.noise_kind,
        seed=noise_seed,
    )
    feats, _ = frontend._features(corpus_mod.corrupt(clean, spec), scratch)
    target = targets.get(pick)
    if target is None:
        with _TARGETS_LOCK:
            target = targets.get(pick)
            if target is None:
                target = frontend.target_spectrum(clean)
                target.frames.flags.writeable = False
                targets[pick] = target
    start = int(rng.integers(n_frames - cfg.seq_len + 1))
    span = slice(start, start + cfg.seq_len)
    return FeatureSequence(feats.frames[span], feats.norm_scale), LogSpectrogram(target.frames[span])


def _empty_batch(cfg: TrainConfig, dtype, n_bands: int) -> tuple[np.ndarray, np.ndarray]:
    return (np.empty((cfg.batch_size, cfg.seq_len, frontend.FEATURE_DIM), dtype=dtype),
            np.empty((cfg.batch_size, cfg.seq_len, n_bands), dtype=dtype))


def _put_example(
    corpus,
    cfg: TrainConfig,
    index: int,
    batch: tuple[np.ndarray, np.ndarray],
    clean_targets: dict[int, LogSpectrogram] | None = None,
    scratch: frontend._Scratch | None = None,
) -> None:
    """Example ``index`` into row ``index % cfg.batch_size`` of a batch's features and targets."""
    f, y = sample_example(corpus, cfg, index, targets=clean_targets, scratch=scratch)
    feats, targets = batch
    feats[index % cfg.batch_size] = f.frames
    targets[index % cfg.batch_size] = frontend.fold_spectrum(y.frames, targets.shape[-1])


def _batch(
    corpus,
    cfg: TrainConfig,
    step: int,
    dtype,
    n_bands: int,
    clean_targets: dict[int, LogSpectrogram] | None = None,
    scratch: frontend._Scratch | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Step ``step``'s batch, built serially on the calling thread."""
    batch = _empty_batch(cfg, dtype, n_bands)
    for index in range(step * cfg.batch_size, (step + 1) * cfg.batch_size):
        _put_example(corpus, cfg, index, batch, clean_targets, scratch)
    return batch


@functools.cache
def _openblas_threads_api() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None if it has none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[bool]:
    """Run the body with numpy's OpenBLAS on one thread, then restore its count.

    Yields False, and changes nothing, when the thread count cannot be set.
    """
    api = _openblas_threads_api()
    if api is None:
        yield False
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


# Training overlaps batch synthesis with the network (a worker thread,
# BLAS on one thread) when the model's multiply-adds per frame, its conv
# weight count, are at most this. One BLAS thread loses once the network
# dominates the step. Median ms per step, serial at 2 BLAS threads ->
# overlap at 1 (ccrn, batch 8 x 200, float32, 2-core AMD EPYC, OpenBLAS
# 0.3.31; one or two runs of 15 steps each way), measured with a worker
# that built whole batches, one ahead:
#   4 x 128    0.73 M    72     ->   62
#   14 x 128   1.71 M   131     ->  108
#   4 x 256    2.25 M   118-125 ->  101-103
#   6 x 256    3.03 M   142-150 ->  140-142
#   8 x 256    3.82 M   169-178 ->  175-182
#   4 x 512    7.64 M   244-245 ->  302-309
#   14 x 512  23.4 M    638     ->  954
# Re-measured with examples shared between the worker and the training
# thread, in a host phase ~2.5x slower (two or three runs of 15-20 steps):
#   4 x 128   200-230 -> 130-152;  4 x 256  323-365 -> 254-267
#   6 x 256   405-542 -> 367-445;  8 x 256  492-538 -> 454-549
# so the overlap still wins up to 6 x 256, and 8 x 256 is within the
# host's noise; the rule stays where the first table put it.
OVERLAP_MAX_MACS = 3_500_000


def _conv_macs_per_frame(model: ModelParams) -> int:
    return sum(node.value.size for name, node in netmodel.named_parameters(model) if name.endswith(".weight"))


class _SharedBatches:
    """The batches of ``steps``, built one example at a time by the training thread and a worker.

    With ``overlap`` each example is one task of a one-thread pool, queued
    in example order: ``take(step)`` queues the batches of steps ``step``
    to ``step + AHEAD`` not queued yet, so the worker builds at most
    ``AHEAD`` batches ahead of the one being trained. ``take`` then builds on the
    calling thread, through a scratch that lives only inside ``take``,
    every task of its batch the worker has not started (each one it can
    still cancel), and waits for the ones the worker did start. Without
    ``overlap`` it builds the whole batch. A failed example is raised by
    ``take`` of its own step, the lowest failed example's error, as a
    serial run would raise it. ``close`` cancels the queued tasks and joins
    the worker after its current example.
    """

    AHEAD = 1

    def __init__(self, corpus, cfg: TrainConfig, steps: range, dtype, n_bands: int, overlap: bool) -> None:
        self._corpus, self._cfg, self._steps, self._dtype, self._n_bands = corpus, cfg, steps, dtype, n_bands
        self._clean_targets: dict[int, LogSpectrogram] = {}  # corpus index -> full clean log spectrum
        self._queued: dict[int, tuple[tuple[np.ndarray, np.ndarray], list[Future]]] = {}
        self._worker_scratch: frontend._Scratch | None = None
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="ccrn-batches") if overlap else None

    def _work(self, index: int, batch: tuple[np.ndarray, np.ndarray]) -> None:
        if self._worker_scratch is None:  # made by the worker, the one thread that runs this
            self._worker_scratch = frontend._Scratch()
        _put_example(self._corpus, self._cfg, index, batch, self._clean_targets, self._worker_scratch)

    def _queue(self, step: int) -> None:
        """Step ``step``'s examples queued on the worker, unless the run has no such step or they are queued."""
        if step in self._steps and step not in self._queued:
            batch = _empty_batch(self._cfg, self._dtype, self._n_bands)
            first = step * self._cfg.batch_size
            indices = range(first, first + self._cfg.batch_size)
            self._queued[step] = batch, [self._pool.submit(self._work, index, batch) for index in indices]

    def take(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """Step ``step``'s features and targets, once every one of its examples is built."""
        scratch = frontend._Scratch()  # the training thread's, freed on return
        if self._pool is None:
            return _batch(self._corpus, self._cfg, step, self._dtype, self._n_bands, self._clean_targets, scratch)
        for ahead in range(step, step + self.AHEAD + 1):
            self._queue(ahead)
        batch, tasks = self._queued.pop(step)
        first = step * self._cfg.batch_size
        errors: dict[int, BaseException] = {}
        for index, task in enumerate(tasks, first):
            # a task the worker started cannot be cancelled; after a failure the rest are only cancelled
            if task.cancel() and not errors:
                try:
                    _put_example(self._corpus, self._cfg, index, batch, self._clean_targets, scratch)
                except Exception as exc:  # a Ctrl-C leaves at once; close() still stops the worker
                    errors[index] = exc
        for index, task in enumerate(tasks, first):
            if not task.cancelled() and task.exception() is not None:
                errors[index] = task.exception()
        if errors:
            raise errors[min(errors)]
        return batch

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)


def train(
    model: ModelParams,
    corpus: Sequence[Waveform],
    cfg: TrainConfig,
    *,
    log_path=None,
    checkpoint_path=None,
    opt_state: OptimizerState | None = None,
    print_every: int = 0,
) -> list[CostReport]:
    """Run AdamW updates of the (progressive) cost; returns per-step reports.

    Starts at step ``opt_state.t`` (0 without a state). Before it touches a
    file it refuses a state past ``cfg.steps``, and a corpus with no
    utterance of ``cfg.seq_len`` frames; it draws only from the utterances
    that long (``check_start``). Writes one CSV row per
    step to ``log_path``; a resumed run first rewrites the log as the
    header plus its rows below that step, and a damaged row is a
    ``ValueError`` naming ``<log>:<line>``. Refreshes ``checkpoint_path``
    every ``cfg.checkpoint_interval`` steps and saves it once at the end,
    flushing the log first (optimizer moments ride along, so a resumed run
    continues the exact trajectory). Divergence aborts with the last
    checkpoint intact.
    """
    params = netmodel.named_parameters(model)
    state = opt_state if opt_state is not None else OptimizerState()
    corpus = check_start(state, cfg, corpus)
    dtype = model.first_layer.weight.value.dtype
    n_blocks = model.config.blocks
    reports: list[CostReport] = []
    log = None

    def save() -> None:
        if checkpoint_path is None:
            return
        if log is not None:
            log.flush()
        extra = {f"opt.m.{k}": v for k, v in state.m.items()}
        extra.update({f"opt.v.{k}": v for k, v in state.v.items()})
        extra["opt.t"] = extra["train.step"] = np.array([state.t], dtype=np.float32)
        netmodel.save_checkpoint(checkpoint_path, model, extra)

    with contextlib.ExitStack() as stack:
        writer = None
        if log_path is not None:
            header = ["step", "total", "main"] + [f"per_block_{l}" for l in range(1, n_blocks + 1)]
            kept = _log_rows_below(log_path, state.t, len(header))
            log = stack.enter_context(open(log_path, "w", newline=""))
            writer = csv.writer(log)
            writer.writerow(header)
            writer.writerows(kept)

        steps = range(state.t, cfg.steps)
        overlap = _conv_macs_per_frame(model) <= OVERLAP_MAX_MACS and stack.enter_context(_one_blas_thread())
        batches = _SharedBatches(corpus, cfg, steps, dtype, model.config.channels, overlap)
        # the worker stops and is joined, and then the BLAS count is restored, on every exit
        stack.callback(batches.close)
        for step in steps:
            x_np, y_np = batches.take(step)
            out, probes = netmodel.forward_nodes(model, Node(x_np), want_probes=True)
            total, report = cost_graph(probes, y_np, cfg.alpha)
            if not math.isfinite(report.total):
                raise TrainingDiverged(f"cost became {report.total} at step {step}")
            diffcore.zero_grads(node for _, node in params)
            diffcore.backprop(total)
            adamw_step(params, state, cfg)
            del out, probes, total, x_np, y_np  # free this step's graph and batch before the next is taken
            reports.append(report)
            if writer is not None:
                writer.writerow([step, repr(report.total), repr(report.main)] + [repr(c) for c in report.per_block])
            if print_every and (step + 1) % print_every == 0:
                blocks = " ".join(f"{c:.4f}" for c in report.per_block)
                print(f"step {step + 1}/{cfg.steps} total {report.total:.5f} main {report.main:.5f} blocks [{blocks}]")
            # the last step's checkpoint is the final save below
            if cfg.checkpoint_interval and (step + 1) % cfg.checkpoint_interval == 0 and step + 1 < cfg.steps:
                save()
        save()
    return reports


def _log_rows_below(log_path, step: int, n_columns: int) -> list[list[str]]:
    """The rows of an existing training log whose step is below ``step``.

    Every row needs a whole-number step; a kept row also needs
    ``n_columns`` fields. Rows from ``step`` on are dropped whatever their
    columns, so a row a kill cut short after the last checkpoint does not
    block a resume.
    """
    if not step or not os.path.exists(log_path):
        return []
    kept = []
    with open(log_path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # header
        for row in reader:
            if not (row and row[0].isdecimal()):
                raise ValueError(f"{log_path}:{reader.line_num}: training log row has no integer step")
            if int(row[0]) < step:
                if len(row) != n_columns:
                    raise ValueError(f"{log_path}:{reader.line_num}: {len(row)} columns, expected {n_columns}")
                kept.append(row)
    return kept


def _step_counter(extra: dict[str, np.ndarray], name: str) -> int:
    """A stored step counter: one whole number in [0, MAX_STEPS]."""
    arr = extra[name]
    if arr.shape != (1,):
        raise ValueError(f"checkpoint {name} has shape {arr.shape}, expected (1,)")
    value = float(arr[0])
    if not (value.is_integer() and 0 <= value <= MAX_STEPS):
        raise ValueError(f"checkpoint {name} is {value}, expected a whole number in [0, 2**24]")
    return int(value)


def check_start(state: OptimizerState, cfg: TrainConfig, corpus: Sequence[Waveform]) -> list[Waveform]:
    """The utterances of ``corpus`` with at least ``cfg.seq_len`` feature frames, in corpus order.

    Rejects a state past ``cfg.steps``, an empty corpus, and a corpus with no utterance that long.
    """
    if state.t > cfg.steps:
        raise ValueError(f"optimizer state is at step {state.t}, past the configured {cfg.steps} steps")
    if not corpus:
        raise ValueError("empty corpus")
    trainable = [w for w in corpus if frontend._n_frames(w.samples.size) >= cfg.seq_len]
    if not trainable:
        raise ValueError(f"no utterance long enough for {cfg.seq_len} frames")
    return trainable


def resume_state(extra: dict[str, np.ndarray], model: ModelParams) -> OptimizerState:
    """Optimizer state from checkpoint extras; its ``t`` is the next step index.

    Both stored counters must be valid and equal. Past step 0 every
    parameter of ``model`` needs both moments, each of the parameter's
    shape, and no moment may be left without a parameter. The moment
    arrays are taken over as they are, not copied.
    """
    if "opt.t" not in extra or "train.step" not in extra:
        raise ValueError("checkpoint carries no optimizer state; it cannot be resumed")
    t, step = _step_counter(extra, "opt.t"), _step_counter(extra, "train.step")
    if t != step:
        raise ValueError(f"checkpoint opt.t is {t} but train.step is {step}; they must agree")
    state = OptimizerState(t=t)
    shapes = {name: node.value.shape for name, node in netmodel.named_parameters(model)}
    for prefix, moments in (("opt.m.", state.m), ("opt.v.", state.v)):
        for key, arr in ((k, a) for k, a in extra.items() if k.startswith(prefix)):
            name = key.removeprefix(prefix)
            if name not in shapes:
                raise ValueError(f"checkpoint {key} belongs to no model parameter")
            if arr.shape != shapes[name]:
                raise ValueError(f"checkpoint {key} has shape {arr.shape}, expected {shapes[name]}")
            moments[name] = arr
        missing = [name for name in shapes if name not in moments]
        if t and missing:
            raise ValueError(f"checkpoint at step {t} is missing {prefix}{missing[0]}")
    return state
