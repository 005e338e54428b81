"""Constant-channel residual architectures with per-block probe outputs.

Two variants share a first 876->512 convolution and a stack of residual
blocks that keep 512 channels on the residual path, so the value after
every block lives in the target log-spectrum domain and can be probed.
The state variant additionally carries a growing side path (32*l channels
after block l) that is concatenated onto the next block's input; the last
block has no state output, since nothing would read it. Models can be
truncated to a block prefix at evaluation time, and serialize to a small
binary checkpoint format (magic ``CCRN01``).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace
from typing import BinaryIO, Sequence

import numpy as np

from . import diffcore
from .diffcore import BatchNormState, Node
from .frontend import FFT_BINS, FeatureSequence, LogSpectrogram, unfold_spectrum

KIND_CCRN = "ccrn"
KIND_CCRN_STATE = "ccrn-state"
CHECKPOINT_MAGIC = b"CCRN01"
# relative cost improvement a block must bring for select_depth to keep it
DEPTH_GAIN = 0.01


@dataclass(frozen=True)
class ModelConfig:
    kind: str = KIND_CCRN
    blocks: int = 14
    channels: int = 512
    state_step: int = 32
    kernel: int = 3
    input_dim: int = 876

    def __post_init__(self):
        if self.kind not in (KIND_CCRN, KIND_CCRN_STATE):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.blocks < 1:
            raise ValueError(f"block count must be >= 1, got {self.blocks}")
        if self.channels < 1 or self.input_dim < 1:
            raise ValueError("channel counts must be positive")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel size must be odd and positive, got {self.kernel}")
        if self.kind == KIND_CCRN_STATE and self.state_step < 1:
            raise ValueError(f"state path requires state_step >= 1, got {self.state_step}")

    def state_width(self, block_index: int) -> int:
        """Channels of the state path after ``block_index`` (1-based); 0 before block 1."""
        if self.kind != KIND_CCRN_STATE:
            return 0
        return self.state_step * block_index


@dataclass
class ConvParams:
    weight: Node  # (C_out, C_in, k), applied with (k-1)/2 frames of zero padding
    bias: Node  # (C_out,)


@dataclass
class StageParams:
    """One pre-activation stage: BN -> PReLU -> optional convolution."""

    bn: BatchNormState
    slope: Node
    conv: ConvParams | None


@dataclass
class BlockParams:
    """Residual block parameters.

    Plain blocks run two full stages and add the result to their input.
    State blocks run stage1 (conv widens to the block's state width) on the
    concatenated residual+state input, stage2 (BN+PReLU only), then project
    the shared inner activation through ``out_res`` (back to the residual
    width) and ``out_state`` (the next block's state; None in the last
    block).
    """

    stage1: StageParams
    stage2: StageParams
    out_res: ConvParams | None = None
    out_state: ConvParams | None = None


@dataclass
class ModelParams:
    config: ModelConfig
    first_layer: ConvParams
    blocks: list[BlockParams]


@dataclass
class ProbeTrace:
    """Residual-path value after each block, in the target domain."""

    outputs: list[LogSpectrogram]

    def __len__(self) -> int:
        return len(self.outputs)

    def __getitem__(self, i: int) -> LogSpectrogram:
        return self.outputs[i]


# initial value of each array by the last part of its name; conv weights are drawn
_INIT_FILL = {"bias": 0.0, "gamma": 1.0, "beta": 0.0, "slope": 0.25, "running_mean": 0.0, "running_var": 1.0}


def _assemble(config: ModelConfig, array) -> ModelParams:
    """The structure ``config`` implies, holding ``array(name, shape)`` for each named array.

    Names are those of ``named_arrays``. Conv weights are requested in a
    fixed order (first layer, then per block stage1, stage2, out_res,
    out_state), which ``build_model``'s seeded draws depend on. The last
    state block has no ``out_state``.
    """
    k = config.kernel

    def conv(prefix: str, c_out: int, c_in: int) -> ConvParams:
        weight = diffcore.parameter(array(f"{prefix}.weight", (c_out, c_in, k)))
        bias = diffcore.parameter(array(f"{prefix}.bias", (c_out,)))
        return ConvParams(weight, bias)

    def stage(prefix: str, c_in: int, c_out: int | None) -> StageParams:
        bn = BatchNormState(
            gamma=diffcore.parameter(array(f"{prefix}.bn.gamma", (c_in,))),
            beta=diffcore.parameter(array(f"{prefix}.bn.beta", (c_in,))),
            running_mean=array(f"{prefix}.bn.running_mean", (c_in,)),
            running_var=array(f"{prefix}.bn.running_var", (c_in,)),
        )
        slope = diffcore.parameter(array(f"{prefix}.slope", (c_in,)))
        return StageParams(bn, slope, None if c_out is None else conv(f"{prefix}.conv", c_out, c_in))

    c_res = config.channels
    first = conv("first", c_res, config.input_dim)
    blocks: list[BlockParams] = []
    for l in range(1, config.blocks + 1):
        prefix = f"block{l:02d}"
        if config.kind == KIND_CCRN:
            blocks.append(
                BlockParams(
                    stage1=stage(f"{prefix}.stage1", c_res, c_res),
                    stage2=stage(f"{prefix}.stage2", c_res, c_res),
                )
            )
        else:
            c_prev = config.state_width(l - 1)
            c_inner = config.state_width(l)
            blocks.append(
                BlockParams(
                    stage1=stage(f"{prefix}.stage1", c_res + c_prev, c_inner),
                    stage2=stage(f"{prefix}.stage2", c_inner, None),
                    out_res=conv(f"{prefix}.out_res", c_res, c_inner),
                    out_state=conv(f"{prefix}.out_state", c_inner, c_inner) if l < config.blocks else None,
                )
            )
    return ModelParams(config, first, blocks)


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministically initialized parameters for the requested kind.

    Conv weights are uniform in +-sqrt(1/(C_in*k)); biases and BN shifts
    start at 0, BN scales at 1, PReLU slopes at 0.25, and the running
    statistics at the identity.
    """
    rng = np.random.default_rng(seed)

    def init(name: str, shape: tuple[int, ...]) -> np.ndarray:
        role = name.rsplit(".", 1)[1]
        if role == "weight":
            bound = math.sqrt(1.0 / (shape[1] * shape[2]))
            return rng.uniform(-bound, bound, size=shape).astype(dtype)
        return np.full(shape, _INIT_FILL[role], dtype=dtype)

    return _assemble(config, init)


def _apply_conv(conv: ConvParams, x: Node) -> Node:
    return diffcore.conv1d(x, conv.weight, conv.bias)


def _apply_stage(stage: StageParams, x: Node) -> Node:
    x = diffcore.batchnorm1d(x, stage.bn)
    x = diffcore.prelu(x, stage.slope)
    if stage.conv is not None:
        x = _apply_conv(stage.conv, x)
    return x


def block_forward(block: BlockParams, residual: Node, state: Node | None = None) -> tuple[Node, Node | None]:
    """One residual block; returns the new residual and state values."""
    if block.out_res is None:
        correction = _apply_stage(block.stage2, _apply_stage(block.stage1, residual))
        return diffcore.add(residual, correction), None
    inner = residual if state is None else diffcore.concat_channels(residual, state)
    inner = _apply_stage(block.stage2, _apply_stage(block.stage1, inner))
    new_residual = diffcore.add(residual, _apply_conv(block.out_res, inner))
    new_state = None if block.out_state is None else _apply_conv(block.out_state, inner)
    return new_residual, new_state


def forward_nodes(model: ModelParams, x: Node, want_probes: bool = False) -> tuple[Node, list[Node]]:
    """Graph-level forward pass on a (C, T) or (B, C, T) input node."""
    channels = x.value.shape[-2]
    if channels != model.config.input_dim:
        raise ValueError(f"input has {channels} feature channels, model expects {model.config.input_dim}")
    h = _apply_conv(model.first_layer, x)
    state: Node | None = None
    probes: list[Node] = []
    for block in model.blocks:
        h, state = block_forward(block, h, state)
        if want_probes:
            probes.append(h)
    return h, probes


def forward(
    model: ModelParams, feats: FeatureSequence, want_probes: bool = False
) -> tuple[LogSpectrogram, ProbeTrace | None]:
    """Enhance one feature sequence; optionally return every block's probe.

    Inference only: the pass builds no graph (``diffcore.no_grad``), so
    train through ``forward_nodes``. Reduced-width models work in a folded
    spectral domain internally; outputs and probes are always expanded
    back to the full 512 bins.
    """
    dtype = model.first_layer.weight.value.dtype
    x = Node(np.ascontiguousarray(feats.frames.T, dtype=dtype))
    with diffcore.no_grad():
        out, probes = forward_nodes(model, x, want_probes)

    def to_spectrogram(node: Node) -> LogSpectrogram:
        frames = node.value.T
        if frames.shape[1] != FFT_BINS:
            frames = unfold_spectrum(frames)
        return LogSpectrogram(np.ascontiguousarray(frames, dtype=np.float64))

    trace = ProbeTrace([to_spectrogram(p) for p in probes]) if want_probes else None
    return to_spectrogram(out), trace


def truncate(model: ModelParams, depth: int) -> ModelParams:
    """Model view using only the first ``depth`` blocks (parameters shared)."""
    if not 1 <= depth <= model.config.blocks:
        raise ValueError(f"depth must be in [1, {model.config.blocks}], got {depth}")
    return ModelParams(
        config=replace(model.config, blocks=depth),
        first_layer=model.first_layer,
        blocks=model.blocks[:depth],
    )


def select_depth(per_block_costs: Sequence[float]) -> int:
    """Smallest usable depth given validation costs per block.

    Returns the last (1-based) block whose relative cost improvement over
    its predecessor is at least ``DEPTH_GAIN`` (1 %); 1 if no block clears it.
    """
    costs = list(per_block_costs)
    if not costs:
        raise ValueError("empty cost table")
    selected = 1
    for l in range(2, len(costs) + 1):
        prev, cur = costs[l - 2], costs[l - 1]
        if prev > 0 and (prev - cur) / prev >= DEPTH_GAIN:
            selected = l
    return selected


def set_training(model: ModelParams, training: bool) -> None:
    """Switch every BN layer between batch and running statistics."""
    for block in model.blocks:
        block.stage1.bn.training = training
        block.stage2.bn.training = training


def named_parameters(model: ModelParams) -> list[tuple[str, Node]]:
    """Trainable parameters in a fixed, checkpoint-stable order."""
    out: list[tuple[str, Node]] = [
        ("first.weight", model.first_layer.weight),
        ("first.bias", model.first_layer.bias),
    ]
    for i, block in enumerate(model.blocks, start=1):
        prefix = f"block{i:02d}"
        for sname, stage in (("stage1", block.stage1), ("stage2", block.stage2)):
            out.append((f"{prefix}.{sname}.bn.gamma", stage.bn.gamma))
            out.append((f"{prefix}.{sname}.bn.beta", stage.bn.beta))
            out.append((f"{prefix}.{sname}.slope", stage.slope))
            if stage.conv is not None:
                out.append((f"{prefix}.{sname}.conv.weight", stage.conv.weight))
                out.append((f"{prefix}.{sname}.conv.bias", stage.conv.bias))
        for cname, conv in (("out_res", block.out_res), ("out_state", block.out_state)):
            if conv is not None:
                out.append((f"{prefix}.{cname}.weight", conv.weight))
                out.append((f"{prefix}.{cname}.bias", conv.bias))
    return out


def parameter_count(model: ModelParams) -> int:
    return sum(node.value.size for _, node in named_parameters(model))


def named_arrays(model: ModelParams) -> list[tuple[str, np.ndarray]]:
    """All persistent arrays: parameters plus BN running statistics."""
    arrays = [(name, node.value) for name, node in named_parameters(model)]
    for i, block in enumerate(model.blocks, start=1):
        for sname, stage in (("stage1", block.stage1), ("stage2", block.stage2)):
            arrays.append((f"block{i:02d}.{sname}.bn.running_mean", stage.bn.running_mean))
            arrays.append((f"block{i:02d}.{sname}.bn.running_var", stage.bn.running_var))
    return arrays


_KIND_CODES = {KIND_CCRN: 0, KIND_CCRN_STATE: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


def _write_array(fh: BinaryIO, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<H", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<B", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_exact(fh: BinaryIO, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError("checkpoint is truncated")
    return data


def _read_array(fh: BinaryIO, file_size: int) -> tuple[str, np.ndarray]:
    """One named array, read into a fresh writable float32 buffer."""
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
    name = _read_exact(fh, name_len).decode("utf-8")
    (rank,) = struct.unpack("<B", _read_exact(fh, 1))
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank))
    count = math.prod(dims)
    # a corrupt dimension must not become a huge allocation
    if 4 * count > file_size - fh.tell():
        raise ValueError("checkpoint is truncated")
    data = np.empty(count, dtype="<f4")
    if fh.readinto(data) != data.nbytes:
        raise ValueError("checkpoint is truncated")
    return name, data.reshape(dims)


def save_checkpoint(path, model: ModelParams, extra: dict[str, np.ndarray] | None = None) -> None:
    """Serialize a model (and optional extra arrays) to the CCRN01 format.

    Layout: magic ``CCRN01``; kind byte (0 plain, 1 state); five u32 LE
    (blocks, channels, state_step, kernel, input_dim); u32 LE array count;
    then per array: u16 LE name length, UTF-8 name, u8 rank, rank u32 LE
    dims, and the float32 LE values.
    """
    cfg = model.config
    entries = named_arrays(model)
    entries.extend(sorted((extra or {}).items()))
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<B", _KIND_CODES[cfg.kind]))
        fh.write(struct.pack("<5I", cfg.blocks, cfg.channels, cfg.state_step, cfg.kernel, cfg.input_dim))
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            _write_array(fh, name, arr)


def load_checkpoint(path) -> tuple[ModelParams, dict[str, np.ndarray]]:
    """Rebuild a model from a CCRN01 checkpoint.

    Returns the model (BN in inference mode) and any arrays in the file
    that are not model state (e.g. optimizer moments). Every array is read
    once into the buffer the model then holds. A malformed file raises
    ``ValueError`` naming ``path``: bad magic or kind, a truncated file, a
    duplicate or missing array, or an array whose shape differs from the
    one the config implies.
    """
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(CHECKPOINT_MAGIC))
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"not a CCRN01 checkpoint (magic {magic!r})")
            (kind_code,) = struct.unpack("<B", _read_exact(fh, 1))
            if kind_code not in _KIND_NAMES:
                raise ValueError(f"unknown model kind code {kind_code}")
            blocks, channels, state_step, kernel, input_dim = struct.unpack("<5I", _read_exact(fh, 20))
            config = ModelConfig(_KIND_NAMES[kind_code], blocks, channels, state_step, kernel, input_dim)
            (count,) = struct.unpack("<I", _read_exact(fh, 4))
            file_size = os.fstat(fh.fileno()).st_size
            arrays: dict[str, np.ndarray] = {}
            for _ in range(count):
                name, arr = _read_array(fh, file_size)
                if name in arrays:
                    raise ValueError(f"duplicate array {name!r}")
                arrays[name] = arr

        def take(name: str, shape: tuple[int, ...]) -> np.ndarray:
            arr = arrays.pop(name, None)
            if arr is None:
                raise ValueError(f"checkpoint is missing array {name!r}")
            if arr.shape != shape:
                raise ValueError(f"array {name!r} has shape {arr.shape}, expected {shape}")
            return arr

        model = _assemble(config, take)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    set_training(model, False)
    return model, arrays
