"""Constant-channel residual architectures with per-block probe outputs.

Two variants share a first 876->512 convolution and a stack of residual
blocks that keep 512 channels on the residual path, so the value after
every block lives in the target log-spectrum domain and can be probed.
The state variant additionally carries a growing side path (32*l channels
after block l) that is concatenated onto the block input. Models can be
truncated to a block prefix at evaluation time, and serialize to a small
binary checkpoint format (magic ``CCRN01``).
"""

from __future__ import annotations

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
    weight: Node  # (C_out, C_in, k)
    bias: Node  # (C_out,)
    padding: int


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
    width) and ``out_state`` (the next block's state).
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


def _init_conv(rng, c_out: int, c_in: int, kernel: int, dtype) -> ConvParams:
    weight, bias = diffcore.init_conv(rng, c_out, c_in, kernel, dtype)
    return ConvParams(weight, bias, (kernel - 1) // 2)


def _init_stage(rng, c_in: int, c_out: int | None, kernel: int, dtype) -> StageParams:
    bn = diffcore.batchnorm_state(c_in, dtype)
    slope = diffcore.init_prelu(c_in, dtype)
    conv = None if c_out is None else _init_conv(rng, c_out, c_in, kernel, dtype)
    return StageParams(bn, slope, conv)


def build_model(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministically initialized parameters for the requested kind."""
    rng = np.random.default_rng(seed)
    k = config.kernel
    c_res = config.channels
    first = _init_conv(rng, c_res, config.input_dim, k, dtype)
    blocks: list[BlockParams] = []
    for l in range(1, config.blocks + 1):
        if config.kind == KIND_CCRN:
            blocks.append(
                BlockParams(
                    stage1=_init_stage(rng, c_res, c_res, k, dtype),
                    stage2=_init_stage(rng, c_res, c_res, k, dtype),
                )
            )
        else:
            c_prev = config.state_width(l - 1)
            c_inner = config.state_width(l)
            blocks.append(
                BlockParams(
                    stage1=_init_stage(rng, c_res + c_prev, c_inner, k, dtype),
                    stage2=_init_stage(rng, c_inner, None, k, dtype),
                    out_res=_init_conv(rng, c_res, c_inner, k, dtype),
                    out_state=_init_conv(rng, c_inner, c_inner, k, dtype),
                )
            )
    return ModelParams(config, first, blocks)


def _apply_conv(conv: ConvParams, x: Node) -> Node:
    return diffcore.conv1d(x, conv.weight, conv.bias, conv.padding)


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
    new_state = _apply_conv(block.out_state, inner)
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

    Reduced-width models work in a folded spectral domain internally;
    outputs and probes are always expanded back to the full 512 bins.
    """
    dtype = model.first_layer.weight.value.dtype
    x = Node(np.ascontiguousarray(feats.frames.T, dtype=dtype))
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


def select_depth(per_block_costs: Sequence[float], threshold: float = 0.01) -> int:
    """Smallest usable depth given validation costs per block.

    Returns the last (1-based) block whose relative cost improvement over
    its predecessor is at least ``threshold``; 1 if no block clears it.
    """
    costs = list(per_block_costs)
    if not costs:
        raise ValueError("empty cost table")
    selected = 1
    for l in range(2, len(costs) + 1):
        prev, cur = costs[l - 2], costs[l - 1]
        if prev > 0 and (prev - cur) / prev >= threshold:
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


def _named_buffers(model: ModelParams) -> list[tuple[str, BatchNormState, str]]:
    out = []
    for i, block in enumerate(model.blocks, start=1):
        for sname, stage in (("stage1", block.stage1), ("stage2", block.stage2)):
            out.append((f"block{i:02d}.{sname}.bn.running_mean", stage.bn, "running_mean"))
            out.append((f"block{i:02d}.{sname}.bn.running_var", stage.bn, "running_var"))
    return out


def named_arrays(model: ModelParams) -> list[tuple[str, np.ndarray]]:
    """All persistent arrays: parameters plus BN running statistics."""
    arrays = [(name, node.value) for name, node in named_parameters(model)]
    arrays.extend((name, getattr(bn, attr)) for name, bn, attr in _named_buffers(model))
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


def _read_exact(fh: BinaryIO, size: int, path) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: checkpoint is truncated")
    return data


def _read_array(fh: BinaryIO, path) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<H", _read_exact(fh, 2, path))
    name = _read_exact(fh, name_len, path).decode("utf-8")
    (rank,) = struct.unpack("<B", _read_exact(fh, 1, path))
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, path))
    count = int(np.prod(dims)) if dims else 1
    data = np.frombuffer(_read_exact(fh, 4 * count, path), dtype="<f4").reshape(dims)
    return name, data


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
    that are not model state (e.g. optimizer moments).
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a CCRN01 checkpoint (magic {magic!r})")
        (kind_code,) = struct.unpack("<B", _read_exact(fh, 1, path))
        if kind_code not in _KIND_NAMES:
            raise ValueError(f"{path}: unknown model kind code {kind_code}")
        blocks, channels, state_step, kernel, input_dim = struct.unpack("<5I", _read_exact(fh, 20, path))
        config = ModelConfig(_KIND_NAMES[kind_code], blocks, channels, state_step, kernel, input_dim)
        (count,) = struct.unpack("<I", _read_exact(fh, 4, path))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            name, arr = _read_array(fh, path)
            if name in arrays:
                raise ValueError(f"{path}: duplicate array {name!r}")
            arrays[name] = arr

    model = build_model(config, seed=0, dtype=np.float32)
    for name, node in named_parameters(model):
        arr = arrays.pop(name, None)
        if arr is None:
            raise ValueError(f"{path}: checkpoint is missing array {name!r}")
        if arr.shape != node.value.shape:
            raise ValueError(f"{path}: array {name!r} has shape {arr.shape}, expected {node.value.shape}")
        node.value[...] = arr
    for name, bn, attr in _named_buffers(model):
        arr = arrays.pop(name, None)
        if arr is None:
            raise ValueError(f"{path}: checkpoint is missing array {name!r}")
        getattr(bn, attr)[...] = arr
    set_training(model, False)
    return model, arrays
