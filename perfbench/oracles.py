"""Reference computations the workloads check the program against.

Written in plain numpy and the standard library, apart from the program's
own formats: a reader for the documented CCRN01 checkpoint layout, a WAV
reader, and a forward pass of the plain residual network.
"""

from __future__ import annotations

import struct
import wave
from pathlib import Path

import numpy as np
import scipy.linalg

BN_EPS = 1e-5  # the program's documented batch-norm epsilon


def read_ccrn01(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Config fields and named float32 arrays of a CCRN01 checkpoint."""
    data = Path(path).read_bytes()
    if data[:6] != b"CCRN01":
        raise ValueError(f"{path}: bad magic {data[:6]!r}")
    blocks, channels = struct.unpack_from("<2I", data, 7)
    (count,) = struct.unpack_from("<I", data, 27)
    config = dict(blocks=blocks, channels=channels)
    offset = 31
    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        name = data[offset:offset + name_len].decode("utf-8")
        offset += name_len
        rank = data[offset]
        offset += 1
        dims = struct.unpack_from(f"<{rank}I", data, offset)
        offset += 4 * rank
        size = int(np.prod(dims)) if dims else 1
        arrays[name] = np.frombuffer(data, "<f4", size, offset).reshape(dims)
        offset += 4 * size
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return config, arrays


def read_wav(path) -> np.ndarray:
    """Samples of a 16 kHz mono 16-bit WAV, scaled by 1/32767."""
    with wave.open(str(path), "rb") as fh:
        if (fh.getnchannels(), fh.getsampwidth(), fh.getframerate()) != (1, 2, 16000):
            raise ValueError(f"{path}: not 16 kHz mono 16-bit PCM")
        data = fh.readframes(fh.getnframes())
    return np.frombuffer(data, "<i2").astype(np.float64) / 32767.0


def _conv(arrays, prefix: str, x: np.ndarray) -> np.ndarray:
    """'Same' cross-correlation as one matmul per kernel tap."""
    w = arrays[f"{prefix}.weight"].astype(np.float64)
    k = w.shape[2]
    pad = (k - 1) // 2
    t = x.shape[1]
    xp = np.pad(x, ((0, 0), (pad, pad)))
    out = arrays[f"{prefix}.bias"].astype(np.float64)[:, None] + w[:, :, 0] @ xp[:, :t]
    for j in range(1, k):
        out += w[:, :, j] @ xp[:, j:j + t]
    return out


def _stage(arrays, prefix: str, x: np.ndarray) -> np.ndarray:
    """Batch norm with running statistics, PReLU, then the stage's conv."""
    mean = arrays[f"{prefix}.bn.running_mean"].astype(np.float64)[:, None]
    var = arrays[f"{prefix}.bn.running_var"].astype(np.float64)[:, None]
    gamma = arrays[f"{prefix}.bn.gamma"].astype(np.float64)[:, None]
    beta = arrays[f"{prefix}.bn.beta"].astype(np.float64)[:, None]
    y = gamma * (x - mean) / np.sqrt(var + BN_EPS) + beta
    slope = arrays[f"{prefix}.slope"].astype(np.float64)[:, None]
    y = np.where(y > 0, y, slope * y)
    return _conv(arrays, f"{prefix}.conv", y)


def plain_forward(arrays, blocks: int, features: np.ndarray) -> np.ndarray:
    """Output (T x channels) of a plain residual network in inference mode."""
    h = _conv(arrays, "first", features.T.astype(np.float64))
    for block in range(1, blocks + 1):
        prefix = f"block{block:02d}"
        h = h + _stage(arrays, f"{prefix}.stage2", _stage(arrays, f"{prefix}.stage1", h))
    return h.T


def lpc_by_toeplitz(frame: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """LPC coefficients a[1..order] and biased autocorrelation, via scipy's solver."""
    n = frame.size
    autocorr = np.correlate(frame, frame, mode="full")[n - 1:n + order] / n
    coeffs = scipy.linalg.solve_toeplitz(autocorr[:order], -autocorr[1:order + 1])
    return coeffs, autocorr


def snr_db(reference: np.ndarray, estimate: np.ndarray, interior: slice) -> float:
    err = reference[interior] - estimate[interior]
    return float(10.0 * np.log10(np.sum(reference[interior] ** 2) / max(np.sum(err**2), 1e-300)))
