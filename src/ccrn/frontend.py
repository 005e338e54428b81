"""Multi-window acoustic front-end.

Turns a 16 kHz waveform into the 876-dim network input (log FFT of the
25 ms stream stacked with mel filterbank + cepstral features of the 25, 50
and 75 ms streams, all on a 10 ms hop) and the 512-dim log-spectrum
target, and reconstructs a waveform from an enhanced log spectrum plus the
corrupted-signal phase. All public functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

SAMPLE_RATE = 16000
HOP_MS = 10.0
FRAME_MS = 25.0  # the one short window: log FFT, target, resynthesis, LLR and VAD frames
FFT_BINS = 512
FEATURE_DIM = 876
MAG_FLOOR = 1e-10
# np.std of a constant column is rounding noise, ~1e-16 of the column's
# magnitude; the least varying column of speech is ~1e-1 of it
CONSTANT_RTOL = 1e-10

# (mel band count, window ms) per analysis stream; resolution grows with
# the window, and the 25 ms stream also feeds the 512-point log FFT.
MEL_STREAMS = ((32, FRAME_MS), (50, 50.0), (100, 75.0))


@dataclass
class Waveform:
    """Mono time-domain signal at the fixed 16 kHz rate."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    @property
    def duration_s(self) -> float:
        return self.samples.size / SAMPLE_RATE


@dataclass
class LogSpectrogram:
    """T x 512 natural-log magnitude spectra (25 ms window, 10 ms hop)."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2 or self.frames.shape[1] != FFT_BINS:
            raise ValueError(f"log spectrogram must be T x {FFT_BINS}, got shape {self.frames.shape}")


@dataclass
class FeatureSequence:
    """T x 876 stacked multi-window features with the applied scale factors."""

    frames: np.ndarray
    norm_scale: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2 or self.frames.shape[1] != FEATURE_DIM:
            raise ValueError(f"feature sequence must be T x {FEATURE_DIM}, got shape {self.frames.shape}")
        self.norm_scale = np.asarray(self.norm_scale)
        if self.norm_scale.shape != (FEATURE_DIM,):
            raise ValueError("norm_scale must have one entry per feature dimension")


@dataclass
class PhaseSpectrogram:
    """T x 257 phase (radians) of the 25 ms analysis of the corrupted signal."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2 or self.frames.shape[1] != FFT_BINS // 2 + 1:
            raise ValueError(f"phase spectrogram must be T x {FFT_BINS // 2 + 1}, got shape {self.frames.shape}")


@lru_cache(maxsize=None)
def _hamming_periodic(length: int) -> np.ndarray:
    """Read-only periodic Hamming window of ``length`` samples."""
    n = np.arange(length)
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * n / length)
    window.flags.writeable = False
    return window


def _window_samples(win_ms: float) -> int:
    return int(round(win_ms * SAMPLE_RATE / 1000.0))


def frame_view(x: np.ndarray, win: int, hop: int) -> np.ndarray:
    """Read-only T x ``win`` strided view of ``x`` at a ``hop``-sample step.

    T = floor((len - win) / hop) + 1; rejects signals shorter than one
    window. Every framing in ccrn goes through this view.
    """
    if x.size < win:
        raise ValueError(f"signal of {x.size} samples is shorter than one {win}-sample window")
    return np.lib.stride_tricks.sliding_window_view(x, win)[::hop]


def frame_signal(w: Waveform, win_ms: float) -> np.ndarray:
    """Slice a waveform into Hamming-windowed frames on the 10 ms hop.

    Returns a T x W matrix with T = floor((len - W) / H) + 1; rejects
    signals shorter than one window.
    """
    win = _window_samples(win_ms)
    frames = frame_view(w.samples, win, _window_samples(HOP_MS))
    return frames * _hamming_periodic(win)[None, :]


def _fft_size(win: int) -> int:
    """FFT length of a ``win``-sample frame: the next power of two, at least 512."""
    p = FFT_BINS
    while p < win:
        p *= 2
    return p


class _Scratch:
    """Grow-only work buffers that ``_features`` fills in place.

    A caller that builds many feature sets keeps one, so the frame, rfft,
    power and feature buffers are allocated once, not per utterance. The
    frame and rfft buffers hold one ``_BLOCK_ROWS``-frame block, the power
    and feature buffers every frame: ~6.6 MB for a 3 s utterance. Only one
    thread at a time may use a scratch; no returned array aliases it.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def view(self, name: str, shape: tuple[int, int], dtype=np.float64) -> np.ndarray:
        """A C-contiguous ``shape`` view of buffer ``name``, grown if too small; contents undefined."""
        size = shape[0] * shape[1]
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


# frames per front-end block: the padded 75 ms frames and their rfft take ~1 MB each
_BLOCK_ROWS = 64


def _analysis(frames: np.ndarray, scratch: _Scratch) -> np.ndarray:
    """rfft of Hamming-windowed ``frames`` (rows of ``frame_view``), zero-padded to the stream's FFT length.

    The windowed frames go straight into the scratch's zero-padded
    frame buffer and the transform into its spectrum buffer. The returned
    view of that buffer lasts until the next analysis on ``scratch``.
    """
    win = frames.shape[1]
    nfft = _fft_size(win)
    buf = scratch.view("frames", (frames.shape[0], nfft))
    np.multiply(frames, _hamming_periodic(win), out=buf[:, :win])
    buf[:, win:] = 0.0
    spectrum = scratch.view("spectrum", (frames.shape[0], nfft // 2 + 1), np.complex128)
    return np.fft.rfft(buf, axis=1, out=spectrum)


def _log_magnitude(magnitude: np.ndarray, nfft: int, out: np.ndarray | None = None) -> np.ndarray:
    """All ``nfft`` log-magnitude bins from the ``nfft // 2 + 1`` rfft bins, into ``out`` if given.

    A real frame's spectrum is Hermitian, so bins nfft//2+1 .. nfft-1 are
    the mirror of bins (nfft-1)//2 .. 1. Magnitudes are floored at 1e-10.
    """
    half = magnitude.shape[1]
    if out is None:
        out = np.empty((magnitude.shape[0], nfft))
    np.maximum(magnitude, MAG_FLOOR, out=out[:, :half])
    np.log(out[:, :half], out=out[:, :half])
    out[:, half:] = out[:, (nfft - 1) // 2:0:-1]
    return out


@lru_cache(maxsize=None)
def _mel_filterbank(n_mels: int, nfft: int) -> np.ndarray:
    """Triangular mel filters spanning 0-8000 Hz on the rfft bin grid."""
    fmax = SAMPLE_RATE / 2.0

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)

    mel_points = np.linspace(to_mel(0.0), to_mel(fmax), n_mels + 2)
    hz_points = from_mel(mel_points)
    bin_freqs = np.arange(nfft // 2 + 1) * SAMPLE_RATE / nfft
    filters = np.zeros((n_mels, nfft // 2 + 1))
    for i in range(n_mels):
        lo, center, hi = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        filters[i] = np.maximum(0.0, np.minimum(up, down))
    return filters


def _mel_from_power(power: np.ndarray, n_mels: int, out: np.ndarray) -> None:
    """Log mel energies of T x (nfft/2 + 1) rfft power spectra, written into T x ``n_mels`` ``out``."""
    np.matmul(power, _mel_filterbank(n_mels, 2 * (power.shape[1] - 1)).T, out=out)
    np.maximum(out, MAG_FLOOR, out=out)
    np.log(out, out=out)


def cepstral_features(log_mel: np.ndarray) -> np.ndarray:
    """Orthonormal type-II DCT of each log-mel row, one cepstrum per band."""
    return scipy.fft.dct(np.asarray(log_mel), type=2, norm="ortho", axis=1)


def _phase(spectrum: np.ndarray, out: np.ndarray) -> None:
    """Phase of an rfft in (-pi, pi] into ``out``: ``np.angle`` with -pi folded onto pi."""
    np.arctan2(spectrum.imag, spectrum.real, out=out)  # np.angle's own computation
    out[out <= -np.pi] = np.pi


def _n_frames(n_samples: int) -> int:
    """Feature frames of an ``n_samples`` signal: those of its 75 ms stream, 0 if it is shorter than one window."""
    return max(0, (n_samples - _window_samples(75.0)) // _window_samples(HOP_MS) + 1)


def _features(
    w: Waveform, scratch: _Scratch, with_phase: bool = False
) -> tuple[FeatureSequence, PhaseSpectrogram | None]:
    """The features of ``assemble_features``, and its phase if ``with_phase``.

    Every stream is analysed for the T frames of the 75 ms stream only, and
    its columns are written straight into the scratch's raw T x 876
    matrix. Framing, windowing, rfft, log FFT, phase and power run one
    ``_BLOCK_ROWS``-frame block at a time, each row as it would alone; the
    mel products and DCTs take all T rows. The returned arrays are fresh;
    none aliases ``scratch``.
    Training uses the features alone and so skips the phase.
    """
    n_frames = _n_frames(w.samples.size)
    if not n_frames:
        raise ValueError("signal shorter than the 75 ms analysis window")

    raw = scratch.view("raw", (n_frames, FEATURE_DIM))
    phase = np.empty((n_frames, FFT_BINS // 2 + 1)) if with_phase else None
    hop = _window_samples(HOP_MS)
    col = FFT_BINS
    for n_mels, win_ms in MEL_STREAMS:
        frames = frame_view(w.samples, _window_samples(win_ms), hop)[:n_frames]
        power = scratch.view("power", (n_frames, _fft_size(frames.shape[1]) // 2 + 1))
        for start in range(0, n_frames, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            spectrum = _analysis(frames[rows], scratch)
            block = power[rows]
            if win_ms == FRAME_MS:
                # the 25 ms magnitudes give the log FFT, then are squared into the power
                if with_phase:
                    _phase(spectrum, out=phase[rows])
                np.abs(spectrum, out=block)
                _log_magnitude(block, FFT_BINS, out=raw[rows, :FFT_BINS])
                np.square(block, out=block)
            else:
                np.square(spectrum.real, out=block)
                # the padded frames are spent once transformed, so their buffer holds imag**2
                imag_sq = np.square(spectrum.imag, out=scratch.view("frames", spectrum.shape))
                np.add(block, imag_sq, out=block)
        # the mel products and DCTs run on all T rows at once: a row block's product rounds differently
        fbank = raw[:, col:col + n_mels]
        _mel_from_power(power, n_mels, out=fbank)
        raw[:, col + n_mels:col + 2 * n_mels] = cepstral_features(fbank)
        col += 2 * n_mels
    assert col == FEATURE_DIM, f"feature assembly produced width {col}"

    std = raw.std(axis=0)
    scale = np.where(std > CONSTANT_RTOL * np.abs(raw).max(axis=0), std, 1.0)
    return FeatureSequence(raw / scale, scale), None if phase is None else PhaseSpectrogram(phase)


def assemble_features(w: Waveform) -> tuple[FeatureSequence, PhaseSpectrogram]:
    """Build the 876-dim input features and the 25 ms analysis phase.

    Per frame the layout is: 512 log-FFT bins (25 ms) | 32 mel + 32 cepstra
    (25 ms) | 50 + 50 (50 ms) | 100 + 100 (75 ms). All streams share the
    10 ms hop and are truncated to the shortest stream's frame count. Each
    dimension is then divided by its per-utterance standard deviation
    (scale only: the features are not centered); a dimension that is
    constant up to rounding, as in silence, keeps divisor 1. The applied
    divisors are recorded in ``norm_scale``; ``frames * norm_scale`` gives
    back the raw features up to rounding.
    """
    return _features(w, _Scratch(), with_phase=True)


def target_spectrum(w: Waveform) -> LogSpectrogram:
    """Raw (un-normalized) 512-dim log spectrum, the regression target."""
    frames = frame_view(w.samples, _window_samples(FRAME_MS), _window_samples(HOP_MS))
    return LogSpectrogram(_log_magnitude(np.abs(_analysis(frames, _Scratch())), FFT_BINS))


def fold_spectrum(frames: np.ndarray, n_bands: int) -> np.ndarray:
    """Reduce T x 512 log spectra to T x n_bands by averaging bin groups.

    Used by reduced-width model configurations, whose target domain has as
    many bands as the network has residual channels. Averaging in the log
    domain is a per-group geometric mean of magnitudes.
    """
    frames = np.asarray(frames)
    if frames.shape[1] % n_bands:
        raise ValueError(f"cannot fold {frames.shape[1]} bins into {n_bands} bands")
    group = frames.shape[1] // n_bands
    return frames.reshape(frames.shape[0], n_bands, group).mean(axis=2)


def unfold_spectrum(frames: np.ndarray) -> np.ndarray:
    """Expand T x n_bands folded spectra back to T x 512 by repetition."""
    frames = np.asarray(frames)
    if FFT_BINS % frames.shape[1]:
        raise ValueError(f"cannot unfold {frames.shape[1]} bands into {FFT_BINS} bins")
    return np.repeat(frames, FFT_BINS // frames.shape[1], axis=1)


def _overlap_add(slabs: np.ndarray) -> np.ndarray:
    """Sum F x K x hop frame slabs, frame f's slab k at output slab f + k.

    Earlier frames are added first at every sample, as a per-frame loop
    would add them.
    """
    n_frames, n_slabs, hop = slabs.shape
    out = np.zeros((n_frames + n_slabs - 1, hop))
    for k in reversed(range(n_slabs)):
        out[k:k + n_frames] += slabs[:, k]
    return out.ravel()


def reconstruct(enh: LogSpectrogram, phase: PhaseSpectrogram, length: int) -> Waveform:
    """Waveform from an enhanced log spectrum and a phase spectrogram.

    The two mirror halves of each 512-bin row are averaged into 257
    magnitudes, recombined with the phase, inverted per frame, and summed
    by weighted overlap-add with window-sum normalization. The result is
    trimmed or zero-padded to ``length`` samples.
    """
    if enh.frames.shape[0] != phase.frames.shape[0]:
        raise ValueError(
            f"spectrum has {enh.frames.shape[0]} frames but phase has {phase.frames.shape[0]}"
        )
    half = FFT_BINS // 2 + 1
    mags = np.exp(enh.frames)
    mirror = (FFT_BINS - np.arange(half)) % FFT_BINS
    folded = 0.5 * (mags[:, :half] + mags[:, mirror])

    win = _window_samples(FRAME_MS)
    hop = _window_samples(HOP_MS)
    frames_t = np.fft.irfft(folded * np.exp(1j * phase.frames), n=FFT_BINS, axis=1)

    # each frame spans n_slabs hop-long slabs; slab k of frame f lands on
    # output slab f + k, so the overlap-add is one slab add per k
    n_slabs = -(-win // hop)
    n_frames = frames_t.shape[0]
    window = np.zeros(n_slabs * hop)
    window[:win] = _hamming_periodic(win)
    weighted = np.zeros((n_frames, n_slabs * hop))
    np.multiply(frames_t[:, :win], window[:win], out=weighted[:, :win])
    out = _overlap_add(weighted.reshape(n_frames, n_slabs, hop))
    wsum = _overlap_add(np.broadcast_to((window * window).reshape(n_slabs, hop), (n_frames, n_slabs, hop)))
    total = (n_frames - 1) * hop + win
    out, wsum = out[:total], wsum[:total]
    out = np.where(wsum > 1e-8, out / np.maximum(wsum, 1e-8), 0.0)

    if length <= total:
        out = out[:length]
    else:
        out = np.concatenate([out, np.zeros(length - total)])
    return Waveform(out)
