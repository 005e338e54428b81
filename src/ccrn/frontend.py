"""Multi-window acoustic front-end.

Turns a 16 kHz waveform into the 876-dim network input (log FFT of the
25 ms stream stacked with mel filterbank + cepstral features of the 25, 50
and 75 ms streams, all on a 10 ms hop) and the 512-dim log-spectrum
target, and reconstructs a waveform from an enhanced log spectrum plus the
corrupted-signal phase. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft

SAMPLE_RATE = 16000
HOP_MS = 10.0
FFT_BINS = 512
FEATURE_DIM = 876
MAG_FLOOR = 1e-10
# np.std of a constant column is rounding noise, ~1e-16 of the column's
# magnitude; the least varying column of speech is ~1e-1 of it
CONSTANT_RTOL = 1e-10

# (mel band count, window ms) per analysis stream; resolution grows with
# the window, and the 25 ms stream also feeds the 512-point log FFT.
MEL_STREAMS = ((32, 25.0), (50, 50.0), (100, 75.0))


@dataclass
class Waveform:
    """Mono time-domain signal at the fixed 16 kHz rate."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate != SAMPLE_RATE:
            raise ValueError(f"sample rate must be {SAMPLE_RATE} Hz, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


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
    norm_scale: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2 or self.frames.shape[1] != FEATURE_DIM:
            raise ValueError(f"feature sequence must be T x {FEATURE_DIM}, got shape {self.frames.shape}")
        if self.norm_scale is None:
            self.norm_scale = np.ones(FEATURE_DIM)
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


def _hamming_periodic(length: int) -> np.ndarray:
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / length)


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


def _analysis(w: Waveform, win_ms: float) -> np.ndarray:
    """rfft of the Hamming-windowed frames of one stream (10 ms hop).

    The windowed frames are written straight into a zero-padded
    T x nfft buffer, so the one transform needs no further copy.
    """
    win = _window_samples(win_ms)
    frames = frame_view(w.samples, win, _window_samples(HOP_MS))
    buf = np.zeros((frames.shape[0], _fft_size(win)))
    np.multiply(frames, _hamming_periodic(win), out=buf[:, :win])
    return np.fft.rfft(buf, axis=1)


def _log_magnitude(magnitude: np.ndarray, nfft: int) -> np.ndarray:
    """All ``nfft`` log-magnitude bins from the ``nfft // 2 + 1`` rfft bins.

    A real frame's spectrum is Hermitian, so bins nfft//2+1 .. nfft-1 are
    the mirror of bins (nfft-1)//2 .. 1. Magnitudes are floored at 1e-10.
    """
    half = magnitude.shape[1]
    out = np.empty((magnitude.shape[0], nfft))
    np.log(np.maximum(magnitude, MAG_FLOOR), out=out[:, :half])
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


def _mel_from_power(power: np.ndarray, n_mels: int) -> np.ndarray:
    """Log mel energies of T x (nfft/2 + 1) rfft power spectra."""
    energies = power @ _mel_filterbank(n_mels, 2 * (power.shape[1] - 1)).T
    return np.log(np.maximum(energies, MAG_FLOOR))


def cepstral_features(log_mel: np.ndarray) -> np.ndarray:
    """Orthonormal type-II DCT of each log-mel row, one cepstrum per band."""
    return scipy.fft.dct(np.asarray(log_mel), type=2, norm="ortho", axis=1)


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
    if w.samples.size < _window_samples(75.0):
        raise ValueError("signal shorter than the 75 ms analysis window")

    streams: list[np.ndarray] = []
    spectrum25 = _analysis(w, 25.0)
    magnitude25 = np.abs(spectrum25)
    streams.append(_log_magnitude(magnitude25, FFT_BINS))
    for n_mels, win_ms in MEL_STREAMS:
        if win_ms == 25.0:
            # the 25 ms power spectrum is already on hand from the log path
            fbank = _mel_from_power(magnitude25**2, n_mels)
        else:
            spectrum = _analysis(w, win_ms)
            fbank = _mel_from_power(spectrum.real**2 + spectrum.imag**2, n_mels)
        streams.append(fbank)
        streams.append(cepstral_features(fbank))

    n_frames = min(s.shape[0] for s in streams)
    feats = np.concatenate([s[:n_frames] for s in streams], axis=1)
    assert feats.shape[1] == FEATURE_DIM, f"feature assembly produced width {feats.shape[1]}"

    std = feats.std(axis=0)
    scale = np.where(std > CONSTANT_RTOL * np.abs(feats).max(axis=0), std, 1.0)
    feats = feats / scale

    phase = np.angle(spectrum25[:n_frames])
    phase = np.where(phase <= -np.pi, np.pi, phase)
    return FeatureSequence(feats, scale), PhaseSpectrogram(phase)


def target_spectrum(w: Waveform) -> LogSpectrogram:
    """Raw (un-normalized) 512-dim log spectrum, the regression target."""
    return LogSpectrogram(_log_magnitude(np.abs(_analysis(w, 25.0)), FFT_BINS))


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


def unfold_spectrum(frames: np.ndarray, n_bins: int = FFT_BINS) -> np.ndarray:
    """Expand T x n_bands folded spectra back to T x n_bins by repetition."""
    frames = np.asarray(frames)
    if n_bins % frames.shape[1]:
        raise ValueError(f"cannot unfold {frames.shape[1]} bands into {n_bins} bins")
    return np.repeat(frames, n_bins // frames.shape[1], axis=1)


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

    win = _window_samples(25.0)
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
