"""Synthetic reverberation + noise corruption pipeline and WAV/manifest I/O.

Reverberation uses an exponential-decay impulse response parameterized by
RT60 and direct-to-reverberant ratio; stationary noise (white or
speech-shaped) is mixed at a target SNR. A deterministic generator of
speech-like signals (harmonic pulse trains through formant resonators,
with silence gaps) provides desk-scale clean material.
"""

from __future__ import annotations

import csv
import math
import wave
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.signal

from .frontend import SAMPLE_RATE, Waveform

PCM_SCALE = 32767.0


@dataclass(frozen=True)
class RirSpec:
    """Exponential-decay room impulse response parameters."""

    rt60: float
    drr_db: float
    length: int
    seed: int

    def __post_init__(self):
        if self.rt60 < 0:
            raise ValueError(f"rt60 must be >= 0, got {self.rt60}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")


def make_rir_spec(rt60: float, drr_db: float, seed: int) -> RirSpec:
    """RirSpec with length covering the full 60 dB decay."""
    return RirSpec(rt60, drr_db, max(1, int(round(rt60 * SAMPLE_RATE)) + 1), seed)


def room_drr(rt60: float, base_drr_db: float) -> float:
    """Direct-to-reverberant ratio of a room with the given decay time.

    ``base_drr_db`` encodes speaker-microphone distance (+5 dB near, -5 dB
    far) at a 0.5 s decay time; other decay times scale the reverberant
    energy Sabine-style (proportional to RT60), so longer rooms get a
    lower ratio. A pure delta (rt60 = 0) keeps the base value.
    """
    if rt60 <= 0.0:
        return base_drr_db
    return base_drr_db - 10.0 * math.log10(rt60 / 0.5)


NOISE_KINDS = ("speech-shaped", "white")


@dataclass(frozen=True)
class CorruptionSpec:
    rir: RirSpec
    snr_db: float = 20.0
    noise_kind: str = "speech-shaped"
    seed: int = 0

    def __post_init__(self):
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")


def synth_rir(spec: RirSpec) -> np.ndarray:
    """Impulse response: unit direct path plus an exponentially decaying
    Gaussian tail scaled to the requested direct-to-reverberant ratio."""
    h = np.zeros(spec.length)
    h[0] = 1.0
    if spec.rt60 == 0.0 or spec.length == 1:
        return h
    n = np.arange(1, spec.length)
    decay = 3.0 * math.log(10.0) / (spec.rt60 * SAMPLE_RATE)
    tail = np.random.default_rng(spec.seed).standard_normal(spec.length - 1) * np.exp(-decay * n)
    tail_energy = float(np.sum(tail * tail))
    if tail_energy <= 0.0:
        return h
    # direct-path energy is 1, so E_tail = 10^(-drr/10)
    h[1:] = tail * math.sqrt(10.0 ** (-spec.drr_db / 10.0) / tail_energy)
    return h


def _shaped_noise(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    noise = rng.standard_normal(n)
    if kind == "speech-shaped":
        # one-pole lowpass, -6 dB/octave above ~500 Hz
        a = math.exp(-2.0 * math.pi * 500.0 / SAMPLE_RATE)
        noise = scipy.signal.lfilter([1.0 - a], [1.0, -a], noise)
    return noise


def corrupt(clean: Waveform, spec: CorruptionSpec) -> Waveform:
    """Reverberate and add noise; output length equals input length."""
    x = clean.samples
    if x.size == 0:
        raise ValueError("cannot corrupt an empty signal")
    if float(np.mean(x * x)) == 0.0:
        raise ValueError("silent input: SNR is undefined")

    h = synth_rir(spec.rir)
    last = int(np.flatnonzero(h)[-1])
    h = h[: last + 1]
    if h.size == 1:
        wet = x * h[0]
    else:
        wet = scipy.signal.fftconvolve(x, h)[: x.size]

    if math.isfinite(spec.snr_db):
        noise = _shaped_noise(np.random.default_rng(spec.seed), x.size, spec.noise_kind)
        wet_power = float(np.mean(wet * wet))
        noise_power = float(np.mean(noise * noise))
        target = wet_power / (10.0 ** (spec.snr_db / 10.0))
        wet = wet + noise * math.sqrt(target / noise_power)
    return Waveform(wet)


# ---------------------------------------------------------------------------
# speech-like clean material


def _resonator(x: np.ndarray, freq: float, bandwidth: float) -> np.ndarray:
    r = math.exp(-math.pi * bandwidth / SAMPLE_RATE)
    theta = 2.0 * math.pi * freq / SAMPLE_RATE
    b = [1.0 - r]
    a = [1.0, -2.0 * r * math.cos(theta), r * r]
    return scipy.signal.lfilter(b, a, x)


@lru_cache(maxsize=None)
def _fixed_sos(which: str):
    if which == "aspiration":
        return scipy.signal.butter(4, 1000.0, btype="highpass", fs=SAMPLE_RATE, output="sos")
    return scipy.signal.butter(2, (3.0, 12.0), btype="bandpass", fs=SAMPLE_RATE, output="sos")


def _voiced_segment(rng: np.random.Generator, n: int, fs: int) -> np.ndarray:
    # f0 kept above the modulation-analysis range so pitch-beat ripple in
    # band envelopes does not masquerade as high-rate modulation
    f0 = rng.uniform(230.0, 330.0)
    vibrato_rate = rng.uniform(2.0, 4.0)
    vibrato_phase = rng.uniform(0.0, 2.0 * math.pi)
    t = np.arange(n) / fs
    contour = f0 * (1.0 + 0.06 * np.sin(2.0 * math.pi * vibrato_rate * t + vibrato_phase))

    # glottal pulse train at the (slowly varying) fundamental
    phase = np.cumsum(contour) / fs
    excitation = np.zeros(n)
    pulse_positions = np.searchsorted(phase, np.arange(1, int(phase[-1]) + 1))
    excitation[pulse_positions[pulse_positions < n]] = 1.0
    # -12 dB/octave source roll-off
    excitation = scipy.signal.lfilter([1.0], [1.0, -0.96], excitation)
    excitation = scipy.signal.lfilter([1.0], [1.0, -0.96], excitation)

    # sub-phone stretches with their own formant sets, crossfaded so the
    # short-time spectral envelope moves the way connected speech does
    seg = np.zeros(n)
    crossfade = int(0.015 * fs)
    start = 0
    while start < n:
        length = min(int(rng.uniform(0.07, 0.14) * fs), n - start)
        lo = max(0, start - crossfade)
        hi = min(n, start + length + crossfade)
        f1 = rng.uniform(300.0, 800.0)
        f2 = rng.uniform(f1 + 300.0, 2200.0)
        f3 = rng.uniform(2300.0, 3100.0)
        sub = excitation[lo:hi]
        for freq, bw in ((f1, 130.0), (f2, 170.0), (f3, 220.0), (3500.0, 280.0)):
            sub = _resonator(sub, freq, bw)
        window = np.ones(hi - lo)
        left = start - lo
        if left > 0:
            window[:left] = np.linspace(0.0, 1.0, left)
        right = hi - (start + length)
        if right > 0:
            window[hi - lo - right:] = np.linspace(1.0, 0.0, right)
        seg[lo:hi] += sub * window
        start += length

    # speech-synchronous aspiration floor above 1 kHz, so the upper bands
    # carry signal rather than being owned by whatever noise is added later
    aspiration = scipy.signal.sosfilt(_fixed_sos("aspiration"), rng.standard_normal(n))
    aspiration *= 10.0 ** (-24.0 / 20.0) * np.std(seg) / max(np.std(aspiration), 1e-12)
    seg = seg + aspiration

    # broadband syllabic loudness contour (3-12 Hz, log-normal)
    contour_noise = scipy.signal.sosfilt(_fixed_sos("syllabic"), rng.standard_normal(n))
    contour_noise /= max(np.std(contour_noise), 1e-12)
    seg = seg * np.exp(0.6 * contour_noise)

    # gentle onsets: sharp edges would put broadband energy into the
    # high-rate modulation bands that the quality metrics analyze
    ramp = min(int(0.035 * fs), n // 2)
    if ramp > 0:
        fade = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
        seg[:ramp] *= fade
        seg[-ramp:] *= fade[::-1]
    peak = np.max(np.abs(seg))
    return seg / peak * rng.uniform(0.7, 1.0) if peak > 0 else seg


def synth_speech(duration_s: float, seed: int) -> Waveform:
    """Speech-like test signal: voiced stretches separated by silence gaps."""
    rng = np.random.default_rng(seed)
    n_total = int(round(duration_s * SAMPLE_RATE))
    out = np.zeros(n_total)
    pos = int(rng.uniform(0.01, 0.05) * SAMPLE_RATE)
    while pos < n_total:
        seg_len = int(rng.uniform(0.35, 0.70) * SAMPLE_RATE)
        seg = _voiced_segment(rng, seg_len, SAMPLE_RATE)
        end = min(pos + seg_len, n_total)
        out[pos:end] = seg[: end - pos]
        pos = end + int(rng.uniform(0.08, 0.20) * SAMPLE_RATE)
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 0.5 / peak
    # faint broadband floor: keeps silence-gap spectra off the hard log
    # floor so regression targets are well conditioned; inaudible at -54 dB
    out += 1e-3 * rng.standard_normal(n_total)
    return Waveform(out)


# ---------------------------------------------------------------------------
# WAV and manifest I/O (16-bit PCM mono, 16 kHz)


def read_wav(path) -> Waveform:
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as fh:
            n_channels = fh.getnchannels()
            if n_channels != 1:
                raise ValueError(f"{path}: expected mono audio, file has {n_channels} channels")
            width = fh.getsampwidth()
            if width != 2:
                raise ValueError(f"{path}: expected 16-bit PCM, file has {8 * width}-bit samples")
            rate = fh.getframerate()
            if rate != SAMPLE_RATE:
                raise ValueError(f"{path}: expected {SAMPLE_RATE} Hz, file is {rate} Hz")
            n_frames = fh.getnframes()
            data = fh.readframes(n_frames)
    except (wave.Error, EOFError, RuntimeError) as err:
        # wave raises a bare RuntimeError for a chunk size that runs past its RIFF chunk
        raise ValueError(f"{path}: not a readable PCM WAV file ({str(err) or 'chunk size out of range'})") from err
    if len(data) % 2:
        raise ValueError(f"{path}: data chunk ends mid-sample ({len(data)} bytes of 16-bit samples)")
    if len(data) != 2 * n_frames:
        raise ValueError(f"{path}: data chunk holds {len(data)} bytes, header claims {2 * n_frames}")
    samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / PCM_SCALE
    return Waveform(samples)


def write_wav(path, w: Waveform) -> None:
    samples = w.samples
    n_clipped = int(np.sum(np.abs(samples) > 1.0))
    if n_clipped:
        warnings.warn(f"{path}: clipped {n_clipped} samples outside +-1", stacklevel=2)
        samples = np.clip(samples, -1.0, 1.0)
    pcm = np.round(samples * PCM_SCALE).astype("<i2")
    # a writer given an open file leaves nothing half-built when the open fails
    with open(path, "wb") as raw, wave.open(raw, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.tobytes())


def write_manifest(path, rows: list[tuple[str, str, float]]) -> None:
    """Corpus manifest: one (id, path, duration_s) row per utterance."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "path", "duration_s"])
        for utt_id, wav_path, duration in rows:
            writer.writerow([utt_id, wav_path, f"{duration:.6f}"])


def read_manifest(path) -> list[tuple[str, str, float]]:
    """Rows of a corpus manifest.

    A malformed row, or one that repeats an earlier id, is a ValueError
    naming path:line.
    """
    rows = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "path", "duration_s"]:
            raise ValueError(f"{path}: not a corpus manifest (header {header})")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != 3:
                raise ValueError(f"{where}: expected 3 fields (id,path,duration_s), got {len(row)}")
            try:
                duration = float(row[2])
            except ValueError:
                duration = math.nan
            if not (math.isfinite(duration) and duration >= 0.0):
                raise ValueError(f"{where}: duration_s must be a finite number >= 0, got {row[2]!r}")
            if row[0] in seen:
                raise ValueError(f"{where}: duplicate id {row[0]!r}")
            seen.add(row[0])
            rows.append((row[0], row[1], duration))
    return rows
