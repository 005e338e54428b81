"""Objective speech quality: LLR on active frames, SRMR, and the energy VAD.

LLR compares all-pole spectral envelopes (order-16 LPC via Levinson-Durbin
on the biased autocorrelation) of reference and test frames, capped at 2
and averaged over the reference's active frames. One recursion, vectorised
over the rows of a frame matrix, models every active frame of both signals
in one pass; ``lpc`` is its one-frame case. SRMR passes the signal
through a 23-channel gammatone filterbank (125 Hz - 8 kHz, ERB-spaced),
takes analytic-signal envelopes, splits them with an 8-band modulation
filterbank (4-128 Hz, log-spaced), and reports the energy ratio of the
four low bands to the four high bands. It takes the input's rfft once and
runs the gammatone bands on two threads, one band per task; the band
energies are added in band order, so the score has the same bits as the
serial filterbank (``fftconvolve`` per band).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft
import scipy.signal

from .frontend import FRAME_MS, HOP_MS, SAMPLE_RATE, Waveform, _window_samples, frame_signal, frame_view

LPC_ORDER = 16
LLR_CAP = 2.0
VAD_THRESHOLD_DB = 35.0


@dataclass
class LpcFrame:
    """All-pole model of one frame: coefficients (a[0]=1) and autocorrelation."""

    coeffs: np.ndarray
    autocorr: np.ndarray


@dataclass
class QualityReport:
    llr: float
    srmr: float
    n_active_frames: int


class LpcError(ValueError):
    pass


def vad_mask(w: Waveform) -> np.ndarray:
    """Boolean activity of each 25 ms frame (10 ms hop): energy within 35 dB of the peak frame.

    It frames as ``frame_signal(w, FRAME_MS)`` does, without the window, so ``llr`` can index
    those rows with this mask.
    """
    frames = frame_view(w.samples, _window_samples(FRAME_MS), _window_samples(HOP_MS))
    energy = np.sum(frames * frames, axis=1)
    peak = float(energy.max())
    if peak <= 0.0:
        return np.zeros(len(energy), dtype=bool)
    return energy >= peak * 10.0 ** (-VAD_THRESHOLD_DB / 10.0)


def _levinson(frames: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Levinson-Durbin on the biased autocorrelation of each row of an N x W frame matrix.

    Returns the N x (order+1) coefficients (a[:, 0] = 1) and autocorrelations,
    and each row's depth: the orders it completed while its prediction error
    stayed positive (0 for a silent row). A valid row has depth ``order``.
    """
    n = frames.shape[1]
    autocorr = np.stack([np.einsum("ij,ij->i", frames[:, : n - k], frames[:, k:]) for k in range(order + 1)], 1) / n
    a = np.zeros_like(autocorr)
    a[:, 0] = 1.0
    error = autocorr[:, 0].copy()
    depth = np.zeros(len(frames), dtype=int)
    for i in range(1, order + 1):
        ok = error > 0.0  # a failed row keeps k = 0 from here on, so it stays failed
        depth += ok
        acc = autocorr[:, i] + np.einsum("ij,ij->i", a[:, 1:i], autocorr[:, i - 1:0:-1])
        k = np.where(ok, -acc / np.where(ok, error, 1.0), 0.0)
        a[:, 1:i + 1] += k[:, None] * a[:, i - 1::-1]
        error *= 1.0 - k * k
    return a, autocorr, depth


def lpc(frame: np.ndarray, order: int = LPC_ORDER) -> LpcFrame:
    """Levinson-Durbin on the biased autocorrelation of a windowed frame."""
    coeffs, autocorr, depth = _levinson(np.asarray(frame, dtype=np.float64)[None, :], order)
    if autocorr[0, 0] <= 0.0:
        raise LpcError("silent frame: zero-lag autocorrelation is not positive")
    if depth[0] < order:
        raise LpcError(f"singular recursion at order {depth[0] + 1}")
    return LpcFrame(coeffs[0], autocorr[0])


def llr(reference: Waveform, test: Waveform) -> float:
    """Mean LPC log-likelihood ratio over the reference's active frames.

    Per frame: log of the test-coefficient to reference-coefficient
    quadratic forms under the reference autocorrelation matrix, floored at
    0 and capped at 2. The test signal is trimmed or zero-padded to the
    reference length. Frames where either model fails are skipped. Lower
    is better.
    """
    return _llr(reference, test, vad_mask(reference))


def _llr(reference: Waveform, test: Waveform, active: np.ndarray) -> float:
    """``llr`` over the frames ``active`` marks, the reference's ``vad_mask``."""
    if not active.any():
        raise ValueError("reference has no active frames")
    n = reference.samples.size
    tst = Waveform(np.pad(test.samples[:n], (0, max(0, n - test.samples.size))))

    # reference rows, then test rows: one stack, so equal frames get bit-equal models
    frames = np.concatenate([frame_signal(reference, FRAME_MS)[active], frame_signal(tst, FRAME_MS)[active]])
    coeffs, autocorr, depth = _levinson(frames, LPC_ORDER)
    m = len(frames) // 2
    lags = np.abs(np.subtract.outer(np.arange(LPC_ORDER + 1), np.arange(LPC_ORDER + 1)))
    pair = coeffs.reshape(2, m, LPC_ORDER + 1)
    denominator, numerator = np.einsum("sfi,fij,sfj->sf", pair, autocorr[:m, lags], pair)
    keep = (depth.reshape(2, m) == LPC_ORDER).all(axis=0) & (denominator > 0.0) & (numerator > 0.0)
    if not keep.any():
        raise ValueError("no scorable active frames")
    return float(np.mean(np.clip(np.log(numerator[keep] / denominator[keep]), 0.0, LLR_CAP)))


# ---------------------------------------------------------------------------
# SRMR

N_ACOUSTIC_BANDS = 23
N_MOD_BANDS = 8


def _erb_rate(f):
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(f))


def _erb_rate_inv(e):
    return (10.0 ** (np.asarray(e) / 21.4) - 1.0) / 0.00437


def _erb_bandwidth(f: float) -> float:
    return 24.7 * (4.37 * f / 1000.0 + 1.0)


@lru_cache(maxsize=None)
def _gammatone_bank() -> np.ndarray:
    """FIR gammatone filters (4th order, 40 ms) at 23 ERB-spaced centers."""
    centers = _erb_rate_inv(np.linspace(_erb_rate(125.0), _erb_rate(8000.0), N_ACOUSTIC_BANDS))
    t = np.arange(int(0.04 * SAMPLE_RATE)) / SAMPLE_RATE
    bank = np.zeros((N_ACOUSTIC_BANDS, t.size))
    for i, fc in enumerate(centers):
        g = t**3 * np.exp(-2.0 * np.pi * 1.019 * _erb_bandwidth(fc) * t) * np.cos(2.0 * np.pi * fc * t)
        response = np.abs(np.fft.rfft(g, 8192))
        bank[i] = g / response.max()
    return bank


@lru_cache(maxsize=None)
def _modulation_bank() -> list[np.ndarray]:
    """Fourth-order Butterworth bandpasses at 8 log-spaced centers, Q = 2."""
    centers = np.logspace(math.log10(4.0), math.log10(128.0), N_MOD_BANDS)
    sections = []
    for fc in centers:
        half = fc / 4.0  # Q = 2 -> bandwidth fc/2
        lo = fc * math.sqrt(1.0 + 1.0 / 16.0) - half
        hi = lo + fc / 2.0
        sections.append(scipy.signal.butter(4, [lo, hi], btype="bandpass", fs=SAMPLE_RATE, output="sos"))
    return sections


def srmr(w: Waveform) -> float:
    """Speech-to-reverberation modulation energy ratio; higher is better."""
    x = w.samples
    if x.size < SAMPLE_RATE // 2:
        raise ValueError("srmr needs at least 0.5 s of signal")
    if float(np.mean(x * x)) == 0.0:
        raise ValueError("srmr is undefined for a zero-energy signal")

    # the banks are filled here, so no worker is first into their caches
    gammatone, mod_bank = _gammatone_bank(), _modulation_bank()
    # fftconvolve(x, g)[:n] with the input's transform taken once
    n = x.size
    nfft = scipy.fft.next_fast_len(n + gammatone.shape[1] - 1, True)
    spectrum = scipy.fft.rfft(x, nfft)

    def modulation_energy(g: np.ndarray) -> list[float]:
        # complex * is not bit-commutative, and numpy may swap in a temporary
        # operand: a named filter spectrum on the right, as fftconvolve's sp1 * sp2
        g_spec = scipy.fft.rfft(g, nfft)
        band = scipy.fft.irfft(spectrum * g_spec, nfft)[:n]
        envelope = np.abs(scipy.signal.hilbert(band))
        filtered = (scipy.signal.sosfilt(sos, envelope) for sos in mod_bank)
        return [float(np.sum(f * f)) for f in filtered]

    band_energy = np.zeros(N_MOD_BANDS)
    # scipy's transforms and filters release the GIL, so two threads run two bands at once
    with ThreadPoolExecutor(2) as pool:
        for energies in pool.map(modulation_energy, gammatone):
            band_energy += energies  # band order, as the serial loop summed
    low = float(np.sum(band_energy[: N_MOD_BANDS // 2]))
    high = float(np.sum(band_energy[N_MOD_BANDS // 2:]))
    if high <= 0.0:
        raise ValueError("degenerate signal: no high-rate modulation energy")
    return low / high


def quality_report(reference: Waveform, test: Waveform) -> QualityReport:
    """LLR against the reference, SRMR of the test, active-frame count."""
    active = vad_mask(reference)
    return QualityReport(llr=_llr(reference, test, active), srmr=srmr(test), n_active_frames=int(active.sum()))
