"""Quality metrics: VAD, LPC, LLR, SRMR, and their corpus-level orderings."""

import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from ccrn import corpus as cp, quality as q
from ccrn.frontend import SAMPLE_RATE, Waveform, frame_signal


@pytest.fixture(scope="module")
def utterances():
    return [cp.synth_speech(2.5, seed=200 + i) for i in range(20)]


def corrupted(clean, i, rt60):
    base = 5.0 if i % 2 else -5.0
    spec = cp.CorruptionSpec(
        cp.make_rir_spec(rt60, cp.room_drr(rt60, base), 300 + i), snr_db=20.0, seed=400 + i
    )
    return cp.corrupt(clean, spec)


class TestVad:
    def test_silence_has_no_active_frames(self):
        assert q.vad_mask(Waveform(np.zeros(16000))).sum() == 0

    def test_constant_tone_fully_active(self):
        t = np.arange(16000) / SAMPLE_RATE
        mask = q.vad_mask(Waveform(0.3 * np.sin(2 * np.pi * 440 * t)))
        assert mask.all()

    def test_half_silent_signal(self):
        t = np.arange(8000) / SAMPLE_RATE
        sig = np.concatenate([0.3 * np.sin(2 * np.pi * 440 * t), np.zeros(8000)])
        mask = q.vad_mask(Waveform(sig))
        assert 0.4 < mask.mean() < 0.6

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            q.vad_mask(Waveform(np.zeros(100)))


class TestLpc:
    def test_ar1_recovery(self):
        rng = np.random.default_rng(100)
        x = np.zeros(20000)
        e = rng.standard_normal(20000)
        for n in range(1, x.size):
            x[n] = 0.9 * x[n - 1] + e[n]
        model = q.lpc(x, order=1)
        assert abs(model.coeffs[1] + 0.9) < 0.02

    def test_white_noise_near_flat(self):
        rng = np.random.default_rng(101)
        model = q.lpc(rng.standard_normal(10000), order=16)
        assert np.max(np.abs(model.coeffs[1:])) < 0.1

    def test_toeplitz_residual(self):
        rng = np.random.default_rng(102)
        frame = rng.standard_normal(400) * np.hamming(400)
        model = q.lpc(frame)
        r_matrix = scipy.linalg.toeplitz(model.autocorr)
        residual = r_matrix @ model.coeffs
        assert residual[0] > 0.0
        assert np.max(np.abs(residual[1:])) < 1e-8

    def test_leading_coefficient_is_one(self):
        rng = np.random.default_rng(103)
        assert q.lpc(rng.standard_normal(400)).coeffs[0] == 1.0

    def test_silent_frame_rejected(self):
        with pytest.raises(q.LpcError, match="silent"):
            q.lpc(np.zeros(400))


class TestLlr:
    def test_identity_is_exact_zero(self):
        w = cp.synth_speech(1.5, seed=110)
        assert q.llr(w, w) == 0.0

    def test_gain_invariance(self):
        w = cp.synth_speech(1.5, seed=111)
        test = corrupted(w, 0, 0.5)
        base = q.llr(w, test)
        for gain in (0.5, 2.0):
            scaled = q.llr(Waveform(gain * w.samples), Waveform(gain * test.samples))
            assert abs(scaled - base) < 1e-6

    def test_heavy_reverb_scores_worse(self, utterances):
        light, heavy = [], []
        for i, clean in enumerate(utterances):
            light.append(q.llr(clean, corrupted(clean, i, 0.25)))
            heavy.append(q.llr(clean, corrupted(clean, i, 0.7)))
        assert np.mean(heavy) > np.mean(light)

    def test_values_bounded(self, utterances):
        clean = utterances[0]
        value = q.llr(clean, corrupted(clean, 0, 0.7))
        assert 0.0 <= value <= 2.0

    def test_no_active_frames_rejected(self):
        quiet = Waveform(np.zeros(16000))
        with pytest.raises(ValueError, match="active"):
            q.llr(quiet, quiet)

    def test_length_adaptation(self):
        w = cp.synth_speech(1.5, seed=112)
        shorter = Waveform(w.samples[:-1000])
        assert np.isfinite(q.llr(w, shorter))


def llr_by_toeplitz(reference, test):
    """LLR one frame at a time: LPC through scipy's Toeplitz solver, invalid frames skipped."""
    n = reference.samples.size
    padded = np.zeros(n)
    padded[: min(n, test.samples.size)] = test.samples[:n]
    ref_frames, tst_frames = frame_signal(reference, 25.0), frame_signal(Waveform(padded), 25.0)
    values = []
    for idx in np.flatnonzero(q.vad_mask(reference)):
        models = []
        for frame in (ref_frames[idx], tst_frames[idx]):
            r = np.correlate(frame, frame, mode="full")[frame.size - 1:frame.size + q.LPC_ORDER] / frame.size
            if r[0] > 0.0:
                models.append((np.concatenate([[1.0], scipy.linalg.solve_toeplitz(r[:-1], -r[1:])]), r))
        if len(models) < 2:
            continue
        r_matrix = scipy.linalg.toeplitz(models[0][1])
        denominator, numerator = (a @ r_matrix @ a for a, _ in models)
        if denominator > 0.0 and numerator > 0.0:
            values.append(min(max(np.log(numerator / denominator), 0.0), q.LLR_CAP))
    return float(np.mean(values))


class TestLlrOracle:
    """``llr`` against a frame-by-frame evaluation through scipy's Toeplitz routines."""

    def test_corrupted_pairs(self, utterances):
        for i, clean in enumerate(utterances[:6]):
            noisy = corrupted(clean, i, (0.25, 0.5, 0.7)[i % 3])
            assert abs(q.llr(clean, noisy) - llr_by_toeplitz(clean, noisy)) < 1e-12

    def test_shorter_test_signal(self, utterances):
        clean = utterances[1]
        shorter = Waveform(corrupted(clean, 1, 0.5).samples[:-3000])
        assert abs(q.llr(clean, shorter) - llr_by_toeplitz(clean, shorter)) < 1e-12

    def test_silent_test_frames_are_dropped(self, utterances):
        clean = utterances[2]
        half = clean.samples.size // 2
        test = Waveform(np.concatenate([corrupted(clean, 2, 0.5).samples[:half], np.zeros(clean.samples.size - half)]))
        silent = np.all(frame_signal(test, 25.0) == 0.0, axis=1)
        assert np.any(silent & q.vad_mask(clean))  # active reference frames with no test model
        assert abs(q.llr(clean, test) - llr_by_toeplitz(clean, test)) < 1e-12


class TestSrmr:
    def test_slow_am_beats_fast_am(self):
        rng = np.random.default_rng(120)
        t = np.arange(2 * SAMPLE_RATE) / SAMPLE_RATE
        carrier = rng.standard_normal(t.size)
        slow = Waveform(0.2 * carrier * (1 + 0.9 * np.sin(2 * np.pi * 4 * t)))
        fast = Waveform(0.2 * carrier * (1 + 0.9 * np.sin(2 * np.pi * 64 * t)))
        assert q.srmr(slow) > q.srmr(fast)

    def test_gain_invariance(self):
        w = cp.synth_speech(1.5, seed=121)
        base = q.srmr(w)
        for gain in (0.5, 2.0):
            assert abs(q.srmr(Waveform(gain * w.samples)) - base) / base < 1e-6

    def test_reverb_lowers_score(self, utterances):
        clean_scores, reverb_scores = [], []
        for i, clean in enumerate(utterances):
            clean_scores.append(q.srmr(clean))
            reverb_scores.append(q.srmr(corrupted(clean, i, 0.7)))
        assert np.mean(clean_scores) > np.mean(reverb_scores)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="0.5 s"):
            q.srmr(Waveform(np.zeros(4000)))

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError, match="zero-energy"):
            q.srmr(Waveform(np.zeros(16000)))


def srmr_serial(w):
    """SRMR one gammatone band at a time: fftconvolve, hilbert, sosfilt, summed in band order."""
    band_energy = np.zeros(q.N_MOD_BANDS)
    for g in q._gammatone_bank():
        envelope = np.abs(scipy.signal.hilbert(scipy.signal.fftconvolve(w.samples, g)[: w.samples.size]))
        for j, sos in enumerate(q._modulation_bank()):
            filtered = scipy.signal.sosfilt(sos, envelope)
            band_energy[j] += float(np.sum(filtered * filtered))
    return float(np.sum(band_energy[: q.N_MOD_BANDS // 2])) / float(np.sum(band_energy[q.N_MOD_BANDS // 2:]))


class TestSrmrOracle:
    """``srmr`` against the serial filterbank, bit for bit."""

    @pytest.fixture(scope="class")
    def signals(self):
        out = []
        for i, n in enumerate((SAMPLE_RATE // 2, 12345, 3 * SAMPLE_RATE)):
            clean = cp.synth_speech(n / SAMPLE_RATE, seed=140 + i)
            assert clean.samples.size == n
            out += [clean, corrupted(clean, i, 0.7)]
        return out

    def test_equals_serial_filterbank(self, signals):
        for w in signals:
            assert q.srmr(w) == srmr_serial(w)

    def test_concurrent_calls_equal_serial_filterbank(self, signals):
        # two calls at once put four band workers on the machine's cores
        pair = signals[-2:]  # 3 s, dry and rt60 0.7
        results = [None, None]

        def score(k):
            results[k] = q.srmr(pair[k])

        threads = [threading.Thread(target=score, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [srmr_serial(w) for w in pair]


@pytest.fixture(scope="module")
def ladder_scores(utterances):
    scores = {}
    for rt60 in (0.0, 0.25, 0.5, 0.7):
        srmrs, llrs = [], []
        for i, clean in enumerate(utterances):
            noisy = corrupted(clean, i, rt60)
            srmrs.append(q.srmr(noisy))
            llrs.append(q.llr(clean, noisy))
        scores[rt60] = (float(np.mean(srmrs)), float(np.mean(llrs)))
    return scores


class TestLadders:
    """Corpus-level metric orderings over the reverberation-time ladder."""

    def test_mean_srmr_strictly_decreasing(self, ladder_scores):
        values = [ladder_scores[r][0] for r in (0.0, 0.25, 0.5, 0.7)]
        assert all(a > b for a, b in zip(values, values[1:])), values

    def test_mean_llr_strictly_increasing(self, ladder_scores):
        values = [ladder_scores[r][1] for r in (0.0, 0.25, 0.5, 0.7)]
        assert all(a < b for a, b in zip(values, values[1:])), values

    def test_srmr_ordering_at_fixed_drr(self, utterances):
        # holding distance (drr) and seeds fixed, more reverberation time
        # still scores lower
        means = []
        for rt60 in (0.25, 0.5, 0.7):
            vals = []
            for i, clean in enumerate(utterances):
                base = 5.0 if i % 2 else -5.0
                spec = cp.CorruptionSpec(
                    cp.make_rir_spec(rt60, base, 300 + i), snr_db=20.0, seed=400 + i
                )
                vals.append(q.srmr(cp.corrupt(clean, spec)))
            means.append(float(np.mean(vals)))
        assert all(a > b for a, b in zip(means, means[1:])), means


class TestReport:
    def test_quality_report_fields(self):
        clean = cp.synth_speech(1.5, seed=130)
        noisy = corrupted(clean, 0, 0.5)
        report = q.quality_report(clean, noisy)
        assert report.llr > 0.0
        assert report.srmr > 0.0
        assert report.n_active_frames > 0

    def test_quality_report_frames_the_reference_once(self, monkeypatch):
        clean = cp.synth_speech(1.5, seed=131)
        noisy = corrupted(clean, 1, 0.7)
        want = (q.llr(clean, noisy), q.srmr(noisy), int(q.vad_mask(clean).sum()))
        masks = []
        vad_mask = q.vad_mask
        monkeypatch.setattr(q, "vad_mask", lambda w: masks.append(w) or vad_mask(w))
        report = q.quality_report(clean, noisy)
        assert len(masks) == 1 and masks[0] is clean
        assert (report.llr, report.srmr, report.n_active_frames) == want
