"""Front-end: framing, spectra, mel/cepstra oracles, assembly, resynthesis."""

import numpy as np
import pytest

from ccrn import corpus, frontend as fe


@pytest.fixture(scope="module")
def speech():
    return corpus.synth_speech(1.2, seed=21)


def dct_direct(row):
    """O(n^2) orthonormal type-II DCT, the independent oracle."""
    n = row.size
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for i in range(n):
            acc += row[i] * np.cos(np.pi * k * (2 * i + 1) / (2 * n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * acc
    return out


def log_fft_oracle(frames, nfft=512):
    """Log magnitude of the full complex FFT, all ``nfft`` bins."""
    return np.log(np.maximum(np.abs(np.fft.fft(frames, n=nfft, axis=1)), 1e-10))


def wrapped(angle):
    return np.angle(np.exp(1j * angle))


def reconstruct_loop(enh, phase, length):
    """Full Hermitian spectrum, complex ifft and a per-frame overlap-add loop."""
    mags = np.exp(enh.frames)
    mirror = (512 - np.arange(257)) % 512
    spectrum = 0.5 * (mags[:, :257] + mags[:, mirror]) * np.exp(1j * phase.frames)
    full = np.concatenate([spectrum, np.conj(spectrum[:, -2:0:-1])], axis=1)
    frames = np.fft.ifft(full, axis=1).real[:, :400]
    window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(400) / 400)
    total = (frames.shape[0] - 1) * 160 + 400
    out, wsum = np.zeros(total), np.zeros(total)
    for f in range(frames.shape[0]):
        out[f * 160:f * 160 + 400] += frames[f] * window
        wsum[f * 160:f * 160 + 400] += window * window
    out = np.where(wsum > 1e-8, out / np.maximum(wsum, 1e-8), 0.0)
    return np.concatenate([out, np.zeros(max(0, length - total))])[:length]


class TestFraming:
    def test_window_and_hop_sizes(self, speech):
        frames = fe.frame_signal(speech, 25.0)
        assert frames.shape[1] == 400

    def test_one_second_gives_98_frames(self):
        w = fe.Waveform(np.ones(16000) * 0.1)
        assert fe.frame_signal(w, 25.0).shape[0] == 98

    def test_ones_input_yields_window(self):
        w = fe.Waveform(np.ones(3200))
        frames = fe.frame_signal(w, 25.0)
        window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(400) / 400)
        for row in frames:
            assert np.allclose(row, window, atol=1e-12)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            fe.frame_signal(fe.Waveform(np.zeros(300)), 25.0)

    def test_frame_view_matches_index_matrix(self, speech):
        x = speech.samples[:3001]
        for win, hop in ((400, 160), (800, 160), (7, 3), (3001, 5)):
            n = (x.size - win) // hop + 1
            idx = np.arange(win)[None, :] + hop * np.arange(n)[:, None]
            assert np.array_equal(fe.frame_view(x, win, hop), x[idx])
        window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(400) / 400)
        assert np.array_equal(fe.frame_signal(speech, 25.0), fe.frame_view(speech.samples, 400, 160) * window)


class TestLogSpectrum:
    def test_zero_frame_hits_floor(self):
        spec = fe.target_spectrum(fe.Waveform(np.zeros(720)))
        assert spec.frames.shape == (3, 512)
        assert np.all(spec.frames == np.log(1e-10))

    def test_tone_peak_bin(self):
        t = np.arange(16000) / 16000
        tone = fe.Waveform(0.5 * np.sin(2 * np.pi * 1000 * t))
        spec = fe.target_spectrum(tone)
        assert np.argmax(spec.frames[10][:257]) == 32
        assert np.argmax(spec.frames[10][257:]) + 257 == 512 - 32

    def test_mirror_symmetry(self, speech):
        spec = fe.target_spectrum(speech)
        for i in range(1, 256):
            assert np.max(np.abs(spec.frames[:, i] - spec.frames[:, 512 - i])) < 1e-9

    @pytest.mark.parametrize("nfft", [511, 512])
    def test_rfft_mirror_matches_full_fft_oracle(self, speech, nfft):
        frames = fe.frame_signal(speech, 25.0)
        magnitude = np.abs(np.fft.rfft(frames, n=nfft, axis=1))
        assert np.max(np.abs(fe._log_magnitude(magnitude, nfft) - log_fft_oracle(frames, nfft))) < 1e-9

    def test_target_matches_full_fft_oracle(self, speech):
        oracle = log_fft_oracle(fe.frame_signal(speech, 25.0))
        assert np.max(np.abs(fe.target_spectrum(speech).frames - oracle)) < 1e-9


def mel_centers(n_mels):
    """Centre frequency (Hz) of each of ``n_mels`` mel filters spanning 0-8000 Hz."""
    mel = np.linspace(0.0, 2595.0 * np.log10(1.0 + 8000.0 / 700.0), n_mels + 2)[1:-1]
    return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)


# raw log-mel columns of assemble_features per stream: (mel bands, columns)
MEL_COLUMNS = ((32, slice(512, 544)), (50, slice(576, 626)), (100, slice(676, 776)))


def raw_features(w):
    feats, _ = fe.assemble_features(w)
    return feats.frames * feats.norm_scale


class TestMelCepstra:
    def test_zero_frame_floors(self):
        raw = raw_features(fe.Waveform(np.zeros(3200)))
        for _, cols in MEL_COLUMNS:
            assert np.all(raw[:, cols] == np.log(1e-10))

    def test_white_noise_is_finite(self):
        rng = np.random.default_rng(22)
        raw = raw_features(fe.Waveform(rng.standard_normal(3200)))
        for _, cols in MEL_COLUMNS:
            assert np.all(np.isfinite(raw[:, cols]))

    def test_mel_energies_are_power(self, speech):
        # doubling the amplitude adds log 2 to log magnitudes and log 4 to log powers
        base = raw_features(speech)
        doubled = raw_features(fe.Waveform(2.0 * speech.samples))
        assert np.max(np.abs(doubled[:, :512] - base[:, :512] - np.log(2.0))) < 1e-9
        for _, cols in MEL_COLUMNS:
            assert np.max(np.abs(doubled[:, cols] - base[:, cols] - np.log(4.0))) < 1e-9

    def test_tone_hits_nearest_filter(self):
        t = np.arange(16000) / 16000
        for freq in (250.0, 500.0, 1000.0, 3000.0, 6000.0):
            raw = raw_features(fe.Waveform(0.5 * np.sin(2 * np.pi * freq * t)))
            for n_mels, cols in MEL_COLUMNS:
                got = int(np.argmax(raw[:, cols].mean(axis=0)))
                want = int(np.argmin(np.abs(mel_centers(n_mels) - freq)))
                assert got == want, (freq, n_mels)

    def test_constant_row_dct(self):
        c = 1.7
        out = fe.cepstral_features(np.full((1, 32), c))
        assert abs(out[0, 0] - c * np.sqrt(32)) < 1e-9
        assert np.max(np.abs(out[0, 1:])) < 1e-9

    def test_zero_row_dct(self):
        assert np.all(fe.cepstral_features(np.zeros((1, 50))) == 0.0)

    def test_matches_direct_dct_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.choice([8, 16, 32]))
            row = rng.standard_normal(n)
            got = fe.cepstral_features(row[None, :])[0]
            assert np.max(np.abs(got - dct_direct(row))) < 1e-8


class TestAssemble:
    def test_width_876(self, speech):
        feats, phase = fe.assemble_features(speech)
        assert feats.frames.shape[1] == 876
        assert phase.frames.shape[1] == 257
        assert feats.frames.shape[0] == phase.frames.shape[0]

    def test_unit_variance(self, speech):
        feats, _ = fe.assemble_features(speech)
        std = feats.frames.std(axis=0)
        nonzero = std > 1e-8
        assert np.allclose(std[nonzero], 1.0, atol=1e-6)

    def test_deterministic(self, speech):
        f1, p1 = fe.assemble_features(speech)
        f2, p2 = fe.assemble_features(speech)
        assert np.array_equal(f1.frames, f2.frames)
        assert np.array_equal(p1.frames, p2.frames)

    def test_norm_scale_recorded(self, speech):
        feats, _ = fe.assemble_features(speech)
        raw = feats.frames * feats.norm_scale
        assert np.allclose(raw.std(axis=0), feats.norm_scale, rtol=1e-12)
        target = fe.target_spectrum(speech).frames[:raw.shape[0]]
        assert np.max(np.abs(raw[:, :512] - target)) < 1e-9

    def test_silence_keeps_unit_scale(self):
        feats, _ = fe.assemble_features(fe.Waveform(np.zeros(3200)))
        assert np.all(feats.norm_scale == 1.0)
        assert np.all(feats.frames[:, :512] == np.log(1e-10))

    def test_translation_covariance(self, speech):
        shifted = fe.Waveform(speech.samples[160:])
        a = raw_features(speech)
        b = raw_features(shifted)
        n = b.shape[0]
        assert np.max(np.abs(a[1:n + 1] - b[:n])) < 1e-6

    def test_log_fft_and_phase_match_full_fft_oracle(self, speech):
        feats, phase = fe.assemble_features(speech)
        raw = feats.frames * feats.norm_scale
        n = raw.shape[0]
        spectrum = np.fft.fft(fe.frame_signal(speech, 25.0), 512, axis=1)[:n]
        oracle = np.log(np.maximum(np.abs(spectrum), 1e-10))
        assert np.max(np.abs(raw[:, :512] - oracle)) < 1e-9
        assert np.max(np.abs(wrapped(phase.frames - np.angle(spectrum[:, :257])))) < 1e-9

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="75 ms"):
            fe.assemble_features(fe.Waveform(np.zeros(800)))


def feature_bytes(feats):
    return feats.frames.tobytes() + feats.norm_scale.tobytes()


def features_whole_matrix(w, with_phase):
    """``_features`` with each stream's framing, rfft, log FFT, phase and power on all T rows at once.

    The oracle of the blocked front-end; the mel products and DCTs are the
    front-end's own, which run on all rows in both.
    """
    n = fe._n_frames(w.samples.size)
    raw = np.empty((n, fe.FEATURE_DIM))
    phase = None
    col = fe.FFT_BINS
    for n_mels, win_ms in fe.MEL_STREAMS:
        win = fe._window_samples(win_ms)
        nfft = fe._fft_size(win)
        padded = np.zeros((n, nfft))
        padded[:, :win] = fe.frame_view(w.samples, win, 160)[:n] * fe._hamming_periodic(win)
        spectrum = np.fft.rfft(padded, axis=1)
        if win_ms == fe.FRAME_MS:
            if with_phase:
                angle = np.angle(spectrum)
                phase = np.where(angle <= -np.pi, np.pi, angle)
            magnitude = np.abs(spectrum)
            fe._log_magnitude(magnitude, fe.FFT_BINS, out=raw[:, :fe.FFT_BINS])
            power = magnitude * magnitude
        else:
            power = spectrum.real * spectrum.real + spectrum.imag * spectrum.imag
        fbank = raw[:, col:col + n_mels]
        fe._mel_from_power(power, n_mels, out=fbank)
        raw[:, col + n_mels:col + 2 * n_mels] = fe.cepstral_features(fbank)
        col += 2 * n_mels
    std = raw.std(axis=0)
    scale = np.where(std > fe.CONSTANT_RTOL * np.abs(raw).max(axis=0), std, 1.0)
    return raw / scale, scale, phase


def samples_for_frames(n_frames):
    """Samples of a signal with ``n_frames`` feature frames and a part-hop tail."""
    return fe._window_samples(75.0) + (n_frames - 1) * 160 + 77


class TestScratch:
    def test_reused_scratch_matches_fresh_over_mixed_lengths(self):
        scratch = fe._Scratch()
        for duration, seed in ((2.0, 31), (0.3, 32), (1.1, 33), (2.4, 34)):
            w = corpus.synth_speech(duration, seed=seed)
            reused, _ = fe._features(w, scratch)
            fresh, _ = fe._features(w, fe._Scratch())
            assert feature_bytes(reused) == feature_bytes(fresh)

    def test_returned_features_do_not_alias_the_scratch(self, speech):
        scratch = fe._Scratch()
        first, _ = fe._features(speech, scratch)
        kept = feature_bytes(first)
        fe._features(fe.Waveform(speech.samples[::-1].copy()), scratch)
        assert feature_bytes(first) == kept

    def test_second_call_at_the_same_length_reuses_every_buffer(self, speech):
        scratch = fe._Scratch()
        fe._features(speech, scratch)
        before = {name: flat.ctypes.data for name, flat in scratch._flat.items()}
        fe._features(fe.Waveform(0.5 * speech.samples), scratch)
        assert before and {name: flat.ctypes.data for name, flat in scratch._flat.items()} == before

    # 1, 63, 64, 65, 128 and 129 frames, each row block full or one row over, and 3 s (293 frames)
    @pytest.mark.parametrize("n_samples", [samples_for_frames(n) for n in (1, 63, 64, 65, 128, 129)] + [48000])
    @pytest.mark.parametrize("with_phase", [False, True])
    def test_blocks_match_the_whole_matrix_bit_for_bit(self, n_samples, with_phase):
        w = fe.Waveform(corpus.synth_speech(3.2, seed=35).samples[:n_samples])
        feats, phase = fe._features(w, fe._Scratch(), with_phase)
        frames, scale, oracle_phase = features_whole_matrix(w, with_phase)
        assert feats.frames.tobytes() == frames.tobytes() and feats.norm_scale.tobytes() == scale.tobytes()
        assert (phase is None) == (not with_phase)
        if with_phase:
            assert phase.frames.tobytes() == oracle_phase.tobytes()

    def test_three_seconds_leave_the_scratch_under_8_mb(self):
        scratch = fe._Scratch()
        fe._features(corpus.synth_speech(3.0, seed=36), scratch, with_phase=True)
        assert 0 < sum(flat.nbytes for flat in scratch._flat.values()) < 8e6

    def test_phase_equals_angle_of_a_fresh_rfft(self, speech):
        _, phase = fe.assemble_features(speech)
        n = phase.frames.shape[0]
        angle = np.angle(np.fft.rfft(fe.frame_signal(speech, 25.0), 512, axis=1)[:n])
        assert phase.frames.tobytes() == np.where(angle <= -np.pi, np.pi, angle).tobytes()


class TestReconstruct:
    def test_round_trip_snr(self, speech):
        spec = fe.target_spectrum(speech)
        _, phase = fe.assemble_features(speech)
        n = phase.frames.shape[0]
        rec = fe.reconstruct(fe.LogSpectrogram(spec.frames[:n]), phase, speech.samples.size)
        coverage = (n - 1) * 160 + 400
        interior = slice(200, coverage - 200)
        err = speech.samples[interior] - rec.samples[interior]
        snr = 10 * np.log10(np.sum(speech.samples[interior] ** 2) / max(np.sum(err**2), 1e-300))
        assert snr >= 30.0

    @pytest.mark.parametrize("length", [1000, None, 60000])
    def test_matches_ifft_loop_oracle(self, speech, length):
        _, phase = fe.assemble_features(speech)
        n = phase.frames.shape[0]
        spec = fe.LogSpectrogram(fe.target_spectrum(speech).frames[:n])
        length = length or speech.samples.size
        rec = fe.reconstruct(spec, phase, length)
        assert np.max(np.abs(rec.samples - reconstruct_loop(spec, phase, length))) < 1e-12

    def test_floor_spectrum_is_silent(self):
        spec = fe.LogSpectrogram(np.full((20, 512), np.log(1e-10)))
        phase = fe.PhaseSpectrogram(np.zeros((20, 257)))
        rec = fe.reconstruct(spec, phase, 4000)
        assert np.max(np.abs(rec.samples)) < 1e-6

    def test_magnitude_linearity(self, speech):
        spec = fe.target_spectrum(speech)
        _, phase = fe.assemble_features(speech)
        n = phase.frames.shape[0]
        one = fe.reconstruct(fe.LogSpectrogram(spec.frames[:n]), phase, speech.samples.size)
        two = fe.reconstruct(fe.LogSpectrogram(spec.frames[:n] + np.log(2.0)), phase, speech.samples.size)
        assert np.allclose(two.samples, 2.0 * one.samples, atol=1e-9)

    def test_length_mismatch_rejected(self):
        spec = fe.LogSpectrogram(np.zeros((5, 512)))
        phase = fe.PhaseSpectrogram(np.zeros((6, 257)))
        with pytest.raises(ValueError, match="frames"):
            fe.reconstruct(spec, phase, 100)

    def test_pad_and_trim(self):
        spec = fe.LogSpectrogram(np.zeros((10, 512)))
        phase = fe.PhaseSpectrogram(np.zeros((10, 257)))
        assert fe.reconstruct(spec, phase, 123).samples.size == 123
        assert fe.reconstruct(spec, phase, 99999).samples.size == 99999


class TestFoldUnfold:
    def test_round_trip_constant_groups(self):
        rng = np.random.default_rng(24)
        folded = rng.standard_normal((7, 128))
        expanded = fe.unfold_spectrum(folded)
        assert expanded.shape == (7, 512)
        assert np.allclose(fe.fold_spectrum(expanded, 128), folded, atol=1e-12)

    def test_fold_averages_groups(self):
        frames = np.arange(8.0)[None, :].repeat(2, axis=0)
        folded = fe.fold_spectrum(np.repeat(frames, 64, axis=1), 4)
        assert folded.shape == (2, 4)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="fold"):
            fe.fold_spectrum(np.zeros((2, 512)), 100)


class TestTypes:
    def test_spectrogram_width_checked(self):
        with pytest.raises(ValueError, match="512"):
            fe.LogSpectrogram(np.zeros((4, 300)))

    def test_feature_width_checked(self):
        with pytest.raises(ValueError, match="876"):
            fe.FeatureSequence(np.zeros((4, 875)), np.ones(876))
