"""Reverberation model, corruption pipeline, speech generator, WAV I/O."""

import numpy as np
import pytest

from ccrn import corpus as cp
from ccrn.frontend import SAMPLE_RATE, Waveform


class TestRir:
    def test_zero_rt60_is_delta(self):
        h = cp.synth_rir(cp.RirSpec(0.0, 0.0, 64, seed=1))
        assert h[0] == 1.0
        assert np.all(h[1:] == 0.0)

    def test_deterministic(self):
        spec = cp.make_rir_spec(0.5, -5.0, seed=3)
        assert np.array_equal(cp.synth_rir(spec), cp.synth_rir(spec))

    def test_drr_is_exact(self):
        for drr in (-5.0, 0.0, 5.0):
            h = cp.synth_rir(cp.make_rir_spec(0.4, drr, seed=4))
            measured = 10.0 * np.log10(h[0] ** 2 / np.sum(h[1:] ** 2))
            assert abs(measured - drr) < 1e-9

    def test_decay_slope(self):
        # regression on the tail's log energy: -60 dB over rt60 within 5%
        rt60 = 0.5
        h = cp.synth_rir(cp.make_rir_spec(rt60, 0.0, seed=5))
        n = np.arange(1, h.size)
        level_db = 10.0 * np.log10(h[1:] ** 2 + 1e-300)
        slope_per_sample = np.polyfit(n, level_db, 1)[0]
        slope_per_rt60 = slope_per_sample * rt60 * SAMPLE_RATE
        assert abs(slope_per_rt60 - (-60.0)) < 3.0

    def test_room_drr_coupling(self):
        assert cp.room_drr(0.5, 5.0) == 5.0
        assert cp.room_drr(0.0, -5.0) == -5.0
        assert cp.room_drr(0.25, 0.0) > 0.0 > cp.room_drr(0.7, 0.0)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="rt60"):
            cp.RirSpec(-0.1, 0.0, 10, 0)
        with pytest.raises(ValueError, match="length"):
            cp.RirSpec(0.1, 0.0, 0, 0)


@pytest.fixture(scope="module")
def clean():
    return cp.synth_speech(1.2, seed=70)


class TestCorrupt:
    def test_snr_is_exact(self, clean):
        spec = cp.CorruptionSpec(cp.RirSpec(0.0, 0.0, 1, 0), snr_db=20.0, seed=8)
        noisy = cp.corrupt(clean, spec)
        noise = noisy.samples - clean.samples
        snr = 10.0 * np.log10(np.mean(clean.samples**2) / np.mean(noise**2))
        assert abs(snr - 20.0) < 0.1

    def test_identity_pipeline_bit_exact(self, clean):
        spec = cp.CorruptionSpec(cp.RirSpec(0.0, 0.0, 1, 0), snr_db=float("inf"))
        out = cp.corrupt(clean, spec)
        assert np.array_equal(out.samples, clean.samples)

    def test_length_preserved(self, clean):
        spec = cp.CorruptionSpec(cp.make_rir_spec(0.7, -5.0, 9), snr_db=20.0, seed=10)
        assert cp.corrupt(clean, spec).samples.size == clean.samples.size

    def test_deterministic(self, clean):
        spec = cp.CorruptionSpec(cp.make_rir_spec(0.5, 5.0, 11), snr_db=20.0, seed=12)
        a = cp.corrupt(clean, spec)
        b = cp.corrupt(clean, spec)
        assert np.array_equal(a.samples, b.samples)

    def test_output_energy_at_least_noise(self, clean):
        spec = cp.CorruptionSpec(cp.RirSpec(0.0, 0.0, 1, 0), snr_db=0.0, seed=13)
        noisy = cp.corrupt(clean, spec)
        noise_power = np.mean(clean.samples**2)  # snr 0: noise as strong as wet
        assert np.mean(noisy.samples**2) > 0.5 * noise_power

    def test_silent_input_rejected(self):
        spec = cp.CorruptionSpec(cp.RirSpec(0.0, 0.0, 1, 0))
        with pytest.raises(ValueError, match="silent|SNR"):
            cp.corrupt(Waveform(np.zeros(4000)), spec)

    def test_white_noise_kind(self, clean):
        spec = cp.CorruptionSpec(cp.RirSpec(0.0, 0.0, 1, 0), snr_db=10.0, noise_kind="white", seed=14)
        noisy = cp.corrupt(clean, spec)
        assert np.all(np.isfinite(noisy.samples))

    def test_bad_noise_kind_rejected(self):
        with pytest.raises(ValueError, match="noise"):
            cp.CorruptionSpec(cp.RirSpec(0.0, 0.0, 1, 0), noise_kind="pink")


class TestSpeechGenerator:
    def test_amplitude_and_duration(self):
        w = cp.synth_speech(2.0, seed=80)
        assert w.samples.size == 2 * SAMPLE_RATE
        assert 0.4 < np.max(np.abs(w.samples)) < 0.6

    def test_deterministic(self):
        a = cp.synth_speech(1.0, seed=81)
        b = cp.synth_speech(1.0, seed=81)
        assert np.array_equal(a.samples, b.samples)

    def test_has_silence_gaps_and_speech(self):
        from ccrn.quality import vad_mask

        w = cp.synth_speech(3.0, seed=82)
        mask = vad_mask(w)
        assert 0.3 < mask.mean() < 0.95


class TestWavIO:
    def test_round_trip_quantization(self, tmp_path):
        w = cp.synth_speech(0.5, seed=90)
        path = tmp_path / "x.wav"
        cp.write_wav(path, w)
        back = cp.read_wav(path)
        assert back.samples.size == w.samples.size
        assert np.max(np.abs(back.samples - w.samples)) < 1.0 / 32768.0

    def test_write_then_read_deterministic_bytes(self, tmp_path):
        w = cp.synth_speech(0.3, seed=91)
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        cp.write_wav(p1, w)
        cp.write_wav(p2, w)
        assert p1.read_bytes() == p2.read_bytes()

    def test_clipping_warns(self, tmp_path):
        w = Waveform(np.linspace(-1.5, 1.5, 1000))
        with pytest.warns(UserWarning, match="clipped"):
            cp.write_wav(tmp_path / "c.wav", w)

    def test_stereo_rejected_with_channel_count(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(SAMPLE_RATE)
            fh.writeframes(b"\0\0\0\0" * 100)
        with pytest.raises(ValueError, match="2 channels"):
            cp.read_wav(path)

    def test_wrong_rate_rejected(self, tmp_path):
        import wave

        path = tmp_path / "rate.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\0\0" * 100)
        with pytest.raises(ValueError, match="8000"):
            cp.read_wav(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="WAV"):
            cp.read_wav(path)

    def test_data_chunk_ending_mid_sample_names_the_file(self, tmp_path):
        import struct

        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16)
        body = b"WAVE" + fmt + struct.pack("<4sI", b"data", 6) + b"\1\0\2\0\3"  # claims 6 bytes, holds 5
        path = tmp_path / "cut.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(ValueError, match=f"^{path}: data chunk ends mid-sample"):
            cp.read_wav(path)

    def test_data_chunk_shorter_than_its_header_names_the_file(self, tmp_path):
        import struct

        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16)
        body = b"WAVE" + fmt + struct.pack("<4sI", b"data", 6) + b"\1\0\2\0"  # claims 6 bytes, holds 4
        path = tmp_path / "short.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(ValueError, match=f"^{path}: data chunk holds 4 bytes, header claims 6$"):
            cp.read_wav(path)

    def test_chunk_past_the_riff_chunk_names_the_file(self, tmp_path):
        path = tmp_path / "x.wav"
        cp.write_wav(path, cp.synth_speech(0.1, seed=92))
        data = bytearray(path.read_bytes())
        data[19] = 0x40  # high byte of the fmt chunk's size: the chunk now runs past the RIFF chunk
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=rf"^{path}: not a readable PCM WAV file \(chunk size out of range\)$"):
            cp.read_wav(path)

    def test_write_into_a_missing_directory_leaves_no_half_built_writer(self, tmp_path, monkeypatch):
        import gc
        import sys

        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with pytest.raises(FileNotFoundError):
            cp.write_wav(tmp_path / "nodir" / "x.wav", Waveform(np.zeros(10)))
        gc.collect()
        assert unraisable == []
        assert not (tmp_path / "nodir").exists()


class TestManifest:
    def test_round_trip(self, tmp_path):
        rows = [("utt000", "clean/utt000.wav", 2.5), ("utt001", "clean/utt001.wav", 3.0)]
        path = tmp_path / "manifest.csv"
        cp.write_manifest(path, rows)
        assert cp.read_manifest(path) == rows

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="manifest"):
            cp.read_manifest(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("utt000,clean/utt000.wav", "expected 3 fields"),
            ("utt000,clean/utt000.wav,3.0,extra", "expected 3 fields"),
            ("", "expected 3 fields"),
            ("utt000,clean/utt000.wav,abc", "duration_s"),
            ("utt000,clean/utt000.wav,nan", "duration_s"),
            ("utt000,clean/utt000.wav,inf", "duration_s"),
            ("utt000,clean/utt000.wav,-1", "duration_s"),
            ("utt001,clean/utt000.wav,1.0", "duplicate id 'utt001'"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "manifest.csv"
        path.write_text(f"id,path,duration_s\nutt001,clean/utt001.wav,2.0\n{row}\n")
        with pytest.raises(ValueError, match=f"manifest.csv:3: {message}"):
            cp.read_manifest(path)
