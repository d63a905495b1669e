import numpy as np
import pytest
from scipy.integrate import simpson

from radroute import dsp
from radroute.dsp import (AudioClip, GammatoneFilterbank, StftConfig,
                          erb_bandwidth, gammatone_ir, hamming_window,
                          mel_frequency)

from oracles import gammatonegram_direct


def direct_dft(frames: np.ndarray, n: int) -> np.ndarray:
    """O(N^2) DFT oracle, one row per frame (full spectrum, keep rfft half)."""
    m = frames.shape[1]
    k = np.arange(n // 2 + 1)
    t = np.arange(m)
    basis = np.exp(-2j * np.pi * np.outer(k, t) / n)
    return frames @ basis.T


def frames_of(x, cfg):
    n_frames = dsp.frame_count(len(x), cfg.frame_len, cfg.hop)
    idx = np.arange(cfg.frame_len)[None, :] + cfg.hop * np.arange(n_frames)[:, None]
    return x[idx]


class TestHammingWindow:
    def test_m2(self):
        np.testing.assert_allclose(hamming_window(2), [0.08, 0.08], atol=1e-15)

    def test_m3(self):
        np.testing.assert_allclose(hamming_window(3), [0.08, 1.0, 0.08],
                                   atol=1e-15)

    def test_symmetry(self):
        for m in (5, 8, 441):
            w = hamming_window(m)
            np.testing.assert_allclose(w, w[::-1], atol=0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            hamming_window(1)


class TestStft:
    def test_constant_signal_dc_only(self):
        cfg = StftConfig(frame_len=64, hop=64, fft_size=64,
                         window="rectangular")
        clip = AudioClip(np.full(256, 0.5), 8000.0)
        x = dsp.stft(clip, cfg)
        assert np.all(np.abs(x[0]) > 1.0)
        assert np.abs(x[1:]).max() < 1e-12

    def test_matches_direct_dft(self):
        cfg = StftConfig(frame_len=128, hop=64, fft_size=128,
                         window="rectangular")
        rng = np.random.default_rng(0)
        x = rng.normal(size=1024)
        got = dsp.stft(AudioClip(x, 8000.0), cfg)
        want = direct_dft(frames_of(x, cfg), cfg.fft_size).T
        assert np.abs(got - want).max() < 1e-9

    def test_sinusoid_peaks_at_exact_bin(self):
        cfg = StftConfig(frame_len=128, hop=128, fft_size=128,
                         window="rectangular")
        fs = 8000.0
        k0 = 10
        t = np.arange(512) / fs
        clip = AudioClip(np.sin(2 * np.pi * (k0 * fs / 128) * t), fs)
        x = dsp.stft(clip, cfg)
        assert np.all(np.abs(x).argmax(axis=0) == k0)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=2000)
        cfg = StftConfig()
        a = dsp.stft(AudioClip(2 * x, 44100.0), cfg)
        b = dsp.stft(AudioClip(x, 44100.0), cfg)
        np.testing.assert_allclose(a, 2 * b, rtol=1e-12)

    def test_short_clip_rejected(self):
        with pytest.raises(ValueError):
            dsp.stft(AudioClip(np.zeros(100), 44100.0), StftConfig())

    def test_parseval_rectangular(self):
        # per-frame energy conservation when hop = frame = fft size
        cfg = StftConfig(frame_len=256, hop=256, fft_size=256,
                         window="rectangular")
        rng = np.random.default_rng(2)
        x = rng.normal(size=1024)
        spec = dsp.stft(AudioClip(x, 8000.0), cfg)
        power = np.abs(spec) ** 2
        power[1:-1] *= 2.0  # rfft keeps half the spectrum
        lhs = (frames_of(x, cfg) ** 2).sum(axis=1)
        rhs = power.sum(axis=0) / cfg.fft_size
        assert np.abs(lhs - rhs).max() < 1e-9


class TestLogPower:
    def test_spot_values(self):
        assert dsp.log_power(np.array([1.0]))[0] == 0.0
        assert abs(dsp.log_power(np.array([10.0]))[0] - 20.0) < 1e-12
        assert dsp.log_power(np.array([0.0]))[0] == dsp.FLOOR_DB


class TestSpectrogram:
    def test_default_shape_half_second(self):
        clip = AudioClip(np.random.default_rng(0).normal(size=22050), 44100.0)
        img = dsp.spectrogram(clip)
        assert img.values.shape == (221, 50)
        assert img.axis_kind == "linear"

    def test_silent_clip_is_floor(self):
        img = dsp.spectrogram(AudioClip(np.zeros(22050), 44100.0))
        assert np.all(img.values == dsp.FLOOR_DB)

    def test_deterministic(self):
        clip = AudioClip(np.random.default_rng(3).normal(size=22050), 44100.0)
        a = dsp.spectrogram(clip).values
        b = dsp.spectrogram(clip).values
        assert np.array_equal(a, b)


class TestMel:
    def test_spot_values(self):
        assert mel_frequency(0.0) == 0.0
        assert abs(mel_frequency(700.0) - 1127.0 * np.log(2.0)) < 1e-9

    def test_monotonic(self):
        f = np.linspace(0, 22050, 500)
        assert np.all(np.diff(mel_frequency(f)) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mel_frequency(-1.0)

    def test_filterbank_rows(self):
        weights, centers = dsp.mel_filterbank(64, 221, 44100.0, 441)
        assert np.all(weights >= 0)
        assert np.all(weights.sum(axis=1) > 0)
        assert np.all(np.diff(centers) > 0)
        # normalized triangles: each bin receives total weight <= 1
        assert weights.sum(axis=0).max() <= 1.0 + 1e-9

    def test_single_filter_direct_summation(self):
        rng = np.random.default_rng(4)
        clip = AudioClip(rng.normal(size=22050), 44100.0)
        cfg = StftConfig()
        power = np.abs(dsp.stft(clip, cfg)) ** 2
        weights, _ = dsp.mel_filterbank(64, power.shape[0], 44100.0, 441)
        img = dsp.mel_spectrogram(clip, cfg, 64)
        ch = 17
        direct = np.array([sum(weights[ch, k] * power[k, j]
                               for k in range(power.shape[0]))
                           for j in range(power.shape[1])])
        got = 10.0 ** (img.values[ch] / 10.0)
        assert np.abs(got - direct).max() < 1e-9

    def test_shape_64_channels(self):
        clip = AudioClip(np.random.default_rng(5).normal(size=22050), 44100.0)
        assert dsp.mel_spectrogram(clip, n_channels=64).values.shape == (64, 50)


class TestGammatone:
    def test_erb_spot_values(self):
        assert abs(erb_bandwidth(0.0) - 25.1693) < 1e-4
        assert abs(erb_bandwidth(1000.0) - 135.16) < 0.01

    def test_ir_zero_branch(self):
        assert gammatone_ir(np.array([-1e-3, -1.0]), 1000.0).tolist() == [0, 0]
        assert gammatone_ir(np.array([0.0]), 1000.0)[0] == 0.0  # t^(a-1), a=2

    def test_ir_formula(self):
        t = np.array([1e-3, 2e-3])
        fc, b = 500.0, float(erb_bandwidth(500.0))
        want = t * np.exp(-2 * np.pi * b * t) * np.cos(2 * np.pi * fc * t)
        np.testing.assert_allclose(gammatone_ir(t, fc), want, rtol=1e-12)

    def test_bad_fc(self):
        with pytest.raises(ValueError):
            gammatone_ir(np.array([0.1]), -10.0)

    def test_bandwidth_rule_exact(self):
        fb = GammatoneFilterbank.design(32, 44100.0)
        want = 1.019 * (fb.center_freqs / 9.26449 + 24.7)
        np.testing.assert_array_equal(fb.bandwidths, want)

    def test_direct_silent_clip(self):
        fb = GammatoneFilterbank.design(8, 44100.0)
        img = gammatonegram_direct(AudioClip(np.zeros(22050), 44100.0), fb)
        assert np.all(img.values == dsp.FLOOR_DB)

    def test_impulse_energy_matches_quadrature(self):
        # channel energy for an impulse input is the summed squared IR;
        # compare against continuous-time integration of the response
        # (low channels so the squared signal is well below Nyquist)
        fs = 44100.0
        fb = GammatoneFilterbank(center_freqs=np.array([300.0, 600.0,
                                                        1200.0, 2400.0]))
        x = np.zeros(22050)
        x[0] = 1.0
        img = gammatonegram_direct(AudioClip(x, fs), fb, frame_len=22050)
        got = 10.0 ** (img.values[:, 0] / 10.0)
        for i, fc in enumerate(fb.center_freqs):
            b = float(fb.bandwidths[i])
            t_end = len(fb.impulse_response(i, fs)) / fs
            t = np.linspace(0.0, t_end, 400001)
            integral = simpson(gammatone_ir(t, fc, 2, b) ** 2, x=t)
            want = integral * fs  # sum g[n]^2 = fs * integral g(t)^2 dt
            assert abs(got[i] - want) / want < 1e-6

    def test_tone_peaks_at_matching_channel(self):
        fs = 44100.0
        fb = GammatoneFilterbank.design(12, fs)
        t = np.arange(22050) / fs
        for i in (2, 6, 10):
            clip = AudioClip(np.sin(2 * np.pi * fb.center_freqs[i] * t), fs)
            img = gammatonegram_direct(clip, fb)
            assert np.argmax(img.values.sum(axis=1)) == i

    def test_weight_rows_peak_at_center_bins(self):
        fs, fft = 44100.0, 441
        fb = GammatoneFilterbank.design(32, fs)
        weights = dsp.gammatone_weights(fb, fs, fft)
        assert np.all(weights >= 0)
        freqs = np.fft.rfftfreq(fft, 1.0 / fs)
        peaks = freqs[np.argmax(weights, axis=1)]
        # the squared magnitude response peaks at fc up to the response
        # skew of wide low channels (bandwidth comparable to fc) and the
        # bin quantization of the 100 Hz grid
        tol = np.maximum(fs / fft, fb.bandwidths)
        assert np.all(np.abs(peaks - fb.center_freqs) <= tol)
        assert np.all(np.diff(peaks) >= 0)

    def test_fast_correlates_with_direct(self):
        fs = 44100.0
        fb = GammatoneFilterbank.design(32, fs)
        cfg = StftConfig(window="rectangular")
        rng = np.random.default_rng(6)
        for _ in range(3):
            clip = AudioClip(rng.normal(size=22050) * 0.2, fs)
            fast = dsp.gammatonegram_fast(clip, fb, cfg).values
            direct = gammatonegram_direct(clip, fb, cfg.frame_len).values
            r = np.corrcoef(fast.ravel(), direct.ravel())[0, 1]
            assert r >= 0.99

    def test_fast_deterministic(self):
        fs = 44100.0
        fb = GammatoneFilterbank.design(32, fs)
        clip = AudioClip(np.random.default_rng(7).normal(size=22050), fs)
        a = dsp.gammatonegram_fast(clip, fb).values
        b = dsp.gammatonegram_fast(clip, fb).values
        assert np.array_equal(a, b)


def test_frame_counts_agree_across_representations():
    fs = 44100.0
    clip = AudioClip(np.random.default_rng(8).normal(size=30000), fs)
    cfg = StftConfig()
    fb = GammatoneFilterbank.design(32, fs)
    spec = dsp.spectrogram(clip, cfg)
    mel = dsp.mel_spectrogram(clip, cfg, 64)
    gd = gammatonegram_direct(clip, fb, cfg.frame_len)
    gf = dsp.gammatonegram_fast(clip, fb, cfg)
    assert (spec.n_frames == mel.n_frames == gd.n_frames == gf.n_frames)
