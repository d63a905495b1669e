"""Time-frequency building blocks: framing, the batched STFT, dB
conversion, and the mel and gammatone filterbanks.

All three representations (spectrogram, mel, gammatone) share the same
framing, so for a given (clip, frame length, hop) their images have
identical frame counts. `audio` builds the images from these blocks.
Images are stored in dB with a hard floor so that silent cells stay finite.
"""

from dataclasses import dataclass

import numpy as np

FLOOR_DB = -120.0

GAMMATONE_ORDER = 2
ERB_SCALE = 1.019
ERB_Q = 9.26449
ERB_MIN_BW = 24.7


@dataclass
class AudioClip:
    """Mono audio samples at a fixed rate, amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


@dataclass
class StftConfig:
    """Framing parameters of the Hamming-windowed STFT, in samples: the
    config's dsp section (pipeline.stft_config)."""

    frame_len: int
    hop: int
    fft_size: int

    def __post_init__(self):
        if not (1 <= self.hop <= self.frame_len <= self.fft_size
                and self.frame_len >= 2):
            raise ValueError("require 1 <= hop <= frame_len <= fft_size "
                             "and frame_len >= 2")


def hamming_window(m: int) -> np.ndarray:
    """Hamming coefficients 0.54 - 0.46 cos(2 pi n / (M-1)) for n = 0..M-1."""
    if m < 2:
        raise ValueError("window length must be >= 2")
    n = np.arange(m, dtype=np.float64)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (m - 1))


def frame_count(n_samples: int, frame_len: int, hop: int) -> int:
    return (n_samples - frame_len) // hop + 1


def stft_windows(windows: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Hamming-windowed STFTs of the rows of (n, samples), each row
    framed on its own: (n, frames, fft_size//2 + 1), from one batched
    real FFT."""
    m, hop = cfg.frame_len, cfg.hop
    if windows.shape[-1] < m:
        raise ValueError("clip shorter than one frame")
    n_frames = frame_count(windows.shape[-1], m, hop)
    idx = np.arange(m)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = windows[:, idx]
    frames *= hamming_window(m)
    return np.fft.rfft(frames, n=cfg.fft_size, axis=-1)


def log_power(x: np.ndarray) -> np.ndarray:
    """20 log10 |X|, clamped below at FLOOR_DB (zero magnitudes included)."""
    mag = np.abs(x)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag)
    return np.maximum(db, FLOOR_DB)


def power_db(power: np.ndarray) -> np.ndarray:
    """10 log10 of a power quantity with the same floor rule."""
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(power)
    return np.maximum(db, FLOOR_DB)


def mel_frequency(f):
    """Mel warp m = 1127 ln(1 + f/700)."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("frequency must be non-negative")
    return 1127.0 * np.log(1.0 + f / 700.0)


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    return 700.0 * (np.exp(m / 1127.0) - 1.0)


def mel_filterbank(n_channels: int, n_bins: int, sample_rate: float,
                   fft_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Triangular filters with centers equally spaced on the mel axis.

    Returns (weights [n_channels x n_bins], center frequencies in Hz).
    Adjacent triangles overlap so interior spectrum bins receive total
    weight <= 1.
    """
    if n_channels < 2:
        raise ValueError("need at least 2 mel channels")
    f_max = sample_rate / 2.0
    edges_mel = np.linspace(0.0, float(mel_frequency(f_max)), n_channels + 2)
    edges_hz = mel_to_hz(edges_mel)
    bin_freqs = np.fft.rfftfreq(fft_size, d=1.0 / sample_rate)[:n_bins]
    weights = np.zeros((n_channels, n_bins), dtype=np.float64)
    for i in range(n_channels):
        lo, mid, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        rising = (bin_freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - mid, 1e-12)
        weights[i] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
        if not weights[i].any():
            # triangle narrower than the bin spacing: take the nearest bin
            # so every channel observes something
            weights[i, np.argmin(np.abs(bin_freqs - mid))] = 1.0
    return weights, edges_hz[1:-1]


def erb_bandwidth(fc):
    """ERB bandwidth rule b = 1.019 (fc / 9.26449 + 24.7)."""
    fc = np.asarray(fc, dtype=np.float64)
    return ERB_SCALE * (fc / ERB_Q + ERB_MIN_BW)


def gammatone_ir(t, fc: float, b: float):
    """Gammatone impulse response t^(a-1) e^(-2 pi b t) cos(2 pi fc t) of
    order a = GAMMATONE_ORDER, zero for t < 0."""
    if fc <= 0:
        raise ValueError("center frequency must be positive")
    a = GAMMATONE_ORDER
    t = np.asarray(t, dtype=np.float64)
    env = np.where(t >= 0, np.power(np.maximum(t, 0.0), a - 1)
                   * np.exp(-2.0 * np.pi * b * np.maximum(t, 0.0)), 0.0)
    return env * np.cos(2.0 * np.pi * fc * t) * (t >= 0)


@dataclass
class GammatoneFilterbank:
    """Bank of order-GAMMATONE_ORDER gammatone filters with ERB-rule
    bandwidths."""

    center_freqs: np.ndarray

    def __post_init__(self):
        self.center_freqs = np.asarray(self.center_freqs, dtype=np.float64)
        if np.any(np.diff(self.center_freqs) <= 0):
            raise ValueError("center frequencies must be strictly increasing")
        if np.any(self.center_freqs <= 0):
            raise ValueError("center frequencies must be positive")

    @property
    def bandwidths(self) -> np.ndarray:
        return erb_bandwidth(self.center_freqs)

    @classmethod
    def design(cls, n_channels: int,
               sample_rate: float) -> "GammatoneFilterbank":
        """Center frequencies equally spaced on the ERB-rate axis from
        200 Hz up to 0.9 Nyquist."""
        f_max = 0.9 * sample_rate / 2.0
        erb_rate = lambda f: 21.4 * np.log10(4.37e-3 * f + 1.0)  # noqa: E731
        inv = lambda e: (10.0 ** (e / 21.4) - 1.0) / 4.37e-3  # noqa: E731
        rates = np.linspace(erb_rate(200.0), erb_rate(f_max), n_channels)
        return cls(center_freqs=inv(rates))

    def impulse_response(self, channel: int,
                         sample_rate: float) -> np.ndarray:
        """Sampled IR truncated where the envelope falls below 1e-5 of
        its peak."""
        fc = self.center_freqs[channel]
        b = self.bandwidths[channel]
        lam = 2.0 * np.pi * b
        a = GAMMATONE_ORDER
        # envelope t^(a-1) e^(-lam t) peaks at t = (a-1)/lam
        t_peak = (a - 1) / lam
        peak = t_peak ** (a - 1) * np.exp(-(a - 1))
        t = t_peak
        while t ** (a - 1) * np.exp(-lam * t) > 1e-5 * peak:
            t *= 1.5
        n = int(np.ceil(t * sample_rate)) + 1
        ts = np.arange(n) / sample_rate
        return gammatone_ir(ts, fc, b)


def gammatone_weights(filterbank: GammatoneFilterbank, sample_rate: float,
                      fft_size: int) -> np.ndarray:
    """Channels x bins matrix of squared gammatone magnitude responses."""
    n_bins = fft_size // 2 + 1
    weights = np.empty((len(filterbank.center_freqs), n_bins), dtype=np.float64)
    for i in range(len(filterbank.center_freqs)):
        ir = filterbank.impulse_response(i, sample_rate)
        resp = np.abs(np.fft.rfft(ir, n=max(fft_size, len(ir))))
        if len(resp) != n_bins:  # IR longer than fft_size: resample response
            freqs_full = np.fft.rfftfreq(max(fft_size, len(ir)), 1.0 / sample_rate)
            freqs_out = np.fft.rfftfreq(fft_size, 1.0 / sample_rate)
            resp = np.interp(freqs_out, freqs_full, resp)
        weights[i] = resp ** 2
    return weights
