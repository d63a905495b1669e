"""Time-frequency feature extraction: spectrograms, mel spectrograms, gammatonegrams.

All three representations share the same framing so that, for a given
(clip, frame length, hop), they produce images with identical frame counts.
Images are stored in dB with a hard floor so that silent cells stay finite.
The per-clip functions here are the reference images for the batched
feature path in `audio`, which shares `stft_windows` with `stft`.
"""

from dataclasses import dataclass, field

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

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate

    def blocks(self, frames: int):
        """The samples, `frames` at a time, as formats.WavReader.blocks
        reads them from a file."""
        for start in range(0, len(self.samples), frames):
            yield self.samples[start:start + frames]


@dataclass
class StftConfig:
    """Framing parameters. Defaults give a 100 Hz bandwidth resolution at 44.1 kHz."""

    frame_len: int = 441
    hop: int = 441
    fft_size: int = 441
    window: str = "hamming"

    def __post_init__(self):
        if not (self.hop <= self.frame_len <= self.fft_size):
            raise ValueError("require hop <= frame_len <= fft_size")
        if self.window not in ("hamming", "rectangular"):
            raise ValueError(f"unknown window {self.window!r}")


@dataclass
class TimeFrequencyImage:
    """2-D dB image, channels (frequency) by frames (time)."""

    values: np.ndarray
    channel_freqs: np.ndarray
    axis_kind: str
    floor_db: float = FLOOR_DB

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.channel_freqs = np.asarray(self.channel_freqs, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] < 1:
            raise ValueError("values must be a 2-D channels x frames array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite values in image")

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def hamming_window(m: int) -> np.ndarray:
    """Hamming coefficients 0.54 - 0.46 cos(2 pi n / (M-1)) for n = 0..M-1."""
    if m < 2:
        raise ValueError("window length must be >= 2")
    n = np.arange(m, dtype=np.float64)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (m - 1))


def _window(cfg: StftConfig) -> np.ndarray:
    if cfg.window == "hamming":
        return hamming_window(cfg.frame_len)
    return np.ones(cfg.frame_len, dtype=np.float64)


def frame_count(n_samples: int, frame_len: int, hop: int) -> int:
    return (n_samples - frame_len) // hop + 1


def stft_windows(windows: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """STFTs of the rows of (n, samples), each row framed on its own:
    (n, frames, fft_size//2 + 1), from one batched real FFT."""
    m, hop = cfg.frame_len, cfg.hop
    if windows.shape[-1] < m:
        raise ValueError("clip shorter than one frame")
    n_frames = frame_count(windows.shape[-1], m, hop)
    idx = np.arange(m)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = windows[:, idx]
    frames *= _window(cfg)
    return np.fft.rfft(frames, n=cfg.fft_size, axis=-1)


def stft(clip: AudioClip, cfg: StftConfig) -> np.ndarray:
    """Short-time Fourier transform, (fft_size//2 + 1) rows x frames columns."""
    return stft_windows(clip.samples[None], cfg)[0].T


def stft_freqs(cfg: StftConfig, sample_rate: float) -> np.ndarray:
    return np.fft.rfftfreq(cfg.fft_size, d=1.0 / sample_rate)


def log_power(x: np.ndarray, floor_db: float = FLOOR_DB) -> np.ndarray:
    """20 log10 |X|, clamped below at floor_db (zero magnitudes included)."""
    mag = np.abs(x)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag)
    return np.maximum(db, floor_db)


def power_db(power: np.ndarray, floor_db: float = FLOOR_DB) -> np.ndarray:
    """10 log10 of a power quantity with the same floor rule."""
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(power)
    return np.maximum(db, floor_db)


def spectrogram(clip: AudioClip, cfg: StftConfig | None = None,
                floor_db: float = FLOOR_DB) -> TimeFrequencyImage:
    """Log-power spectrogram of the Hamming-windowed STFT, linear frequency axis."""
    cfg = cfg or StftConfig()
    x = stft(clip, cfg)
    return TimeFrequencyImage(
        values=log_power(x, floor_db),
        channel_freqs=stft_freqs(cfg, clip.sample_rate),
        axis_kind="linear",
        floor_db=floor_db,
    )


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


def mel_spectrogram(clip: AudioClip, cfg: StftConfig | None = None,
                    n_channels: int = 64,
                    floor_db: float = FLOOR_DB) -> TimeFrequencyImage:
    """Mel-warped power spectrogram in dB."""
    cfg = cfg or StftConfig()
    x = stft(clip, cfg)
    power = np.abs(x) ** 2
    weights, centers = mel_filterbank(
        n_channels, power.shape[0], clip.sample_rate, cfg.fft_size)
    mel_power = weights @ power
    return TimeFrequencyImage(
        values=power_db(mel_power, floor_db),
        channel_freqs=centers,
        axis_kind="mel",
        floor_db=floor_db,
    )


def erb_bandwidth(fc):
    """ERB bandwidth rule b = 1.019 (fc / 9.26449 + 24.7)."""
    fc = np.asarray(fc, dtype=np.float64)
    return ERB_SCALE * (fc / ERB_Q + ERB_MIN_BW)


def gammatone_ir(t, fc: float, a: int = GAMMATONE_ORDER,
                 b: float | None = None):
    """Gammatone impulse response t^(a-1) e^(-2 pi b t) cos(2 pi fc t), zero for t < 0."""
    if fc <= 0:
        raise ValueError("center frequency must be positive")
    if b is None:
        b = float(erb_bandwidth(fc))
    t = np.asarray(t, dtype=np.float64)
    env = np.where(t >= 0, np.power(np.maximum(t, 0.0), a - 1)
                   * np.exp(-2.0 * np.pi * b * np.maximum(t, 0.0)), 0.0)
    return env * np.cos(2.0 * np.pi * fc * t) * (t >= 0)


@dataclass
class GammatoneFilterbank:
    """Bank of gammatone filters with ERB-rule bandwidths."""

    center_freqs: np.ndarray
    order: int = GAMMATONE_ORDER
    bandwidths: np.ndarray = field(init=False)

    def __post_init__(self):
        self.center_freqs = np.asarray(self.center_freqs, dtype=np.float64)
        if np.any(np.diff(self.center_freqs) <= 0):
            raise ValueError("center frequencies must be strictly increasing")
        if np.any(self.center_freqs <= 0):
            raise ValueError("center frequencies must be positive")
        self.bandwidths = erb_bandwidth(self.center_freqs)

    @classmethod
    def design(cls, n_channels: int = 32, sample_rate: float = 44100.0,
               f_min: float = 200.0) -> "GammatoneFilterbank":
        """Center frequencies equally spaced on the ERB-rate axis up to 0.9 Nyquist."""
        f_max = 0.9 * sample_rate / 2.0
        erb_rate = lambda f: 21.4 * np.log10(4.37e-3 * f + 1.0)  # noqa: E731
        inv = lambda e: (10.0 ** (e / 21.4) - 1.0) / 4.37e-3  # noqa: E731
        rates = np.linspace(erb_rate(f_min), erb_rate(f_max), n_channels)
        return cls(center_freqs=inv(rates))

    def impulse_response(self, channel: int, sample_rate: float,
                         envelope_cutoff: float = 1e-5) -> np.ndarray:
        """Sampled IR truncated where the envelope falls below a fraction of its peak."""
        fc = self.center_freqs[channel]
        b = self.bandwidths[channel]
        lam = 2.0 * np.pi * b
        # envelope t e^(-lam t) peaks at t = 1/lam (order 2)
        t_peak = (self.order - 1) / lam
        peak = t_peak ** (self.order - 1) * np.exp(-(self.order - 1))
        t = t_peak
        while t ** (self.order - 1) * np.exp(-lam * t) > envelope_cutoff * peak:
            t *= 1.5
        n = int(np.ceil(t * sample_rate)) + 1
        ts = np.arange(n) / sample_rate
        return gammatone_ir(ts, fc, self.order, b)


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


def gammatonegram_fast(clip: AudioClip, filterbank: GammatoneFilterbank,
                       cfg: StftConfig | None = None,
                       floor_db: float = FLOOR_DB) -> TimeFrequencyImage:
    """Gammatonegram approximated by weighting a linear power spectrogram.

    Per frame, (1/N) sum_k |X_k|^2 |G_k|^2 approximates the framed output
    energy of the direct convolution (Parseval); dB conversion follows.
    """
    cfg = cfg or StftConfig()
    x = stft(clip, cfg)
    power = np.abs(x) ** 2
    # double the non-DC/non-Nyquist bins: rfft keeps half the spectrum
    full = power.copy()
    full[1:-1 if cfg.fft_size % 2 == 0 else None] *= 2.0
    weights = gammatone_weights(filterbank, clip.sample_rate, cfg.fft_size)
    energy = (weights @ full) / cfg.fft_size
    return TimeFrequencyImage(
        values=power_db(energy, floor_db),
        channel_freqs=filterbank.center_freqs,
        axis_kind="gammatone",
        floor_db=floor_db,
    )
