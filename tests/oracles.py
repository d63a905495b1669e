"""Reference computations the tests hold the package's fast paths to, and
the readers that only tests need.

They are kept out of `src/` so that the package carries no code that only
tests call, nor the imports that only this code needs (`scipy.signal`,
`scipy.ndimage`):

- per-clip time-frequency images (`spectrogram`, `mel_spectrogram`,
  `gammatonegram_fast`, `gammatonegram_direct`), the oracles of the batched
  feature path in `audio`;
- `gradcheck` with the loss it checks the U-Net through
  (`masked_binary_cross_entropy`), the adapter it checks the U-Net
  through (`UNetPath`), and `Upsample2x`, which with channel
  concatenation and `Conv2d` is the oracle of `UpsampleConcatConv2d`;
- `ndimage_rotate`, `ndimage_map_coordinates`,
  `ndimage_displacement_field` and `textbook_warp_coords`, the oracles of
  the numpy resampling in `segmentation` (rotation, the augmentation's
  warp and its elastic field);
- `load_labeled_trajectory_csv`, the `labeled_trajectory.csv` that
  `paint` writes, read back as a `fusion.LabeledTrajectory`.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.signal import fftconvolve

from radroute import formats
from radroute.dsp import (AudioClip, GammatoneFilterbank, StftConfig,
                          frame_count, gammatone_weights, log_power,
                          mel_filterbank, power_db, stft_windows)
from radroute.errors import DegenerateBatchError, ShapeError
from radroute.fusion import LabeledTrajectory
from radroute.numeric import EPS_PROB, Layer
from radroute.pipeline import LABELED_COLUMNS

# ------------------------------------------------------- time-frequency


@dataclass
class TimeFrequencyImage:
    """2-D dB image, channels (frequency) by frames (time)."""

    values: np.ndarray
    channel_freqs: np.ndarray
    axis_kind: str

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


def stft(clip: AudioClip, cfg: StftConfig) -> np.ndarray:
    """Short-time Fourier transform, (fft_size//2 + 1) rows x frames columns."""
    return stft_windows(clip.samples[None], cfg)[0].T


def stft_freqs(cfg: StftConfig, sample_rate: float) -> np.ndarray:
    return np.fft.rfftfreq(cfg.fft_size, d=1.0 / sample_rate)


def spectrogram(clip: AudioClip, cfg: StftConfig) -> TimeFrequencyImage:
    """Log-power spectrogram of the Hamming-windowed STFT, linear frequency axis."""
    x = stft(clip, cfg)
    return TimeFrequencyImage(
        values=log_power(x),
        channel_freqs=stft_freqs(cfg, clip.sample_rate),
        axis_kind="linear",
    )


def mel_spectrogram(clip: AudioClip, cfg: StftConfig,
                    n_channels: int = 64) -> TimeFrequencyImage:
    """Mel-warped power spectrogram in dB."""
    x = stft(clip, cfg)
    power = np.abs(x) ** 2
    weights, centers = mel_filterbank(
        n_channels, power.shape[0], clip.sample_rate, cfg.fft_size)
    mel_power = weights @ power
    return TimeFrequencyImage(
        values=power_db(mel_power),
        channel_freqs=centers,
        axis_kind="mel",
    )


def gammatonegram_fast(clip: AudioClip, filterbank: GammatoneFilterbank,
                       cfg: StftConfig) -> TimeFrequencyImage:
    """Gammatonegram approximated by weighting a linear power spectrogram.

    Per frame, (1/N) sum_k |X_k|^2 |G_k|^2 approximates the framed output
    energy of the direct convolution (Parseval); dB conversion follows.
    """
    x = stft(clip, cfg)
    power = np.abs(x) ** 2
    # double the non-DC/non-Nyquist bins: rfft keeps half the spectrum
    full = power.copy()
    full[1:-1 if cfg.fft_size % 2 == 0 else None] *= 2.0
    weights = gammatone_weights(filterbank, clip.sample_rate, cfg.fft_size)
    energy = (weights @ full) / cfg.fft_size
    return TimeFrequencyImage(
        values=power_db(energy),
        channel_freqs=filterbank.center_freqs,
        axis_kind="gammatone",
    )


def gammatonegram_direct(clip: AudioClip, filterbank: GammatoneFilterbank,
                         frame_len: int = 441) -> TimeFrequencyImage:
    """Gammatonegram by direct per-channel convolution and framed energy sums."""
    if frame_len < 1:
        raise ValueError("frame_len must be >= 1")
    x = clip.samples
    if len(x) < frame_len:
        raise ValueError("clip shorter than one frame")
    n_frames = frame_count(len(x), frame_len, frame_len)
    n_used = n_frames * frame_len
    n_ch = len(filterbank.center_freqs)
    values = np.empty((n_ch, n_frames), dtype=np.float64)
    for i in range(n_ch):
        ir = filterbank.impulse_response(i, clip.sample_rate)
        y = fftconvolve(x, ir)[:n_used]
        energy = (y ** 2).reshape(n_frames, frame_len).sum(axis=1)
        values[i] = power_db(energy)
    return TimeFrequencyImage(
        values=values,
        channel_freqs=filterbank.center_freqs,
        axis_kind="gammatone",
    )


# ------------------------------------------------------------ gradients


class Upsample2x(Layer):
    """Nearest-neighbour 2x spatial upsampling of (N, H, W, C)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.repeat(2, axis=1).repeat(2, axis=2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, h, w, c = grad.shape
        return grad.reshape(n, h // 2, 2, w // 2, 2, c).sum(axis=(2, 4))


class UNetPath:
    """A U-Net's probabilities, or with logits=True its logits, as a layer
    for gradcheck. backward only accumulates the parameter gradients, as
    UNet.backward_logits does, so check it with check_input=False; every
    layer's dX is checked on its own."""

    def __init__(self, model, logits: bool = False):
        self.model = model
        self.logits = logits
        self.params = model.params
        self.grads = model.grads

    def zero_grad(self):
        self.model.zero_grad()

    def forward(self, x):
        if self.logits:
            return self.model.logits(x)
        return self.model.forward(x)

    def backward(self, grad):
        if not self.logits:
            grad = self.model.sigmoid.backward(grad)
        self.model.backward_logits(grad)


def masked_binary_cross_entropy(pred: np.ndarray, target: np.ndarray,
                                mask: np.ndarray):
    """BCE averaged over mask==True elements; gradient is exactly 0 elsewhere.

    Target values at masked-out elements are never read.
    """
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise ShapeError("prediction/target/mask shape mismatch")
    n = int(mask.sum())
    if n == 0:
        raise DegenerateBatchError("no labeled elements contribute to the loss")
    p = np.clip(pred, EPS_PROB, 1.0 - EPS_PROB)
    t = np.where(mask, target, 0.0)
    per = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    loss = float((per * mask).sum() / n)
    grad = np.where(mask, (p - t) / (p * (1.0 - p)) / n, 0.0)
    return loss, grad.astype(pred.dtype, copy=False)


def gradcheck(model: Layer, x: np.ndarray, loss_fn, eps: float = 1e-4,
              max_coords: int = 25, rng: np.random.Generator | None = None,
              check_input: bool = True) -> float:
    """Compare analytic gradients with central differences.

    loss_fn maps the model output to (loss, grad_wrt_output). A random
    subset of coordinates per parameter tensor (and of the input) is
    perturbed. Returns the max relative error.
    """
    rng = rng or np.random.default_rng(0)
    model.zero_grad()
    out = model.forward(x)
    _, dout = loss_fn(out)
    dx = model.backward(dout)
    max_err = 0.0

    def rel_err(analytic, numeric):
        denom = max(abs(analytic), abs(numeric), 1e-6)
        return abs(analytic - numeric) / denom

    def eval_at(flat, c, value):
        orig = flat[c]
        flat[c] = value
        loss, _ = loss_fn(model.forward(x))
        flat[c] = orig
        return loss

    l0, _ = loss_fn(model.forward(x))
    # central differences cancel catastrophically: the estimate carries
    # absolute noise ~ eps_mach*|loss|/eps, so gradients below this cannot
    # be resolved to 1e-4 relative and carry no information either way
    noise_floor = 1e4 * np.finfo(float).eps * abs(l0) / eps
    tensors = list(zip(model.params, model.grads))
    if check_input:
        tensors.append((x, dx))
    for tensor, analytic in tensors:
        flat = tensor.reshape(-1)
        n = flat.size
        coords = rng.choice(n, size=min(max_coords, n), replace=False)
        aflat = analytic.reshape(-1)
        for c in coords:
            lp = eval_at(flat, c, flat[c] + eps)
            lm = eval_at(flat, c, flat[c] - eps)
            d_plus = (lp - l0) / eps
            d_minus = (l0 - lm) / eps
            # disagreeing one-sided slopes mean the interval straddles a
            # kink (relu corner, pool-argmax tie); the derivative is not
            # defined there and the comparison carries no information. The
            # tolerance must sit above the difference noise but below any
            # real slope change, so it scales with the noise floor rather
            # than a fixed constant
            if abs(d_plus - d_minus) > 10.0 * noise_floor + 1e-2 * max(
                    abs(d_plus), abs(d_minus)):
                continue
            numeric = (lp - lm) / (2.0 * eps)
            if max(abs(aflat[c]), abs(numeric)) < noise_floor:
                continue
            max_err = max(max_err, rel_err(aflat[c], numeric))
    return max_err


# ----------------------------------------------------------- resampling


def ndimage_rotate(image, angle_deg, order):
    """image rotated by angle_deg about its center on its own grid, 0
    where the source is out of frame."""
    return ndimage.rotate(image, angle_deg, reshape=False, order=order,
                          mode="constant", cval=0.0, prefilter=False)


def ndimage_map_coordinates(image, src_r, src_c, order):
    """image read at (src_r, src_c), 0 outside [0, h-1] x [0, w-1]."""
    return ndimage.map_coordinates(image, np.stack([src_r, src_c]),
                                   order=order, mode="constant", cval=0.0)


def ndimage_displacement_field(coarse, shape):
    """The elastic field of a (2, gh, gw) coarse draw: an order-1 zoom to
    shape, then a Gaussian of sigma 2 px along both image axes."""
    h, w = shape
    zoom = (h / coarse.shape[1], w / coarse.shape[2])
    field = np.stack([ndimage.zoom(grid, zoom, order=1) for grid in coarse])
    return ndimage.gaussian_filter(field, sigma=(0, 2.0, 2.0))[:, :h, :w]


def textbook_warp_coords(shape, angle_deg, scale, disp):
    """The augmentation warp's source coordinates in textbook form: rotate
    by -angle (radians through np.cos/np.sin) and scale by 1/scale about
    the center, then displace by disp. `segmentation` sums the same map in
    ndimage's order with degree-exact trig, so the two agree only to the
    last bits."""
    h, w = shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dy, dx = rows - cy, cols - cx
    c, s = np.cos(np.deg2rad(angle_deg)), np.sin(np.deg2rad(angle_deg))
    return ((c * dy - s * dx) / scale + cy + disp[0],
            (s * dy + c * dx) / scale + cx + disp[1])


# --------------------------------------------------------------- fusion


def load_labeled_trajectory_csv(path) -> LabeledTrajectory:
    rows = formats.read_csv(path, LABELED_COLUMNS)
    # the file records the labelled poses, not the dropped predictions
    return LabeledTrajectory(timestamps=rows[:, 0], poses=rows[:, 1:4],
                             terrain=rows[:, 4].astype(np.int64),
                             confidence=rows[:, 5], dropped=0)
