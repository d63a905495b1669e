"""Terrain classification from time-frequency images of wheel-terrain audio.

The trained classifier supplies the weak supervisory signal: a 2 Hz stream
of terrain predictions over 0.5 s audio windows. Every feature image comes
from `window_features`: equal-length windows are framed each on their own,
one batched STFT per block of `WINDOW_BLOCK` windows serves all three
representations, the mel and gammatone weights are built once per
dataset or stream, and each window's image is standardized on its own.
Recordings are featurised one at a time and streams one block at a time,
so no stage holds more than one recording's or one block's samples.
Dataset images are float32, so the CNN trains and classifies in float32
over float64 master weights.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import dsp, formats, numeric
from .dsp import AudioClip, StftConfig
from .errors import NumericError
from .simworld import TerrainClass

CLIP_LEN_S = 0.5
REPRESENTATIONS = ("spectrogram", "mel", "gammatone")

N_MEL_CHANNELS = 64
N_GAMMATONE_CHANNELS = 32

# Windows per batched STFT, and per block classify_stream reads of its
# stream. It bounds the transient arrays (samples, frames, spectrum,
# power: about 25 MB at the default framing) whatever the recording
# length.
WINDOW_BLOCK = 64

# Windows per network pass of classify_stream.
CLASSIFY_BATCH = 64


def _filter_weights(representation: str, sample_rate: float,
                    cfg: StftConfig):
    """(channels x bins weights on STFT power, divisor of the weighted
    sum), or None for the spectrogram."""
    if representation == "spectrogram":
        return None
    if representation == "mel":
        return dsp.mel_filterbank(N_MEL_CHANNELS, cfg.fft_size // 2 + 1,
                                  sample_rate, cfg.fft_size)[0], 1.0
    if representation != "gammatone":
        raise ValueError(f"unknown representation {representation!r}")
    fb = dsp.GammatoneFilterbank.design(N_GAMMATONE_CHANNELS, sample_rate)
    weights = dsp.gammatone_weights(fb, sample_rate, cfg.fft_size)
    # dsp.gammatonegram_fast's doubling of the non-DC/non-Nyquist power
    # bins, moved onto the weights: doubling is exact in floating point
    weights[:, 1:-1 if cfg.fft_size % 2 == 0 else None] *= 2.0
    return weights, cfg.fft_size


def window_features(windows, sample_rate: float,
                    representations=REPRESENTATIONS,
                    cfg: StftConfig | None = None,
                    dtype=np.float64, banks: dict | None = None) -> dict:
    """Standardized dB images of equal-length windows, per representation.

    windows is an (n, samples) array or a sequence of equal-length 1-D
    arrays. Returns {representation: (n, channels, frames) array of dtype},
    each image equal to standardize() of the per-clip dsp function's.
    The filterbanks are built into banks; calls at one sample rate and
    framing that share a banks dict build them once.
    """
    cfg = cfg or StftConfig()
    banks = {} if banks is None else banks
    for rep in representations:
        if rep not in banks:
            banks[rep] = _filter_weights(rep, sample_rate, cfg)
    out = {}
    for start in range(0, len(windows), WINDOW_BLOCK):
        block = np.asarray(windows[start:start + WINDOW_BLOCK],
                           dtype=np.float64)
        mag = np.abs(dsp.stft_windows(block, cfg))  # (b, frames, bins)
        power = mag ** 2
        for rep in representations:
            bank = banks[rep]
            if bank is None:
                db = dsp.log_power(mag)
            else:
                weights, divisor = bank
                db = dsp.power_db((power @ weights.T) / divisor)
            if rep not in out:
                out[rep] = np.empty((len(windows), db.shape[2], db.shape[1]),
                                    dtype=dtype)
            for i, image in enumerate(db.transpose(0, 2, 1)):
                out[rep][start + i] = standardize(image)
    return out


def extract_features(clip: AudioClip, representation: str,
                     cfg: StftConfig | None = None) -> np.ndarray:
    """Standardized (zero-mean, unit-variance) dB image of a whole clip."""
    return window_features(clip.samples[None], clip.sample_rate,
                           (representation,), cfg)[representation][0]


def standardize(image: np.ndarray) -> np.ndarray:
    std = image.std()
    if std < 1e-12:
        return np.zeros_like(image)
    return (image - image.mean()) / std


@dataclass
class AudioDataset:
    images: np.ndarray  # (n, 1, channels, frames) float32
    labels: np.ndarray  # (n,) TerrainClass ints
    representation: str
    skipped_short: int = 0

    def __len__(self):
        return len(self.labels)


def slice_clip(clip: AudioClip, clip_len_s: float = CLIP_LEN_S):
    """Consecutive non-overlapping windows; a trailing partial is dropped."""
    n = int(round(clip_len_s * clip.sample_rate))
    count = len(clip.samples) // n
    return [AudioClip(clip.samples[i * n:(i + 1) * n], clip.sample_rate)
            for i in range(count)]


def build_datasets(clips_by_terrain: dict, representations=REPRESENTATIONS,
                   seed: int = 0, cfg: StftConfig | None = None) -> dict:
    """Slice per-terrain recordings to 0.5 s windows and extract features.

    clips_by_terrain maps TerrainClass -> iterable of AudioClip (one per
    microphone/recording), all at one sample rate. Each recording is
    featurised for every representation before the next is taken, so an
    iterable that reads them one at a time holds one recording's samples.
    Returns {representation: AudioDataset}, every dataset in the same
    seeded order. Too-short clips are skipped and counted.
    """
    if len(clips_by_terrain) < 2:
        raise ValueError("need clips from at least 2 terrain classes")
    parts = {rep: [] for rep in representations}
    labels, rates, banks = [], set(), {}
    skipped = 0
    for terrain in sorted(clips_by_terrain, key=int):
        for clip in clips_by_terrain[terrain]:
            windows = [piece.samples for piece in slice_clip(clip)]
            if not windows:
                skipped += 1
                continue
            rates.add(clip.sample_rate)
            if len(rates) > 1:
                raise ValueError(f"recordings at several sample rates "
                                 f"{sorted(rates)}")
            images = window_features(windows, clip.sample_rate,
                                     representations, cfg, np.float32, banks)
            for rep in representations:
                parts[rep].append(images[rep])
            labels += [int(terrain)] * len(windows)
            del clip, windows  # before the next recording is read
    if not labels:
        raise ValueError("no usable clips")
    labels = np.array(labels, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    order = rng.permutation(len(labels))
    return {rep: AudioDataset(images=_permuted(parts[rep], order),
                              labels=labels[order], representation=rep,
                              skipped_short=skipped)
            for rep in representations}


def _permuted(parts: list, order: np.ndarray) -> np.ndarray:
    """np.concatenate(parts)[order, None], filled part by part and each
    part dropped once placed, so no second copy is ever whole."""
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    out = np.empty((len(order), 1, *parts[0].shape[1:]), parts[0].dtype)
    start = 0
    while parts:
        part = parts.pop(0)
        out[rank[start:start + len(part)], 0] = part
        start += len(part)
    return out


@dataclass
class TerrainPrediction:
    terrain: int
    probabilities: np.ndarray
    timestamp: float


@dataclass
class TrainConfig:
    learning_rate: float = 0.02
    batch_size: int = 16
    epochs: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("invalid training configuration")


def build_model(input_shape, n_classes: int = 3,
                rng: np.random.Generator | None = None) -> numeric.Sequential:
    """3x (conv 3x3 + maxpool 2x2 + relu) -> dense -> softmax.

    Pooling before ReLU gives the same values (up to the sign of a zero)
    and routes the same gradient, as max and ReLU commute, but runs ReLU on
    a quarter of the elements. The `.kowt` names are layer0/3/6/10 either
    way.
    """
    rng = rng or np.random.default_rng(0)
    chans, h, w = input_shape
    widths = [4, 8, 8]
    layers = []
    c_in = chans
    for c_out in widths:
        layers += [numeric.Conv2d(c_in, c_out, 3, padding=1, rng=rng),
                   numeric.MaxPool2d(2), numeric.ReLU()]
        c_in = c_out
        h, w = h // 2, w // 2
    layers += [numeric.Flatten(),
               numeric.Dense(c_in * h * w, n_classes, rng=rng),
               numeric.Softmax()]
    return numeric.Sequential(layers)


@dataclass
class TrainLog:
    epoch_loss: list = field(default_factory=list)
    epoch_accuracy: list = field(default_factory=list)


def one_hot(labels: np.ndarray, n_classes: int = 3) -> np.ndarray:
    return np.eye(n_classes)[labels]


def train_classifier(dataset: AudioDataset,
                     cfg: TrainConfig | None = None,
                     model: numeric.Sequential | None = None):
    """Minibatch SGD with cross entropy. Returns (model, TrainLog)."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    cfg = cfg or TrainConfig()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x7EA1]))
    if model is None:
        model = build_model(dataset.images.shape[1:], rng=rng)
    log = TrainLog()
    n = len(dataset)
    targets = one_hot(dataset.labels)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        losses, correct = [], 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x = dataset.images[idx]
            t = targets[idx]
            probs = model.forward(x)
            loss, grad = numeric.cross_entropy(probs, t)
            if not np.isfinite(loss):
                raise NumericError("training diverged (non-finite loss)")
            model.zero_grad()
            model.backward(grad, input_grad=False)
            numeric.sgd_step(model.params, model.grads, cfg.learning_rate)
            losses.append(loss)
            correct += int((probs.argmax(axis=1)
                            == dataset.labels[idx]).sum())
        log.epoch_loss.append(float(np.mean(losses)))
        log.epoch_accuracy.append(correct / n)
    return model, log


def _class_probabilities(model: numeric.Sequential,
                         images: np.ndarray) -> np.ndarray:
    """float32 network pass; each row renormalised in float64 to sum to 1."""
    probs = model.forward(images.astype(np.float32)).astype(np.float64)
    return probs / probs.sum(axis=1, keepdims=True)


def _stream_images(stream, representation: str, cfg: StftConfig | None):
    """Feature images of the consecutive 0.5 s windows of stream (see
    classify_stream), one at a time, read WINDOW_BLOCK windows per block."""
    n = int(round(CLIP_LEN_S * stream.sample_rate))  # slice_clip's window
    banks = {}
    for block in stream.blocks(WINDOW_BLOCK * n):
        windows = block[:len(block) // n * n].reshape(-1, n)
        if len(windows):
            yield from window_features(windows, stream.sample_rate,
                                       (representation,), cfg, np.float32,
                                       banks)[representation]


def classify_stream(model: numeric.Sequential, stream, representation: str,
                    start_time: float = 0.0, cfg: StftConfig | None = None):
    """2 Hz predictions over consecutive 0.5 s windows of a long recording.

    stream is an AudioClip or an open formats.WavReader; it is read and
    featurised WINDOW_BLOCK windows at a time, and a trailing partial
    window is dropped. The network takes CLASSIFY_BATCH windows a pass
    whatever the block size, as a float32 dense layer's last bits depend
    on its batch size. Prediction i is stamped at the center of window i.
    """
    images = _stream_images(stream, representation, cfg)
    batches = iter(lambda: list(itertools.islice(images, CLASSIFY_BATCH)),
                   [])
    probs = [_class_probabilities(model, np.stack(batch)[:, None])
             for batch in batches]
    if not probs:
        raise ValueError("stream shorter than one 0.5 s window")
    return [TerrainPrediction(terrain=int(np.argmax(p)), probabilities=p,
                              timestamp=start_time + (i + 0.5) * CLIP_LEN_S)
            for i, p in enumerate(np.concatenate(probs))]


def evaluate(model: numeric.Sequential, dataset: AudioDataset,
             batch_size: int = 64) -> dict:
    """Accuracy and 3x3 confusion counts (rows true, cols predicted)."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    confusion = np.zeros((3, 3), dtype=np.int64)
    for start in range(0, len(dataset), batch_size):
        x = dataset.images[start:start + batch_size]
        true = dataset.labels[start:start + batch_size]
        pred = model.forward(x).argmax(axis=1)
        for t, p in zip(true, pred):
            confusion[t, p] += 1
    accuracy = float(np.trace(confusion)) / max(confusion.sum(), 1)
    return {"accuracy": accuracy, "confusion": confusion}


def save_model(weights_path, header_path, model: numeric.Sequential,
               representation: str, input_shape, cfg: StftConfig):
    """Weights, plus a header with the STFT framing the features used."""
    numeric.save_weights(weights_path, numeric.named_params(model.layers))
    header = {
        "representation": representation,
        "input_shape": list(input_shape),
        "class_order": [t.name.lower() for t in TerrainClass],
        "dsp": {"frame_len": cfg.frame_len, "hop": cfg.hop,
                "fft_size": cfg.fft_size},
    }
    formats.write_json(header_path, header)


def load_model_weights(weights_path, model: numeric.Sequential):
    numeric.load_params(weights_path, numeric.named_params(model.layers))
    return model


def predictions_csv(path, predictions):
    with open(path, "w") as f:
        f.write("timestamp,class,p_grass,p_gravel,p_asphalt\n")
        for p in predictions:
            name = TerrainClass(p.terrain).name.lower()
            probs = ",".join(f"{v:.6f}" for v in p.probabilities)
            f.write(f"{p.timestamp:.6f},{name},{probs}\n")
