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
from dataclasses import dataclass

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

# Windows per network pass of classify_stream and evaluate.
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


def window_features(windows, sample_rate: float, representations,
                    cfg: StftConfig, dtype=np.float64,
                    banks: dict | None = None) -> dict:
    """Standardized dB images of equal-length windows, per representation.

    windows is an (n, samples) array or a sequence of equal-length 1-D
    arrays. Returns {representation: (n, channels, frames) array of dtype},
    each image equal to standardize() of the per-clip dsp function's.
    The filterbanks are built into banks; calls at one sample rate and
    framing that share a banks dict build them once.
    """
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
                     cfg: StftConfig) -> np.ndarray:
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
    images: np.ndarray  # (n, channels, frames, 1) float32
    labels: np.ndarray  # (n,) TerrainClass ints
    representation: str
    skipped_short: int

    def __len__(self):
        return len(self.labels)

    @property
    def input_shape(self):
        """(1, channels, frames), as build_model takes it."""
        _, h, w, c = self.images.shape
        return c, h, w


def slice_clip(clip: AudioClip):
    """Consecutive non-overlapping CLIP_LEN_S windows; a trailing partial
    is dropped."""
    n = int(round(CLIP_LEN_S * clip.sample_rate))
    count = len(clip.samples) // n
    return [AudioClip(clip.samples[i * n:(i + 1) * n], clip.sample_rate)
            for i in range(count)]


def build_datasets(clips_by_terrain: dict, seed: int,
                   cfg: StftConfig) -> dict:
    """Slice per-terrain recordings to 0.5 s windows and extract features.

    clips_by_terrain maps TerrainClass -> iterable of AudioClip (one per
    microphone/recording), all at one sample rate. Each recording is
    featurised for every representation before the next is taken, so an
    iterable that reads them one at a time holds one recording's samples.
    Returns {representation: AudioDataset} over REPRESENTATIONS, every
    dataset in the same seeded order. Too-short clips are skipped and counted.
    """
    if len(clips_by_terrain) < 2:
        raise ValueError("need clips from at least 2 terrain classes")
    parts = {rep: [] for rep in REPRESENTATIONS}
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
                                     REPRESENTATIONS, cfg, np.float32, banks)
            for rep in REPRESENTATIONS:
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
            for rep in REPRESENTATIONS}


def _permuted(parts: list, order: np.ndarray) -> np.ndarray:
    """np.concatenate(parts)[order, ..., None], filled part by part and
    each part dropped once placed, so no second copy is ever whole."""
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    out = np.empty((len(order), *parts[0].shape[1:], 1), parts[0].dtype)
    start = 0
    while parts:
        part = parts.pop(0)
        out[rank[start:start + len(part)], ..., 0] = part
        start += len(part)
    return out


@dataclass
class TerrainPrediction:
    terrain: int
    probabilities: np.ndarray
    timestamp: float


@dataclass
class TrainConfig:
    learning_rate: float
    batch_size: int
    epochs: int
    seed: int

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("invalid training configuration")


def _layout(chans: int, h: int, w: int):
    """build_model((chans, h, w))'s (in, out) channels of each conv, and
    (in, out) features of its dense layer."""
    widths = (4, 8, 8)
    convs = list(zip((chans,) + widths[:-1], widths))
    pooled = 2 ** len(widths)  # each block's 2x2 pool floors h and w
    return convs, (widths[-1] * (h // pooled) * (w // pooled),
                   len(TerrainClass))


def build_model(input_shape,
                rng: np.random.Generator | None = None) -> numeric.Sequential:
    """3x (conv 3x3 + maxpool 2x2 + relu) -> dense -> softmax over
    (N, channels, frames, 1) images of input_shape (1, channels, frames).

    Pooling before ReLU gives the same values (up to the sign of a zero)
    and routes the same gradient, as max and ReLU commute, but runs ReLU on
    a quarter of the elements. The `.kowt` names are layer0/3/6/10 either
    way.
    """
    rng = rng or np.random.default_rng(0)
    convs, dense = _layout(*input_shape)
    layers = [layer for c_in, c_out in convs for layer in (
        numeric.Conv2d(c_in, c_out, 3, padding=1, rng=rng),
        numeric.MaxPool2d(2), numeric.ReLU())]
    return numeric.Sequential(layers + [
        numeric.Flatten(), numeric.Dense(*dense, rng=rng), numeric.Softmax()])


@dataclass
class TrainLog:
    epoch_loss: list
    epoch_accuracy: list


def one_hot(labels: np.ndarray) -> np.ndarray:
    return np.eye(len(TerrainClass))[labels]


def train_classifier(dataset: AudioDataset, indices: np.ndarray,
                     cfg: TrainConfig):
    """Minibatch SGD with cross entropy over the dataset rows named by
    indices, gathered a batch at a time, from a fresh build_model.
    Returns (model, TrainLog)."""
    if len(indices) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x7EA1]))
    model = build_model(dataset.input_shape, rng=rng)
    log = TrainLog(epoch_loss=[], epoch_accuracy=[])
    n = len(indices)
    labels = dataset.labels[indices]
    targets = one_hot(labels)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        losses, correct = [], 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            x = dataset.images[indices[batch]]
            t = targets[batch]
            probs = model.forward(x)
            loss, grad = numeric.cross_entropy(probs, t)
            if not np.isfinite(loss):
                raise NumericError("training diverged (non-finite loss)")
            model.zero_grad()
            model.backward(grad)
            numeric.sgd_step(model.params, model.grads, cfg.learning_rate)
            losses.append(loss)
            correct += int((probs.argmax(axis=1) == labels[batch]).sum())
        log.epoch_loss.append(float(np.mean(losses)))
        log.epoch_accuracy.append(correct / n)
    return model, log


def _class_probabilities(model: numeric.Sequential,
                         images: np.ndarray) -> np.ndarray:
    """float32 network pass; each row renormalised in float64 to sum to 1."""
    probs = model.forward(images.astype(np.float32)).astype(np.float64)
    return probs / probs.sum(axis=1, keepdims=True)


def _stream_images(stream, representation: str, cfg: StftConfig):
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
                    cfg: StftConfig):
    """2 Hz predictions over consecutive 0.5 s windows of a long recording.

    stream is an open formats.WavReader; it is read and featurised
    WINDOW_BLOCK windows at a time, and a trailing partial
    window is dropped. The network takes CLASSIFY_BATCH windows a pass
    whatever the block size, as a float32 dense layer's last bits depend
    on its batch size. Prediction i is stamped at the center of window i,
    (i + 0.5) * CLIP_LEN_S from the start of the stream.
    """
    images = _stream_images(stream, representation, cfg)
    batches = iter(lambda: list(itertools.islice(images, CLASSIFY_BATCH)),
                   [])
    probs = [_class_probabilities(model, np.stack(batch)[..., None])
             for batch in batches]
    if not probs:
        raise ValueError("stream shorter than one 0.5 s window")
    return [TerrainPrediction(terrain=int(np.argmax(p)), probabilities=p,
                              timestamp=(i + 0.5) * CLIP_LEN_S)
            for i, p in enumerate(np.concatenate(probs))]


def evaluate(model: numeric.Sequential, dataset: AudioDataset,
             indices: np.ndarray) -> dict:
    """Accuracy and 3x3 confusion counts (rows true, cols predicted) over
    the dataset rows named by indices, gathered CLASSIFY_BATCH at a time."""
    if len(indices) == 0:
        raise ValueError("empty dataset")
    confusion = np.zeros((3, 3), dtype=np.int64)
    for start in range(0, len(indices), CLASSIFY_BATCH):
        rows = indices[start:start + CLASSIFY_BATCH]
        pred = model.forward(dataset.images[rows]).argmax(axis=1)
        for t, p in zip(dataset.labels[rows], pred):
            confusion[t, p] += 1
    accuracy = float(np.trace(confusion)) / max(confusion.sum(), 1)
    return {"accuracy": accuracy, "confusion": confusion}


def save_model(weights_path, header_path, model: numeric.Sequential,
               representation: str, cfg: StftConfig):
    """Weights, plus a header with the representation and STFT framing of
    the features; with a sample rate they give the input shape."""
    numeric.save_weights(weights_path, numeric.named_params(model.layers))
    header = {
        "representation": representation,
        "class_order": [t.name.lower() for t in TerrainClass],
        "dsp": vars(cfg),
    }
    formats.write_json(header_path, header)


def _param_shapes(chans: int, h: int, w: int) -> list:
    """(name, shape) of each tensor of build_model((chans, h, w)), worked
    out without building a layer: a conv every 3 layers, then the dense
    layer after Flatten."""
    convs, dense = _layout(chans, h, w)
    layers = [(3 * i, ((o, c, 3, 3), (o,))) for i, (c, o) in enumerate(convs)]
    layers.append((3 * len(convs) + 1, (dense, dense[1:])))
    return [(f"layer{i}.p{j}", shape) for i, shapes in layers
            for j, shape in enumerate(shapes)]


def load_model(weights_path, input_shape) -> numeric.Sequential:
    """build_model(input_shape) holding the weights of a save_model file.
    The file is read first, and InputError is raised before any layer is
    built unless input_shape gives exactly its tensor names and shapes."""
    tensors = numeric.load_weights(weights_path)
    numeric.check_tensors(weights_path, tensors, _param_shapes(*input_shape))
    model = build_model(input_shape)
    numeric.load_params(weights_path, tensors,
                        numeric.named_params(model.layers))
    return model


PREDICTION_COLUMNS = ("timestamp", "class", "p_grass", "p_gravel",
                      "p_asphalt")


def predictions_csv(path, predictions):
    with open(path, "w") as f:
        f.write(",".join(PREDICTION_COLUMNS) + "\n")
        for p in predictions:
            name = TerrainClass(p.terrain).name.lower()
            probs = ",".join(f"{v:.6f}" for v in p.probabilities)
            f.write(f"{p.timestamp:.6f},{name},{probs}\n")
