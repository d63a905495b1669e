"""Terrain classification from time-frequency images of wheel-terrain audio.

The trained classifier supplies the weak supervisory signal: a 2 Hz stream
of terrain predictions over 0.5 s audio windows. Every feature image comes
from `window_features`: equal-length windows are framed each on their own,
one batched STFT per block of `WINDOW_BLOCK` windows serves all three
representations, the mel and gammatone weights are built once per process,
and each window's image is standardized on its own. Training recordings
and the traverse stream are read the same way, one block at a time
(`_block_images`), so no stage holds more than one block's samples.
Dataset images are float32, so the CNN trains and classifies in float32
over float64 master weights.
"""

import functools
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

# Windows per batched STFT, and per block _block_images reads of a
# stream. It bounds the transient arrays (samples, frames, spectrum,
# power: about 45 MB traced at the default framing) whatever the
# recording length.
WINDOW_BLOCK = 64

# Windows per network pass of classify_stream and evaluate.
CLASSIFY_BATCH = 64


@functools.lru_cache(maxsize=None)
def _filter_weights(representation: str, sample_rate: float, fft_size: int):
    """(channels x bins weights on STFT power, divisor of the weighted
    sum), or None for the spectrogram; built once per process for each
    argument set, and read-only."""
    if representation == "spectrogram":
        return None
    if representation == "mel":
        weights, divisor = dsp.mel_filterbank(
            N_MEL_CHANNELS, fft_size // 2 + 1, sample_rate, fft_size)[0], 1.0
    elif representation == "gammatone":
        fb = dsp.GammatoneFilterbank.design(N_GAMMATONE_CHANNELS, sample_rate)
        weights, divisor = dsp.gammatone_weights(fb, sample_rate,
                                                 fft_size), fft_size
        # dsp.gammatonegram_fast's doubling of the non-DC/non-Nyquist power
        # bins, moved onto the weights: doubling is exact in floating point
        weights[:, 1:-1 if fft_size % 2 == 0 else None] *= 2.0
    else:
        raise ValueError(f"unknown representation {representation!r}")
    weights.flags.writeable = False
    return weights, divisor


def window_features(windows: np.ndarray, sample_rate: float, representations,
                    cfg: StftConfig, dtype=np.float64) -> dict:
    """Standardized dB images of the rows of an (n, samples) array, from
    one batched STFT; callers pass at most WINDOW_BLOCK rows (one block of
    _block_images, or one whole clip). Returns {representation: (n,
    channels, frames) array of dtype}, each image equal to standardize()
    of the per-clip dsp function's."""
    mag = np.abs(dsp.stft_windows(windows, cfg))  # (n, frames, bins)
    power = mag ** 2
    out = {}
    for rep in representations:
        bank = _filter_weights(rep, sample_rate, cfg.fft_size)
        if bank is None:
            db = dsp.log_power(mag)
        else:
            weights, divisor = bank
            db = dsp.power_db((power @ weights.T) / divisor)
        out[rep] = np.empty((len(db), db.shape[2], db.shape[1]), dtype=dtype)
        for i, image in enumerate(db.transpose(0, 2, 1)):
            out[rep][i] = standardize(image)
    return out


def _block_images(stream, representations, cfg: StftConfig):
    """{representation: (b, channels, frames) float32 images} of each block
    of WINDOW_BLOCK consecutive CLIP_LEN_S windows of stream, in order; a
    trailing partial window is dropped. stream is an open
    formats.WavReader, or anything with its sample_rate and blocks()."""
    n = int(round(CLIP_LEN_S * stream.sample_rate))
    for block in stream.blocks(WINDOW_BLOCK * n):
        windows = block[:len(block) // n * n].reshape(-1, n)
        if len(windows):
            yield window_features(windows, stream.sample_rate,
                                  representations, cfg, np.float32)


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


def build_datasets(streams_by_terrain: dict, seed: int,
                   cfg: StftConfig) -> dict:
    """0.5 s windows of per-terrain recordings and their feature images.

    streams_by_terrain maps TerrainClass -> open streams (one per
    microphone/recording: formats.WavReader, or anything with its
    sample_rate, n_frames and blocks()), all at one sample rate. The
    window counts, and so the seeded order and the labels, come from the
    streams' n_frames before any audio is read; then each stream is read
    a block at a time, and each block's images are written to their rows
    of the preallocated datasets. Returns {representation: AudioDataset} over
    REPRESENTATIONS, every dataset in the same seeded order. Recordings
    shorter than one window are skipped and counted.
    """
    if len(streams_by_terrain) < 2:
        raise ValueError("need clips from at least 2 terrain classes")
    streams, labels, rates = [], [], set()
    skipped = 0
    for terrain in sorted(streams_by_terrain, key=int):
        for stream in streams_by_terrain[terrain]:
            n = int(round(CLIP_LEN_S * stream.sample_rate))
            if stream.n_frames < n:
                skipped += 1
                continue
            rates.add(stream.sample_rate)
            if len(rates) > 1:
                raise ValueError(f"recordings at several sample rates "
                                 f"{sorted(rates)}")
            streams.append(stream)
            labels += [int(terrain)] * (stream.n_frames // n)
    if not labels:
        raise ValueError("no usable clips")
    labels = np.array(labels, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    order = rng.permutation(len(labels))
    rank = np.empty_like(order)  # the row of each window, in read order
    rank[order] = np.arange(len(order))
    # A zero window gives the image shapes and builds the filterbanks, so
    # the arrays that outlive a block are allocated before any block's
    # temporaries and do not split the heap space that the next block
    # reuses (in the benchmark's audio workload, allocating them among
    # the first block's temporaries raised the peak RSS by up to 15%).
    rate = streams[0].sample_rate
    zero = window_features(np.zeros((1, int(round(CLIP_LEN_S * rate)))),
                           rate, REPRESENTATIONS, cfg)
    images = {rep: np.empty((len(labels), *image.shape[1:], 1), np.float32)
              for rep, image in zero.items()}
    start = 0
    for stream in streams:
        for block in _block_images(stream, REPRESENTATIONS, cfg):
            for rep, part in block.items():
                images[rep][rank[start:start + len(part)], ..., 0] = part
            start += len(part)
    return {rep: AudioDataset(images=images[rep], labels=labels[order],
                              representation=rep, skipped_short=skipped)
            for rep in REPRESENTATIONS}


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
    images = (image for block in _block_images(stream, (representation,), cfg)
              for image in block[representation])
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
