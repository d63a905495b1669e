"""Terrain classification from time-frequency images of wheel-terrain audio.

The trained classifier supplies the weak supervisory signal: a 2 Hz stream
of terrain predictions over 0.5 s audio windows. Feature images are stacked
as float32, so the CNN trains and classifies in float32 over float64 master
weights.
"""

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


def extract_features(clip: AudioClip, representation: str,
                     cfg: StftConfig | None = None) -> np.ndarray:
    """Standardized (zero-mean, unit-variance) dB image for one clip."""
    cfg = cfg or StftConfig()
    if representation == "spectrogram":
        image = dsp.spectrogram(clip, cfg).values
    elif representation == "mel":
        image = dsp.mel_spectrogram(clip, cfg, N_MEL_CHANNELS).values
    elif representation == "gammatone":
        fb = dsp.GammatoneFilterbank.design(N_GAMMATONE_CHANNELS,
                                            clip.sample_rate)
        image = dsp.gammatonegram_fast(clip, fb, cfg).values
    else:
        raise ValueError(f"unknown representation {representation!r}")
    return standardize(image)


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


def build_dataset(clips_by_terrain: dict, representation: str,
                  seed: int = 0) -> AudioDataset:
    """Slice per-terrain recordings to 0.5 s windows and extract features.

    clips_by_terrain maps TerrainClass -> list of AudioClip (one per
    microphone/recording). Too-short clips are skipped and counted.
    """
    if len(clips_by_terrain) < 2:
        raise ValueError("need clips from at least 2 terrain classes")
    images, labels = [], []
    skipped = 0
    for terrain in sorted(clips_by_terrain, key=int):
        for clip in clips_by_terrain[terrain]:
            pieces = slice_clip(clip)
            if not pieces:
                skipped += 1
                continue
            for piece in pieces:
                images.append(extract_features(piece, representation))
                labels.append(int(terrain))
    if not images:
        raise ValueError("no usable clips")
    images = np.stack(images, dtype=np.float32)[:, None, :, :]
    labels = np.array(labels, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    order = rng.permutation(len(labels))
    return AudioDataset(images=images[order], labels=labels[order],
                        representation=representation, skipped_short=skipped)


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
    """3x (conv 3x3 + relu + maxpool 2x2) -> dense -> softmax."""
    rng = rng or np.random.default_rng(0)
    chans, h, w = input_shape
    widths = [4, 8, 8]
    layers = []
    c_in = chans
    for c_out in widths:
        layers += [numeric.Conv2d(c_in, c_out, 3, padding=1, rng=rng),
                   numeric.ReLU(), numeric.MaxPool2d(2)]
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
            model.backward(grad)
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


def predict(model: numeric.Sequential, clip: AudioClip,
            representation: str, timestamp: float = 0.0) -> TerrainPrediction:
    """Classify a single >= 0.5 s clip (only the first window is used)."""
    if clip.duration_s < CLIP_LEN_S - 1e-9:
        raise ValueError("clip shorter than 0.5 s")
    window = slice_clip(clip)[0]
    image = extract_features(window, representation)[None, None]
    probs = _class_probabilities(model, image)[0]
    return TerrainPrediction(terrain=int(np.argmax(probs)),
                             probabilities=probs, timestamp=timestamp)


def classify_stream(model: numeric.Sequential, clip: AudioClip,
                    representation: str, start_time: float = 0.0):
    """2 Hz predictions over consecutive 0.5 s windows of a long recording.

    Prediction i is stamped at the center of window i.
    """
    windows = slice_clip(clip)
    if not windows:
        raise ValueError("stream shorter than one 0.5 s window")
    images = np.stack([extract_features(w, representation)
                       for w in windows])[:, None]
    probs = _class_probabilities(model, images)
    out = []
    for i in range(len(windows)):
        out.append(TerrainPrediction(
            terrain=int(np.argmax(probs[i])),
            probabilities=probs[i],
            timestamp=start_time + (i + 0.5) * CLIP_LEN_S))
    return out


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


def _named_params(model: numeric.Sequential):
    return [(f"layer{i}.p{j}", p) for i, layer in enumerate(model.layers)
            for j, p in enumerate(layer.params)]


def save_model(weights_path, header_path, model: numeric.Sequential,
               representation: str, input_shape, class_order=None):
    numeric.save_weights(weights_path, _named_params(model))
    header = {
        "representation": representation,
        "input_shape": list(input_shape),
        "class_order": class_order or [t.name.lower() for t in TerrainClass],
    }
    formats.write_json(header_path, header)


def load_model_weights(weights_path, model: numeric.Sequential):
    numeric.load_params(weights_path, _named_params(model))
    return model


def predictions_csv(path, predictions):
    with open(path, "w") as f:
        f.write("timestamp,class,p_grass,p_gravel,p_asphalt\n")
        for p in predictions:
            name = TerrainClass(p.terrain).name.lower()
            probs = ",".join(f"{v:.6f}" for v in p.probabilities)
            f.write(f"{p.timestamp:.6f},{name},{probs}\n")
