"""U-Net route segmenter and the two-stage curriculum.

Stage 1 trains on small augmented crops centered on labeled pixels with a
masked loss. A rotation-ensemble pass then propagates labels to unlabeled
regions, and stage 2 fine-tunes on full scans with the densified masks.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import numeric
from .canvas import Label
from .errors import InputError, NumericError, SamplingError, ShapeError


def prepare_scan_image(power_image: np.ndarray) -> np.ndarray:
    """Network input: log-compressed, per-scan standardized radar power."""
    x = np.log1p(np.maximum(power_image, 0.0))
    std = x.std()
    if std < 1e-12:
        return np.zeros_like(x)
    return (x - x.mean()) / std


def _stage_channels(depth: int, base_channels: int,
                    in_channels: int) -> list:
    """(in, out) channels of the first 3x3 conv of each U-Net stage, in
    order: depth encoder stages, the bottleneck, then depth decoder stages,
    whose first conv reads the skip map and the 2x upsampled map of twice
    its channels concatenated. A stage's second conv maps out to out."""
    widths = [base_channels * 2 ** d for d in range(depth + 1)]
    return (list(zip([in_channels] + widths[:-1], widths))
            + [(3 * c, c) for c in reversed(widths[:-1])])


class UNet:
    """Encoder/decoder with skip connections and a 1-channel sigmoid head.

    depth D downsampling stages, base_channels C doubling per stage. It
    maps (N, H, W, in_channels) images to (N, H, W, 1) outputs. The head
    conv is zero-initialized, so an untrained model outputs probability
    0.5 everywhere.
    """

    def __init__(self, depth: int = 3, base_channels: int = 8,
                 in_channels: int = 1, seed: int = 0):
        self.depth = depth
        self.in_channels = in_channels
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0E7]))
        conv = numeric.Conv2d
        blocks = []
        for stage, (c_in, c) in enumerate(
                _stage_channels(depth, base_channels, in_channels)):
            if stage > depth:  # decoder: skip map + upsampled coarse map
                first = numeric.UpsampleConcatConv2d(c, c_in - c, c, rng=rng)
            else:
                first = conv(c_in, c, 3, padding=1, rng=rng)
            blocks.append([first, numeric.ReLU(),
                           conv(c, c, 3, padding=1, rng=rng), numeric.ReLU()])
        self.enc, self.bottleneck = blocks[:depth], blocks[depth]
        self.dec = blocks[depth + 1:]
        self.pools = [numeric.MaxPool2d(2) for _ in range(depth)]
        self.head = conv(base_channels, 1, 1, zero_init=True, rng=rng)
        self.sigmoid = numeric.Sigmoid()

    def _blocks(self):
        for block in self.enc:
            yield from block
        yield from self.bottleneck
        for block in self.dec:
            yield from block
        yield self.head

    @property
    def params(self):
        return [p for layer in self._blocks() for p in layer.params]

    @property
    def grads(self):
        return [g for layer in self._blocks() for g in layer.grads]

    def zero_grad(self):
        for layer in self._blocks():
            layer.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Sigmoid path probabilities, computed in the dtype of x."""
        return self.sigmoid.forward(self.logits(x))

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Pre-sigmoid head output, computed in the dtype of x."""
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(f"U-Net input must be (N, H, W, "
                             f"{self.in_channels}), got {x.shape}")
        if x.shape[1] % (2 ** self.depth) or x.shape[2] % (2 ** self.depth):
            raise ShapeError(
                f"spatial size must be divisible by {2 ** self.depth}")
        skips = []
        for block, pool in zip(self.enc, self.pools):
            for layer in block:
                x = layer.forward(x)
            skips.append(x)
            x = pool.forward(x)
        for layer in self.bottleneck:
            x = layer.forward(x)
        for (entry, *rest), skip in zip(self.dec, reversed(skips)):
            x = entry.forward(skip, x)
            for layer in rest:
                x = layer.forward(x)
        return self.head.forward(x)

    def backward_logits(self, grad: np.ndarray) -> None:
        """Accumulate the parameter gradients of the logits for their
        gradient grad. The first conv's dX, which no training step reads,
        is not computed."""
        first = self.enc[0][0]
        grad = self.head.backward(grad)
        skip_grads = []
        for entry, *rest in reversed(self.dec):
            for layer in reversed(rest):
                grad = layer.backward(grad)
            g_skip, grad = entry.backward(grad)
            skip_grads.append(g_skip)
        for layer in reversed(self.bottleneck):
            grad = layer.backward(grad)
        for block, pool, g_skip in zip(reversed(self.enc),
                                       reversed(self.pools),
                                       reversed(skip_grads)):
            grad = pool.backward(grad) + g_skip
            for layer in reversed(block):
                if layer is first:
                    first.backward_params(grad)
                else:
                    grad = layer.backward(grad)

    def named_params(self):
        return numeric.named_params(self._blocks())


def save_unet(weights_path, model: UNet):
    """The model's weights; load_unet works its layout out from them."""
    numeric.save_weights(weights_path, model.named_params())


def _param_shapes(depth: int, base_channels: int, in_channels: int) -> list:
    """(name, shape) of each tensor of UNet(depth, base_channels,
    in_channels).named_params(), worked out without building a layer: a
    ReLU follows every conv but the head."""
    convs = [conv for c_in, c in _stage_channels(depth, base_channels,
                                                 in_channels)
             for conv in ((c, c_in, 3), (c, c, 3))] + [(1, base_channels, 1)]
    return [(f"layer{2 * i}.p{j}", shape) for i, (o, c, k) in enumerate(convs)
            for j, shape in enumerate(((o, c, k, k), (o,)))]


def load_unet(weights_path) -> UNet:
    """The U-Net of a save_unet file, laid out as its tensors say: depth d
    holds 8 * d + 6, and layer0.p0 is (base_channels, in_channels, 3, 3).
    InputError is raised before any layer is built unless the file holds
    exactly the tensor names and shapes of that layout."""
    tensors = numeric.load_weights(weights_path)
    depth, rest = divmod(len(tensors) - 6, 8)
    first = dict(tensors).get("layer0.p0", np.empty(0))
    if depth < 1 or rest or first.ndim != 4 or not all(first.shape):
        raise InputError(f"weights file {weights_path} holds {len(tensors)} "
                         f"tensors and a layer0.p0 of shape {first.shape}; "
                         f"a U-Net of depth d >= 1 holds 8 * d + 6 and a "
                         f"4-D layer0.p0")
    dims = depth, *first.shape[:2]
    numeric.check_tensors(weights_path, tensors, _param_shapes(*dims))
    model = UNet(*dims)
    numeric.load_params(weights_path, tensors, model.named_params())
    return model


@dataclass
class CropSample:
    image: np.ndarray  # (crop, crop) float
    mask: np.ndarray  # (crop, crop) uint8 Label values


# Stage-1 augmentation: random flips, rotation and rescale about the crop
# center, then the U-Net's elastic deformation (Ronneberger et al. 2015):
# a coarse grid of Gaussian displacements, upsampled and smoothed.
AUG_ROTATION_DEGREES = (-180.0, 180.0)
AUG_RESCALE_RANGE = (0.8, 1.25)
AUG_ELASTIC_GRID = 16  # px spacing of the coarse displacement grid
AUG_ELASTIC_SIGMA = 1.5  # px displacement magnitude


class ResampleNeeded(Exception):
    """Transform pushed every label out of frame; caller should retry."""


@functools.lru_cache(maxsize=16)
def _field_matrix(size: int, grid: int) -> np.ndarray:
    """Read-only (size, grid) matrix that takes one axis of the coarse
    displacement grid to size pixels: linear interpolation at
    i * (grid - 1) / (size - 1), the order-1 zoom that keeps both end
    samples, then a reflect-mode Gaussian of sigma 2 px truncated at 4
    sigma. The field is linear in its coarse draw, so it is one matrix
    product per axis."""
    pos = np.arange(size) * ((grid - 1) / (size - 1))
    lo = np.minimum(pos.astype(np.intp), grid - 2)
    rows = np.arange(size)
    zoom = np.zeros((size, grid))
    zoom[rows, lo] = 1.0 - (pos - lo)
    zoom[rows, lo + 1] = pos - lo
    taps = np.arange(-8, 9)
    weights = np.exp(-0.5 / 2.0 ** 2 * taps ** 2)
    weights /= weights.sum()
    src = (rows[:, None] + taps) % (2 * size)  # reflect: d c b a | a b c d
    src = np.where(src < size, src, 2 * size - 1 - src)
    smooth = np.zeros((size, size))
    np.add.at(smooth, (np.broadcast_to(rows[:, None], src.shape), src),
              weights)
    matrix = smooth @ zoom
    matrix.setflags(write=False)
    return matrix


def _displacement_field(shape, rng: np.random.Generator):
    h, w = shape
    gh, gw = max(h // AUG_ELASTIC_GRID, 2), max(w // AUG_ELASTIC_GRID, 2)
    coarse = rng.normal(0.0, AUG_ELASTIC_SIGMA, size=(2, gh, gw))
    return _field_matrix(h, gh) @ coarse @ _field_matrix(w, gw).T


def _cos_sin_deg(angle_deg: float):
    """cos and sin of an angle in degrees, exact at multiples of 90."""
    quarters = int(round(angle_deg / 90.0))
    rest = np.deg2rad(angle_deg - 90.0 * quarters)
    c, s = np.cos(rest), np.sin(rest)
    for _ in range(quarters % 4):
        c, s = -s, c
    return c, s


def _source_coords(shape, angle_deg: float, scale: float):
    """(rows, cols) that each output pixel reads under a rotation by
    angle_deg and a scaling by scale about the center: the inverse map,
    which rotates by -angle_deg and scales by 1/scale. It is summed in the
    order ndimage.affine_transform sums it."""
    h, w = shape
    c, s = _cos_sin_deg(angle_deg)
    matrix = np.array([[c, -s], [s, c]]) / scale
    center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
    offset = center - matrix @ center
    rows, cols = np.arange(h)[:, None], np.arange(w)
    src_r = matrix[0, 0] * rows + matrix[0, 1] * cols
    src_c = matrix[1, 0] * rows + matrix[1, 1] * cols
    src_r += offset[0]
    src_c += offset[1]
    return src_r, src_c


def _in_frame(shape, src_r: np.ndarray, src_c: np.ndarray) -> np.ndarray:
    h, w = shape
    return (src_r >= 0) & (src_r <= h - 1) & (src_c >= 0) & (src_c <= w - 1)


def _sample(image: np.ndarray, src_r: np.ndarray, src_c: np.ndarray,
            order: int) -> np.ndarray:
    """image read at the fractional points (src_r, src_c): bilinear for
    order 1, nearest with halves rounded up for order 0, and 0 at points
    outside [0, h-1] x [0, w-1], as ndimage.map_coordinates reads with
    mode="constant"."""
    h, w = image.shape
    inside = _in_frame(image.shape, src_r, src_c)
    r = np.clip(src_r, 0, h - 1)
    c = np.clip(src_c, 0, w - 1)
    if order == 0:
        out = image[np.floor(r + 0.5).astype(np.intp),
                    np.floor(c + 0.5).astype(np.intp)]
        out[~inside] = 0
        return out
    # One gather per corner, all through the top-left corner's flat index
    # into the image with a zero row and column appended: a point on the
    # last row or column reads the zeros at weight 0.
    padded = np.zeros((h + 1, w + 1), dtype=image.dtype)
    padded[:h, :w] = image
    flat, stride = padded.ravel(), w + 1
    r0, c0 = np.floor(r), np.floor(c)
    r -= r0  # the fractions
    c -= c0
    corner = r0.astype(np.intp)
    corner *= stride
    corner += c0.astype(np.intp)
    top, right = flat[corner], flat[1:][corner]
    right -= top
    right *= c
    top += right
    bottom, right = flat[stride:][corner], flat[stride + 1:][corner]
    right -= bottom
    right *= c
    bottom += right
    bottom -= top
    bottom *= r
    top += bottom
    top *= inside
    return top


def augment(sample: CropSample, rng: np.random.Generator) -> CropSample:
    """Identical random geometric transform on image and mask.

    Draws, in order: the horizontal and the vertical flip, the rotation
    angle, the scale and the elastic displacement field. Raises
    ResampleNeeded if no labeled pixel survives.
    """
    hflip = rng.random() < 0.5
    vflip = rng.random() < 0.5
    angle = rng.uniform(*AUG_ROTATION_DEGREES)
    scale = rng.uniform(*AUG_RESCALE_RANGE)
    disp = _displacement_field(sample.image.shape, rng)
    return _warp(sample, hflip, vflip, angle, scale, disp)


def _warp(sample: CropSample, hflip: bool, vflip: bool, angle_deg: float,
          scale: float, disp: np.ndarray) -> CropSample:
    """Flip, then rotate by angle_deg and scale about the center, then
    displace every pixel by disp (2, h, w). The image is bilinearly
    interpolated; the mask uses nearest-label lookup so unlabeled stays
    unlabeled."""
    image, mask = sample.image, sample.mask
    if hflip:
        image, mask = image[:, ::-1], mask[:, ::-1]
    if vflip:
        image, mask = image[::-1, :], mask[::-1, :]
    src_r, src_c = _source_coords(image.shape, angle_deg, scale)
    src_r, src_c = src_r + disp[0], src_c + disp[1]
    # the sampler's 0 outside the frame is Label.UNLABELED
    out_mask = _sample(mask, src_r, src_c, order=0)
    if not np.any(out_mask != int(Label.UNLABELED)):
        raise ResampleNeeded()
    return CropSample(image=_sample(image, src_r, src_c, order=1),
                      mask=out_mask.astype(np.uint8))


def sample_crops(scan_image: np.ndarray, mask: np.ndarray, n: int,
                 crop: int, seed: int) -> list:
    """Crops centered on uniformly drawn labeled pixels, clamped to bounds."""
    labeled_rows, labeled_cols = np.nonzero(mask != int(Label.UNLABELED))
    if len(labeled_rows) == 0:
        raise SamplingError("mask has no labeled pixels")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC809]))
    h, w = scan_image.shape
    out = []
    for _ in range(n):
        k = rng.integers(len(labeled_rows))
        r = int(np.clip(labeled_rows[k] - crop // 2, 0, h - crop))
        c = int(np.clip(labeled_cols[k] - crop // 2, 0, w - crop))
        out.append(CropSample(image=scan_image[r:r + crop, c:c + crop].copy(),
                              mask=mask[r:r + crop, c:c + crop].copy()))
    return out


@dataclass
class SegTrainConfig:
    learning_rate: float
    batch_size: int
    steps: int
    seed: int


@dataclass
class SegTrainLog:
    losses: list
    skipped_batches: int = 0
    augment_fallbacks: int = 0  # stage-1 crops used unaugmented


def _mask_to_target(mask: np.ndarray):
    """(labeled bool, path-target float) arrays for the masked BCE loss."""
    labeled = mask != int(Label.UNLABELED)
    target = (mask == int(Label.PATH)).astype(np.float64)
    return labeled, target


def _train_batches(model: UNet, batches, lr: float, log: SegTrainLog):
    """SGD steps computed in float32 over the model's float64 weights."""
    for images, labeled, targets in batches:
        if not labeled.any():
            log.skipped_batches += 1
            continue
        logits = model.logits(images.astype(np.float32))
        loss, grad = numeric.masked_bce_with_logits(logits, targets, labeled)
        if not np.isfinite(loss):
            raise NumericError("training diverged (non-finite loss)")
        model.zero_grad()
        model.backward_logits(grad)
        numeric.sgd_step(model.params, model.grads, lr)
        log.losses.append(loss)


def stage1_train(scan_images: list, masks: list, model: UNet,
                 cfg: SegTrainConfig, crop: int, crops_per_scan: int):
    """Curriculum stage 1: masked BCE on augmented crops around labels."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57A6]))
    pool = []
    for i, (img, msk) in enumerate(zip(scan_images, masks)):
        try:
            pool.extend(sample_crops(img, msk, crops_per_scan, crop,
                                     seed=cfg.seed * 9973 + i))
        except SamplingError:
            continue
    if not pool:
        raise SamplingError("no labeled scans to train on")
    log = SegTrainLog(losses=[])

    def batches():
        for _ in range(cfg.steps):
            idx = rng.integers(len(pool), size=cfg.batch_size)
            ims, labs, tgts = [], [], []
            for k in idx:
                sample = pool[k]
                for _attempt in range(10):
                    try:
                        sample = augment(pool[k], rng)
                        break
                    except ResampleNeeded:
                        continue
                else:
                    log.augment_fallbacks += 1
                labeled, target = _mask_to_target(sample.mask)
                ims.append(sample.image)
                labs.append(labeled)
                tgts.append(target)
            yield (np.stack(ims)[..., None], np.stack(labs)[..., None],
                   np.stack(tgts)[..., None])

    _train_batches(model, batches(), cfg.learning_rate, log)
    return model, log


@dataclass
class PropagationConfig:
    tile_size: int
    n_rotations: int
    vote_threshold: float
    probability_threshold: float
    seed: int


def _tiled_inference(model: UNet, image: np.ndarray,
                     tile: int) -> np.ndarray:
    """Float32 path probabilities of an image, segmented tile by tile (no
    overlap) and reassembled."""
    h, w = image.shape
    ph = (tile - h % tile) % tile
    pw = (tile - w % tile) % tile
    padded = np.pad(image, ((0, ph), (0, pw)))
    tiles = []
    positions = []
    for r in range(0, padded.shape[0], tile):
        for c in range(0, padded.shape[1], tile):
            tiles.append(padded[r:r + tile, c:c + tile])
            positions.append((r, c))
    probs = model.forward(
        np.stack(tiles)[..., None].astype(np.float32))[..., 0]
    out = np.zeros(padded.shape, dtype=np.float32)
    for (r, c), p in zip(positions, probs):
        out[r:r + tile, c:c + tile] = p
    return out[:h, :w]


def _rotate_image(image: np.ndarray, angle_deg: float) -> np.ndarray:
    """image rotated by angle_deg about its center and bilinearly
    resampled on its own grid, 0 where the source is out of frame."""
    return _sample(image, *_source_coords(image.shape, -angle_deg, 1.0),
                   order=1)


@functools.lru_cache(maxsize=16)
def _rotation_validity(shape: tuple, angle_deg: float) -> np.ndarray:
    """Read-only mask of the pixels of a shape-sized image that a rotation
    by angle_deg and back keeps inside the frame: the point the rotation
    back reads is in frame, and so is the point the forward rotation reads
    for the pixel nearest to it. It depends on no scan, and propagation
    reuses each angle for every scan of a run."""
    forward = _in_frame(shape, *_source_coords(shape, -angle_deg, 1.0))
    valid = _sample(forward, *_source_coords(shape, angle_deg, 1.0),
                    order=0)
    valid.setflags(write=False)
    return valid


def _rotation_angles(cfg: PropagationConfig) -> list:
    """The propagation's rotations in degrees: 0 alone for one rotation,
    otherwise n_rotations cfg-seeded uniform draws."""
    if cfg.n_rotations == 1:
        return [0.0]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9069]))
    return list(rng.uniform(0.0, 360.0, size=cfg.n_rotations))


def propagate_labels(model: UNet, scan_image: np.ndarray,
                     original_mask: np.ndarray, cfg: PropagationConfig,
                     valid_region: np.ndarray) -> np.ndarray:
    """Rotation-ensemble label propagation.

    For each random global rotation, the rotated scan is tiled, segmented,
    and the prediction is de-rotated. A pixel is voted PATH when at least
    vote_threshold of its valid rotations exceed probability_threshold,
    NOT_PATH otherwise; original labels take precedence; pixels outside
    valid_region (e.g. beyond radar range) stay unlabeled.
    """
    angles = _rotation_angles(cfg)
    h, w = scan_image.shape
    path_votes = np.zeros((h, w), dtype=np.int64)
    valid_votes = np.zeros((h, w), dtype=np.int64)
    for angle in angles:
        img_r = _rotate_image(scan_image, angle)
        prob_r = _tiled_inference(model, img_r, cfg.tile_size)
        prob = _rotate_image(prob_r, -angle)
        valid = _rotation_validity((h, w), float(angle))
        path_votes += ((prob > cfg.probability_threshold) & valid)
        valid_votes += valid
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(valid_votes > 0, path_votes / np.maximum(valid_votes,
                                                                 1), 0.0)
    propagated = np.where(frac >= cfg.vote_threshold, int(Label.PATH),
                          int(Label.NOT_PATH)).astype(np.uint8)
    propagated[valid_votes == 0] = int(Label.UNLABELED)
    propagated[~valid_region] = int(Label.UNLABELED)
    out = np.where(original_mask != int(Label.UNLABELED), original_mask,
                   propagated).astype(np.uint8)
    return out


def stage2_finetune(model: UNet, scan_images: list, masks: list,
                    cfg: SegTrainConfig):
    """Curriculum stage 2: masked BCE on full scans with densified masks."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF17E]))
    log = SegTrainLog(losses=[])

    def batches():
        for _ in range(cfg.steps):
            k = int(rng.integers(len(scan_images)))
            labeled, target = _mask_to_target(masks[k])
            yield (scan_images[k][None, ..., None], labeled[None, ..., None],
                   target[None, ..., None])

    _train_batches(model, batches(), cfg.learning_rate, log)
    return model, log


def segment(model: UNet, scan_image: np.ndarray) -> np.ndarray:
    """Binary path mask of a full scan: float32 probability above 0.5."""
    probs = model.forward(scan_image[None, ..., None].astype(np.float32))
    return (probs[0, ..., 0] > 0.5).astype(np.uint8)
