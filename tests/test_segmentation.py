import re

import numpy as np
import pytest

from radroute import formats, numeric, pipeline, segmentation
from radroute.canvas import Label
from radroute.errors import InputError, SamplingError, ShapeError
from radroute.segmentation import (CropSample, PropagationConfig,
                                   ResampleNeeded, SegTrainConfig, UNet,
                                   augment, propagate_labels, sample_crops,
                                   segment, stage1_train, stage2_finetune)
from test_numeric import cached_arrays, random_head

from oracles import (UNetPath, Upsample2x, gradcheck,
                     masked_binary_cross_entropy, ndimage_displacement_field,
                     ndimage_map_coordinates, ndimage_rotate,
                     textbook_warp_coords)

U, N, P = int(Label.UNLABELED), int(Label.NOT_PATH), int(Label.PATH)


def tiny_model(seed=0, zero_head=True):
    model = UNet(depth=2, base_channels=4, seed=seed)
    return model if zero_head else random_head(model, seed)


def propagation_config(**changes):
    """The default config's propagation settings at seed 0, changed."""
    scfg = pipeline.DEFAULT_CONFIG["segmentation"]
    keys = ("tile_size", "n_rotations", "vote_threshold",
            "probability_threshold")
    return PropagationConfig(**{**{k: scfg[k] for k in keys}, "seed": 0,
                                **changes})


def tiled_float64(model, image, tile):
    """Float64 UNet.forward over the tiles of an image whose sides are
    multiples of tile, reassembled as _tiled_inference does."""
    h, w = image.shape
    tiles = image.reshape(h // tile, tile, w // tile, tile).transpose(
        0, 2, 1, 3).reshape(-1, tile, tile, 1)
    probs = model.forward(tiles)[..., 0]
    return probs.reshape(h // tile, w // tile, tile, tile).transpose(
        0, 2, 1, 3).reshape(h, w)


def stripe_scene(size=64, seed=0):
    """Scan with a bright vertical stripe and a mask labelling part of it."""
    rng = np.random.default_rng(seed)
    image = rng.normal(0.0, 0.1, size=(size, size))
    image[:, 28:36] += 2.0
    mask = np.full((size, size), U, dtype=np.uint8)
    mask[8:56, 30:34] = P
    mask[8:56, 8:12] = N
    return image, mask


def whole(image):
    """The valid region that holds every pixel of image."""
    return np.ones(image.shape, dtype=bool)


def concat_layout_tensors(depth, base, rng):
    """`.kowt` tensors of a U-Net in the upsample-then-concat layout: layer
    i counts every conv and ReLU of encoder, bottleneck and decoder in
    order, then the 1x1 head; a decoder's first conv reads the skip
    channels, then the upsampled ones."""
    shapes, c_in = [], 1
    for d in range(depth + 1):  # the last is the bottleneck
        c = base * 2 ** d
        shapes += [(c, c_in, 3, 3), None, (c, c, 3, 3), None]
        c_in = c
    for d in reversed(range(depth)):
        c = base * 2 ** d
        shapes += [(c, c_in + c, 3, 3), None, (c, c, 3, 3), None]
        c_in = c
    shapes.append((1, base, 1, 1))
    named = []
    for i, shape in enumerate(shapes):
        if shape is not None:
            fan_in = np.prod(shape[1:])
            named += [(f"layer{i}.p0",
                       rng.normal(scale=np.sqrt(2.0 / fan_in), size=shape)),
                      (f"layer{i}.p1", rng.normal(scale=0.1, size=shape[0]))]
    return named


def concat_layout_probabilities(named, depth, x):
    """The oracle U-Net: Upsample2x, np.concatenate and Conv2d layer by
    layer over the tensors of concat_layout_tensors."""
    params = iter(named)

    def conv_relu(x, relu=True):
        (_, w), (_, b) = next(params), next(params)
        conv = numeric.Conv2d(w.shape[1], w.shape[0], w.shape[2],
                              padding=w.shape[2] // 2)
        conv.weight[...], conv.bias[...] = w, b
        y = conv.forward(x)
        return np.maximum(y, 0.0) if relu else y

    skips = []
    for _ in range(depth):
        skips.append(conv_relu(conv_relu(x)))
        x = numeric.MaxPool2d(2).forward(skips[-1])
    x = conv_relu(conv_relu(x))
    for skip in reversed(skips):
        up = Upsample2x().forward(x)
        x = conv_relu(conv_relu(np.concatenate([skip, up], axis=3)))
    return 1.0 / (1.0 + np.exp(-conv_relu(x, relu=False)))


class TestUNetForward:
    def test_output_shape_and_range(self):
        model = tiny_model(zero_head=False)
        out = model.forward(np.random.default_rng(0).normal(
            size=(2, 64, 64, 1)))
        assert out.shape == (2, 64, 64, 1)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_zero_head_outputs_half(self):
        model = tiny_model()
        out = model.forward(np.zeros((1, 32, 32, 1)))
        np.testing.assert_array_equal(out, 0.5)

    def test_untrained_segment_is_all_not_path(self):
        # 0.5 probability with the strict > 0.5 rule labels nothing path
        model = tiny_model()
        mask = segment(model, np.zeros((32, 32)))
        assert not mask.any()

    def test_bad_shapes(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            model.forward(np.zeros((32, 32)))
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 30, 30, 1)))
        with pytest.raises(ShapeError):  # channel-first
            model.forward(np.zeros((1, 1, 32, 32)))

    def test_gradcheck_small(self):
        rng = np.random.default_rng(3)
        model = tiny_model(seed=3, zero_head=False)
        x = rng.normal(size=(1, 16, 16, 1))
        target = (rng.random((1, 16, 16, 1)) < 0.5).astype(float)
        labeled = rng.random((1, 16, 16, 1)) < 0.7

        def loss_fn(probs):
            return masked_binary_cross_entropy(probs, target, labeled)

        err = gradcheck(UNetPath(model), x, loss_fn, eps=1e-6, rng=rng,
                        check_input=False)
        assert err < 1e-4

    def test_save_load_roundtrip(self, tmp_path):
        model = tiny_model(seed=5, zero_head=False)
        segmentation.save_unet(tmp_path / "m.kowt", model)
        back = segmentation.load_unet(tmp_path / "m.kowt")
        x = np.random.default_rng(1).normal(size=(1, 32, 32, 1))
        np.testing.assert_array_equal(back.forward(x), model.forward(x))

    @pytest.mark.parametrize("dims", [(1, 2, 1), (3, 8, 1), (2, 3, 4)])
    def test_header_shapes_are_the_built_model(self, dims):
        # load_unet checks a file against these before building a layer
        assert segmentation._param_shapes(*dims) == [
            (name, p.shape) for name, p in
            segmentation.UNet(*dims).named_params()]

    def test_loads_concat_layout_weights(self, tmp_path):
        # a model saved before the decoder entry folded the upsample: same
        # tensor names, shapes and order, and the same function
        rng = np.random.default_rng(12)
        named = concat_layout_tensors(3, 8, rng)
        # a larger head spreads the probabilities, so errors are not squashed
        named[-2] = (named[-2][0], 4.0 * named[-2][1])
        numeric.save_weights(tmp_path / "m.kowt", named)
        model = segmentation.load_unet(tmp_path / "m.kowt")
        assert [n for n, _ in model.named_params()] == [n for n, _ in named]
        x = rng.normal(size=(2, 32, 48, 1))
        want = concat_layout_probabilities(named, 3, x)
        assert want.min() < 0.2 and want.max() > 0.8
        got = model.forward(x)
        assert np.abs(got - want).max() <= 1e-12
        # segmentation runs the same forward on float32 input
        fast = model.forward(x.astype(np.float32))
        assert fast.dtype == np.float32
        assert np.abs(fast - got).max() <= 1e-5
        clear = np.abs(got[1, ..., 0] - 0.5) > 1e-5
        np.testing.assert_array_equal(segment(model, x[1, ..., 0])[clear],
                                      got[1, ..., 0][clear] > 0.5)

    def _load_altered(self, tmp_path, alter):
        model = tiny_model(seed=5)
        named = alter([(n, p.copy()) for n, p in model.named_params()])
        numeric.save_weights(tmp_path / "m.kowt", named)
        return segmentation.load_unet(tmp_path / "m.kowt")

    def test_load_rejects_wrong_shape(self, tmp_path):
        # one (4, 1, 3, 3) filter would broadcast into all four filters
        def alter(named):
            named[2] = (named[2][0], named[2][1][:1])
            return named
        with pytest.raises(InputError, match="layer2.p0"):
            self._load_altered(tmp_path, alter)

    def test_load_rejects_missing_name(self, tmp_path):
        # a renamed tensor keeps the count of a U-Net
        with pytest.raises(InputError, match=r"1 tensors missing \(first "
                                             r"layer0.p1\), 1 unexpected"):
            self._load_altered(tmp_path, lambda named: [
                ("stray" if n == "layer0.p1" else n, p) for n, p in named])

    def test_load_rejects_extra_name(self, tmp_path):
        # eight more tensors make the count of a deeper U-Net
        with pytest.raises(InputError, match=r"8 unexpected \(first stray0"):
            self._load_altered(tmp_path, lambda named: named + [
                (f"stray{i}", np.zeros(3)) for i in range(8)])

    @pytest.mark.parametrize("count", [6, 13, 15])
    def test_load_rejects_a_count_no_depth_has(self, tmp_path, count):
        with pytest.raises(InputError, match=f"holds {count} tensors"):
            self._load_altered(tmp_path, lambda named: (
                named + [("stray", np.zeros(3))])[:count])

    @pytest.mark.parametrize("shape", [(4, 1, 3), (0, 1, 3, 3),
                                       (4, 0, 3, 3)])
    def test_load_rejects_a_first_weight_of_no_layout(self, tmp_path,
                                                      shape):
        def alter(named):
            named[0] = ("layer0.p0", np.zeros(shape))
            return named
        with pytest.raises(InputError, match=re.escape(f"{shape}")):
            self._load_altered(tmp_path, alter)

def step_grads(model, x, target, labeled):
    """One training step's logits and parameter gradients, in x's dtype."""
    model.zero_grad()
    logits = model.logits(x)
    loss, grad = numeric.masked_bce_with_logits(logits, target, labeled)
    model.backward_logits(grad)
    return logits, loss, grad, [g.copy() for g in model.grads]


def record_dtypes(model):
    """Wrap every layer's forward/backward to log (layer, direction, input
    dtypes, output dtypes) per call; a decoder entry takes two arrays
    forward and returns two backward."""
    seen = []
    layers = list(model._blocks()) + model.pools + [model.sigmoid]
    for layer in layers:
        for direction in ("forward", "backward"):
            fn = getattr(layer, direction)

            def logged(*arrs, fn=fn, layer=layer, direction=direction):
                out = fn(*arrs)
                outs = out if isinstance(out, tuple) else (out,)
                seen.append((type(layer).__name__, direction,
                             tuple(a.dtype for a in arrs),
                             tuple(o.dtype for o in outs)))
                return out

            setattr(layer, direction, logged)
    return seen


class TestFloat32Training:
    @pytest.mark.parametrize("seed", range(3))
    def test_logit_path_gradcheck_float64(self, seed):
        rng = np.random.default_rng(seed)
        model = tiny_model(seed=seed, zero_head=False)
        x = rng.normal(size=(1, 16, 16, 1))
        target = (rng.random(x.shape) < 0.5).astype(float)
        labeled = rng.random(x.shape) < 0.7

        def loss_fn(logits):
            return numeric.masked_bce_with_logits(logits, target, labeled)

        err = gradcheck(UNetPath(model, logits=True), x, loss_fn, eps=1e-6,
                        rng=rng, check_input=False)
        assert err < 1e-4

    def test_float32_step_matches_float64_at_stage1_shape(self):
        # stage-1 shape: a batch of 8 crops of 64x64 through the desk U-Net
        rng = np.random.default_rng(4)
        model = random_head(UNet(seed=4), 4)
        x = rng.normal(size=(8, 64, 64, 1))
        target = (rng.random(x.shape) < 0.5).astype(float)
        labeled = rng.random(x.shape) < 0.3
        z32, loss32, _, g32 = step_grads(model, x.astype(np.float32),
                                         target, labeled)
        assert z32.dtype == np.float32
        # a pool window whose two largest inputs differ by float32 rounding
        # may pick another winner in float64, and the gradient then flows
        # through another pixel; both are valid subgradients at a tie, so
        # the float64 backward reuses the float32 winners, and only a
        # couple of such windows may differ, or the pool itself is wrong
        winners32 = [pool._cache for pool in model.pools]
        model.zero_grad()
        z64 = model.logits(x)
        loss64, grad64 = numeric.masked_bce_with_logits(z64, target, labeled)
        flipped = sum(int((w32[1] != pool._cache[1]).sum())
                      for w32, pool in zip(winners32, model.pools))
        assert flipped <= 2
        for pool, w32 in zip(model.pools, winners32):
            pool._cache = w32
        model.backward_logits(grad64)
        g64 = [g.copy() for g in model.grads]
        # float32 rounding through the 15 convolutions leaves about 3e-6
        # of the largest gradient entry and 5e-7 of the largest logit
        tol = 1e-4
        assert np.abs(z32 - z64).max() <= tol * np.abs(z64).max()
        assert abs(loss32 - loss64) <= tol * abs(loss64)
        for a, b in zip(g32, g64):
            assert a.dtype == np.float64  # float64 master accumulators
            assert np.abs(a - b).max() <= tol * np.abs(b).max()

    def test_float32_input_stays_float32(self):
        rng = np.random.default_rng(5)
        model = random_head(UNet(depth=2, base_channels=4, seed=5), 5)
        seen = record_dtypes(model)
        x = rng.normal(size=(2, 16, 16, 1)).astype(np.float32)
        target = (rng.random(x.shape) < 0.5).astype(float)
        labeled = rng.random(x.shape) < 0.5
        _, _, grad, _ = step_grads(model, x, target, labeled)
        assert grad.dtype == np.float32
        path = UNetPath(model)
        path.backward(np.ones_like(path.forward(x)))
        kinds = {(name, direction) for name, direction, _, _ in seen}
        assert {("Conv2d", "backward"), ("MaxPool2d", "backward"),
                ("UpsampleConcatConv2d", "forward"),
                ("UpsampleConcatConv2d", "backward"), ("ReLU", "forward"),
                ("Sigmoid", "backward")} <= kinds
        assert all(d == np.float32 for _, _, i, o in seen for d in i + o), seen
        blocks = list(model._blocks())
        convs = [b for b in blocks if isinstance(b, numeric.Conv2d)]
        entries = [b for b in blocks
                   if isinstance(b, numeric.UpsampleConcatConv2d)]
        # the first conv runs im2col, every other the kernel-row panel
        assert [c.in_channels == 1 for c in convs] == [True] + [False] * (
            len(convs) - 1)
        for layer in convs + entries:
            cached = cached_arrays(layer)
            assert cached and all(a.dtype == np.float32 for a in cached)
        assert all(p.dtype == np.float64 for p in model.params)
        assert all(g.dtype == np.float64 for g in model.grads)


def warp(sample, hflip=False, vflip=False, angle=0.0, scale=1.0):
    """augment's transform with explicit draws and no elastic displacement."""
    return segmentation._warp(sample, hflip, vflip, angle, scale,
                              np.zeros((2,) + sample.image.shape))


def unaugmented(sample, rng):
    """augment stand-in that leaves a crop as it is and draws nothing."""
    return CropSample(image=sample.image.copy(), mask=sample.mask.copy())


def rigid_augment(sample, rng):
    """augment's draws without the elastic field, scale within 10%."""
    hflip = rng.random() < 0.5
    vflip = rng.random() < 0.5
    angle = rng.uniform(*segmentation.AUG_ROTATION_DEGREES)
    return warp(sample, hflip, vflip, angle, rng.uniform(0.9, 1.1))


class TestAugment:
    def sample(self):
        image, mask = stripe_scene(32)
        return CropSample(image=image, mask=mask)

    def test_no_op_transform_is_identity(self):
        s = self.sample()
        out = warp(s)
        np.testing.assert_allclose(out.image, s.image, atol=1e-12)
        np.testing.assert_array_equal(out.mask, s.mask)

    def test_horizontal_flip_is_involution(self):
        s = self.sample()
        once = warp(s, hflip=True)
        twice = warp(once, hflip=True)
        np.testing.assert_allclose(twice.image, s.image, atol=1e-12)
        np.testing.assert_array_equal(twice.mask, s.mask)
        assert not np.array_equal(once.mask, s.mask)

    def test_right_angle_rotation_swaps_axes(self):
        image = np.zeros((32, 32))
        mask = np.full((32, 32), U, dtype=np.uint8)
        image[:, 14:18] = 1.0  # vertical stripe
        mask[:, 14:18] = P
        mask[:, 4:6] = N
        out = warp(CropSample(image=image, mask=mask), angle=90.0)
        # stripe becomes horizontal; per-label pixel counts preserved
        np.testing.assert_array_equal(np.bincount(out.mask.ravel(),
                                                  minlength=3),
                                      np.bincount(mask.ravel(),
                                                  minlength=3))
        rows_with_path = np.unique(np.nonzero(out.mask == P)[0])
        assert len(rows_with_path) == 4

    def test_labels_pushed_out_raise_resample(self):
        image = np.zeros((32, 32))
        mask = np.full((32, 32), U, dtype=np.uint8)
        mask[0, 0] = P  # corner label leaves the frame when zooming in
        with pytest.raises(ResampleNeeded):
            warp(CropSample(image=image, mask=mask), scale=8.0)

    def test_draw_order(self):
        # stage-1 training draws every crop's transform from one generator,
        # so the order and count of augment's draws are part of its result
        s = self.sample()
        rng = np.random.default_rng(5)
        out = augment(s, rng)
        want = np.random.default_rng(5)
        hflip = want.random() < 0.5
        vflip = want.random() < 0.5
        angle = want.uniform(*segmentation.AUG_ROTATION_DEGREES)
        scale = want.uniform(*segmentation.AUG_RESCALE_RANGE)
        before_field = want.bit_generator.state
        g = max(32 // segmentation.AUG_ELASTIC_GRID, 2)
        want.normal(0.0, segmentation.AUG_ELASTIC_SIGMA, size=(2, g, g))
        assert rng.bit_generator.state == want.bit_generator.state
        # and the transform is the one those draws name
        want.bit_generator.state = before_field
        disp = segmentation._displacement_field(s.image.shape, want)
        expect = segmentation._warp(s, hflip, vflip, angle, scale, disp)
        np.testing.assert_array_equal(out.image, expect.image)
        np.testing.assert_array_equal(out.mask, expect.mask)


def desk_angles():
    """The rotations of a default-config seed-7 propagate."""
    cfg = pipeline.resolve_config({"seed": 7})
    return segmentation._rotation_angles(propagation_config(
        n_rotations=cfg["segmentation"]["n_rotations"],
        seed=pipeline.derive_seed(7, 80)))


def labeled_crop(rng, size=64):
    """Random image and a mask with about 70% of its pixels labeled."""
    mask = rng.choice(np.array([U, N, P], dtype=np.uint8), size=(size, size),
                      p=[0.3, 0.35, 0.35])
    return CropSample(image=rng.normal(size=(size, size)), mask=mask)


def augment_draws(rng, sample):
    """augment's draws, in its order, for an explicit _warp call."""
    hflip = rng.random() < 0.5
    vflip = rng.random() < 0.5
    angle = rng.uniform(*segmentation.AUG_ROTATION_DEGREES)
    scale = rng.uniform(*segmentation.AUG_RESCALE_RANGE)
    return (hflip, vflip, angle, scale,
            segmentation._displacement_field(sample.image.shape, rng))


def flipped(sample, hflip, vflip):
    image, mask = sample.image, sample.mask
    if hflip:
        image, mask = image[:, ::-1], mask[:, ::-1]
    if vflip:
        image, mask = image[::-1, :], mask[::-1, :]
    return image, mask


class TestResamplingOracles:
    """The numpy sampler against scipy.ndimage, which it replaces."""

    @pytest.mark.parametrize("shape", [(64, 64), (40, 56), (256, 256)])
    def test_rotation_matches_ndimage(self, shape):
        image = np.random.default_rng(1).normal(size=shape)
        for angle in [0.0, 90.0, 137.5, 283.0] + desk_angles():
            np.testing.assert_allclose(
                segmentation._rotate_image(image, angle),
                ndimage_rotate(image, angle, order=1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order", [0, 1])
    def test_sampler_matches_map_coordinates(self, order):
        rng = np.random.default_rng(2)
        h, w = 13, 9
        image = (rng.normal(size=(h, w)) if order else
                 rng.integers(0, 3, size=(h, w)).astype(np.uint8))
        # points over the frame and one pixel beyond it; every half-pixel
        # point, which holds the exact edges and the rounding ties; and
        # points a hair either side of each edge
        grid_r, grid_c = np.meshgrid(np.arange(-2, 2 * h + 1) / 2.0,
                                     np.arange(-2, 2 * w + 1) / 2.0,
                                     indexing="ij")
        near_r = np.array([0.0, h - 1.0])[:, None] + [-1e-12, 0.0, 1e-12]
        near_c = np.array([0.0, w - 1.0])[:, None] + [-1e-12, 0.0, 1e-12]
        edge_r, edge_c = np.meshgrid(near_r.ravel(), near_c.ravel(),
                                     indexing="ij")
        src_r = np.concatenate([rng.uniform(-1.0, h, 4000), grid_r.ravel(),
                                edge_r.ravel()])
        src_c = np.concatenate([rng.uniform(-1.0, w, 4000), grid_c.ravel(),
                                edge_c.ravel()])
        got = segmentation._sample(image, src_r, src_c, order)
        want = ndimage_map_coordinates(image, src_r, src_c, order)
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(64, 64), (32, 32), (40, 56)])
    def test_displacement_field_matches_zoom_and_gaussian(self, shape):
        grid = [max(n // segmentation.AUG_ELASTIC_GRID, 2) for n in shape]
        coarse = np.random.default_rng(3).normal(
            0.0, segmentation.AUG_ELASTIC_SIGMA, size=(2, *grid))
        got = segmentation._displacement_field(shape,
                                               np.random.default_rng(3))
        np.testing.assert_allclose(got,
                                   ndimage_displacement_field(coarse, shape),
                                   rtol=0, atol=1e-12)

    def test_warp_matches_map_coordinates(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            sample = labeled_crop(rng)
            hflip, vflip, angle, scale, disp = augment_draws(rng, sample)
            out = segmentation._warp(sample, hflip, vflip, angle, scale, disp)
            image, mask = flipped(sample, hflip, vflip)
            src_r, src_c = segmentation._source_coords(image.shape, angle,
                                                       scale)
            src_r, src_c = src_r + disp[0], src_c + disp[1]
            np.testing.assert_allclose(
                out.image, ndimage_map_coordinates(image, src_r, src_c, 1),
                rtol=0, atol=1e-12)
            np.testing.assert_array_equal(
                out.mask, ndimage_map_coordinates(mask, src_r, src_c, 0))

    def test_label_flips_against_textbook_warp_sit_at_ties(self):
        # the warp's coordinates differ from the textbook form in their
        # last bits, so a nearest label may differ only where the textbook
        # coordinate sits on a rounding tie or on a frame edge
        rng = np.random.default_rng(5)
        zero = np.zeros((2, 64, 64))
        cases = [(False, False, a, s, zero)
                 for a in (-180.0, -90.0, 0.0, 90.0, 180.0)
                 for s in (0.8, 1.0, 1.25, 2.0)]
        samples = [labeled_crop(rng) for _ in cases]
        for _ in range(200):
            samples.append(labeled_crop(rng))
            cases.append(augment_draws(rng, samples[-1]))
        for sample, (hflip, vflip, angle, scale, disp) in zip(samples,
                                                              cases):
            _, mask = flipped(sample, hflip, vflip)
            src_r, src_c = textbook_warp_coords(mask.shape, angle, scale, disp)
            want = ndimage_map_coordinates(mask, src_r, src_c, 0)
            try:
                got = segmentation._warp(sample, hflip, vflip, angle, scale,
                                         disp).mask
            except ResampleNeeded:
                got = np.full_like(want, U)
            flips = got != want
            at_tie = np.zeros_like(flips)
            for coord, n in ((src_r, mask.shape[0]), (src_c, mask.shape[1])):
                at_tie |= np.abs(coord - np.floor(coord) - 0.5) < 1e-9
                at_tie |= np.abs(coord) < 1e-9
                at_tie |= np.abs(coord - (n - 1)) < 1e-9
            assert not (flips & ~at_tie).any(), (angle, scale)


class TestSampleCrops:
    def test_single_label_always_covered(self):
        image = np.zeros((100, 100))
        mask = np.full((100, 100), U, dtype=np.uint8)
        mask[70, 20] = P
        for s in sample_crops(image, mask, 20, crop=32, seed=0):
            assert (s.mask == P).sum() == 1

    def test_zero_crops(self):
        image, mask = stripe_scene()
        assert sample_crops(image, mask, 0, 64, 0) == []

    def test_unlabeled_mask_rejected(self):
        with pytest.raises(SamplingError):
            sample_crops(np.zeros((64, 64)),
                         np.full((64, 64), U, np.uint8), 5, 64, 0)

    def test_deterministic(self):
        image, mask = stripe_scene()
        a = sample_crops(image, mask, 10, crop=64, seed=3)
        b = sample_crops(image, mask, 10, crop=64, seed=3)
        for s, t in zip(a, b):
            np.testing.assert_array_equal(s.image, t.image)
            np.testing.assert_array_equal(s.mask, t.mask)

    def test_center_class_census(self):
        # crop centers are uniform over labeled pixels: the class mix of
        # center pixels matches the labeled-pixel class mix within 5%
        rng = np.random.default_rng(0)
        mask = np.full((200, 200), U, dtype=np.uint8)
        labeled = rng.random((200, 200)) < 0.05
        labeled[:40] = labeled[-40:] = False
        labeled[:, :40] = labeled[:, -40:] = False  # keep clear of clamping
        mask[labeled] = np.where(rng.random(labeled.sum()) < 0.3, P, N)
        image = np.zeros((200, 200))
        crops = sample_crops(image, mask, 10000, crop=64, seed=1)
        centers = np.array([s.mask[32, 32] for s in crops])
        want = (mask[labeled] == P).mean()
        got = (centers == P).mean()
        assert abs(got - want) < 0.05


class TestStage1:
    def test_trains_and_reduces_loss(self, monkeypatch):
        monkeypatch.setattr(segmentation, "augment", unaugmented)
        image, mask = stripe_scene()
        model = tiny_model(zero_head=False)
        model, log = stage1_train(
            [image], [mask], model=model,
            cfg=SegTrainConfig(learning_rate=0.2, batch_size=4, steps=30,
                               seed=0),
            crop=32, crops_per_scan=40)
        assert len(log.losses) == 30
        assert np.mean(log.losses[-5:]) < np.mean(log.losses[:5])

    def test_deterministic(self):
        image, mask = stripe_scene()

        def run():
            model, _ = stage1_train(
                [image], [mask], model=tiny_model(zero_head=False),
                cfg=SegTrainConfig(learning_rate=0.1, batch_size=2, steps=4,
                                   seed=0),
                crop=32, crops_per_scan=10)
            return b"".join(p.tobytes() for p in model.params)

        assert run() == run()

    def test_augment_fallbacks_counted(self, monkeypatch):
        def always_out_of_frame(sample, rng):
            raise ResampleNeeded()

        monkeypatch.setattr(segmentation, "augment", always_out_of_frame)
        image, mask = stripe_scene()
        _, log = stage1_train(
            [image], [mask], model=tiny_model(),
            cfg=SegTrainConfig(learning_rate=0.1, batch_size=2, steps=3,
                               seed=0),
            crop=32, crops_per_scan=10)
        assert log.augment_fallbacks == 6
        assert len(log.losses) == 3

    def test_no_fallbacks_when_augment_succeeds(self, monkeypatch):
        monkeypatch.setattr(segmentation, "augment", unaugmented)
        image, mask = stripe_scene()
        _, log = stage1_train(
            [image], [mask], model=tiny_model(),
            cfg=SegTrainConfig(learning_rate=0.1, batch_size=2, steps=2,
                               seed=0),
            crop=32, crops_per_scan=10)
        assert log.augment_fallbacks == 0

    def test_no_labels_rejected(self):
        with pytest.raises(SamplingError):
            stage1_train([np.zeros((64, 64))],
                         [np.full((64, 64), U, np.uint8)],
                         model=tiny_model(),
                         cfg=SegTrainConfig(learning_rate=0.1, batch_size=8,
                                            steps=1, seed=0),
                         crop=64, crops_per_scan=5)


@pytest.fixture(scope="module")
def stripe_model():
    """Stage-1 model trained to find the bright stripe."""
    image, mask = stripe_scene()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segmentation, "augment", rigid_augment)
        model, _ = stage1_train(
            [image], [mask], model=tiny_model(zero_head=False),
            cfg=SegTrainConfig(learning_rate=0.2, batch_size=4, steps=60,
                               seed=0),
            crop=32, crops_per_scan=60)
    return model


class TestPropagate:
    def test_single_rotation_equals_tiled_inference(self, stripe_model):
        image, mask = stripe_scene()
        cfg = propagation_config(tile_size=32, n_rotations=1,
                                vote_threshold=1.0)
        out = propagate_labels(stripe_model, image, mask, cfg,
                               whole(image))
        probs = segmentation._tiled_inference(stripe_model, image, 32)
        assert np.abs(probs - tiled_float64(stripe_model, image,
                                            32)).max() <= 1e-5
        plain = np.where(probs > cfg.probability_threshold, P,
                         N).astype(np.uint8)
        want = np.where(mask != U, mask, plain)
        np.testing.assert_array_equal(out, want)

    @pytest.mark.parametrize("shape", [(64, 64), (40, 56)])
    def test_cached_validity_equals_two_rotations(self, shape):
        ones = np.ones(shape)
        for angle in [0.0, 15.0, 137.5, 283.0, 15.0] + desk_angles():
            want = ndimage_rotate(ndimage_rotate(ones, angle, order=0),
                                  -angle, order=0) > 0.5
            got = segmentation._rotation_validity(shape, angle)
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable

    def test_rotation_list_permutation_invariant(self, stripe_model,
                                                 monkeypatch):
        image, mask = stripe_scene()
        cfg = propagation_config(tile_size=32, n_rotations=3)
        angles = [15.0, 120.0, 283.0]
        monkeypatch.setattr(segmentation, "_rotation_angles",
                            lambda cfg: angles)
        a = propagate_labels(stripe_model, image, mask, cfg,
                             whole(image))
        monkeypatch.setattr(segmentation, "_rotation_angles",
                            lambda cfg: angles[::-1])
        b = propagate_labels(stripe_model, image, mask, cfg,
                             whole(image))
        np.testing.assert_array_equal(a, b)

    def test_original_labels_take_precedence(self, stripe_model):
        image, mask = stripe_scene()
        mask = mask.copy()
        mask[30, 31] = N  # contradicts the model on a stripe pixel
        cfg = propagation_config(tile_size=32, n_rotations=1)
        out = propagate_labels(stripe_model, image, mask, cfg,
                               whole(image))
        assert out[30, 31] == N
        np.testing.assert_array_equal(out[mask != U], mask[mask != U])

    def test_valid_region_masks_output(self, stripe_model):
        image, mask = stripe_scene()
        valid = np.zeros(image.shape, dtype=bool)
        valid[:32] = True
        cfg = propagation_config(tile_size=32, n_rotations=1)
        blank = np.full(image.shape, U, dtype=np.uint8)
        out = propagate_labels(stripe_model, image, blank, cfg,
                               valid_region=valid)
        assert not (out[~valid] != U).any()
        assert (out[valid] != U).any()

    def test_densifies_stripe(self, stripe_model):
        image, mask = stripe_scene()
        cfg = propagation_config(tile_size=32, n_rotations=3)
        out = propagate_labels(stripe_model, image, mask, cfg,
                               whole(image))
        new = (out == P) & (mask == U)
        stripe = np.zeros(image.shape, dtype=bool)
        stripe[:, 30:34] = True
        # unlabeled parts of the stripe get picked up
        assert new[stripe & (mask == U)].mean() > 0.5


class TestStage2:
    def test_full_scan_forward_shape(self, stripe_model):
        mask = segment(stripe_model, np.zeros((256, 256)))
        assert mask.shape == (256, 256)

    def test_finetune_deterministic(self):
        image, mask = stripe_scene()

        def run():
            model, _ = stage2_finetune(
                tiny_model(zero_head=False), [image], [mask],
                cfg=SegTrainConfig(learning_rate=0.05, batch_size=8, steps=3,
                                   seed=0))
            return b"".join(p.tobytes() for p in model.params)

        assert run() == run()

    def test_finetune_improves_dense_fit(self, stripe_model):
        image, _ = stripe_scene()
        dense = np.full(image.shape, N, dtype=np.uint8)
        dense[:, 30:34] = P
        truth = dense == P
        before = segment(stripe_model, image)

        import copy

        model = copy.deepcopy(stripe_model)
        model, _ = stage2_finetune(model, [image], [dense],
                                   cfg=SegTrainConfig(learning_rate=0.05,
                                                      batch_size=8, steps=20,
                                                      seed=0))
        after = segment(model, image)

        def iou(pred):
            inter = (pred.astype(bool) & truth).sum()
            union = (pred.astype(bool) | truth).sum()
            return inter / union

        assert iou(after) >= iou(before)


class TestInferenceEngine:
    def test_matches_training_forward(self):
        model = random_head(UNet(depth=3, base_channels=8, seed=2), 2)
        image = np.random.default_rng(0).normal(size=(64, 128))
        slow = tiled_float64(model, image, 64)
        fast = segmentation._tiled_inference(model, image, 64)
        assert np.abs(slow - fast).max() < 1e-5

    def test_segment_idempotent(self, stripe_model):
        image, _ = stripe_scene()
        a = segment(stripe_model, image)
        b = segment(stripe_model, image)
        np.testing.assert_array_equal(a, b)
        # the float64 forward's mask, wherever its probability is not
        # within the float32 tolerance of the threshold
        probs = stripe_model.forward(image[None, ..., None])[0, ..., 0]
        clear = np.abs(probs - 0.5) > 1e-5
        np.testing.assert_array_equal(a[clear], probs[clear] > 0.5)
        assert set(np.unique(a)) <= {0, 1}

    def test_network_runs_in_float32_on_float64_images(self, monkeypatch):
        # a missing cast would run the whole network in float64
        model = tiny_model(zero_head=False)
        seen = []
        forward = model.forward

        def spy(x):
            seen.append(x.dtype)
            return forward(x)

        monkeypatch.setattr(model, "forward", spy)
        image = np.random.default_rng(1).normal(size=(32, 48))
        probs = segmentation._tiled_inference(model, image, 16)
        mask = segment(model, image)
        assert seen == [np.float32, np.float32]
        assert probs.dtype == np.float32 and probs.shape == image.shape
        assert mask.dtype == np.uint8

    def test_prepare_scan_image(self):
        rng = np.random.default_rng(0)
        img = prepare = segmentation.prepare_scan_image(
            rng.exponential(1.0, size=(32, 32)))
        assert abs(prepare.mean()) < 1e-9
        assert abs(prepare.std() - 1.0) < 1e-9
        flat = segmentation.prepare_scan_image(np.full((8, 8), 3.0))
        np.testing.assert_array_equal(flat, 0.0)
        assert img.shape == (32, 32)
