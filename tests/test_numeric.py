import re
import struct
import tracemalloc

import numpy as np
import pytest

from radroute import audio, numeric, segmentation
from radroute.errors import (DegenerateBatchError, InputError, NumericError,
                             ShapeError)

from oracles import Upsample2x, gradcheck, masked_binary_cross_entropy


def nhwc(x):
    """A channel-first (N, C, H, W) array as the layers take it."""
    return x.transpose(0, 2, 3, 1)


def nchw(x):
    """A layer's (N, H, W, C) array as the channel-first oracles take it."""
    return x.transpose(0, 3, 1, 2)


def conv_oracle(x, weight, bias, padding=0):
    """Naive quadruple-loop convolution (cross-correlation) oracle."""
    n, c, h, w = x.shape
    o, _, k, _ = weight.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding),
                       (padding, padding)))
    oh = x.shape[2] - k + 1
    ow = x.shape[3] - k + 1
    out = np.zeros((n, o, oh, ow))
    for b in range(n):
        for f in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for cc in range(c):
                        for u in range(k):
                            for v in range(k):
                                acc += (weight[f, cc, u, v]
                                        * x[b, cc, i + u, j + v])
                    out[b, f, i, j] = acc + bias[f]
    return out


def random_head(model, seed):
    """The U-Net built with the given seed, its zero-initialised 1x1 head
    drawn instead, like every other conv weight: from the network's
    generator, after the weights before it."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0E7]))
    head = model.head.weight
    drawn = sum(p.size for p in model.params if p.ndim == 4) - head.size
    rng.uniform(size=drawn)
    head[...] = numeric.init_uniform(rng, head.shape, head.shape[1],
                                     head.shape[0])
    return model


class TestConv2d:
    def test_identity_1x1(self):
        conv = numeric.Conv2d(3, 3, 1)
        conv.weight[...] = np.eye(3)[:, :, None, None]
        conv.bias[...] = 0.0
        x = np.random.default_rng(0).normal(size=(2, 5, 5, 3))
        np.testing.assert_array_equal(conv.forward(x), x)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        conv = numeric.Conv2d(2, 3, 3, padding=1, rng=rng)
        x = rng.normal(size=(2, 2, 4, 4))
        want = conv_oracle(x, conv.weight, conv.bias, padding=1)
        assert np.abs(nchw(conv.forward(nhwc(x))) - want).max() < 1e-12

    def test_shape_mismatch(self):
        conv = numeric.Conv2d(2, 3, 3)
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 8, 8, 5)))

    def test_channel_first_rejected(self):
        for c in (1, 2):
            with pytest.raises(ShapeError, match=f"H,W,{c}"):
                numeric.Conv2d(c, 3, 3).forward(np.zeros((1, c, 8, 8)))


def conv_backward_oracle(x, weight, grad, padding=0):
    """Scalar-loop d_weight, d_bias and dX of conv_oracle for grad."""
    n, c, h, w = x.shape
    o, _, k, _ = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dw = np.zeros_like(weight)
    db = np.zeros(o)
    dxp = np.zeros_like(xp)
    _, _, oh, ow = grad.shape
    for b in range(n):
        for f in range(o):
            for i in range(oh):
                for j in range(ow):
                    g = grad[b, f, i, j]
                    db[f] += g
                    for cc in range(c):
                        for u in range(k):
                            for v in range(k):
                                r, q = i + u, j + v
                                dw[f, cc, u, v] += g * xp[b, cc, r, q]
                                dxp[b, cc, r, q] += g * weight[f, cc, u, v]
    return dw, db, dxp[:, :, padding:padding + h, padding:padding + w]


# (kernel, padding), on an 8x7 input
CONV_CONFIGS = [(3, 1), (3, 0), (1, 0)]


def random_conv(k, p, seed, c):
    rng = np.random.default_rng(seed)
    conv = numeric.Conv2d(c, 4, k, padding=p, rng=rng)
    conv.bias[...] = rng.normal(size=4)
    return conv, rng.normal(size=(2, c, 8, 7)), rng


def cached_arrays(layer):
    """The arrays a layer keeps between forward and backward: every array
    attribute that is not a parameter or a gradient accumulator."""
    owned = layer.params + layer.grads
    return [v for v in vars(layer).values() if isinstance(v, np.ndarray)
            and not any(v is a for a in owned)]


class Conv2dOracleCases:
    """Oracle checks of a Conv2d with C input channels."""

    C = 3

    @pytest.mark.parametrize("k,p", CONV_CONFIGS)
    def test_forward_and_backward_match_loops(self, k, p):
        conv, x, rng = random_conv(k, p, 10 * k + 3 * p + 1, self.C)
        out = nchw(conv.forward(nhwc(x)))
        want = conv_oracle(x, conv.weight, conv.bias, padding=p)
        assert out.shape == want.shape
        assert np.abs(out - want).max() <= 1e-12
        grad = rng.normal(size=out.shape)
        dx = nchw(conv.backward(nhwc(grad)))
        dw, db, dx_want = conv_backward_oracle(x, conv.weight, grad, p)
        assert dx.shape == x.shape
        assert np.abs(conv.d_weight - dw).max() <= 1e-12
        assert np.abs(conv.d_bias - db).max() <= 1e-12
        assert np.abs(dx - dx_want).max() <= 1e-12

    @pytest.mark.parametrize("k,p", CONV_CONFIGS)
    def test_float32_matches_loops(self, k, p):
        conv, x, rng = random_conv(k, p, 10 * k + 3 * p + 2, self.C)
        want = conv_oracle(x, conv.weight, conv.bias, padding=p)
        grad = rng.normal(size=want.shape)
        dw, db, dx_want = conv_backward_oracle(x, conv.weight, grad, p)
        out = nchw(conv.forward(nhwc(x).astype(np.float32)))
        dx = nchw(conv.backward(nhwc(grad).astype(np.float32)))
        assert out.dtype == dx.dtype == np.float32
        assert all(a.dtype == np.float32 for a in cached_arrays(conv))
        for got, ref in ((out, want), (dx, dx_want), (conv.d_weight, dw),
                         (conv.d_bias, db)):
            assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()

    @pytest.mark.parametrize("k,p", CONV_CONFIGS)
    def test_gradient_layout_does_not_matter(self, k, p):
        conv, x, rng = random_conv(k, p, 5, self.C)
        g = rng.normal(size=conv.forward(nhwc(x)).shape)
        results = []
        # channel-last memory, and the same values in channel-first memory
        for grad in (g, nhwc(np.ascontiguousarray(nchw(g)))):
            conv.zero_grad()
            conv.forward(nhwc(x))
            dx = conv.backward(grad)
            results.append((conv.d_weight.copy(), conv.d_bias.copy(), dx))
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)


class TestConv2dOracle(Conv2dOracleCases):
    """Several input channels: the kernel-row panel."""

    def test_padding_must_be_below_kernel(self):
        # dX pads the gradient by k - 1 - padding, which must not be negative
        with pytest.raises(ShapeError):
            numeric.Conv2d(1, 1, 3, padding=3)

    def test_float32_helpers_match_layer(self):
        rng = np.random.default_rng(8)
        conv = numeric.Conv2d(4, 5, 3, padding=1, rng=rng)
        conv.bias[...] = rng.normal(size=5)
        x = rng.normal(size=(2, 8, 8, 4))
        want = conv.forward(x)
        # the float32 call sequence inside Conv2d.forward
        wmat = np.ascontiguousarray(numeric.conv_matrix(conv.weight),
                                    np.float32)
        got = numeric.conv_nhwc(numeric.pad_nhwc(x.astype(np.float32), 1),
                                wmat, 3)
        got += conv.bias.astype(np.float32)
        assert got.dtype == np.float32
        assert np.abs(got - want).max() <= 1e-5


class TestConv2dOracleOneChannel(Conv2dOracleCases):
    """One input channel: im2col."""

    C = 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_strides_match_kernel_row_path(self, dtype):
        # both paths hand the next layer C-contiguous (N, H, W, C) memory,
        # so that ReLU's backward and the U-Net's skip add see one layout
        rng = np.random.default_rng(11)
        out = numeric.Conv2d(1, 4, 3, padding=1, rng=rng).forward(
            np.zeros((2, 8, 7, 1), dtype))
        panel = numeric.Conv2d(2, 4, 3, padding=1, rng=rng).forward(
            np.zeros((2, 8, 7, 2), dtype))
        assert out.shape == panel.shape == (2, 8, 7, 4)
        assert out.strides == panel.strides
        assert out.flags.c_contiguous


# (kernel, padding, batch, channels): every kernel size of the kernel-row
# sum, one and several images (the stacked GEMMs of dW and the forward
# pass), and one input channel, which runs im2col instead
PANEL_CONFIGS = [(k, p, n, c) for k, p in ((1, 0), (2, 1), (3, 1))
                 for n in (1, 3) for c in (1, 2)]


class TestKernelRowPanel:
    @pytest.mark.parametrize("k,p,n,c", PANEL_CONFIGS)
    def test_forward_dw_dx_match_loops(self, k, p, n, c):
        rng = np.random.default_rng(100 * k + 10 + n + c)
        conv = numeric.Conv2d(c, 3, k, padding=p, rng=rng)
        conv.bias[...] = rng.normal(size=3)
        x = rng.normal(size=(n, c, 7, 6))
        out = nchw(conv.forward(nhwc(x)))
        want = conv_oracle(x, conv.weight, conv.bias, padding=p)
        assert out.shape == want.shape
        assert np.abs(out - want).max() <= 1e-12
        grad = rng.normal(size=out.shape)
        dx = nchw(conv.backward(nhwc(grad)))
        dw, db, dx_want = conv_backward_oracle(x, conv.weight, grad, p)
        assert np.abs(conv.d_weight - dw).max() <= 1e-12
        assert np.abs(conv.d_bias - db).max() <= 1e-12
        assert dx.shape == x.shape
        assert np.abs(dx - dx_want).max() <= 1e-12
        # the float32 training path of the same layer
        conv.zero_grad()
        out32 = nchw(conv.forward(nhwc(x).astype(np.float32)))
        dx32 = nchw(conv.backward(nhwc(grad).astype(np.float32)))
        assert out32.dtype == dx32.dtype == np.float32
        for got, ref in ((out32, want), (dx32, dx_want),
                         (conv.d_weight, dw), (conv.d_bias, db)):
            assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(1, 256, 256, 1), (16, 64, 64, 1)])
    def test_inference_matches_float64_unet(self, shape):
        # a full scan, and a batch of propagation tiles
        rng = np.random.default_rng(shape[0])
        model = random_head(
            segmentation.UNet(depth=3, base_channels=8, seed=3), 3)
        for p in model.params:
            if p.ndim == 1:  # biases: nonzero, so no bias path goes untested
                p[...] = rng.normal(scale=0.1, size=p.shape)
        # a larger head spreads the probabilities over about (0.01, 0.99)
        # rather than within 0.05 of 0.5, so that errors are not squashed
        model.head.weight *= 30.0
        x = rng.normal(size=shape)
        want = model.forward(x)
        # the same inputs as one image of tiles, as propagation segments
        n, t = shape[:2]
        side = int(np.sqrt(n))
        image = x[..., 0].reshape(side, side, t, t).transpose(0, 2, 1, 3)
        got = segmentation._tiled_inference(
            model, image.reshape(side * t, side * t), t)
        got = got.reshape(side, t, side, t).transpose(0, 2, 1, 3)
        assert want.min() < 0.2 and want.max() > 0.8
        assert np.abs(got.reshape(shape) - want).max() <= 1e-5

    def test_inference_pool_bit_identical_to_reshape_max(self):
        # ReLU outputs in the channel-last memory a conv writes:
        # non-negative, with ties, and one NaN
        rng = np.random.default_rng(9)
        x = rng.integers(0, 4, size=(3, 8, 6, 5)).astype(np.float32)
        x[1, 3, 2, 4] = np.nan
        want = x.reshape(3, 4, 2, 3, 2, 5).max(axis=(2, 4))
        got = numeric.MaxPool2d(2).forward(x)
        assert np.isnan(got[1, 1, 1, 4])
        np.testing.assert_array_equal(got.view(np.int32),
                                      want.view(np.int32))


# (kernel, padding, batch, channels in, channels out, width, GEMM rows per
# band or None for the module's, input layout) on a 7-row input. conv_nhwc
# puts B output pixels in a GEMM row, B the largest divisor of the output
# width up to 16 // O: the first three run B = 1, 2 and 4 forward; width 25
# runs B = 1 forward and B = 5 in dX; k = 2 runs B = 2. Patched band sizes
# split the 7 output rows into bands of 3, 3 and 1 rows, or of one row
# each. "nhwc" is channel-last memory, "columns" every other column of a
# wider channel-last array, "transposed" a view of channel-first memory;
# at p = 0 conv_nhwc reads the last two in place.
BLOCKED_CONFIGS = [(3, 1, 2, 3, 16, 8, None, "nhwc"),
                   (3, 1, 2, 3, 8, 8, None, "nhwc"),
                   (3, 1, 1, 2, 4, 8, None, "nhwc"),
                   (3, 1, 2, 2, 8, 25, None, "nhwc"),
                   (2, 1, 2, 3, 8, 7, None, "nhwc"),
                   (1, 0, 2, 3, 4, 8, 4, "nhwc"),
                   (3, 1, 2, 3, 8, 8, 12, "nhwc"),
                   (3, 1, 1, 3, 4, 8, 1, "nhwc"),
                   (3, 0, 2, 3, 8, 10, None, "columns"),
                   (3, 0, 2, 3, 4, 10, 8, "transposed")]


def laid_out(x, layout):
    """Channel-first (N, C, H, W) values as a channel-last array of the
    given memory layout."""
    if layout == "transposed":
        return nhwc(x)
    if layout == "columns":
        n, c, h, w = x.shape
        wide = np.zeros((n, h, 2 * w, c), x.dtype)
        wide[:, :, ::2] = nhwc(x)
        return wide[:, :, ::2]
    return np.ascontiguousarray(nhwc(x))


class TestRowBlockedGemm:
    @pytest.mark.parametrize("k,p,n,c,o,w,band,layout", BLOCKED_CONFIGS)
    def test_conv_and_layer_match_loops(self, monkeypatch, k, p, n, c, o, w,
                                        band, layout):
        if band is not None:
            monkeypatch.setattr(numeric, "_BAND_ROWS", band)
        rng = np.random.default_rng(1000 + 10 * k + o + w)
        conv = numeric.Conv2d(c, o, k, padding=p, rng=rng)
        conv.bias[...] = rng.normal(size=o)
        x = rng.normal(size=(n, c, 7, w))
        want = conv_oracle(x, conv.weight, conv.bias, padding=p)
        grad = rng.normal(size=want.shape)
        dw, db, dx_want = conv_backward_oracle(x, conv.weight, grad, p)
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            xin = laid_out(x.astype(dtype), layout)
            assert xin.flags.c_contiguous == (layout == "nhwc")
            got = numeric.conv_nhwc(numeric.pad_nhwc(xin, p),
                                    numeric.conv_matrix(conv.weight)
                                    .astype(dtype), k)
            conv.zero_grad()
            out = nchw(conv.forward(xin))
            dx = nchw(conv.backward(nhwc(grad).astype(dtype)))
            assert out.dtype == dx.dtype == got.dtype == dtype
            assert out.shape == want.shape and dx.shape == x.shape
            for value, ref in ((nchw(got), want - conv.bias[:, None, None]),
                               (out, want), (dx, dx_want),
                               (conv.d_weight, dw), (conv.d_bias, db)):
                assert np.abs(value - ref).max() <= tol * np.abs(ref).max()


class TestSimpleLayers:
    def test_maxpool_spot(self):
        pool = numeric.MaxPool2d(2)
        out = pool.forward(
            np.array([[1.0, 2.0], [3.0, 4.0]])[None, :, :, None])
        assert out.reshape(-1).tolist() == [4.0]

    def test_maxpool_drops_trailing(self):
        pool = numeric.MaxPool2d(2)
        x = np.arange(50, dtype=float).reshape(1, 5, 5, 2)
        assert pool.forward(x).shape == (1, 2, 2, 2)

    def test_maxpool_needs_four_axes(self):
        with pytest.raises(ShapeError):
            numeric.MaxPool2d(2).forward(np.zeros((4, 4, 2)))

    def test_relu(self):
        relu = numeric.ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(relu.forward(x), [[0.0, 0.0, 2.0]])

    def test_sigmoid_stable_extremes(self):
        sig = numeric.Sigmoid()
        y = sig.forward(np.array([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(y, [0.0, 0.5, 1.0], atol=1e-12)

    def test_softmax_shift_invariance(self):
        sm = numeric.Softmax()
        x = np.random.default_rng(3).normal(size=(4, 5))
        a = sm.forward(x)
        b = sm.forward(x + 7.5)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        sm = numeric.Softmax()
        p = sm.forward(np.random.default_rng(4).normal(size=(6, 3)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_upsample2x(self):
        up = Upsample2x()
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[None, :, :, None]
        want = np.array([[1, 1, 2, 2], [1, 1, 2, 2],
                         [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float)
        np.testing.assert_array_equal(up.forward(x)[0, ..., 0], want)


# (skip, upsampled, out channels, batch, coarse height, coarse width): the
# three decoder entries of the desk U-Net (depth 3, base 8), then channel
# counts with no U-Net ratio, at one and several images and non-square maps
DECODER_CONFIGS = [(32, 64, 32, 2, 2, 3), (16, 32, 16, 3, 4, 2),
                   (8, 16, 8, 2, 5, 4), (3, 5, 2, 1, 3, 1), (1, 2, 4, 4, 2, 2)]


def decoder_entry_oracle(layer, skip, coarse, grad):
    """Output, d_weight, d_bias, d_skip, d_coarse of Upsample2x, channel
    concatenation and a 3x3 same Conv2d holding the layer's parameters."""
    conv = numeric.Conv2d(layer.skip_channels + layer.up_channels,
                          layer.out_channels, 3, padding=1)
    conv.weight[...] = layer.weight
    conv.bias[...] = layer.bias
    up = Upsample2x()
    out = conv.forward(np.concatenate([skip, up.forward(coarse)], axis=3))
    dx = conv.backward(grad)
    cs = layer.skip_channels
    return (out, conv.d_weight, conv.d_bias, dx[..., :cs],
            up.backward(dx[..., cs:]))


class TestUpsampleConcatConv2d:
    @staticmethod
    def case(config, dtype=np.float64):
        cs, cu, o, n, h, w = config
        rng = np.random.default_rng(sum(config))
        layer = numeric.UpsampleConcatConv2d(cs, cu, o, rng=rng)
        layer.bias[...] = rng.normal(size=o)
        skip = rng.normal(size=(n, 2 * h, 2 * w, cs))
        coarse = rng.normal(size=(n, h, w, cu))
        grad = rng.normal(size=(n, 2 * h, 2 * w, o))
        want = decoder_entry_oracle(layer, skip, coarse, grad)
        out = layer.forward(skip.astype(dtype), coarse.astype(dtype))
        d_skip, d_coarse = layer.backward(grad.astype(dtype))
        got = (out, layer.d_weight, layer.d_bias, d_skip, d_coarse)
        return got, want

    @pytest.mark.parametrize("config", DECODER_CONFIGS)
    def test_matches_upsample_concat_conv_float64(self, config):
        got, want = self.case(config)
        for name, a, b in zip(("out", "dW", "d_bias", "d_skip", "d_coarse"),
                              got, want):
            assert a.shape == b.shape, name
            assert np.abs(a - b).max() <= 1e-12, name

    @pytest.mark.parametrize("config", DECODER_CONFIGS[:3])
    def test_float32_matches_oracle(self, config):
        got, want = self.case(config, np.float32)
        out, d_weight, d_bias, d_skip, d_coarse = got
        assert out.dtype == d_skip.dtype == d_coarse.dtype == np.float32
        assert d_weight.dtype == d_bias.dtype == np.float64
        # the float32 tolerance of TestFloat32Training
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-4 * np.abs(b).max()

    def test_parity_kernels_fold_the_upsampled_conv(self):
        rng = np.random.default_rng(31)
        weight = rng.normal(size=(3, 2, 3, 3))
        coarse = rng.normal(size=(2, 4, 5, 2))
        up = Upsample2x().forward(coarse)
        want = conv_oracle(nchw(up), weight, np.zeros(3), padding=1)
        out = np.zeros((2, 8, 10, 3))
        numeric.upsampled_conv_nhwc(numeric.pad_nhwc(coarse, 1),
                                    numeric.parity_kernels(weight), out)
        assert np.abs(nchw(out) - want).max() <= 1e-12

    def test_shape_mismatch(self):
        layer = numeric.UpsampleConcatConv2d(2, 3, 4)
        for skip, coarse in (((1, 8, 8, 2), (1, 5, 5, 3)),
                             ((1, 8, 8, 2), (2, 4, 4, 3)),
                             ((1, 8, 8, 3), (1, 4, 4, 3)),
                             ((1, 7, 8, 2), (1, 3, 4, 3)),
                             ((8, 8, 2), (4, 4, 3)),
                             # the valid pair, channel-first
                             ((1, 2, 8, 8), (1, 3, 4, 4))):
            with pytest.raises(ShapeError):
                layer.forward(np.zeros(skip), np.zeros(coarse))


class TestLosses:
    def test_cross_entropy_perfect(self):
        p = np.eye(3)
        loss, _ = numeric.cross_entropy(p, np.eye(3))
        assert loss < 1e-10

    def test_cross_entropy_uniform(self):
        p = np.full((4, 3), 1.0 / 3.0)
        t = np.eye(3)[[0, 1, 2, 0]]
        loss, _ = numeric.cross_entropy(p, t)
        assert abs(loss - np.log(3.0)) < 1e-12

    def test_cross_entropy_empty_batch(self):
        with pytest.raises(DegenerateBatchError):
            numeric.cross_entropy(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_masked_bce_ignores_unlabeled_targets(self):
        rng = np.random.default_rng(7)
        pred = rng.uniform(0.05, 0.95, size=(2, 1, 4, 4))
        target = rng.integers(0, 2, size=pred.shape).astype(float)
        mask = rng.random(pred.shape) < 0.5
        mask.flat[0] = True  # keep the contributing set nonempty
        flipped = np.where(mask, target, 1.0 - target)
        l1, g1 = masked_binary_cross_entropy(pred, target, mask)
        l2, g2 = masked_binary_cross_entropy(pred, flipped, mask)
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)

    def test_masked_bce_zero_grad_outside_mask(self):
        pred = np.full((1, 1, 3, 3), 0.3)
        target = np.ones_like(pred)
        mask = np.zeros(pred.shape, dtype=bool)
        mask[0, 0, 1, 1] = True
        _, grad = masked_binary_cross_entropy(pred, target, mask)
        assert np.all(grad[~mask] == 0.0)
        assert grad[0, 0, 1, 1] != 0.0

    def test_masked_bce_all_unlabeled(self):
        with pytest.raises(DegenerateBatchError):
            masked_binary_cross_entropy(
                np.full((2, 2), 0.5), np.zeros((2, 2)),
                np.zeros((2, 2), dtype=bool))


def maxpool_reference(x, grad, k):
    """Pooling by an argmax over a (..., k*k) copy of the windows."""
    n, c, h, w = x.shape
    oh, ow = h // k, w // k
    xr = x[:, :, :oh * k, :ow * k].reshape(n, c, oh, k, ow, k)
    xr = xr.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, k * k)
    idx = xr.argmax(axis=-1)
    out = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
    dxr = np.zeros((n, c, oh, ow, k * k), dtype=grad.dtype)
    np.put_along_axis(dxr, idx[..., None], grad[..., None], axis=-1)
    dx = np.zeros((n, c, h, w), dtype=grad.dtype)
    dx[:, :, :oh * k, :ow * k] = (
        dxr.reshape(n, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, oh * k, ow * k))
    return out, dx


def same_bits(a, b):
    bits = f"i{a.itemsize}"
    return a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(bits), np.ascontiguousarray(b).view(bits))


class TestMaxPoolParity:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, shape", [(2, (2, 3, 7, 9)),
                                          (2, (3, 4, 8, 6)),
                                          (3, (1, 2, 11, 7))])
    def test_bit_identical_to_argmax_pooling(self, dtype, k, shape):
        rng = np.random.default_rng(k * 100 + shape[2])
        # few distinct integer values, so most windows hold ties; zeros of
        # both signs, as ReLU writes them
        x = rng.integers(-2, 3, size=shape).astype(dtype)
        x[rng.random(shape) < 0.2] = -0.0
        # channel-last memory, as a conv writes it, and channel-first
        for xin in (np.ascontiguousarray(nhwc(x)), nhwc(x)):
            pool = numeric.MaxPool2d(k)
            out = nchw(pool.forward(xin))
            grad = rng.integers(-3, 4, size=out.shape).astype(dtype)
            grad[grad == 0] = -0.0
            dx = nchw(pool.backward(nhwc(grad)))
            want_out, want_dx = maxpool_reference(x, grad, k)
            assert same_bits(out, want_out)
            assert same_bits(dx, want_dx)

    def test_first_nan_wins_as_in_argmax(self):
        x = np.array([1.0, np.nan, 7.0, np.nan]).reshape(1, 2, 2, 1)
        pool = numeric.MaxPool2d(2)
        assert np.isnan(pool.forward(x)).all()
        dx = pool.backward(np.ones((1, 1, 1, 1)))
        assert dx.reshape(-1).tolist() == [0.0, 1.0, 0.0, 0.0]


class TestPoolReluCommute:
    """The audio CNN pools before ReLU; both orders give the same values
    and bit-identical input gradients."""

    @staticmethod
    def run(layers, x, grad):
        for layer in layers:
            x = layer.forward(x)
        for layer in reversed(layers):
            grad = layer.backward(grad)
        return x, grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_values_and_input_gradients(self, dtype):
        rng = np.random.default_rng(12)
        shape = (3, 4, 8, 10)
        # small integers, so most windows hold ties, and zeros of both signs
        x = rng.integers(-2, 3, size=shape).astype(dtype)
        x[rng.random(shape) < 0.2] = -0.0
        windows = {  # (n, c, i, j) of a 2x2 window: its four values
            (0, 0, 0, 0): [-1.0, -2.0, -1.0, -2.0],   # all negative
            (0, 1, 2, 4): [-1.0, -0.0, 0.0, -0.0],    # maximum zero
            (1, 0, 4, 2): [1.0, np.nan, 2.0, np.nan],  # NaN beside positives
            (1, 3, 0, 8): [-1.0, -2.0, np.nan, -0.0],  # NaN beside negatives
            (2, 2, 6, 6): [np.nan] * 4}
        for (n, c, i, j), values in windows.items():
            x[n, c, i:i + 2, j:j + 2] = np.reshape(values, (2, 2))
        for xin in (np.ascontiguousarray(nhwc(x)), nhwc(x)):
            grad = nhwc(rng.integers(-3, 4, size=(3, 4, 4, 5)).astype(dtype))
            grad[grad == 0] = -0.0
            out, dx = self.run([numeric.MaxPool2d(2), numeric.ReLU()],
                               xin, grad)
            want, want_dx = self.run([numeric.ReLU(), numeric.MaxPool2d(2)],
                                     xin, grad)
            assert np.isnan(out).sum() == 3
            assert (out == 0).sum() > 2 and (out > 0).sum() > 2
            # equal up to the sign of a zero; NaN where NaN
            np.testing.assert_array_equal(out, want)
            assert same_bits(dx, want_dx)


class TestLogitLoss:
    def test_matches_probability_loss(self):
        rng = np.random.default_rng(11)
        z = rng.normal(0.0, 3.0, size=(2, 1, 5, 5))
        target = rng.integers(0, 2, size=z.shape).astype(float)
        mask = rng.random(z.shape) < 0.6
        p = numeric.Sigmoid()
        probs = p.forward(z)
        want_loss, dprobs = masked_binary_cross_entropy(
            probs, target, mask)
        loss, grad = numeric.masked_bce_with_logits(z, target, mask)
        assert abs(loss - want_loss) < 1e-10
        np.testing.assert_allclose(grad, p.backward(dprobs), rtol=1e-8,
                                   atol=1e-14)
        assert np.all(grad[~mask] == 0.0)

    def test_saturated_float32_logits_stay_finite(self):
        z = np.array([40.0, -40.0, 40.0, -40.0], np.float32).reshape(
            1, 1, 2, 2)
        mask = np.ones(z.shape, dtype=bool)
        for t in (np.array([1.0, 0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0,
                                                             0.0])):
            target = t.reshape(z.shape)
            loss, grad = numeric.masked_bce_with_logits(z, target, mask)
            assert np.isfinite(loss)
            assert grad.dtype == np.float32
            want = (1.0 / (1.0 + np.exp(-z.astype(np.float64))) - target) / 4
            np.testing.assert_allclose(grad, want, rtol=1e-6, atol=1e-12)
        # the same logits through the float32 probability path: sigmoid(40)
        # rounds to 1.0 and the clip bound 1 - 1e-12 rounds to 1.0 too
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = numeric.Sigmoid().forward(z)
            loss, grad = masked_binary_cross_entropy(
                probs, np.array([1.0, 0.0, 0.0, 1.0]).reshape(z.shape), mask)
        assert np.isnan(loss)
        assert not np.all(np.isfinite(grad))

    def test_all_unlabeled(self):
        with pytest.raises(DegenerateBatchError):
            numeric.masked_bce_with_logits(
                np.zeros((2, 2)), np.zeros((2, 2)),
                np.zeros((2, 2), dtype=bool))


class TestSgdAndDeterminism:
    def test_zero_lr_keeps_params(self):
        rng = np.random.default_rng(8)
        layer = numeric.Dense(4, 3, rng=rng)
        before = [p.copy() for p in layer.params]
        layer.forward(rng.normal(size=(2, 4)))
        layer.backward(rng.normal(size=(2, 3)))
        numeric.sgd_step(layer.params, layer.grads, 0.0)
        for p, b in zip(layer.params, before):
            np.testing.assert_array_equal(p, b)

    def test_non_finite_gradient_rejected(self):
        w = np.zeros(3)
        g = np.array([1.0, np.nan, 0.0])
        with pytest.raises(NumericError):
            numeric.sgd_step([w], [g], 0.1)

    def test_training_is_deterministic(self):
        def run():
            rng = np.random.default_rng(0)
            model = numeric.Sequential([numeric.Dense(6, 8, rng=rng),
                                        numeric.ReLU(),
                                        numeric.Dense(8, 3, rng=rng),
                                        numeric.Softmax()])
            data_rng = np.random.default_rng(99)
            x = data_rng.normal(size=(8, 6))
            t = np.eye(3)[data_rng.integers(0, 3, size=8)]
            for _ in range(10):
                probs = model.forward(x)
                _, grad = numeric.cross_entropy(probs, t)
                model.zero_grad()
                model.backward(grad)
                numeric.sgd_step(model.params, model.grads, 0.1)
            return b"".join(p.tobytes() for p in model.params)

        assert run() == run()

    def test_overfit_small_sample(self):
        rng = np.random.default_rng(1)
        model = numeric.Sequential([numeric.Dense(4, 32, rng=rng),
                                    numeric.ReLU(),
                                    numeric.Dense(32, 3, rng=rng),
                                    numeric.Softmax()])
        x = rng.normal(size=(8, 4))
        t = np.eye(3)[rng.integers(0, 3, size=8)]
        loss = np.inf
        for _ in range(2000):
            probs = model.forward(x)
            loss, grad = numeric.cross_entropy(probs, t)
            if loss < 1e-3:
                break
            model.zero_grad()
            model.backward(grad)
            numeric.sgd_step(model.params, model.grads, 0.5)
        assert loss < 1e-3


class FullBackward:
    """A layer whose backward_params runs its whole backward, dX too."""

    def __init__(self, layer):
        self.layer = layer

    def __getattr__(self, name):
        return getattr(self.layer, name)

    def backward_params(self, grad):
        self.layer.backward(grad)


class TestInputGradSkip:
    """backward_params adds the same dW and d_bias as backward, and the
    training steps, which run it on their first layer, add what a full
    backward adds."""

    @staticmethod
    def grads_of(model, step):
        model.zero_grad()
        step(model)
        return [g.copy() for g in model.grads]

    @pytest.mark.parametrize("c", [1, 3])
    def test_conv_backward_params(self, c):
        # im2col (one input channel) and the kernel-row panel, in float32
        rng = np.random.default_rng(20 + c)
        conv = numeric.Conv2d(c, 4, 3, padding=1, rng=rng)
        x = rng.normal(size=(3, 9, 7, c)).astype(np.float32)
        grad = rng.normal(size=(3, 9, 7, 4)).astype(np.float32)

        def step(method):
            def run(layer):
                layer.forward(x)
                return method(layer, grad)
            return run

        full = self.grads_of(conv, step(numeric.Conv2d.backward))
        partial = self.grads_of(conv, step(numeric.Conv2d.backward_params))
        assert all(g.any() for g in full)
        for a, b in zip(full, partial):
            assert same_bits(a, b)

    @staticmethod
    def full_backward(model, grad):
        for layer in reversed(model.layers):
            grad = layer.backward(grad)

    def test_sequential_step(self):
        rng = np.random.default_rng(21)
        model = numeric.Sequential([
            numeric.Conv2d(1, 4, 3, padding=1, rng=rng), numeric.ReLU(),
            numeric.MaxPool2d(2), numeric.Conv2d(4, 8, 3, padding=1, rng=rng),
            numeric.ReLU(), numeric.MaxPool2d(2), numeric.Flatten(),
            numeric.Dense(8 * 5 * 3, 3, rng=rng), numeric.Softmax()])
        x = rng.normal(size=(4, 21, 13, 1)).astype(np.float32)
        t = np.eye(3)[[0, 1, 2, 1]]

        def step(backward):
            def run(m):
                _, grad = numeric.cross_entropy(m.forward(x), t)
                backward(m, grad)
            return run

        full = self.grads_of(model, step(self.full_backward))
        partial = self.grads_of(model, step(numeric.Sequential.backward))
        for a, b in zip(full, partial):
            assert same_bits(a, b)

    def test_dense_first_layer_falls_back_to_backward(self):
        rng = np.random.default_rng(22)
        model = numeric.Sequential([numeric.Dense(5, 4, rng=rng),
                                    numeric.ReLU(),
                                    numeric.Dense(4, 3, rng=rng),
                                    numeric.Softmax()])
        x = rng.normal(size=(6, 5))
        t = np.eye(3)[rng.integers(0, 3, size=6)]

        def step(backward):
            def run(m):
                _, grad = numeric.cross_entropy(m.forward(x), t)
                backward(m, grad)
            return run

        full = self.grads_of(model, step(self.full_backward))
        partial = self.grads_of(model, step(numeric.Sequential.backward))
        for a, b in zip(full, partial):
            assert same_bits(a, b)

    def test_unet_step(self):
        model = random_head(
            segmentation.UNet(depth=2, base_channels=4, seed=3), 3)
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 16, 16, 1)).astype(np.float32)
        target = (rng.random(x.shape) < 0.5).astype(float)
        labeled = rng.random(x.shape) < 0.7

        def run(m):
            _, grad = numeric.masked_bce_with_logits(m.logits(x), target,
                                                     labeled)
            m.backward_logits(grad)

        partial = self.grads_of(model, run)
        model.enc[0][0] = FullBackward(model.enc[0][0])
        full = self.grads_of(model, run)
        for a, b in zip(full, partial):
            assert same_bits(a, b)


class TestChannelLast:
    """The layout at the networks' boundaries: (N, H, W, C) in, and
    Flatten the one layer that permutes."""

    def test_flatten_is_channel_first_order(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 3, 4, 5))
        flat = numeric.Flatten()
        out = flat.forward(x)
        np.testing.assert_array_equal(
            out, x.transpose(0, 3, 1, 2).reshape(2, -1))
        np.testing.assert_array_equal(flat.backward(out), x)
        grad = rng.normal(size=out.shape)
        np.testing.assert_array_equal(flat.forward(flat.backward(grad)),
                                      grad)

    def test_flatten_needs_four_axes(self):
        with pytest.raises(ShapeError):
            numeric.Flatten().forward(np.zeros((2, 6)))

    def test_unet_rejects_channel_first(self):
        model = segmentation.UNet(depth=2, base_channels=4)
        model.logits(np.zeros((1, 16, 16, 1)))
        with pytest.raises(ShapeError, match="H, W, 1"):
            model.logits(np.zeros((1, 1, 16, 16)))


class TestActivationMemory:
    """Layers keep their inputs by reference, so a network pass holds one
    copy of each activation."""

    @pytest.mark.parametrize("network", ["unet", "audio"])
    def test_convolutions_keep_inputs_by_reference(self, network):
        rng = np.random.default_rng(25)
        if network == "unet":
            model = segmentation.UNet(depth=2, base_channels=4, seed=3)
            layers, run = list(model._blocks()), model.logits
            x = rng.normal(size=(2, 16, 16, 1)).astype(np.float32)
        else:
            model = audio.build_model((1, 32, 24), rng=rng)
            layers, run = model.layers, model.forward
            x = rng.normal(size=(2, 32, 24, 1)).astype(np.float32)
        convs = [layer for layer in layers if isinstance(
            layer, (numeric.Conv2d, numeric.UpsampleConcatConv2d))]
        assert any(isinstance(c, numeric.UpsampleConcatConv2d)
                   for c in convs) == (network == "unet")
        inputs = {}
        for conv in convs:  # record what each forward is handed
            def forward(*args, conv=conv, inner=conv.forward):
                inputs[id(conv)] = args
                return inner(*args)
            conv.forward = forward
        run(x)
        for conv in convs:
            kept = cached_arrays(conv)
            assert len(kept) == len(inputs[id(conv)])
            for a, b in zip(kept, inputs[id(conv)]):
                assert a.shape == b.shape and np.shares_memory(a, b)

    @staticmethod
    def traced(fn):
        """(bytes still allocated, peak bytes) of fn's allocations."""
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    @staticmethod
    def scan_model_and_input():
        model = segmentation.UNet(depth=3, base_channels=8, seed=3)
        x = np.random.default_rng(26).normal(size=(1, 256, 256, 1))
        return model, x.astype(np.float32)

    def test_unet_forward_retains_one_copy_of_each_activation(self):
        # one copy of each activation a full scan's pass keeps is 15.6 MB;
        # a padded copy of each conv input as well was 29.1 MB. The peak is
        # 18.0 MB with banded convolutions, 25.7 MB with whole-image panels
        model, x = self.scan_model_and_input()
        retained, peak = self.traced(lambda: model.logits(x))
        assert retained <= 17 * 2**20, f"{retained / 2**20:.1f} MB"
        assert peak <= 20 * 2**20, f"{peak / 2**20:.1f} MB"

    def test_conv_forward_holds_one_band_of_transients(self):
        # a full scan's 8 -> 8 convolution allocates its output, its padded
        # input and one band's panel and partial products, 4.4 MB traced;
        # the whole image's kernel-row panel alone was 6.3 MB (12.1 peak)
        x = np.random.default_rng(27).normal(size=(1, 256, 256, 8))
        x = x.astype(np.float32)
        conv = numeric.Conv2d(8, 8, 3, padding=1)
        _, peak = self.traced(lambda: conv.forward(x))
        padded = x.nbytes * 258 * 258 // (256 * 256)
        assert peak <= x.nbytes + padded + 2**20, f"{peak / 2**20:.2f} MB"

    def test_unet_training_step_peak(self):
        # 46.9 MB with a padded copy of each conv input kept
        model, x = self.scan_model_and_input()
        target = (x > 0).astype(np.float64)
        labeled = np.ones(x.shape, bool)

        def step():
            _, grad = numeric.masked_bce_with_logits(model.logits(x), target,
                                                     labeled)
            model.zero_grad()
            model.backward_logits(grad)
            numeric.sgd_step(model.params, model.grads, 0.01)

        _, peak = self.traced(step)
        assert peak <= 36 * 2**20, f"{peak / 2**20:.1f} MB"


def ce_loss(t):
    return lambda out: numeric.cross_entropy(out, t)


def sum_loss(out):
    return float(out.sum()), np.ones_like(out)


class TestGradcheck:
    def test_dense_softmax_ce(self):
        rng = np.random.default_rng(0)
        model = numeric.Sequential([numeric.Dense(5, 3, rng=rng),
                                    numeric.Softmax()])
        x = rng.normal(size=(4, 5))
        t = np.eye(3)[rng.integers(0, 3, size=4)]
        # Sequential.backward returns no dX; every layer's is checked below
        err = gradcheck(model, x, ce_loss(t), eps=1e-4, rng=rng,
                        check_input=False)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_each_layer(self, seed):
        rng = np.random.default_rng(seed)

        def bce(out):
            sig = 1.0 / (1.0 + np.exp(-out))
            # smooth surrogate so layer outputs feed a curved loss
            return float((sig ** 2).sum()), 2.0 * sig * sig * (1.0 - sig)

        cases = [
            (numeric.Conv2d(2, 3, 3, padding=1, rng=rng), (2, 6, 6, 2)),
            (numeric.Conv2d(1, 2, 3, padding=0, rng=rng), (1, 7, 7, 1)),
            (numeric.MaxPool2d(2), (2, 6, 6, 2)),
            (numeric.ReLU(), (2, 4, 4, 3)),
            (numeric.Sigmoid(), (2, 4, 4, 3)),
            (numeric.Dense(6, 4, rng=rng), (3, 6)),
            (numeric.Flatten(), (2, 4, 4, 3)),
            (numeric.Softmax(), (3, 5)),
            (Upsample2x(), (1, 3, 3, 2)),
        ]
        for layer, shape in cases:
            x = rng.normal(size=shape)
            err = gradcheck(layer, x, bce, eps=1e-5, rng=rng)
            assert err < 1e-4, f"{type(layer).__name__}: {err:g}"


class TestWeightsFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        tensors = [("a.w", rng.normal(size=(3, 4))),
                   ("b.bias", rng.normal(size=5)),
                   ("c", rng.normal(size=(2, 2, 3, 3)))]
        path = tmp_path / "model.kowt"
        numeric.save_weights(path, tensors)
        loaded = numeric.load_weights(path)
        assert [n for n, _ in loaded] == [n for n, _ in tensors]
        for (_, want), (_, got) in zip(tensors, loaded):
            np.testing.assert_array_equal(got, want)

    def test_magic_and_layout(self, tmp_path):
        path = tmp_path / "one.kowt"
        numeric.save_weights(path, [("w", np.array([1.5, -2.0]))])
        raw = path.read_bytes()
        assert raw[:4] == b"KOWT"
        version, count = struct.unpack_from("<II", raw, 4)
        assert (version, count) == (1, 1)
        (name_len,) = struct.unpack_from("<I", raw, 12)
        assert raw[16:16 + name_len] == b"w"
        assert raw[-16:] == struct.pack("<2d", 1.5, -2.0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.kowt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            numeric.load_weights(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.kowt"
        numeric.save_weights(path, [("w", np.ones((3, 4)))])
        raw = path.read_bytes()
        for cut in (len(raw) - 8, 14, 10):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="truncated"):
                numeric.load_weights(path)

    def test_bad_magic_names_the_file(self, tmp_path):
        path = tmp_path / "bad.kowt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(InputError, match=f"not a KOWT weights file: "
                                             f"{re.escape(str(path))}$"):
            numeric.load_weights(path)

    def test_unsupported_version_names_the_file(self, tmp_path):
        path = tmp_path / "v2.kowt"
        numeric.save_weights(path, [("w", np.ones(2))])
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(InputError, match=f"unsupported weights version 2 "
                                             f"in {re.escape(str(path))}$"):
            numeric.load_weights(path)

    def test_truncated_tensor_names_the_file(self, tmp_path):
        path = tmp_path / "short.kowt"
        numeric.save_weights(path, [("w", np.ones((3, 4)))])
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InputError, match=f"truncated weights file "
                                             f"{re.escape(str(path))}: wanted "
                                             f"96 bytes at offset 29, got 88"):
            numeric.load_weights(path)

    def test_mismatch_message_is_bounded(self, tmp_path):
        # 200 stray tensors beside a model's own: the message gives the
        # counts and the first stray, not every name
        model = [("w", np.ones((2, 3))), ("b", np.zeros(2))]
        path = tmp_path / "extra.kowt"
        numeric.save_weights(path, model + [(f"stray{i:03d}", np.zeros(1))
                                            for i in range(200)])
        with pytest.raises(InputError) as caught:
            numeric.check_tensors(path, numeric.load_weights(path),
                                  [(n, t.shape) for n, t in model])
        message = str(caught.value)
        assert "0 tensors missing, 200 unexpected (first stray000)" in message
        assert len(message) < 300, message
