"""Minimal tensor/layer toolkit with explicit forward and backward passes.

Spatial layers take and return channel-last numpy arrays, (N, H, W, C);
dense layers take (N, F). Flatten alone permutes an activation: it turns
(N, H, W, C) into features in (C, H, W) order, the order the audio CNN's
Dense weights assume. Weights keep the (O, C, k, k) layout that `.kowt`
files store. Parameters and their gradient accumulators are float64 master
copies; every layer computes in the dtype of its input (float32 for
training, float64 for gradient checks), casting its parameters to that
dtype on use (mixed-precision training, Micikevicius et al. 2018).
Every layer exposes forward(x), backward(grad), backward_params(grad) (the
parameter gradients without dX), and `params` / `grads` lists of
same-shaped arrays. No autodiff: gradients are hand-derived and
verified against central differences by the tests. Layers keep their
inputs by reference, not as copies, so a network pass holds one copy of
each activation: no caller may write to a layer's input between its
forward and its backward.

Conv2d runs one of two GEMM formulations chosen by its input channel
count alone:
- C > 1: one GEMM per kernel row over a kernel-row panel of the padded
  input (Anderson et al. 2017), not the k*k-times-larger im2col matrix.
  Forward and dX (conv_nhwc) compute B adjacent output pixels per GEMM
  row and build the panel one cache-sized band of rows at a time; dW
  (_weight_grad) reads one whole-input panel.
- C == 1: plain im2col (Chellapilla et al. 2006), one GEMM against the
  (k*k, N*oh*ow) matrix of the k*k shifted input copies; dW is one GEMM
  against the same matrix. There the panel's GEMMs have K = k and its
  copies k-element inner loops: at 16x221x50x1 (the audio CNN) im2col's
  copies and GEMM take 1.8 ms against the panel's 3.7, and at 1x256x256x1
  (the U-Net) 0.8 against 2.4. From C = 2 on the panel wins: 16x221x50x2
  4.3 against 4.6 ms, 1x256x256x8 4.2 against 12.3 ms with whole-image
  panels (forward, float32, one BLAS thread, 2-vCPU x86 host); banded,
  with B = 2, 1x256x256x8 -> 8 takes 4.3 ms against 9.1 unbanded.
Both return C-contiguous (N, oh, ow, O) arrays, and dX of both is the
kernel-row correlation. Inference runs the same layers' forward on float32
input.

UpsampleConcatConv2d is a U-Net decoder's entry: the 3x3 convolution of a
skip map concatenated with a 2x nearest-upsampled coarse map. It convolves
the upsampled half on the coarse grid as four 2x2 parity kernels
(parity_kernels), the sub-pixel view of resize-convolution (Shi et al.
2016; Odena et al. 2016).
"""

import math
import struct

import numpy as np

from .errors import DegenerateBatchError, InputError, NumericError, ShapeError
from .formats import read_exact


def init_uniform(rng: np.random.Generator, shape, fan_in: int,
                 fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Base layer: stateless unless it carries parameters."""

    params: list
    grads: list

    def __init__(self):
        self.params = []
        self.grads = []

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward_params(self, grad: np.ndarray) -> None:
        """Accumulate the parameter gradients without returning dX; a
        layer whose dX costs work of its own overrides this to skip it."""
        self.backward(grad)

    def zero_grad(self):
        for g in self.grads:
            g[...] = 0.0


def pad_nhwc(x: np.ndarray, p: int) -> np.ndarray:
    """Copy (N, H, W, C) into a fresh (N, H+2p, W+2p, C) zero-bordered
    array; at p = 0, x itself (a 1x1 conv reads its input in place)."""
    if p == 0:
        return x
    n, h, w, c = x.shape
    out = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    out[:, p:p + h, p:p + w] = x
    return out


def _kernel_rows(xp: np.ndarray, k: int):
    """Padded (N, H, W, C) -> (k GEMM operands (N, oh*ow, k*C), oh, ow).

    Operand u is kernel row u of every output window: a view of one
    kernel-row panel (N, H, ow, k*C), k input copies.
    """
    n, h, w, c = xp.shape
    oh, ow = h - k + 1, w - k + 1
    s0, s1, s2, s3 = xp.strides
    panel = np.ascontiguousarray(np.lib.stride_tricks.as_strided(
        xp, shape=(n, h, ow, k, c), strides=(s0, s1, s2, s2, s3),
        writeable=False)).reshape(n, h, ow, k * c)
    return [panel[:, u:u + oh].reshape(n, oh * ow, k * c)
            for u in range(k)], oh, ow


# At 1x256x256x8 -> 8 (float32, one BLAS thread, 2-vCPU x86 host), B*O =
# 16 GEMM columns rather than O = 8, and bands of 1024 GEMM rows per image,
# whose 164 kB panel stays in L2 (the whole image's is 6.3 MB), take
# conv_nhwc from 3.9 to 2.0 ms; 8 or 32 columns and bands of 256 to 8192
# rows were no faster there or at 16x64x64x8 -> 8.
_BLOCK_COLUMNS = 16
_BAND_ROWS = 1024


def conv_nhwc(xp: np.ndarray, wmat: np.ndarray, k: int) -> np.ndarray:
    """Padded (N, H, W, C) times a (k*k*C, O) matrix: (N, oh, ow, O).

    A GEMM row is B adjacent windows of one output row, B the largest
    divisor of ow up to _BLOCK_COLUMNS // O, against each kernel row's
    block-Toeplitz ((B+k-1)*C, B*O) weights; the k GEMMs of a band of
    output rows read its own panel. A 1x1 kernel runs as one GEMM."""
    n, h, w, c = xp.shape
    oh, ow, o = h - k + 1, w - k + 1, wmat.shape[1]
    b = max(d for d in range(1, max(1, _BLOCK_COLUMNS // o) + 1)
            if ow % d == 0) if k > 1 else 1
    m = ow // b
    band = oh if k == 1 else max(1, _BAND_ROWS // m)
    toeplitz = np.zeros((k, b + k - 1, c, b, o), np.result_type(xp, wmat))
    for j in range(b):
        toeplitz[:, j:j + k, :, j] = wmat.reshape(k, k, c, o)
    toeplitz = toeplitz.reshape(k, -1, b * o)
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, h, m, b + k - 1, c), strides=(s0, s1, b * s2, s2, s3),
        writeable=False)
    out = np.empty((n, oh, ow, o), toeplitz.dtype)
    flat = out.reshape(n, oh * m, b * o)
    for i in range(0, oh, band):
        r = min(band, oh - i)
        panel = np.ascontiguousarray(windows[:, i:i + r + k - 1]).reshape(
            n, (r + k - 1) * m, -1)
        dst = flat[:, i * m:(i + r) * m]
        np.matmul(panel[:, :r * m], toeplitz[0], out=dst)
        for u in range(1, k):
            dst += panel[:, u * m:(u + r) * m] @ toeplitz[u]
    return out


def _taps(xp: np.ndarray, k: int) -> np.ndarray:
    """Padded one-channel (N, H, W, 1) -> its (k*k, N*oh*ow) im2col
    matrix: row u*k + v is tap (u, v) of every output window, k*k input
    copies."""
    n, h, w, _ = xp.shape
    s0, s1, s2, _ = xp.strides
    return np.ascontiguousarray(np.lib.stride_tricks.as_strided(
        xp, shape=(k, k, n, h - k + 1, w - k + 1),
        strides=(s1, s2, s0, s1, s2), writeable=False)).reshape(k * k, -1)


def _add_bias(out: np.ndarray, bias: np.ndarray) -> None:
    """out (N, oh, ow, O), C-contiguous, += bias over rows of ow*O
    elements; numpy's broadcast over the O-element last axis runs 3-4x
    slower at O = 4..8."""
    rows = out.reshape(-1, out.shape[2] * out.shape[3])
    rows += np.tile(bias, out.shape[2])


def conv_matrix(weight: np.ndarray) -> np.ndarray:
    """(O, C, k, k) kernel as the (k*k*C, O) operand of conv_nhwc."""
    return weight.transpose(2, 3, 1, 0).reshape(-1, weight.shape[0])


class Conv2d(Layer):
    """2-D stride-1 convolution (cross-correlation), square kernel, zero
    padding.

    forward takes (N, H, W, in_channels) and returns (N, oh, ow,
    out_channels). A one-channel input runs im2col (_taps), any other the
    kernel-row panel (conv_nhwc); see the module docstring. forward keeps
    its input by reference; backward pads it again and rebuilds the panel
    or the taps, as keeping them would hold k or k*k input copies.
    backward_params computes dW and d_bias alone, for a network's first
    layer, whose dX no step reads.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 padding: int = 0,
                 rng: np.random.Generator | None = None,
                 zero_init: bool = False):
        super().__init__()
        if not 0 <= padding < kernel_size:
            raise ShapeError(f"padding {padding} outside [0, {kernel_size})")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.k = kernel_size
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        fan_out = out_channels * kernel_size * kernel_size
        if zero_init:
            self.weight = np.zeros((out_channels, in_channels, kernel_size,
                                    kernel_size))
        else:
            rng = rng or np.random.default_rng(0)
            self.weight = init_uniform(
                rng, (out_channels, in_channels, kernel_size, kernel_size),
                fan_in, fan_out)
        self.bias = np.zeros(out_channels)
        self.d_weight = np.zeros_like(self.weight)
        self.d_bias = np.zeros_like(self.bias)
        self.params = [self.weight, self.bias]
        self.grads = [self.d_weight, self.d_bias]
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(
                f"conv2d expected (N,H,W,{self.in_channels}), got {x.shape}")
        self._x = x
        xp = pad_nhwc(x, self.padding)
        wmat = conv_matrix(self.weight).astype(x.dtype)
        if self.in_channels == 1:
            n, h, w, _ = xp.shape
            out = (_taps(xp, self.k).T @ wmat).reshape(
                n, h - self.k + 1, w - self.k + 1, -1)
        else:
            out = conv_nhwc(xp, wmat, self.k)
        _add_bias(out, self.bias.astype(x.dtype))
        return out

    def backward_params(self, grad: np.ndarray) -> None:
        n, oh, ow, o = grad.shape
        g = grad.reshape(n, oh * ow, o)
        xp = pad_nhwc(self._x, self.padding)
        if self.in_channels == 1:
            dw = _taps(xp, self.k) @ g.reshape(-1, g.shape[2])
            dw = dw.reshape(self.k, self.k, 1, -1)
        else:
            dw = _weight_grad(xp, g, self.k)
        self.d_weight += dw.transpose(3, 2, 0, 1)
        self.d_bias += _bias_grad(g)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.backward_params(grad)
        return _input_grad(grad, self.weight.astype(grad.dtype), self.padding)


def _weight_grad(xp: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """dW of conv_nhwc as (k, k, C, O), from its padded input and its
    channel-last gradient (N, oh*ow, O)."""
    # per kernel row from a temporary panel, freed before dX needs its
    # own; stacked GEMMs, as the rows do not flatten without a copy
    dw = np.stack([(rows.transpose(0, 2, 1) @ g).sum(axis=0)
                   for rows in _kernel_rows(xp, k)[0]])
    return dw.reshape(k, k, xp.shape[3], g.shape[2])


def _bias_grad(g: np.ndarray) -> np.ndarray:
    """d_bias from a channel-last gradient (..., O): its sum over every
    other axis, as a GEMV with a ones vector; numpy's column-sum reduction
    of the same array is about 20x slower at U-Net shapes."""
    g = g.reshape(-1, g.shape[-1])
    return np.ones(g.shape[0], dtype=g.dtype) @ g


def _input_grad(g: np.ndarray, weight: np.ndarray, p: int) -> np.ndarray:
    """dX (N, H, W, C) of a convolution with (O, C, k, k) kernels
    and padding p: the gradient (N, oh, ow, O), padded so that the output
    is exactly H x W, correlated with the spatially flipped kernels."""
    k = weight.shape[2]
    wflip = weight[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)
    return conv_nhwc(pad_nhwc(g, k - 1 - p),
                     wflip.reshape(-1, weight.shape[1]), k)


# A 3x3 kernel over a 2x nearest-neighbour upsampled image, folded onto the
# coarse grid: for output-pixel parity a, fine-grid kernel row u reads
# coarse row r of the window where _UPSAMPLE_TAPS[a, r, u] is 1, because
# adjacent fine pixels share a coarse source pixel; columns likewise.
_UPSAMPLE_TAPS = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
                           [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
# the fold as one (a, b, r, s) x (u, v) matrix
_PARITY_FOLD = np.einsum("aru,bsv->abrsuv", _UPSAMPLE_TAPS,
                         _UPSAMPLE_TAPS).reshape(16, 9)


def parity_kernels(weight: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) kernels over a 2x nearest-upsampled input as the
    (2, 2, 2, 2, C, O) coarse-grid kernels [a, b, r, s, c, o]: [a, b] is
    the 2x2 conv_nhwc operand of output parity (a, b)."""
    o, c = weight.shape[:2]
    folded = _PARITY_FOLD @ weight.reshape(o * c, 9).T
    return np.ascontiguousarray(
        folded.reshape(2, 2, 2, 2, o, c).transpose(0, 1, 2, 3, 5, 4))


def upsampled_conv_nhwc(zp: np.ndarray, kernels: np.ndarray,
                        out: np.ndarray) -> None:
    """Add to out (N, 2h, 2w, O) the 3x3 same convolution of the 2x
    nearest-upsampled (N, h, w, C) input, given padded by one as zp: per
    output parity, a 2x2 convolution of zp on the coarse grid, with the
    parity_kernels, 4/9 of the multiply-adds and no upsampled copy."""
    h, w = zp.shape[1] - 2, zp.shape[2] - 2
    for a in (0, 1):
        for b in (0, 1):
            out[:, a::2, b::2] += conv_nhwc(
                zp[:, a:a + h + 1, b:b + w + 1],
                kernels[a, b].reshape(-1, out.shape[3]), 2)


class UpsampleConcatConv2d(Layer):
    """A U-Net decoder's entry: the 3x3 same convolution of the skip map
    and the 2x nearest-upsampled coarse map, concatenated over channels,
    with neither the upsampled map nor the concatenation copied.

    It owns that Conv2d's (O, C_skip + C_up, 3, 3) weight and its bias.
    The skip half is an ordinary 3x3 convolution; the upsampled half runs
    on the coarse grid (upsampled_conv_nhwc). The fold is linear, so that
    half's dW is the parity kernels' dW folded back through the same taps,
    and d_coarse is the sum of the four transposed parity convolutions.
    forward(skip (N, 2h, 2w, C_skip), coarse (N, h, w, C_up)) returns the
    (N, 2h, 2w, O) output; backward(grad) returns (d_skip, d_coarse). It
    keeps skip and coarse by reference and pads both again in backward.
    """

    def __init__(self, skip_channels: int, up_channels: int,
                 out_channels: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.skip_channels = skip_channels
        self.up_channels = up_channels
        self.out_channels = out_channels
        conv = Conv2d(skip_channels + up_channels, out_channels, 3,
                      padding=1, rng=rng)
        self.params, self.grads = conv.params, conv.grads
        self.weight, self.bias = conv.params
        self.d_weight, self.d_bias = conv.grads
        self._skip = self._coarse = None

    def forward(self, skip: np.ndarray, coarse: np.ndarray) -> np.ndarray:
        cs, cu = self.skip_channels, self.up_channels
        if skip.ndim != 4 or skip.shape[3] != cs:
            raise ShapeError(f"decoder entry expected skip (N,2h,2w,{cs}), "
                             f"got {skip.shape}")
        n, h, w, _ = skip.shape
        if h % 2 or w % 2 or coarse.shape != (n, h // 2, w // 2, cu):
            raise ShapeError(f"decoder entry expected coarse (N,h,w,{cu}) "
                             f"for skip {skip.shape}, got {coarse.shape}")
        self._skip, self._coarse = skip, coarse
        out = conv_nhwc(pad_nhwc(skip, 1),
                        conv_matrix(self.weight[:, :cs]).astype(skip.dtype),
                        3)
        _add_bias(out, self.bias.astype(skip.dtype))
        upsampled_conv_nhwc(pad_nhwc(coarse, 1), parity_kernels(
            self.weight[:, cs:]).astype(skip.dtype), out)
        return out

    def backward(self, grad: np.ndarray):
        cs = self.skip_channels
        n, h, w, o = grad.shape
        ch, cw = h // 2, w // 2
        self.d_bias += _bias_grad(grad)
        self.d_weight[:, :cs] += _weight_grad(
            pad_nhwc(self._skip, 1), grad.reshape(n, h * w, o),
            3).transpose(3, 2, 0, 1)
        kernels = parity_kernels(self.weight[:, cs:]).astype(grad.dtype)
        dk = np.empty(kernels.shape, dtype=grad.dtype)
        zp = pad_nhwc(self._coarse, 1)
        dzp = np.zeros(zp.shape, dtype=grad.dtype)
        for a in (0, 1):
            for b in (0, 1):
                gab = grad[:, a::2, b::2]
                window = zp[:, a:a + ch + 1, b:b + cw + 1]
                dk[a, b] = _weight_grad(window, gab.reshape(n, ch * cw, o), 2)
                dzp[:, a:a + ch + 1, b:b + cw + 1] += _input_grad(
                    gab, kernels[a, b].transpose(3, 2, 0, 1), 0)
        self.d_weight[:, cs:] += (dk.reshape(16, -1).T @ _PARITY_FOLD).reshape(
            self.up_channels, o, 3, 3).transpose(1, 0, 2, 3)
        d_skip = _input_grad(grad, self.weight[:, :cs].astype(grad.dtype), 1)
        return d_skip, dzp[:, 1:-1, 1:-1]


class MaxPool2d(Layer):
    """Max pooling of (N, H, W, C) over H and W with kernel == stride;
    trailing rows/cols are dropped.

    Copies each of the k*k strided tap views x[:, u::k, v::k] once, so
    that every later pass runs over dense memory rather than C-element
    runs. The winning tap is the one argmax would pick: the first maximum
    in row-major (u, v) order, or the first NaN. Values move through
    integer bit masks rather than data-dependent selects, so the output
    and dX keep every bit of the chosen values (a signed zero keeps its
    sign).
    """

    def __init__(self, kernel_size: int = 2):
        super().__init__()
        self.k = kernel_size
        self._cache = None

    def _taps(self, x: np.ndarray):
        k = self.k
        oh, ow = x.shape[1] // k, x.shape[2] // k
        return [x[:, u:oh * k:k, v:ow * k:k]
                for u in range(k) for v in range(k)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.k
        if x.ndim != 4 or x.shape[1] // k < 1 or x.shape[2] // k < 1:
            raise ShapeError(f"input {x.shape} is not (N, H, W, C) with H "
                             f"and W at least the pool size {k}")
        taps = [tap.copy() for tap in self._taps(x)]
        last = len(taps) - 1
        out = taps[last]
        bits = out.view(f"i{out.itemsize}")
        idx = np.full_like(out, last, dtype=np.min_scalar_type(last))
        # last tap to first, so that an earlier tap takes ties
        for i in range(last - 1, -1, -1):
            wins = (taps[i] >= out) | np.isnan(taps[i])
            idx -= wins * (idx - i)
            diff = taps[i].view(bits.dtype)  # the copy is ours to overwrite
            diff ^= bits
            diff *= wins
            bits ^= diff
        self._cache = (x.shape, idx)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        shape, idx = self._cache
        dx = np.zeros(shape, dtype=grad.dtype)
        g = grad.view(f"i{grad.itemsize}")
        for i, tap in enumerate(self._taps(dx)):
            tap.view(g.dtype)[...] = g & -(idx == i).astype(g.dtype)
        return dx


class ReLU(Layer):
    """max(x, 0) of an array of any shape, (N, H, W, C) in the networks, in
    one pass; backward passes the gradient where the output is positive,
    i.e. where x > 0 (not at a NaN), and +0 elsewhere whatever the
    gradient's sign, as MaxPool2d.backward writes a tap it does not route
    to."""

    def __init__(self):
        super().__init__()
        self._y = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.maximum(x, 0)
        return self._y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        dx = grad * (self._y > 0)
        dx += 0.0  # -0.0 + 0.0 is +0.0; every other value stays
        return dx


class Sigmoid(Layer):
    """Logistic function of an array of any shape, (N, H, W, 1) in the
    U-Net, from exp(-|x|), which cannot overflow."""

    def __init__(self):
        super().__init__()
        self._y = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        e = np.exp(-np.abs(x))
        y = np.where(x >= 0, 1.0, e) / (1.0 + e)
        self._y = y
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._y * (1.0 - self._y)


class Dense(Layer):
    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = init_uniform(rng, (in_features, out_features),
                                   in_features, out_features)
        self.bias = np.zeros(out_features)
        self.d_weight = np.zeros_like(self.weight)
        self.d_bias = np.zeros_like(self.bias)
        self.params = [self.weight, self.bias]
        self.grads = [self.d_weight, self.d_bias]
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"dense expected (N,{self.in_features}), got {x.shape}")
        self._x = x
        return x @ self.weight.astype(x.dtype) + self.bias.astype(x.dtype)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.d_weight += self._x.T @ grad
        self.d_bias += grad.sum(axis=0)
        return grad @ self.weight.T.astype(grad.dtype)


class Flatten(Layer):
    """(N, H, W, C) -> (N, C*H*W) features in (C, H, W) order, the order
    the audio CNN's Dense weights (and so its `.kowt` files) assume: the
    one layer that permutes an activation."""

    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"flatten expected (N,H,W,C), got {x.shape}")
        self._shape = x.shape
        return x.transpose(0, 3, 1, 2).reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, h, w, c = self._shape
        return grad.reshape(n, c, h, w).transpose(0, 2, 3, 1)


class Softmax(Layer):
    """Row-wise softmax on (N, K)."""

    def __init__(self):
        super().__init__()
        self._p = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        z = x - x.max(axis=1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=1, keepdims=True)
        self._p = p
        return p

    def backward(self, grad: np.ndarray) -> np.ndarray:
        p = self._p
        return p * (grad - (grad * p).sum(axis=1, keepdims=True))


class Sequential(Layer):
    def __init__(self, layers: list):
        self.layers = layers  # no Layer.__init__: params are the layers'

    @property
    def params(self):
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self):
        return [g for layer in self.layers for g in layer.grads]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> None:
        """Accumulate every layer's parameter gradients. The first layer's
        dX, which no training step reads, is not computed."""
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        first.backward_params(grad)

    def zero_grad(self):
        for layer in self.layers:
            layer.zero_grad()


EPS_PROB = 1e-12


def cross_entropy(pred_probs: np.ndarray, one_hot: np.ndarray):
    """Mean NLL over rows. Returns (loss, grad wrt pred_probs).

    Like every loss here, the gradient comes back in the prediction's dtype.
    """
    if pred_probs.shape != one_hot.shape:
        raise ShapeError("probability/target shape mismatch")
    n = pred_probs.shape[0]
    if n == 0:
        raise DegenerateBatchError("empty batch")
    p = np.clip(pred_probs, EPS_PROB, None)
    loss = -(one_hot * np.log(p)).sum() / n
    grad = -(one_hot / p) / n
    return loss, grad.astype(pred_probs.dtype, copy=False)


def masked_bce_with_logits(logits: np.ndarray, target: np.ndarray,
                           mask: np.ndarray):
    """BCE of sigmoid(logits), fused, over mask==True elements.

    The loss softplus(z) - t*z is evaluated as max(z, 0) - z*t +
    log1p(exp(-|z|)) and accumulated in float64, so a saturated logit stays
    finite in any dtype. The gradient is (sigmoid(z) - t) / n on labelled
    elements, exactly 0 elsewhere, in the logits' dtype. Target values at
    masked-out elements are never read.
    """
    if logits.shape != target.shape or logits.shape != mask.shape:
        raise ShapeError("logit/target/mask shape mismatch")
    n = int(mask.sum())
    if n == 0:
        raise DegenerateBatchError("no labeled elements contribute to the loss")
    z = logits.astype(np.float64)
    t = np.where(mask, target, 0.0)
    e = np.exp(-np.abs(z))
    per = np.maximum(z, 0.0) - z * t + np.log1p(e)
    loss = float(per[mask].sum() / n)
    p = np.where(z >= 0.0, 1.0, e) / (1.0 + e)
    grad = np.where(mask, (p - t) / n, 0.0)
    return loss, grad.astype(logits.dtype, copy=False)


def sgd_step(params: list, grads: list, lr: float):
    """In-place w <- w - lr * g."""
    for w, g in zip(params, grads):
        if w.shape != g.shape:
            raise ShapeError("parameter/gradient shape mismatch")
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient")
        w -= lr * g


WEIGHTS_MAGIC = b"KOWT"
WEIGHTS_VERSION = 1


def named_params(layers) -> list[tuple[str, np.ndarray]]:
    """`.kowt` tensor names: parameter j of the i-th layer is layer{i}.p{j}."""
    return [(f"layer{i}.p{j}", p) for i, layer in enumerate(layers)
            for j, p in enumerate(layer.params)]


def save_weights(path, named_tensors: list[tuple[str, np.ndarray]]):
    """Binary weights file: magic, version, count, then per-tensor records."""
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<II", WEIGHTS_VERSION, len(named_tensors)))
        for name, tensor in named_tensors:
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", tensor.ndim))
            f.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            f.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_weights(path) -> list[tuple[str, np.ndarray]]:
    """The (name, float64 tensor) records of a weights file; InputError,
    naming the file, if it is not one or its records do not fill it."""
    with open(path, "rb") as f:
        def read(n: int) -> bytes:
            return read_exact(f, n, f"weights file {path}")

        if f.read(4) != WEIGHTS_MAGIC:
            raise InputError(f"not a KOWT weights file: {path}")
        version, count = struct.unpack("<II", read(8))
        if version != WEIGHTS_VERSION:
            raise InputError(f"unsupported weights version {version} in "
                             f"{path}")
        out = []
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read(4))
            name = read(name_len).decode("utf-8")
            (rank,) = struct.unpack("<I", read(4))
            shape = struct.unpack(f"<{rank}I", read(4 * rank))
            data = np.frombuffer(read(8 * math.prod(shape)),
                                 dtype="<f8").reshape(shape)
            out.append((name, data.astype(np.float64)))
        if f.read(1):
            raise InputError(f"overlong weights file {path}: bytes follow "
                             f"its {count} tensors")
        return out


def check_tensors(path, tensors: list, expected: list):
    """InputError unless tensors, the load_weights list of the file at
    path, hold exactly the (name, shape) pairs of expected: the message
    counts the missing and unexpected tensors and names the first of each.
    Loaders run it before building a layer, so that no layout they work
    out makes them allocate more than the weights file holds."""
    shapes, want = {name: t.shape for name, t in tensors}, dict(expected)
    missing = [name for name in want if name not in shapes]
    extra = [name for name in shapes if name not in want]
    if missing or extra:
        first = [f" (first {names[0]})" if names else ""
                 for names in (missing, extra)]
        raise InputError(f"weights file {path} does not match the model: "
                         f"{len(missing)} tensors missing{first[0]}, "
                         f"{len(extra)} unexpected{first[1]}")
    for name, shape in want.items():
        if shapes[name] != shape:
            raise InputError(f"tensor {name} of {path}: file shape "
                             f"{shapes[name]}, model shape {shape}")


def load_params(path, tensors: list, named_params: list):
    """Fill named parameters in place from tensors, the load_weights list
    of the file at path, which must hold exactly their names and shapes."""
    check_tensors(path, tensors, [(name, p.shape) for name, p in named_params])
    loaded = dict(tensors)
    for name, p in named_params:
        p[...] = loaded[name]
