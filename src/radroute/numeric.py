"""Minimal tensor/layer toolkit with explicit forward and backward passes.

Layers operate on numpy arrays shaped (N, C, H, W) for spatial ops and
(N, F) for dense ops. Parameters and their gradient accumulators are
float64 master copies; every layer computes in the dtype of its input
(float32 for training, float64 for gradcheck), casting its parameters to
that dtype on use (mixed-precision training, Micikevicius et al. 2018).
Every layer exposes forward(x), backward(grad), backward_params(grad) (the
parameter gradients without dX), and `params` / `grads` lists of
same-shaped arrays. No autodiff: gradients are hand-derived and
verified against central differences (see gradcheck).

Conv2d keeps the (N, C, H, W) interface but computes channel-last, in one
of two GEMM formulations chosen by its input channel count alone:
- C > 1: k GEMMs over row views of one kernel-row panel of a padded
  (N, H, W, C) array (Anderson et al. 2017), not the k*k-times-larger
  im2col matrix; forward, dW and dX share it.
- C == 1: plain im2col (Chellapilla et al. 2006), one GEMM against the
  (k*k, N*oh*ow) matrix of the k*k shifted input copies; dW is one GEMM
  against the same matrix. There the panel's GEMMs have K = k and its
  copies k-element inner loops: at 16x1x221x50 (the audio CNN) im2col's
  copies and GEMM take 1.8 ms against the panel's 3.7, and at 1x1x256x256
  (the U-Net) 0.8 against 2.4. From C = 2 on the panel wins: 16x2x221x50
  4.3 against 4.6 ms, 1x8x256x256 4.2 against 12.3 ms (forward, float32,
  one BLAS thread, 2-vCPU x86 host).
Both return transpose views of channel-last memory, and dX of both is the
kernel-row correlation. Inference runs the same layers' forward on float32
input.

UpsampleConcatConv2d is a U-Net decoder's entry: the 3x3 convolution of a
skip map concatenated with a 2x nearest-upsampled coarse map. It convolves
the upsampled half on the coarse grid as four 2x2 parity kernels
(parity_kernels), the sub-pixel view of resize-convolution (Shi et al.
2016; Odena et al. 2016). Upsample2x with Conv2d stays as its oracle.
"""

import math
import struct

import numpy as np

from .errors import DegenerateBatchError, NumericError, ShapeError
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


def conv_nhwc(xp: np.ndarray, wmat: np.ndarray, k: int) -> np.ndarray:
    """Padded (N, H, W, C) times a (k*k*C, O) matrix: (N, oh, ow, O),
    summed over kernel rows of one stacked GEMM each."""
    rows, oh, ow = _kernel_rows(xp, k)
    wrows = wmat.reshape(k, -1, wmat.shape[1])
    out = rows[0] @ wrows[0]
    for u in range(1, k):
        out += rows[u] @ wrows[u]
    return out.reshape(xp.shape[0], oh, ow, -1)


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

    A one-channel input runs im2col (_taps), any other the kernel-row
    panel (conv_nhwc); see the module docstring. forward keeps only the
    padded NHWC input on both paths; backward rebuilds the panel or the
    taps from it, since keeping them would hold k or k*k input copies.
    backward_params computes dW and d_bias alone, for a network's first
    layer, whose dX no step reads. The output is a transpose view of NHWC
    memory on both paths, which ReLU and MaxPool2d preserve.
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
        self._xp = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv2d expected (N,{self.in_channels},H,W), got {x.shape}")
        self._xp = pad_nhwc(x.transpose(0, 2, 3, 1), self.padding)
        wmat = conv_matrix(self.weight).astype(x.dtype)
        if self.in_channels == 1:
            n, h, w, _ = self._xp.shape
            out = (_taps(self._xp, self.k).T @ wmat).reshape(
                n, h - self.k + 1, w - self.k + 1, -1)
        else:
            out = conv_nhwc(self._xp, wmat, self.k)
        _add_bias(out, self.bias.astype(x.dtype))
        return out.transpose(0, 3, 1, 2)

    def _accumulate(self, grad: np.ndarray) -> np.ndarray:
        """Add dW and d_bias; returns grad channel-last, (N, oh*ow, O)."""
        n, _, oh, ow = grad.shape
        g = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(
            n, oh * ow, self.out_channels)
        if self.in_channels == 1:
            dw = _taps(self._xp, self.k) @ g.reshape(-1, g.shape[2])
            dw = dw.reshape(self.k, self.k, 1, -1)
        else:
            dw = _weight_grad(self._xp, g, self.k)
        self.d_weight += dw.transpose(3, 2, 0, 1)
        self.d_bias += _bias_grad(g)
        return g

    def backward_params(self, grad: np.ndarray) -> None:
        self._accumulate(grad)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, _, oh, ow = grad.shape
        g = self._accumulate(grad)
        dx = _input_grad(g.reshape(n, oh, ow, -1),
                         self.weight.astype(grad.dtype), self.padding)
        return dx.transpose(0, 3, 1, 2)


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
    """A U-Net decoder's entry: the 3x3 same convolution of
    concat(skip, Upsample2x(coarse)) over channels, with neither copy.

    It owns that Conv2d's (O, C_skip + C_up, 3, 3) weight and its bias.
    The skip half is an ordinary 3x3 convolution; the upsampled half runs
    on the coarse grid (upsampled_conv_nhwc). The fold is linear, so that
    half's dW is the parity kernels' dW folded back through the same taps,
    and d_coarse is the sum of the four transposed parity convolutions.
    forward(skip, coarse) returns the output; backward(grad) returns
    (d_skip, d_coarse). Outputs are transpose views of NHWC memory.
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
        if skip.ndim != 4 or skip.shape[1] != cs:
            raise ShapeError(f"decoder entry expected skip (N,{cs},2h,2w), "
                             f"got {skip.shape}")
        n, _, h, w = skip.shape
        if h % 2 or w % 2 or coarse.shape != (n, cu, h // 2, w // 2):
            raise ShapeError(f"decoder entry expected coarse (N,{cu},h,w) "
                             f"for skip {skip.shape}, got {coarse.shape}")
        self._skip = pad_nhwc(skip.transpose(0, 2, 3, 1), 1)
        self._coarse = pad_nhwc(coarse.transpose(0, 2, 3, 1), 1)
        out = conv_nhwc(self._skip,
                        conv_matrix(self.weight[:, :cs]).astype(skip.dtype),
                        3)
        _add_bias(out, self.bias.astype(skip.dtype))
        upsampled_conv_nhwc(self._coarse, parity_kernels(
            self.weight[:, cs:]).astype(skip.dtype), out)
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray):
        cs, o = self.skip_channels, self.out_channels
        n, _, h, w = grad.shape
        ch, cw = h // 2, w // 2
        g = np.ascontiguousarray(grad.transpose(0, 2, 3, 1))
        self.d_bias += _bias_grad(g)
        self.d_weight[:, :cs] += _weight_grad(
            self._skip, g.reshape(n, h * w, o), 3).transpose(3, 2, 0, 1)
        kernels = parity_kernels(self.weight[:, cs:]).astype(grad.dtype)
        dk = np.empty(kernels.shape, dtype=grad.dtype)
        dzp = np.zeros(self._coarse.shape, dtype=grad.dtype)
        for a in (0, 1):
            for b in (0, 1):
                gab = np.ascontiguousarray(g[:, a::2, b::2])
                window = self._coarse[:, a:a + ch + 1, b:b + cw + 1]
                dk[a, b] = _weight_grad(window, gab.reshape(n, ch * cw, o), 2)
                dzp[:, a:a + ch + 1, b:b + cw + 1] += _input_grad(
                    gab, kernels[a, b].transpose(3, 2, 0, 1), 0)
        self.d_weight[:, cs:] += (dk.reshape(16, -1).T @ _PARITY_FOLD).reshape(
            self.up_channels, o, 3, 3).transpose(1, 0, 2, 3)
        d_skip = _input_grad(g, self.weight[:, :cs].astype(grad.dtype), 1)
        return (d_skip.transpose(0, 3, 1, 2),
                dzp[:, 1:-1, 1:-1].transpose(0, 3, 1, 2))


class MaxPool2d(Layer):
    """Max pooling with kernel == stride; trailing rows/cols are dropped.

    Copies each of the k*k strided tap views x[:, :, u::k, v::k] once, in
    the input's memory order, so that every later pass runs over dense
    memory rather than C-element runs of channel-last input. The winning
    tap is the one argmax would pick: the first maximum in row-major (u, v)
    order, or the first NaN. Values move through integer bit masks rather
    than data-dependent selects, so the output and dX keep every bit of the
    chosen values (a signed zero keeps its sign).
    """

    def __init__(self, kernel_size: int = 2):
        super().__init__()
        self.k = kernel_size
        self._cache = None

    def _taps(self, x: np.ndarray):
        k = self.k
        oh, ow = x.shape[2] // k, x.shape[3] // k
        return [x[:, :, u:oh * k:k, v:ow * k:k]
                for u in range(k) for v in range(k)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.k
        if x.shape[2] // k < 1 or x.shape[3] // k < 1:
            raise ShapeError(f"input {x.shape} too small for pool k={k}")
        taps = [tap.copy(order="K") for tap in self._taps(x)]
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
        (n, c, h, w), idx = self._cache
        dx = np.zeros((n, h, w, c), dtype=grad.dtype).transpose(0, 3, 1, 2)
        g = grad.view(f"i{grad.itemsize}")
        for i, tap in enumerate(self._taps(dx)):
            tap.view(g.dtype)[...] = g & -(idx == i).astype(g.dtype)
        return dx


class ReLU(Layer):
    """max(x, 0) in one pass; backward passes the gradient where the
    output is positive, i.e. where x > 0 (not at a NaN), and +0 elsewhere
    whatever the gradient's sign, as MaxPool2d.backward writes a tap it
    does not route to."""

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
    """Logistic function from exp(-|x|), which cannot overflow."""

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
    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


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


class Upsample2x(Layer):
    """Nearest-neighbour 2x spatial upsampling."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.repeat(2, axis=2).repeat(2, axis=3)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        n, c, h, w = grad.shape
        return grad.reshape(n, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))


class Sequential(Layer):
    def __init__(self, layers: list):
        super().__init__()
        self.layers = layers

    @property
    def params(self):
        return [p for layer in self.layers for p in layer.params]

    @params.setter
    def params(self, value):  # base-class __init__ assigns []
        pass

    @property
    def grads(self):
        return [g for layer in self.layers for g in layer.grads]

    @grads.setter
    def grads(self, value):
        pass

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray, input_grad: bool = True):
        """dX of the input, or None with input_grad=False, which leaves
        out the first layer's dX (a training step reads none)."""
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        if input_grad:
            return first.backward(grad)
        first.backward_params(grad)
        return None

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


def _read_exact(f, n: int) -> bytes:
    return read_exact(f, n, "weights file")


def load_weights(path) -> list[tuple[str, np.ndarray]]:
    with open(path, "rb") as f:
        if f.read(4) != WEIGHTS_MAGIC:
            raise ValueError("not a KOWT weights file")
        version, count = struct.unpack("<II", _read_exact(f, 8))
        if version != WEIGHTS_VERSION:
            raise ValueError(f"unsupported weights version {version}")
        out = []
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4))
            name = _read_exact(f, name_len).decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(f, 4))
            shape = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank))
            data = np.frombuffer(_read_exact(f, 8 * math.prod(shape)),
                                 dtype="<f8").reshape(shape)
            out.append((name, data.astype(np.float64)))
        if f.read(1):
            raise ValueError(f"overlong weights file {path}: bytes follow "
                             f"its {count} tensors")
        return out


def load_params(path, named_params: list[tuple[str, np.ndarray]]):
    """Fill named parameters in place from a weights file.

    Names and shapes must match exactly; ShapeError names the tensor.
    """
    loaded = dict(load_weights(path))
    missing = sorted({name for name, _ in named_params} - set(loaded))
    extra = sorted(set(loaded) - {name for name, _ in named_params})
    if missing or extra:
        raise ShapeError(f"weights file {path} does not match the model: "
                         f"missing {missing}, unexpected {extra}")
    for name, p in named_params:
        if loaded[name].shape != p.shape:
            raise ShapeError(f"tensor {name}: file shape "
                             f"{loaded[name].shape}, model shape {p.shape}")
        p[...] = loaded[name]
