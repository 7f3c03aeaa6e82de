"""2D convolution, channel normalization, residual blocks, and the map encoder.

Subgradient convention: every ReLU backward multiplies by its forward
`> 0` mask, so ReLU'(0) = 0, as `matching.loss_gradient` takes
sign(0) = 0 for the absolute value. At an exact kink the gradient is 0,
neither one-sided derivative, so central differences across a kink do
not check it.
"""

from __future__ import annotations

import numpy as np

from .core import Module, Param, uniform_init
from .layers import Linear


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    B, C, H, W = x.shape
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1
    xp = x
    if pad:
        xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=x.dtype)
        xp[:, :, pad:pad + H, pad:pad + W] = x
    # Every k x k window as a read-only view; reshape copies it in one pass.
    sB, sC, sH, sW = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (B, C, k, k, Ho, Wo), (sB, sC, sH, sW, stride * sH, stride * sW),
        writeable=False)
    return windows.reshape(B, C * k * k, Ho * Wo), (Ho, Wo)


def _col2im(cols: np.ndarray, x_shape, k: int, stride: int, pad: int):
    B, C, H, W = x_shape
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1
    cols = cols.reshape(B, C, k, k, Ho, Wo)
    xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=cols.dtype)
    for a in range(k):
        for b in range(k):
            xp[:, :, a:a + stride * Ho:stride, b:b + stride * Wo:stride] += cols[:, :, a, b]
    return xp[:, :, pad:pad + H, pad:pad + W]


class Conv2d(Module):
    """2D cross-correlation: im2col, then one BLAS GEMM per contraction.

    Forward keeps its input, not its columns, which are k*k times larger;
    backward rebuilds the same columns from it.
    """

    def __init__(self, in_ch: int, out_ch: int, kernel: int = 3, stride: int = 1,
                 pad: int | None = None, *, rng: np.random.Generator):
        fan_in = in_ch * kernel * kernel
        self.weight = Param(uniform_init(rng, (out_ch, in_ch, kernel, kernel), fan_in))
        self.bias = Param(np.zeros(out_ch))
        self.kernel = kernel
        self.stride = stride
        self.pad = kernel // 2 if pad is None else pad

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.weight.value.dtype)
        cols, (Ho, Wo) = _im2col(x, self.kernel, self.stride, self.pad)
        w = self.weight.value.reshape(self.weight.value.shape[0], -1)
        y = w @ cols + self.bias.value[:, None]
        self._cache = x
        return y.reshape(x.shape[0], -1, Ho, Wo)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._take_cache()
        cols, _ = _im2col(x, self.kernel, self.stride, self.pad)
        B = grad_out.shape[0]
        go = grad_out.reshape(B, grad_out.shape[1], -1)
        w = self.weight.value.reshape(self.weight.value.shape[0], -1)
        self.weight.grad += (go @ cols.transpose(0, 2, 1)).sum(0).reshape(self.weight.value.shape)
        del cols    # freed before the input gradient's columns, which are as large
        self.bias.grad += go.sum(axis=(0, 2))
        gcols = w.T @ go
        return _col2im(gcols, x.shape, self.kernel, self.stride, self.pad)


class ChannelNorm(Module):
    """Per-channel affine normalization with running statistics.

    Normalization always uses the running mean/variance as constants; in
    training mode the statistics are refreshed from the batch after the
    output is computed. This keeps the backward pass exactly affine.
    """

    buffer_names = ("running_mean", "running_var")

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Param(np.ones(channels))
        self.beta = Param(np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.gamma.value.dtype)
        scale = 1.0 / np.sqrt(self.running_var + self.eps)
        xhat = (x - self.running_mean[:, None, None]) * scale[:, None, None]
        self._cache = (xhat, scale)
        y = self.gamma.value[:, None, None] * xhat + self.beta.value[:, None, None]
        if self.training:
            # The calls that x.mean and x.var over (0, 2, 3) make, so the same
            # bits, but with the batch mean reduced once, not twice
            n = np.intp(x.size // x.shape[1])
            m = np.add.reduce(x, axis=(0, 2, 3), keepdims=True)
            np.true_divide(m, n, out=m, casting="unsafe")
            d = np.subtract(x, m)
            np.square(d, out=d)
            v = np.add.reduce(d, axis=(0, 2, 3))
            np.true_divide(v, n, out=v, casting="unsafe")
            m = m.reshape(-1)
            self.running_mean += self.momentum * (m - self.running_mean)
            self.running_var += self.momentum * (v - self.running_var)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, scale = self._take_cache()
        self.gamma.grad += (grad_out * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        return grad_out * (self.gamma.value * scale)[:, None, None]


class ResBlock(Module):
    """Basic residual block: two 3x3 convs with channel norm, ReLU output."""

    def __init__(self, in_ch: int, out_ch: int, stride: int = 1, *,
                 rng: np.random.Generator):
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride=stride, rng=rng)
        self.norm1 = ChannelNorm(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, rng=rng)
        self.norm2 = ChannelNorm(out_ch)
        self.proj = None
        self.proj_norm = None
        if stride != 1 or in_ch != out_ch:
            self.proj = Conv2d(in_ch, out_ch, 1, stride=stride, pad=0, rng=rng)
            self.proj_norm = ChannelNorm(out_ch)

    def forward(self, x: np.ndarray) -> np.ndarray:
        a = self.norm1(self.conv1(x))
        relu1 = a > 0
        b = self.norm2(self.conv2(a * relu1))
        skip = x if self.proj is None else self.proj_norm(self.proj(x))
        pre = b + skip
        relu2 = pre > 0
        self._cache = (relu1, relu2)
        return pre * relu2

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        relu1, relu2 = self._take_cache()
        g = grad_out * relu2
        gb = self.conv2.backward(self.norm2.backward(g)) * relu1
        gx = self.conv1.backward(self.norm1.backward(gb))
        if self.proj is None:
            gx += g
        else:
            gx += self.proj.backward(self.proj_norm.backward(g))
        return gx


class MapEncoder(Module):
    """Residual encoder for a stacked map pair.

    Input is (B, 6, H, W) -- two 3-channel maps stacked. Stem conv, three
    residual stages of two basic blocks each with stride-2 downsampling
    between stages, global average pool, FC to the feature width.

    Invalid pixels reach the encoder unmasked, as the maps' zero vectors.
    While conv biases, norm shifts and running means are zero, as
    initialised, every ReLU pre-activation computed from invalid pixels
    alone is exactly 0, so under ReLU'(0) = 0 it passes no gradient to
    those biases and shifts.
    """

    FLOOR = 4  # the smallest map height and width that forward takes

    def __init__(self, widths=(16, 32, 64), feature_dim: int = 256, *,
                 rng: np.random.Generator):
        c0, c1, c2 = widths
        self.stem = Conv2d(6, c0, 3, rng=rng)
        self.stem_norm = ChannelNorm(c0)
        self.blocks = [
            ResBlock(c0, c0, 1, rng=rng), ResBlock(c0, c0, 1, rng=rng),
            ResBlock(c0, c1, 2, rng=rng), ResBlock(c1, c1, 1, rng=rng),
            ResBlock(c1, c2, 2, rng=rng), ResBlock(c2, c2, 1, rng=rng),
        ]
        self.head = Linear(c2, feature_dim, rng)
        self.feature_dim = feature_dim

    def forward(self, x: np.ndarray) -> np.ndarray:
        if min(x.shape[2:]) < self.FLOOR:
            raise ValueError(f"map {x.shape[2]}x{x.shape[3]} below the downsampling "
                             f"floor {self.FLOOR}x{self.FLOOR}")
        a = self.stem_norm(self.stem(x))
        relu = a > 0
        h = a * relu
        for b in self.blocks:
            h = b(h)
        pooled = h.mean(axis=(2, 3))
        self._cache = (relu, h.shape)
        return self.head(pooled)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        relu, h_shape = self._take_cache()
        g = self.head.backward(grad_out)
        g = np.broadcast_to(g[:, :, None, None] / (h_shape[2] * h_shape[3]), h_shape).copy()
        for b in reversed(self.blocks):
            g = b.backward(g)
        return self.stem.backward(self.stem_norm.backward(g * relu))
