"""2D convolution, channel normalization, residual blocks, and the map encoder."""

from __future__ import annotations

import numpy as np

from .core import Module, Param, uniform_init
from .layers import Linear


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    B, C, H, W = x.shape
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((B, C, k, k, Ho, Wo))
    for a in range(k):
        for b in range(k):
            cols[:, :, a, b] = xp[:, :, a:a + stride * Ho:stride, b:b + stride * Wo:stride]
    return cols.reshape(B, C * k * k, Ho * Wo), (Ho, Wo)


def _col2im(cols: np.ndarray, x_shape, k: int, stride: int, pad: int):
    B, C, H, W = x_shape
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1
    cols = cols.reshape(B, C, k, k, Ho, Wo)
    xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
    for a in range(k):
        for b in range(k):
            xp[:, :, a:a + stride * Ho:stride, b:b + stride * Wo:stride] += cols[:, :, a, b]
    return xp[:, :, pad:pad + H, pad:pad + W]


class Conv2d(Module):
    def __init__(self, in_ch: int, out_ch: int, kernel: int = 3, stride: int = 1,
                 pad: int | None = None, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        fan_in = in_ch * kernel * kernel
        self.weight = Param(uniform_init(rng, (out_ch, in_ch, kernel, kernel), fan_in))
        self.bias = Param(np.zeros(out_ch))
        self.kernel = kernel
        self.stride = stride
        self.pad = kernel // 2 if pad is None else pad
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cols, (Ho, Wo) = _im2col(x, self.kernel, self.stride, self.pad)
        w = self.weight.value.reshape(self.weight.value.shape[0], -1)
        y = np.einsum("oc,bcl->bol", w, cols) + self.bias.value[None, :, None]
        self._cache = (x.shape, cols)
        return y.reshape(x.shape[0], -1, Ho, Wo)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_shape, cols = self._cache
        B = grad_out.shape[0]
        go = grad_out.reshape(B, grad_out.shape[1], -1)
        w = self.weight.value.reshape(self.weight.value.shape[0], -1)
        self.weight.grad += np.einsum("bol,bcl->oc", go, cols).reshape(self.weight.value.shape)
        self.bias.grad += go.sum(axis=(0, 2))
        gcols = np.einsum("oc,bol->bcl", w, go)
        return _col2im(gcols, x_shape, self.kernel, self.stride, self.pad)


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
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scale = 1.0 / np.sqrt(self.running_var + self.eps)
        xhat = (x - self.running_mean[:, None, None]) * scale[:, None, None]
        self._cache = (xhat, scale)
        y = self.gamma.value[:, None, None] * xhat + self.beta.value[:, None, None]
        if self.training:
            m = x.mean(axis=(0, 2, 3))
            v = x.var(axis=(0, 2, 3))
            self.running_mean += self.momentum * (m - self.running_mean)
            self.running_var += self.momentum * (v - self.running_var)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        xhat, scale = self._cache
        self.gamma.grad += (grad_out * xhat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        return grad_out * (self.gamma.value * scale)[:, None, None]


class ResBlock(Module):
    """Basic residual block: two 3x3 convs with channel norm, ReLU output."""

    def __init__(self, in_ch: int, out_ch: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride=stride, rng=rng)
        self.norm1 = ChannelNorm(out_ch)
        self.conv2 = Conv2d(out_ch, out_ch, 3, rng=rng)
        self.norm2 = ChannelNorm(out_ch)
        self.proj = None
        self.proj_norm = None
        if stride != 1 or in_ch != out_ch:
            self.proj = Conv2d(in_ch, out_ch, 1, stride=stride, pad=0, rng=rng)
            self.proj_norm = ChannelNorm(out_ch)
        self._cache = None

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
        relu1, relu2 = self._cache
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
    """

    def __init__(self, widths=(16, 32, 64), feature_dim: int = 256, in_ch: int = 6,
                 rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        c0, c1, c2 = widths
        self.stem = Conv2d(in_ch, c0, 3, rng=rng)
        self.stem_norm = ChannelNorm(c0)
        self.blocks = [
            ResBlock(c0, c0, 1, rng), ResBlock(c0, c0, 1, rng),
            ResBlock(c0, c1, 2, rng), ResBlock(c1, c1, 1, rng),
            ResBlock(c1, c2, 2, rng), ResBlock(c2, c2, 1, rng),
        ]
        self.head = Linear(c2, feature_dim, rng)
        self.feature_dim = feature_dim
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 3:
            x = x[None]
        if x.shape[2] < 4 or x.shape[3] < 4:
            raise ValueError(f"map {x.shape[2]}x{x.shape[3]} below the downsampling floor 4x4")
        a = self.stem_norm(self.stem(x))
        relu = a > 0
        h = a * relu
        for b in self.blocks:
            h = b(h)
        pooled = h.mean(axis=(2, 3))
        self._cache = (relu, h.shape)
        return self.head(pooled)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        relu, h_shape = self._cache
        g = self.head.backward(np.atleast_2d(grad_out))
        g = np.broadcast_to(g[:, :, None, None] / (h_shape[2] * h_shape[3]), h_shape).copy()
        for b in reversed(self.blocks):
            g = b.backward(g)
        return self.stem.backward(self.stem_norm.backward(g * relu))
