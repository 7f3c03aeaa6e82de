"""Dense layers, the gated attention head, and its FC ablation."""

from __future__ import annotations

import numpy as np

from .core import Module, Param, sigmoid, uniform_init


class Linear(Module):
    """y = x W^T + b over (B, in_dim) rows; `rng` draws W unless zero_init."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None,
                 zero_init: bool = False):
        if zero_init:
            w = np.zeros((out_dim, in_dim))
        elif rng is None:
            raise TypeError("Linear() needs a generator `rng` to draw its weight "
                            "unless zero_init=True")
        else:
            w = uniform_init(rng, (out_dim, in_dim), in_dim)
        self.weight = Param(w)
        self.bias = Param(np.zeros(out_dim))

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x = np.asarray(x, dtype=self.weight.value.dtype)
        return x @ self.weight.value.T + self.bias.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.weight.grad += grad_out.T @ self._take_cache()
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value


class AttentionHead(Module):
    """Gated feature re-weighting: out = o * tanh(i * g).

    i and o are sigmoid gates, g is a tanh candidate, all affine in the
    input; products are element-wise.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.gate_i = Linear(dim, dim, rng)
        self.cand_g = Linear(dim, dim, rng)
        self.gate_o = Linear(dim, dim, rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        i = sigmoid(self.gate_i(x))
        g = np.tanh(self.cand_g(x))
        o = sigmoid(self.gate_o(x))
        th = np.tanh(i * g)
        self._cache = (i, g, o, th)
        return o * th

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        i, g, o, th = self._take_cache()
        d_o = grad_out * th
        d_ig = grad_out * o * (1.0 - th * th)
        d_i = d_ig * g
        d_g = d_ig * i
        gx = self.gate_o.backward(d_o * o * (1.0 - o))
        gx += self.cand_g.backward(d_g * (1.0 - g * g))
        gx += self.gate_i.backward(d_i * i * (1.0 - i))
        return gx


class FcActivationHead(Module):
    """Ablation head: out = tanh(W2 tanh(W1 x + b1) + b2)."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, dim, rng)
        self.fc2 = Linear(dim, dim, rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = np.tanh(self.fc1(x))
        y = np.tanh(self.fc2(h))
        self._cache = (h, y)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        h, y = self._take_cache()
        gh = self.fc2.backward(grad_out * (1.0 - y * y))
        return self.fc1.backward(gh * (1.0 - h * h))


class LSTM(Module):
    """Single-layer LSTM over (B, S, F) sequences; gate order i, f, g, o."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        h = hidden_size
        self.w_ih = Param(uniform_init(rng, (4 * h, input_size), input_size))
        self.w_hh = Param(uniform_init(rng, (4 * h, h), h))
        self.bias = Param(np.zeros(4 * h))
        self.hidden_size = h

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The final hidden state (B, H) of (B, S, F) windows, from zero states."""
        x = np.asarray(x, dtype=self.w_ih.value.dtype)
        B, S, _ = x.shape
        H = self.hidden_size
        h = np.zeros((B, H), dtype=x.dtype)
        c = np.zeros((B, H), dtype=x.dtype)
        # Every step's input projection in one call. Step-major, each step's
        # product is the same BLAS call that x[:, s] @ w_ih.T would make.
        xw = x.transpose(1, 0, 2) @ self.w_ih.value.T
        steps = []
        for s in range(S):
            z = xw[s] + h @ self.w_hh.value.T + self.bias.value
            gates = sigmoid(z)
            i, f, o = gates[:, :H], gates[:, H:2 * H], gates[:, 3 * H:]
            g = np.tanh(z[:, 2 * H:3 * H])
            h_prev, c_prev = h, c
            c = f * c_prev + i * g
            tc = np.tanh(c)
            h = o * tc
            steps.append((x[:, s], h_prev, c_prev, i, f, g, o, tc))
        self._cache = steps
        return h

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backprop through time from the final hidden state's gradient;
        returns the gradient w.r.t. the input windows."""
        steps = self._take_cache()
        dtype = self.w_ih.value.dtype
        dh = np.asarray(grad_out, dtype)
        dc = np.zeros_like(dh)
        gx = np.empty((len(dh), len(steps), self.w_ih.value.shape[1]), dtype)
        for s in reversed(range(len(steps))):
            xt, h_prev, c_prev, i, f, g, o, tc = steps[s]
            do = dh * tc
            dc = dh * o * (1.0 - tc * tc) + dc
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate(
                [di * i * (1.0 - i), df * f * (1.0 - f),
                 dg * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
            self.w_ih.grad += dz.T @ xt
            self.w_hh.grad += dz.T @ h_prev
            self.bias.grad += dz.sum(axis=0)
            gx[:, s] = dz @ self.w_ih.value
            dh = dz @ self.w_hh.value
            dc = dc * f
        return gx
