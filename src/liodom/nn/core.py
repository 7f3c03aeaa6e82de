"""Minimal differentiable-computation substrate.

Modules own named parameters and buffers, cache what forward needs for
backward, and accumulate parameter gradients on backward. Everything is
plain numpy in double precision.
"""

from __future__ import annotations

import numpy as np


class Param:
    """A trainable array with an accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.zeros_like(self.value)


class Module:
    """Base class: forward/backward pair plus parameter and buffer access.

    Submodules are found among the attributes, directly or in lists and
    tuples. A submodule reachable under two names (a shared head) is
    visited once, under the first name.
    """

    buffer_names: tuple = ()    # attributes holding non-trainable state arrays
    training = False

    def named_modules(self, prefix: str = "", seen: set | None = None):
        """(dotted prefix, module) for this module and each submodule, once each."""
        seen = set() if seen is None else seen
        if id(self) in seen:
            return
        seen.add(id(self))
        yield prefix, self
        for name, attr in vars(self).items():
            items = enumerate(attr) if isinstance(attr, (list, tuple)) else [(None, attr)]
            for i, item in items:
                if isinstance(item, Module):
                    sub = name if i is None else f"{name}.{i}"
                    yield from item.named_modules(f"{prefix}{sub}.", seen)

    def parameters(self) -> dict[str, Param]:
        return {prefix + name: attr for prefix, m in self.named_modules()
                for name, attr in vars(m).items() if isinstance(attr, Param)}

    def buffers(self) -> dict[str, np.ndarray]:
        return {prefix + name: getattr(m, name) for prefix, m in self.named_modules()
                for name in m.buffer_names}

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Parameter values and buffers by name: what a checkpoint stores."""
        return {**{k: p.value for k, p in self.parameters().items()}, **self.buffers()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        """Copy named arrays into place; every name must exist with its shape."""
        state = self.state_arrays()
        for name, value in arrays.items():
            if name in state and state[name].shape != np.shape(value):
                raise ValueError(f"{name}: shape {np.shape(value)} != {state[name].shape}")
        if state.keys() != arrays.keys():
            raise KeyError(f"unknown parameters {sorted(arrays.keys() - state.keys())}, "
                           f"missing {sorted(state.keys() - arrays.keys())}")
        for name, value in arrays.items():
            state[name][...] = value

    def set_training(self, flag: bool):
        for _, m in self.named_modules():
            m.training = flag

    def zero_grad(self):
        for p in self.parameters().values():
            p.grad[...] = 0.0

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def backward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
