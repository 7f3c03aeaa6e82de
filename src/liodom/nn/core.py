"""Minimal differentiable-computation substrate.

Modules own named parameters and buffers, cache what forward needs for
backward, hand that cache over to the one backward that reads it, and
accumulate parameter gradients on backward. Everything is
plain numpy. A module is built in float64, and each layer computes in its
own parameters' dtype, so `Module.cast` sets a whole network's precision
(`OdometryModel` runs in float32). `central_difference` is the one finite
difference; `gradcheck` compares a float64 module's backward with it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Param:
    """A trainable array, in the dtype it is given, with an accumulated gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)


class Module:
    """Base class: forward/backward pair plus parameter and buffer access.

    Submodules are found among the attributes, directly or in lists and
    tuples. Modules form a tree: no module is reachable under two names.
    """

    buffer_names: tuple = ()    # attributes holding non-trainable state arrays
    training = False
    # What forward keeps for backward, until backward takes it. It may hold
    # forward's input by reference, so a caller must not write to that input
    # between the forward and the backward.
    _cache = None

    def named_modules(self, prefix: str = ""):
        """(dotted prefix, module) for this module and each submodule."""
        yield prefix, self
        for name, attr in vars(self).items():
            items = enumerate(attr) if isinstance(attr, (list, tuple)) else [(None, attr)]
            for i, item in items:
                if isinstance(item, Module):
                    sub = name if i is None else f"{name}.{i}"
                    yield from item.named_modules(f"{prefix}{sub}.")

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

    def cast(self, dtype):
        """Convert every parameter, its gradient and every buffer to dtype, in place."""
        for p in self.parameters().values():
            p.value = p.value.astype(dtype)
            p.grad = p.grad.astype(dtype)
        for _, m in self.named_modules():
            for name in m.buffer_names:
                setattr(m, name, getattr(m, name).astype(dtype))
        return self

    def set_training(self, flag: bool):
        for _, m in self.named_modules():
            m.training = flag

    def zero_grad(self):
        for p in self.parameters().values():
            p.grad[...] = 0.0

    def clear_caches(self):
        """Drop what every module's last forward kept, after forwards that no
        backward follows (inference)."""
        for _, m in self.named_modules():
            m._cache = None

    def _take_cache(self):
        """What the last forward kept, handed over once: backward frees it as
        it reads it. A backward without a forward raises RuntimeError."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward without a forward: "
                               f"each forward's cache feeds one backward")
        return cache

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


# Relative gap between the one-sided quotients above which an element is
# taken to straddle a kink. An unflagged kink shifts the central quotient by
# at most half this gap, so 2e-5 keeps it at 1e-5, a tenth of the 1e-4 bound
# every caller holds backward to; smooth elements agree to about 3e-8.
KINK_GAP = 2e-5
# Share of its drawn elements a check may skip at kinks and still pass: one
# that skips more has compared too little of the gradient to vouch for it.
MAX_SKIP_SHARE = 0.1


def central_difference(f, x: np.ndarray, index, eps: float):
    """Central difference quotient of f() in element `index` of x.

    f takes no arguments, reads x and returns a float or an array. x[index]
    is moved in place to +eps and -eps, then restored exactly. Returns
    (quotient, kink): kink is True when the two one-sided quotients
    disagree by more than KINK_GAP relative somewhere, as they do across a
    ReLU/abs kink, where a central difference is meaningless.
    """
    old = x[index]
    f0 = np.asarray(f(), dtype=float)
    x[index] = old + eps
    fp = np.asarray(f(), dtype=float)
    x[index] = old - eps
    fm = np.asarray(f(), dtype=float)
    x[index] = old
    fd = (fp - fm) / (2 * eps)
    gap = np.abs((fp - f0) / eps - (f0 - fm) / eps) / np.maximum(1.0, np.abs(fd))
    return fd, bool(np.any(gap > KINK_GAP))


class GradcheckResult(NamedTuple):
    worst: float       # worst relative error over the compared elements
    skipped: int       # drawn elements flagged as straddling a kink
    drawn: int

    @property
    def ok(self) -> bool:
        """worst below the 1e-4 bound, with at most MAX_SKIP_SHARE of the
        drawn elements skipped."""
        return self.worst < 1e-4 and self.skipped <= MAX_SKIP_SHARE * self.drawn


def gradcheck(module: Module, x: np.ndarray, rng: np.random.Generator, fwd=None, bwd=None,
              n_checks: int = 4, eps: float = 1e-6, wrt_input: bool = False) -> GradcheckResult:
    """Backward's gradients against central differences, for a float64 module.

    The checked scalar is sum(fwd(module, x) * g) for a random g. n_checks
    random elements are perturbed in each parameter or, with wrt_input, in
    x, against the gradient bwd returns. Elements that `central_difference`
    flags as straddling a kink are skipped and counted; if every drawn
    element is skipped, nothing was compared and `worst` is inf. A
    non-finite error makes `worst` NaN. A module with a parameter that is
    not float64 raises TypeError: eps-sized steps are below float32's
    resolution, so its differences would measure rounding, not backward.
    """
    for name, p in module.parameters().items():
        if p.value.dtype != np.float64:
            raise TypeError(f"gradcheck needs float64 parameters; {name} is {p.value.dtype}")
    fwd = fwd or (lambda m, a: m(a))
    bwd = bwd or (lambda m, grad: m.backward(grad))
    x = np.ascontiguousarray(x, dtype=float)     # perturbed in place below
    g = rng.standard_normal(np.shape(fwd(module, x)))
    module.zero_grad()
    grad_x = bwd(module, g)
    if wrt_input:
        checked = [(x, grad_x)]
    else:
        checked = [(p.value, p.grad) for p in module.parameters().values()]
    loss = lambda: float(np.sum(fwd(module, x) * g))
    errors = []
    drawn = 0
    for value, grad in checked:
        for i in rng.choice(value.size, size=min(n_checks, value.size), replace=False):
            index = np.unravel_index(i, value.shape)
            fd, kink = central_difference(loss, value, index, eps)
            drawn += 1
            if not kink:
                errors.append(abs(fd - grad[index]) / max(1.0, abs(fd)))
    worst = float(np.max(errors)) if errors else np.inf    # np.max keeps a NaN
    return GradcheckResult(worst, drawn - len(errors), drawn)
