"""Adam with decoupled weight decay and a step learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .core import Param


class Adam:
    def __init__(self, params: dict[str, Param], lr: float = 1e-4,
                 betas=(0.9, 0.99), eps: float = 1e-8, weight_decay: float = 1e-5):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {k: np.zeros_like(p.value) for k, p in params.items()}
        self._v = {k: np.zeros_like(p.value) for k, p in params.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            if self.weight_decay:
                p.value -= self.lr * self.weight_decay * p.value
            m = self._m[name]
            v = self._v[name]
            m += (1.0 - b1) * (p.grad - m)
            v += (1.0 - b2) * (p.grad * p.grad - v)
            mhat = m / (1.0 - b1 ** self.t)
            vhat = v / (1.0 - b2 ** self.t)
            p.value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


class StepLR:
    """Multiply the learning rate by gamma every `step_size` epochs."""

    def __init__(self, optimizer: Adam, step_size: int = 20, gamma: float = 0.5):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.step_size = step_size
        self.gamma = gamma

    def lr_at(self, epoch: int) -> float:
        return self.base_lr * self.gamma ** (epoch // self.step_size)

    def set_epoch(self, epoch: int):
        self.optimizer.lr = self.lr_at(epoch)
