"""Parameter update rules.

Both optimizers mutate graph parameters in place, walking slots in the
canonical order so that runs are reproducible.  State buffers are
allocated lazily on the first step and keyed by slot name.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidConfig


class SGD:
    """v <- momentum * v + grad;  p <- p - lr * v."""

    def __init__(self, lr: float, momentum: float = 0.0):
        if lr <= 0:
            raise InvalidConfig(f"lr must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise InvalidConfig(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}
        self.steps = 0

    def step(self, g) -> None:
        self.steps += 1
        for slot, value, grad in g.param_slots():
            if self.momentum == 0.0:
                value -= self.lr * grad
                continue
            v = self.velocity.get(slot)
            if v is None:
                v = np.zeros_like(value)
                self.velocity[slot] = v
            v *= self.momentum
            v += grad
            value -= self.lr * v


class Adam:
    """Standard bias-corrected moment estimates."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if lr <= 0:
            raise InvalidConfig(f"lr must be > 0, got {lr}")
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= beta < 1.0:  # 1.0 would zero the bias correction
                raise InvalidConfig(f"{name} must be in [0, 1), got {beta}")
        if eps <= 0:
            raise InvalidConfig(f"eps must be > 0, got {eps}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.steps = 0

    def step(self, g) -> None:
        self.steps += 1
        t = self.steps
        for slot, value, grad in g.param_slots():
            if slot not in self.m:
                self.m[slot], self.v[slot] = np.zeros_like(value), np.zeros_like(value)
            m, v = self.m[slot], self.v[slot]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(grad)
            mhat = m / (1.0 - self.beta1 ** t)
            vhat = v / (1.0 - self.beta2 ** t)
            value -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


Optimizer = SGD | Adam
