"""Parameter update rules.

Both optimizers mutate graph parameters in place, walking slots in the
canonical order so that runs are reproducible.  State buffers are
allocated lazily on the first step and keyed by slot name.  `TrainConfig`
holds the one default of each setting.
"""

from __future__ import annotations

import numpy as np

from ..errors import check_lr

# SGD's velocity decay; Adam's moment decay rates and denominator guard
MOMENTUM = 0.9
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class SGD:
    """v <- MOMENTUM * v + grad;  p <- p - lr * v."""

    def __init__(self, lr: float):
        check_lr(lr)
        self.lr = lr
        self.velocity: dict[str, np.ndarray] = {}
        self.steps = 0

    def step(self, g) -> None:
        self.steps += 1
        for slot, value, grad in g.param_slots():
            v = self.velocity.get(slot)
            if v is None:
                v = np.zeros_like(value)
                self.velocity[slot] = v
            v *= MOMENTUM
            v += grad
            value -= self.lr * v


class Adam:
    """Standard bias-corrected moment estimates."""

    def __init__(self, lr: float):
        check_lr(lr)
        self.lr = lr
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
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * np.square(grad)
            mhat = m / (1.0 - BETA1 ** t)
            vhat = v / (1.0 - BETA2 ** t)
            value -= self.lr * mhat / (np.sqrt(vhat) + EPS)

