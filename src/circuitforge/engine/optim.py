"""Parameter update rules.

A compiled graph holds its parameters in one vector and their gradients
in another (`param_vector`, `grad_vector`), and every slot is a view into
them.  Both optimizers update the whole parameter vector in place with
elementwise operations, so no step depends on where a slot lies in it.
Their state is one vector per running average, as long as the
parameter vector; it starts as the scalar 0.0, which the first step's
arithmetic turns into that vector.
`TrainConfig` holds the one default of each setting.
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
        self.velocity = 0.0

    def step(self, g) -> None:
        self.velocity = self.velocity * MOMENTUM + g.grad_vector
        g.param_vector -= self.lr * self.velocity


class Adam:
    """Standard bias-corrected moment estimates."""

    def __init__(self, lr: float):
        check_lr(lr)
        self.lr = lr
        self.m = self.v = 0.0
        self.steps = 0

    def step(self, g) -> None:
        self.steps += 1
        t, grad = self.steps, g.grad_vector
        self.m = self.m * BETA1 + (1.0 - BETA1) * grad
        self.v = self.v * BETA2 + (1.0 - BETA2) * np.square(grad)
        mhat = self.m / (1.0 - BETA1 ** t)
        vhat = self.v / (1.0 - BETA2 ** t)
        g.param_vector -= self.lr * mhat / (np.sqrt(vhat) + EPS)
