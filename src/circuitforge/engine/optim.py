"""Parameter update rules.

A compiled graph holds its parameters in one vector and their gradients
in another (`param_vector`, `grad_vector`), and every slot is a view into
them.  Both optimizers update the whole parameter vector in place with
elementwise operations, so no step depends on where a slot lies in it.
Their state is one vector per running average, as long as the
parameter vector, plus scratch vectors for the update; the first step
makes them, the averages zeroed, and every step writes into them, so a
step allocates nothing.  Each operation is the one the update's formula
names, in its order, so the bytes match the formula evaluated afresh.
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
        self.velocity: np.ndarray | None = None

    def step(self, g) -> None:
        if self.velocity is None:
            self.velocity = np.zeros_like(g.grad_vector)
            self._delta = np.empty_like(g.grad_vector)
        v, delta = self.velocity, self._delta
        v *= MOMENTUM
        v += g.grad_vector
        g.param_vector -= np.multiply(v, self.lr, out=delta)


class Adam:
    """Standard bias-corrected moment estimates."""

    def __init__(self, lr: float):
        check_lr(lr)
        self.lr = lr
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.steps = 0

    def step(self, g) -> None:
        self.steps += 1
        t, grad = self.steps, g.grad_vector
        if self.m is None:
            self.m, self.v = np.zeros_like(grad), np.zeros_like(grad)
            self._scratch = np.empty_like(grad), np.empty_like(grad)
        m, v, (a, b) = self.m, self.v, self._scratch
        m *= BETA1  # m <- m * BETA1 + (1 - BETA1) * grad
        m += np.multiply(grad, 1.0 - BETA1, out=a)
        v *= BETA2  # v <- v * BETA2 + (1 - BETA2) * grad^2
        v += np.multiply(np.square(grad, out=a), 1.0 - BETA2, out=a)
        # p <- p - lr * mhat / (sqrt(vhat) + EPS)
        step = np.multiply(np.divide(m, 1.0 - BETA1 ** t, out=a), self.lr, out=a)
        denom = np.add(np.sqrt(np.divide(v, 1.0 - BETA2 ** t, out=b), out=b), EPS, out=b)
        g.param_vector -= np.divide(step, denom, out=a)
