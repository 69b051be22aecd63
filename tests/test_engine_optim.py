from __future__ import annotations

import math

import numpy as np
import pytest

from circuitforge.arch import synthesize_sequential_arch, validate
from circuitforge.engine.graph import compile_arch
from circuitforge.engine.optim import BETA1, BETA2, EPS, MOMENTUM, SGD, Adam
from circuitforge.engine.train import TrainConfig
from circuitforge.errors import InvalidConfig


class _OneSlot:
    """Minimal stand-in exposing the param_slots protocol."""

    def __init__(self, value, grad):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.asarray(grad, dtype=np.float64)

    def param_slots(self):
        yield "w", self.value, self.grad


def test_sgd_plain_step():
    # the velocity starts at 0, so the first momentum step is the plain step
    g = _OneSlot([1.0, 2.0], [0.5, -1.0])
    SGD(lr=0.1).step(g)
    assert g.value.tolist() == [0.95, 2.1]


def test_sgd_momentum_two_steps():
    g = _OneSlot([1.0], [1.0])
    opt = SGD(lr=0.1)
    opt.step(g)           # v=1.0,   w=1-0.1 = 0.9
    assert g.value[0] == pytest.approx(0.9)
    opt.step(g)           # v=MOMENTUM+1, w=0.9-0.1*v
    assert g.value[0] == pytest.approx(0.9 - 0.1 * (MOMENTUM + 1.0))


def test_sgd_validates_hyperparams():
    with pytest.raises(ValueError):
        SGD(lr=0.0)


def test_adam_matches_hand_trace(monkeypatch):
    w0, grad = 1.0, 0.5
    lr, b1, b2, eps = 1e-2, BETA1, BETA2, EPS
    g = _OneSlot([w0], [grad])
    opt = Adam(lr=lr)
    allocated = []  # the moment buffers are made on a slot's first step only
    zeros_like = np.zeros_like
    monkeypatch.setattr(np, "zeros_like", lambda a: allocated.append(a) or zeros_like(a))

    m = v = 0.0
    w = w0
    for t in range(1, 4):
        opt.step(g)
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w -= lr * mhat / (np.sqrt(vhat) + eps)
        assert g.value[0] == pytest.approx(w, rel=1e-12), t
    assert opt.steps == 3
    assert len(allocated) == 2


def test_adam_first_step_size_is_lr():
    # bias correction makes the very first update ~lr regardless of grad scale
    for grad in (1e-4, 1.0, 1e4):
        g = _OneSlot([0.0], [grad])
        Adam(lr=1e-3).step(g)
        assert abs(g.value[0] + 1e-3) <= 1e-6


def test_adam_validates_hyperparams():
    with pytest.raises(ValueError):
        Adam(lr=-1.0)
    with pytest.raises(ValueError):
        Adam(lr=0.0)


@pytest.mark.parametrize("make", [SGD, Adam, lambda lr: TrainConfig(lr=lr)],
                         ids=["sgd", "adam", "train_config"])
@pytest.mark.parametrize("lr", [math.nan, math.inf, 0, -1.0, True])
def test_one_lr_rule_refuses_a_bad_lr(make, lr):
    with pytest.raises(InvalidConfig, match="^lr must be a finite number > 0, got "):
        make(lr)


def test_optimizers_drive_real_graph_without_shape_drift():
    spec = synthesize_sequential_arch(2, (1, 16, 16), 3)
    g = compile_arch(validate(spec), seed=0)
    for slot, _, grad in g.param_slots():
        grad[...] = 0.01
    before = {slot: val.copy() for slot, val, _ in g.param_slots()}
    Adam(lr=1e-3).step(g)
    for slot, val, _ in g.param_slots():
        assert val.shape == before[slot].shape
        assert not np.array_equal(val, before[slot]), slot
