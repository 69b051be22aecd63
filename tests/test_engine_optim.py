from __future__ import annotations

import math

import numpy as np
import pytest

from circuitforge.arch import synthesize, synthesize_sequential_arch, validate
from circuitforge.engine.graph import compile_arch
from circuitforge.engine.kernels import softmax_xent
from circuitforge.engine.optim import BETA1, BETA2, EPS, MOMENTUM, SGD, Adam
from circuitforge.engine.train import TrainConfig
from circuitforge.errors import InvalidConfig
from circuitforge.reference import reference_circuit
from conftest import SlotAdam, SlotSGD


class _Vectors:
    """Minimal stand-in for a graph: one parameter and one gradient vector."""

    def __init__(self, value, grad):
        self.param_vector = np.asarray(value, dtype=np.float64)
        self.grad_vector = np.asarray(grad, dtype=np.float64)


def test_sgd_plain_step():
    # the velocity starts at 0, so the first momentum step is the plain step
    g = _Vectors([1.0, 2.0], [0.5, -1.0])
    SGD(lr=0.1).step(g)
    assert g.param_vector.tolist() == [0.95, 2.1]


def test_sgd_momentum_two_steps():
    g = _Vectors([1.0], [1.0])
    opt = SGD(lr=0.1)
    opt.step(g)           # v=1.0,   w=1-0.1 = 0.9
    assert g.param_vector[0] == pytest.approx(0.9)
    opt.step(g)           # v=MOMENTUM+1, w=0.9-0.1*v
    assert g.param_vector[0] == pytest.approx(0.9 - 0.1 * (MOMENTUM + 1.0))


def test_sgd_validates_hyperparams():
    with pytest.raises(ValueError):
        SGD(lr=0.0)


def test_adam_matches_hand_trace():
    w0, grad = 1.0, 0.5
    lr, b1, b2, eps = 1e-2, BETA1, BETA2, EPS
    g = _Vectors([w0], [grad])
    opt = Adam(lr=lr)

    m = v = 0.0
    w = w0
    for t in range(1, 4):
        opt.step(g)
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad * grad
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w -= lr * mhat / (np.sqrt(vhat) + eps)
        assert g.param_vector[0] == pytest.approx(w, rel=1e-12), t
    assert opt.steps == 3
    # one moment vector each, as long as the parameter vector
    assert opt.m.shape == opt.v.shape == g.param_vector.shape


def test_adam_first_step_size_is_lr():
    # bias correction makes the very first update ~lr regardless of grad scale
    for grad in (1e-4, 1.0, 1e4):
        g = _Vectors([0.0], [grad])
        Adam(lr=1e-3).step(g)
        assert abs(g.param_vector[0] + 1e-3) <= 1e-6


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
    g.grad_vector[...] = 0.01
    before = {slot: val.copy() for slot, val in g.params.items()}
    Adam(lr=1e-3).step(g)
    for slot, val in g.params.items():
        assert val.shape == before[slot].shape
        assert np.shares_memory(val, g.param_vector), slot
        assert not np.array_equal(val, before[slot]), slot


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("style", ["circuit", "randomized", "sequential"])
@pytest.mark.parametrize("optimizer, oracle", [(SGD, SlotSGD), (Adam, SlotAdam)],
                         ids=["sgd", "adam"])
def test_vector_step_is_byte_equal_to_the_per_slot_oracle(style, dtype, optimizer, oracle):
    """Three steps over the whole vector leave every parameter with the
    bytes that three per-slot steps leave, grouped slots included."""
    spec = validate(synthesize(style, reference_circuit(), 2, (1, 16, 16), 4, seed=0))
    graphs = [compile_arch(spec, seed=3, dtype=dtype) for _ in range(2)]
    opts = [optimizer(lr=1e-2), oracle(lr=1e-2)]
    x = np.random.default_rng(4).normal(size=(3, 1, 16, 16))
    labels = np.array([0, 3, 1])
    for _ in range(3):
        for g, opt in zip(graphs, opts):
            g.backward(softmax_xent(g.forward(x), labels)[1])
            opt.step(g)
        assert graphs[0].param_vector.tobytes() == graphs[1].param_vector.tobytes()
