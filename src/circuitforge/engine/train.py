"""Epoch-level training and evaluation on compiled graphs.

Runs are deterministic given (architecture seed, shuffle seed, data):
batch order comes from a counter-based generator keyed by the run seed
and epoch index, and every kernel in the stack is tie-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets import LabeledDataset, batches
from ..errors import (CountMismatch, EmptyDataset, InvalidConfig, NonFiniteActivation,
                      check_int, check_lr, seeded_generator)
from . import kernels as K
from .graph import CompiledGraph
from .optim import Adam, SGD


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 64
    optimizer: str = "adam"  # "adam" or "sgd"
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        """Refuse a bad field with InvalidConfig; BenchmarkConfig reuses these rules."""
        for name, low in (("epochs", 1), ("batch_size", 1)):
            check_int(name, getattr(self, name), low, InvalidConfig)
        seeded_generator("seed", self.seed, InvalidConfig)  # the one seed rule
        if self.optimizer not in ("adam", "sgd"):
            raise InvalidConfig(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        check_lr(self.lr)


@dataclass
class EpochSummary:
    mean_loss: float
    accuracy: float
    step_losses: list[float] = field(default_factory=list)


def fit(g: CompiledGraph, ds: LabeledDataset, cfg: TrainConfig) -> list[EpochSummary]:
    """Train for cfg.epochs, reshuffling per epoch from the run seed; each
    batch runs forward, loss, backward and an optimizer step.  A
    NonFiniteActivation names the epoch and the step within it, counted
    from 0."""
    opt = SGD(lr=cfg.lr) if cfg.optimizer == "sgd" else Adam(lr=cfg.lr)
    history: list[EpochSummary] = []
    for epoch in range(cfg.epochs):
        shuffle_key = (cfg.seed * 100003 + epoch) % 2 ** 63
        losses: list[float] = []
        correct = 0
        # `batches` refuses an empty dataset and covers every example once
        for xb, yb in batches(ds, cfg.batch_size, shuffle_key):
            try:
                logits = g.forward(xb)
                loss, grad = K.softmax_xent(logits, yb)
                g.backward(grad)
            except NonFiniteActivation as exc:
                exc.args = (f"epoch {epoch}, step {len(losses)}: {exc}",)
                raise
            opt.step(g)
            losses.append(loss)
            correct += int((logits.argmax(axis=1) == yb).sum())
        history.append(EpochSummary(mean_loss=float(np.mean(losses)),
                                    accuracy=correct / len(ds), step_losses=losses))
    return history


@dataclass
class EvalReport:
    accuracy: float
    per_category: dict[int, float]  # only categories with examples
    confusion: np.ndarray  # (K, K) rows = true, cols = predicted


def evaluate(g: CompiledGraph, ds: LabeledDataset, batch_size: int) -> EvalReport:
    """Accuracy, per-category accuracy and the full confusion matrix, from
    forward passes at `batch_size` (a run passes its training batch, so it
    has one batch shape).  Categories with no test examples are omitted
    rather than scored 0; a dataset of another category count than the
    model's is refused with CountMismatch."""
    if len(ds) == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    k = ds.num_categories
    if k != g.spec.num_categories:
        raise CountMismatch(f"dataset has {k} categories but the model has "
                            f"{g.spec.num_categories}")
    confusion = np.zeros((k, k), dtype=np.int64)
    for xb, yb in batches(ds, batch_size, seed=0, shuffle=False):
        pred = g.forward(xb, keep=False).argmax(axis=1)
        np.add.at(confusion, (yb, pred), 1)
    totals = confusion.sum(axis=1)
    per_category = {int(c): float(confusion[c, c] / totals[c])
                    for c in range(k) if totals[c] > 0}
    accuracy = float(np.trace(confusion) / len(ds))
    return EvalReport(accuracy=accuracy, per_category=per_category, confusion=confusion)
