"""Epoch-level training and evaluation on compiled graphs.

Runs are deterministic given (architecture seed, shuffle seed, data):
batch order comes from a counter-based generator keyed by the run seed
and epoch index, and every kernel in the stack is tie-deterministic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from ..arch import check_int
from ..datasets import LabeledDataset, batches
from ..errors import EmptyDataset, InvalidConfig
from . import kernels as K
from .graph import CompiledGraph
from .optim import Adam, Optimizer, SGD


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 64
    optimizer: str = "adam"  # "adam" or "sgd"
    lr: float = 1e-3
    momentum: float = 0.9  # sgd only
    seed: int = 0

    def __post_init__(self) -> None:
        """Refuse a bad field with InvalidConfig; BenchmarkConfig reuses these rules."""
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low, InvalidConfig)
        if self.optimizer not in ("adam", "sgd"):
            raise InvalidConfig(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        lr = self.lr
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0 < lr < math.inf:
            raise InvalidConfig(f"lr must be a finite number > 0, got {lr!r}")


def make_optimizer(cfg: TrainConfig) -> Optimizer:
    if cfg.optimizer == "sgd":
        return SGD(lr=cfg.lr, momentum=cfg.momentum)
    return Adam(lr=cfg.lr)


@dataclass
class EpochSummary:
    mean_loss: float
    accuracy: float
    step_losses: list[float] = field(default_factory=list)


def train_epoch(g: CompiledGraph, batch_iter, opt: Optimizer) -> EpochSummary:
    """One pass over the iterator: forward, loss, backward, update."""
    losses: list[float] = []
    correct = 0
    seen = 0
    for xb, yb in batch_iter:
        logits = g.forward(xb)
        loss, grad = K.softmax_xent(logits, yb)
        g.backward(grad)
        opt.step(g)
        losses.append(loss)
        correct += int((logits.argmax(axis=1) == yb).sum())
        seen += len(yb)
    if seen == 0:
        raise EmptyDataset("training iterator yielded no batches")
    return EpochSummary(mean_loss=float(np.mean(losses)),
                        accuracy=correct / seen,
                        step_losses=losses)


def fit(g: CompiledGraph, ds: LabeledDataset, cfg: TrainConfig,
        metrics_path=None) -> list[EpochSummary]:
    """Train for cfg.epochs, reshuffling per epoch from the run seed.
    Optionally streams step,epoch,loss,accuracy rows to a CSV."""
    opt = make_optimizer(cfg)
    history: list[EpochSummary] = []
    writer_fh = open(metrics_path, "w", encoding="utf-8", newline="") if metrics_path else None
    try:
        writer = None
        if writer_fh:
            writer = csv.writer(writer_fh, lineterminator="\n")
            writer.writerow(["step", "epoch", "loss", "accuracy"])
        step = 0
        for epoch in range(cfg.epochs):
            shuffle_key = (cfg.seed * 100003 + epoch) % 2 ** 63
            summary = train_epoch(g, batches(ds, cfg.batch_size, shuffle_key), opt)
            history.append(summary)
            if writer:
                for loss in summary.step_losses:
                    writer.writerow([step, epoch, f"{loss:.6f}", ""])
                    step += 1
                writer.writerow([step - 1, epoch, f"{summary.mean_loss:.6f}",
                                 f"{summary.accuracy:.4f}"])
    finally:
        if writer_fh:
            writer_fh.close()
    return history


@dataclass
class EvalReport:
    accuracy: float
    per_category: dict[int, float]  # only categories with examples
    confusion: np.ndarray  # (K, K) rows = true, cols = predicted


def evaluate(g: CompiledGraph, ds: LabeledDataset, batch_size: int = 256) -> EvalReport:
    """Accuracy, per-category accuracy and the full confusion matrix.
    Categories with no test examples are omitted rather than scored 0."""
    if len(ds) == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    k = ds.num_categories
    confusion = np.zeros((k, k), dtype=np.int64)
    for xb, yb in batches(ds, batch_size, seed=0, shuffle=False):
        pred = g.forward(xb).argmax(axis=1)
        np.add.at(confusion, (yb, pred), 1)
    totals = confusion.sum(axis=1)
    per_category = {int(c): float(confusion[c, c] / totals[c])
                    for c in range(k) if totals[c] > 0}
    accuracy = float(np.trace(confusion) / len(ds))
    return EvalReport(accuracy=accuracy, per_category=per_category, confusion=confusion)
