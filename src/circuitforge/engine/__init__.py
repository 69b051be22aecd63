"""Numpy-backed execution engine for architecture specs."""

from .graph import CompiledGraph, compile_arch
from .kernels import softmax_xent
from .optim import SGD, Adam
from .train import EpochSummary, EvalReport, TrainConfig, evaluate, fit

__all__ = [
    "Adam",
    "CompiledGraph",
    "EpochSummary",
    "EvalReport",
    "SGD",
    "TrainConfig",
    "compile_arch",
    "evaluate",
    "fit",
    "softmax_xent",
]
