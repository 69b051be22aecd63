"""In-memory spans around the program's public functions.

Nothing inside `circuitforge` is edited: `instrument` replaces module and
class attributes with wrappers that open a span, call the original and
close the span.  Call sites that bound a name with `from x import y`
are patched where they look the name up, so every call on the
benchmark's path is seen exactly once.

A span keeps its name, start, end and parent.  The style (circuit,
randomized, sequential) and phase (train, eval) are inherited from the
enclosing `bench.run_one` and `engine.fit` / `engine.evaluate` spans.
Self time is a span's duration minus the durations of its children.
Wrappers cost one attribute test while the tracer is disabled.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

now = time.perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int
    style: str | None
    phase: str | None
    gflop: float = 0.0
    end: float = 0.0
    child_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


@dataclass
class Tracer:
    enabled: bool = False
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)

    def begin(self, name: str, style: str | None = None, phase: str | None = None,
              gflop: float = 0.0) -> int:
        parent = self.stack[-1] if self.stack else -1
        if parent >= 0:
            up = self.spans[parent]
            style = style or up.style
            phase = phase or up.phase
        self.spans.append(Span(name, now(), parent, style, phase, gflop))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = now()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.dur

    def reset(self) -> None:
        """Drop every span, open or not, after a call that raised."""
        self.spans, self.stack = [], []

    def take(self) -> list[Span]:
        """Hand over the finished spans and start a fresh list."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")
        spans, self.spans = self.spans, []
        return spans


# --- computed work per kernel call (floating-point operations from shapes) ---

def _conv_flop(x, w, pad) -> float:
    n, _, h, wd = x.shape
    co, ci, k, _ = w.shape
    return 2.0 * n * co * (h + 2 * pad - k + 1) * (wd + 2 * pad - k + 1) * ci * k * k


KERNEL_FLOP = {
    "conv2d": lambda x, w, b, pad: _conv_flop(x, w, pad),
    # weight gradient and input gradient each cost one forward conv
    "conv2d_backward": lambda gy, x, w, pad: 2.0 * _conv_flop(x, w, pad),
    # one comparison per input element inside a window
    "maxpool": lambda x, p: float(x.shape[0] * x.shape[1]
                                  * (x.shape[2] // p) * (x.shape[3] // p) * p * p),
    "maxpool_backward": lambda gy, x, p: float(gy.size * p * p),
    "relu": lambda x: float(x.size),
    "relu_backward": lambda gy, x: float(x.size),
    "concat_channels": lambda parts: 0.0,
    "concat_channels_backward": lambda gy, channel_counts: 0.0,
    "global_avg_pool": lambda x: float(x.size),
    "global_avg_pool_backward": lambda gy, x_shape: float(math.prod(x_shape)),
    "dense": lambda x, w, b: 2.0 * x.shape[0] * w.shape[0] * w.shape[1],
    "dense_backward": lambda gy, x, w: 4.0 * x.shape[0] * w.shape[0] * w.shape[1],
    # max, subtract, exp, sum, divide per logit
    "softmax_xent": lambda logits, labels: 5.0 * logits.size,
}
"""Every kernel in `circuitforge.engine.kernels` that the protocol calls.
`softmax_probs` is left out: no training or evaluation step calls it."""


def _wrap(owner, attr: str, tracer: Tracer, name: str, *, style_of=None,
          phase: str | None = None, flop=None) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return orig(*args, **kwargs)
        idx = tracer.begin(name, style=style_of(args) if style_of else None,
                           phase=phase, gflop=flop(*args, **kwargs) / 1e9 if flop else 0.0)
        try:
            return orig(*args, **kwargs)
        finally:
            tracer.end(idx)

    setattr(owner, attr, wrapper)


def _wrap_batches(owner, tracer: Tracer) -> None:
    """The batch iterator: a `datasets.batch_wait` span covers each fetch
    and an `engine.step` (or `engine.eval_step`) span covers the caller's
    work on the batch until it asks for the next one."""
    orig = owner.batches

    @functools.wraps(orig)
    def batches(*args, **kwargs):
        it = orig(*args, **kwargs)
        if not tracer.enabled:
            yield from it
            return
        while True:
            wait = tracer.begin("datasets.batch_wait")
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.end(wait)
            phase = tracer.spans[wait].phase
            step = tracer.begin("engine.step" if phase == "train" else "engine.eval_step")
            try:
                yield item
            finally:
                tracer.end(step)

    owner.batches = batches


def instrument(tracer: Tracer, *, layers: bool) -> None:
    """Wrap the per-style `run_one`, `fit` and `evaluate` calls, which the
    end-to-end metrics need; with `layers`, wrap every layer boundary on
    the `run_benchmark` path as well."""
    from circuitforge import arch, bench, reference
    from circuitforge.engine import graph, kernels, optim, train

    _wrap(bench, "run_one", tracer, "bench.run_one", style_of=lambda a: a[0])
    _wrap(bench, "fit", tracer, "engine.fit", phase="train")
    _wrap(bench, "evaluate", tracer, "engine.evaluate", phase="eval")
    if not layers:
        return

    _wrap(bench, "run_benchmark", tracer, "bench.run_benchmark")
    _wrap(arch, "save_arch", tracer, "bench.save_arch")
    _wrap(bench, "summarize", tracer, "bench.summarize")

    _wrap(reference, "load_connectome", tracer, "connectome.load")
    _wrap(reference, "load_aggregation", tracer, "connectome.load")
    _wrap(reference, "aggregate_functional", tracer, "connectome.aggregate")
    _wrap(reference, "load_cri_table", tracer, "cri.load")
    _wrap(reference, "select_correlated", tracer, "cri.select")
    _wrap(reference, "extract_circuits", tracer, "extraction.extract")

    for fn in ("synthesize_circuit_arch", "synthesize_randomized_arch",
               "synthesize_sequential_arch"):
        _wrap(arch, fn, tracer, "arch.synthesize")
    _wrap(arch, "validate", tracer, "arch.validate")

    _wrap(bench, "load_dataset", tracer, "datasets.load")
    _wrap(bench, "subset", tracer, "datasets.subset")
    _wrap_batches(train, tracer)

    _wrap(bench, "compile_arch", tracer, "engine.compile")
    _wrap(graph.CompiledGraph, "forward", tracer, "engine.forward")
    _wrap(graph.CompiledGraph, "backward", tracer, "engine.backward")
    _wrap(optim.Adam, "step", tracer, "engine.optim")
    _wrap(optim.SGD, "step", tracer, "engine.optim")
    for k, flop in KERNEL_FLOP.items():
        _wrap(kernels, k, tracer, f"engine.kernel.{k}", flop=flop)
