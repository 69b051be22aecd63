"""Compile validated architectures into executable parameterized graphs.

A compiled graph holds every parameter in one vector, `param_vector`,
and every gradient in one `grad_vector` of the same layout; the
optimizers update these whole.  `params` and `grads` name each slot's
view into them, keyed "block_id/name" in canonical order: topological
block position, then name.  That order is the contract for
initialization; the vectors themselves are laid out in plan order.
The slots, their shapes and fan-ins come from the validated arch
(`ValidatedArch.slots`, filled from the block-kind table in arch.py);
the graph adds no shape rule.

Tensor t is the output of block `v.order[t]`, so tensor 0 is the input
batch (the stem is the only block without inputs).  Compiling binds every
block once into a plan of steps, each with the tensors it reads and
writes, its channel bounds from `ValidatedArch.out_shape`, and per slot
name one stretch of each vector that holds its blocks' slots.
Conv blocks that read the same tensor with the same kernel, pad and pool
form one sibling group, run as one step at its first member:

  * forward runs one conv whose kernels are the members' kernels
    stacked along the output channels, then one epilogue per member on
    that member's channel slice: `K.pool_relu` when the group pools,
    else `K.relu` in place;
  * backward runs each member's epilogue backward into that member's
    channel slice of the group's conv output, in place, and runs one
    conv backward, so the shared input's columns or padded copy and its
    gradient are built once per group rather than once per member.
Slot order and initialization are still those of separate convs.

A group's conv kernel follows from what it reads.  A group that reads
the batch runs `K.conv2d_batch` on im2col and, in backward,
`K.conv2d_batch_param_backward`: nothing reads the batch's gradient, so
none is computed.  Every other group runs `K.conv2d` and `K.conv2d_backward`
on shifted GEMMs.  A pooled group's conv writes plain (N, channels, H,
W) output, or, when the group reads the batch and `K.pool_ordered`
allows it (the 80-channel circuit stems, not the sequential nets'
8-channel 5x5 stems), pool-offset order (N, channels, p*p, Hq, Wq); the
step's `fold` is then its pool, else 1.  The epilogue is the same in
both: `K.pool_relu` takes each window's maximum and then ReLU, and
`K.pool_relu_backward` routes each member's gradient to its windows'
first maxima by comparing them with the member's pooled output.  It
reads each window offset of the pre-activation before it writes that
offset, so a pooled group writes its gradient over its own
pre-activation: no second buffer of the group's output size (16 MB for
the 1x28x28 circuit's stem group at batch 64, 21 MB at 3x32x32) is made.  An
unpooled group of several members writes each member's ReLU gradient
over its slice the same way; a lone unpooled member's gradient is new.

The epilogue must not run over the whole fused tensor.  The stem
group of a 1x28x28 circuit at batch 64 is a (64, 80, 28, 28) float32
tensor of 16 MB, four times a 4 MB L2, while one member's slice is
1.6 MB.  A prototype that did so, and also kept a second copy for the
ReLU output, trained the 1x28x28 circuit 15% slower on such a core and
raised the benchmark's peak memory by 13-18%.  In pool-offset order the
whole-group epilogue still lost: on the same stem group its backward
took 15.8-17.4 ms per step, against 10.4-13.8 ms run per member.
Unpooled, `K.relu` writes into its input instead, so member activations
are views of the one conv output; pooled, the conv output stays the
pre-activation, and each member's activation is a new pooled array,
1/p^2 of its slice.

One liveness rule, read off each step's `src` and `out`, decides how
long a tensor lives.  A training forward keeps every tensor plus one
saved value per step (a conv group's output, the pre-activation when it
pools and ReLU'd when not, the merge concat or the dense hidden
activation).  Backward walks the plan in reverse and adds into one
gradient per tensor.  In reverse every consumer of a
tensor runs before its producer, so once a step's backward has run
nothing reads its saved value, its outputs or their gradients again,
and the step drops them; a conv group's output holds only its gradient
when its conv backward runs.  Backward skips the stem's step 0 and never
stores tensor 0's gradient, which nothing reads.  An evaluation forward
(`keep=False`) saves nothing and drops each tensor once the last step
that reads it has run.

Memory.  Every array that forward or backward allocates, in a kernel or
in the graph (conv outputs, padded copies, im2col columns, pooled
outputs, concats, finiteness masks, gradients and their sums), comes
from the graph's `K.Workspace`, which both make active while they run;
the kernels take it through their private allocator, so they keep
their public names and signatures.  To drop an array is to release its
buffer for reuse, not to free it: once no array views a buffer, a
finalizer puts it back on the workspace's free list to be lent again,
and the workspace dies with the graph.  From the second step
at a batch shape on, a step maps no memory and takes no page faults
(CHANGES.md gives the counts).  Initialization is Kaiming-uniform over
fan-in with zero biases, drawn from a counter-based generator in slot
order, so a (spec, seed) pair yields the same parameters in any dtype.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from ..arch import ArchitectureSpec, BlockKind, ValidatedArch, param_count, validate
from ..errors import (
    InvalidConfig,
    NonFiniteActivation,
    ShapeMismatch,
    StaleActivation,
    seeded_generator,
)
from . import kernels as K


class _Step(NamedTuple):
    """One unit of the execution plan: a conv group or a single block."""
    kind: BlockKind
    params: dict
    src: tuple[int, ...]  # the tensors it reads
    out: tuple[int, ...]  # the tensors it writes: one per group member
    # a conv's member channel offsets (0, hi0, hi1, ...); else its sources' widths
    bounds: tuple[int, ...]
    p: dict[str, np.ndarray]  # slot name -> its stretch of the parameter vector
    g: dict[str, np.ndarray]  # slot name -> the same stretch of the gradient vector
    # a conv group's pool when its output is in pool-offset order, else 1
    fold: int


class CompiledGraph:
    def __init__(self, v: ValidatedArch, seed: int, *, dtype=np.float32):
        self.v = v
        self.spec = v.spec
        self.dtype = np.dtype(dtype)
        self._acts: tuple[list, list] | None = None  # forward's tensors and saved values
        self._workspace = K.Workspace()  # every array forward and backward allocate
        rng = seeded_generator("seed", seed, InvalidConfig)
        self.param_vector = np.zeros(param_count(v), self.dtype)
        self.grad_vector = np.zeros_like(self.param_vector)
        self._plan = self._compile_plan()
        for block_id in v.order:
            for name, shape, fan_in in v.slots[block_id]:
                if fan_in:  # a bias stays 0
                    bound = np.sqrt(6.0 / fan_in)
                    self.params[f"{block_id}/{name}"][...] = rng.uniform(-bound, bound, shape)
        # the step that reads each tensor last; forward without `keep` drops
        # the tensor once that step has run
        self._last_read = {t: i for i, step in enumerate(self._plan) for t in step.src}

    def _compile_plan(self) -> list[_Step]:
        """One step per block, except that sibling convs share one step at
        the first member's position.  The vectors are laid out step by
        step: per slot name a step's buffer views the next stretch of
        `param_vector`, its blocks' slots stacked along axis 0, and its
        gradient buffer the same stretch of `grad_vector`.  `params` and
        `grads` hold every slot's view, in canonical order."""
        v = self.v
        groups: dict[object, list[str]] = {}
        for block_id in v.order:
            block = self.spec.block(block_id)
            key: object = block_id
            if block.kind is BlockKind.CONV:
                p = block.params
                key = (v.inputs[block_id][0], p["kernel"], p["pad"], p["pool"])
            groups.setdefault(key, []).append(block_id)
        tensor = {block_id: t for t, block_id in enumerate(v.order)}
        shapes = {f"{b}/{name}": shape for b in v.order for name, shape, _ in v.slots[b]}
        where: dict[str, slice] = {}  # slot -> its stretch of the vectors
        end = 0
        plan = []
        for ids in groups.values():
            block, srcs = self.spec.block(ids[0]), v.inputs[ids[0]]
            bounds = (tuple(accumulate((v.out_shape[m][0] for m in ids), initial=0))
                      if block.kind is BlockKind.CONV else tuple(v.out_shape[s][0] for s in srcs))
            p, g = {}, {}
            for name, shape, _ in v.slots[ids[0]]:
                start = end
                for slot in (f"{m}/{name}" for m in ids):
                    where[slot] = slice(end, end + math.prod(shapes[slot]))
                    end = where[slot].stop
                p[name] = self.param_vector[start:end].reshape(-1, *shape[1:])
                g[name] = self.grad_vector[start:end].reshape(p[name].shape)
            src = tuple(tensor[s] for s in srcs)
            fold = (block.params["pool"] if block.kind is BlockKind.CONV and src == (0,)
                    and K.pool_ordered(p["w"], block.params["pool"]) else 1)
            plan.append(_Step(block.kind, block.params, src, tuple(tensor[m] for m in ids),
                              bounds, p, g, fold))
        self.params = {s: self.param_vector[where[s]].reshape(shapes[s]) for s in shapes}
        self.grads = {s: self.grad_vector[where[s]].reshape(shapes[s]) for s in shapes}
        return plan

    # --- execution ---

    def forward(self, x: np.ndarray, *, keep: bool = True) -> np.ndarray:
        """The logits of batch x.  With `keep` (training) every tensor and
        each step's saved value stay for `backward`; without it (evaluation)
        nothing is saved, and each tensor is dropped once its last reader
        has run."""
        # free the previous pass before this one allocates, and leave no
        # activations behind for backward if this pass raises
        self._acts = None
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1:] != tuple(self.spec.input_shape):
            raise ShapeMismatch(
                f"batch shape {x.shape} does not match input {self.spec.input_shape}")
        if not len(x):
            raise ShapeMismatch(f"batch shape {x.shape} holds no examples")
        outs: list = [None] * len(self.v.order)
        outs[0] = x
        saved: list = []
        ws = self._workspace
        with ws:
            for i, step in enumerate(self._plan):
                saved.append(self._forward_step(step, outs))
                for t in step.out:
                    if not np.isfinite(outs[t], out=ws.empty(outs[t].shape, bool)).all():
                        raise NonFiniteActivation(
                            f"block {self.v.order[t]!r} produced non-finite values")
                if not keep:  # no backward follows
                    saved.pop()
                    for t in step.src:
                        if self._last_read[t] == i:
                            outs[t] = None
        if keep:
            self._acts = (outs, saved)
        return outs[-1]

    def _forward_step(self, step: _Step, outs: list) -> np.ndarray | None:
        """Run one step, writing its output tensors into `outs`, and return
        the value its backward reads: a conv group's output (the
        pre-activation when the group pools; else ReLU'd, its channel
        slices the members' activations), the merge concat or the dense
        hidden activation.  The stem's output is the batch."""
        kind, params, src, out, bounds, p, _, fold = step
        if kind is BlockKind.CONV:
            pool = params["pool"]
            z = (K.conv2d(outs[src[0]], p["w"], p["b"], params["pad"]) if src[0]
                 else K.conv2d_batch(outs[0], p["w"], p["b"], params["pad"], fold))
            # per member, never over the whole of z (see the module docstring)
            for t, lo, hi in zip(out, bounds, bounds[1:]):
                outs[t] = K.pool_relu(z[:, lo:hi], pool) if pool > 1 else K.relu(z[:, lo:hi])
            return z
        if kind is BlockKind.MERGE:
            cat = K.concat_channels([outs[t] for t in src])
            outs[out[0]] = K.conv2d(cat, p["w"], p["b"], 0) if params["project"] else cat
            return cat
        if kind is BlockKind.GLOBAL_POOL:
            outs[out[0]] = K.global_avg_pool(outs[src[0]])
        elif kind is BlockKind.DENSE_HEAD:
            xin = outs[src[0]]
            flat = xin.reshape(xin.shape[0], -1)
            if params["hidden"] > 0:
                hidden = K.relu(K.dense(flat, p["w1"], p["b1"]))
                outs[out[0]] = K.dense(hidden, p["w2"], p["b2"])
                return hidden
            outs[out[0]] = K.dense(flat, p["w"], p["b"])
        return None

    def backward(self, grad_logits: np.ndarray) -> None:
        """Populate parameter gradients from the logits gradient.  Consumes
        the activations of the latest forward pass, each as soon as the
        step that produced it has run; a gradient not shaped like the
        logits raises ShapeMismatch and consumes nothing."""
        if self._acts is None:
            raise StaleActivation("backward called without a preceding forward")
        grad_logits = np.asarray(grad_logits, self.dtype)
        logits = self._acts[0][-1]
        if grad_logits.shape != logits.shape:
            raise ShapeMismatch(
                f"logits gradient {grad_logits.shape} does not match logits {logits.shape}")
        (outs, saved), self._acts = self._acts, None
        grads: list = [None] * len(outs)
        grads[-1] = grad_logits
        # every consumer of a tensor runs after its producer, so in reverse each
        # tensor's gradient is complete when its producer's step runs; step 0
        # is the stem
        with self._workspace:
            for i in range(len(self._plan) - 1, 0, -1):
                self._backward_step(i, outs, grads, saved)

    def _backward_step(self, i: int, outs: list, grads: list, saved: list) -> None:
        """Write step i's parameter gradients and add its inputs' gradients
        into `grads`.  The step first takes its saved value, its outputs and
        their gradients out of the lists: no step after it reads them."""
        kind, params, src, out, bounds, p, g, fold = self._plan[i]
        keep, saved[i] = saved[i], None
        ys, gys = [outs[t] for t in out], [grads[t] for t in out]
        for t in out:
            outs[t] = grads[t] = None
        if kind is BlockKind.CONV:
            pool = params["pool"]
            # each member's gradient goes into its channel slice of the conv
            # output, in place (see the module docstring); a lone unpooled
            # member's gradient is the group's
            gz = keep if len(out) > 1 or pool > 1 else None
            for lo, hi, y, gy in zip(bounds, bounds[1:], ys, gys):
                if pool > 1:
                    K.pool_relu_backward(gy, y, gz[:, lo:hi], pool, gz[:, lo:hi])
                elif gz is None:
                    gz = K.relu_backward(gy, y)
                else:
                    gz[:, lo:hi] = K.relu_backward(gy, y)
            # no forward value of the group (the members' activations may
            # view its output) lives on into the conv backward
            del keep, ys, gys, y, gy
            if src[0]:
                gx, g["w"][...], g["b"][...] = K.conv2d_backward(
                    gz, outs[src[0]], p["w"], params["pad"])
                gins = [gx]
            else:  # nothing reads the batch's gradient
                g["w"][...], g["b"][...] = K.conv2d_batch_param_backward(
                    gz, outs[0], p["w"], params["pad"], fold)
                gins = []
        elif kind is BlockKind.MERGE:
            gcat = gys[0]
            if params["project"]:
                gcat, g["w"][...], g["b"][...] = K.conv2d_backward(gcat, keep, p["w"], 0)
            gins = K.concat_channels_backward(gcat, bounds)
        elif kind is BlockKind.GLOBAL_POOL:
            gins = [K.global_avg_pool_backward(gys[0], outs[src[0]].shape)]
        else:  # BlockKind.DENSE_HEAD
            xin = outs[src[0]]
            flat = xin.reshape(xin.shape[0], -1)
            if params["hidden"] > 0:
                ga1, g["w2"][...], g["b2"][...] = K.dense_backward(gys[0], keep, p["w2"])
                gflat, g["w1"][...], g["b1"][...] = K.dense_backward(
                    K.relu_backward(ga1, keep), flat, p["w1"])
            else:
                gflat, g["w"][...], g["b"][...] = K.dense_backward(gys[0], flat, p["w"])
            gins = [gflat.reshape(xin.shape)]
        if not all(np.isfinite(buf).all() for buf in g.values()):
            bad = next(t for t in out if not all(
                np.isfinite(self.grads[f"{self.v.order[t]}/{name}"]).all() for name in g))
            raise NonFiniteActivation(
                f"block {self.v.order[bad]!r} produced a non-finite parameter gradient")
        for t, gin in zip(src, gins):
            if t:  # tensor 0 needs no gradient
                grads[t] = gin if grads[t] is None else np.add(
                    grads[t], gin, out=self._workspace.empty(gin.shape, gin.dtype))


def compile_arch(spec: ArchitectureSpec | ValidatedArch, seed: int, *,
                 dtype=np.float32) -> CompiledGraph:
    v = spec if isinstance(spec, ValidatedArch) else validate(spec)
    return CompiledGraph(v, seed, dtype=dtype)
