"""Compile validated architectures into executable parameterized graphs.

A compiled graph owns one flat namespace of parameter arrays keyed
"block_id/name", ordered by topological block position then name.  That
order is the contract for optimizers and for the checkpoint layout; the
constructor fills `params` in it, and binding a slot to a buffer view
keeps the slot's place.  The slots, their shapes
and fan-ins come from the validated arch (`ValidatedArch.slots`, filled
from the block-kind table in arch.py); the graph adds no shape rule.

Tensor t is the output of block `v.order[t]`, so tensor 0 is the input
batch (the stem is the only block without inputs).  Compiling binds every
block once into a plan of steps, each with the tensors it reads and
writes, its channel bounds from `ValidatedArch.out_shape`, and per slot
name one parameter and one gradient buffer that its blocks' slots view.
Conv blocks that read the same tensor with the same kernel, pad and pool
form one sibling group, run as one step at its first member:

  * forward runs one conv whose kernels are the members' kernels
    stacked along the output channels, then ReLU and pooling per member
    on that member's channel slice;
  * backward pools and ReLUs back per member into that member's channel
    slice of one gradient buffer, and runs one conv backward, so the
    shared input's im2col patches and its gradient are built once per
    group rather than once per member.
Slot order, initialization, checkpoints and optimizer state are still
those of separate convs.

A group that reads the batch and pools runs in pool-offset order when
`K.pool_ordered` allows it (im2col, and at least as many output channels
as columns: the 80-channel stems of the circuit nets, not the sequential
nets' 8-channel 5x5 stems); the step's `fold` is then its pool.  Its conv
writes (N, channels, p*p, Hq, Wq), each member's pooled activation is the
maximum over that slice's p*p contiguous slabs followed by ReLU, and
backward routes each member's gradient to its windows' first maxima by
comparing the slabs with the member's pooled output.  No conv that reads
the batch computes an input gradient, in either order.

ReLU and pooling must not run over the whole fused tensor.  The stem
group of a 1x28x28 circuit at batch 64 is a (64, 80, 28, 28) float32
tensor of 16 MB, four times a 4 MB L2, while one member's slice is
1.6 MB.  A prototype that did so, and also kept a second copy for the
ReLU output, trained the 1x28x28 circuit 15% slower on such a core and
raised the benchmark's peak memory by 13-18%.  In plain order `K.relu`
writes into its input instead, so member activations are views of the
one conv output; in pool-offset order the conv output stays the
pre-activation, and each member's activation is a new pooled array,
1/p^2 of its slice's size.

One liveness rule, read off each step's `src` and `out`, decides how
long a tensor lives.  A training forward keeps every tensor plus one
saved value per step (a conv group's output, ReLU'd in plain order and
the pre-activation in pool-offset order, the merge concat or the dense
hidden activation).  Backward walks the plan in reverse and
adds into one gradient per tensor.  In reverse every consumer of a
tensor runs before its producer, so once a step's backward has run
nothing reads its saved value, its outputs or their gradients again,
and the step drops them; a conv group drops its conv output before
its conv backward allocates.  Backward skips the stem's step 0 and never
stores tensor 0's gradient, which nothing reads.  An evaluation forward
(`keep=False`) saves nothing and drops each tensor once the last step
that reads it has run.  Initialization is Kaiming-uniform over
fan-in with zero biases, drawn from a counter-based generator in slot
order, so a (spec, seed) pair yields the same parameters in any dtype.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from ..arch import ArchitectureSpec, BlockKind, ValidatedArch, validate
from ..errors import (
    BadMagic,
    CheckpointError,
    InvalidConfig,
    NonFiniteActivation,
    ShapeMismatch,
    StaleActivation,
    TruncatedFile,
    read_input,
    seeded_generator,
)
from . import kernels as K

CHECKPOINT_MAGIC = b"CFG1"


class _Step(NamedTuple):
    """One unit of the execution plan: a conv group or a single block."""
    kind: BlockKind
    params: dict
    src: tuple[int, ...]  # the tensors it reads
    out: tuple[int, ...]  # the tensors it writes: one per group member
    # a conv's member channel offsets (0, hi0, hi1, ...); else its sources' widths
    bounds: tuple[int, ...]
    p: dict[str, np.ndarray]  # slot name -> the buffer its blocks' slots view
    g: dict[str, np.ndarray]  # slot name -> the gradient buffer, viewed alike
    # a conv group's pool when its output is in pool-offset order, else 1
    fold: int


class CompiledGraph:
    def __init__(self, v: ValidatedArch, seed: int, *, dtype=np.float32):
        self.v = v
        self.spec = v.spec
        self.dtype = np.dtype(dtype)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._acts: tuple[list, list] | None = None  # forward's tensors and saved values
        rng = seeded_generator("seed", seed, InvalidConfig)
        for block_id in v.order:
            for name, shape, fan_in in v.slots[block_id]:
                if fan_in == 0:  # bias
                    value = np.zeros(shape, dtype=self.dtype)
                else:
                    bound = np.sqrt(6.0 / fan_in)
                    value = rng.uniform(-bound, bound, size=shape).astype(self.dtype)
                self.params[f"{block_id}/{name}"] = value
        self._plan = self._compile_plan()
        # the step that reads each tensor last; forward without `keep` drops
        # the tensor once that step has run
        self._last_read = {t: i for i, step in enumerate(self._plan) for t in step.src}

    def _compile_plan(self) -> list[_Step]:
        """One step per block, except that sibling convs share one step at
        the first member's position.  Per slot name a step gets one buffer,
        its blocks' values stacked along axis 0, and each block's slot
        becomes a [lo:hi] view of it."""
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
        plan = []
        for ids in groups.values():
            block, srcs = self.spec.block(ids[0]), v.inputs[ids[0]]
            bounds = (tuple(accumulate((v.out_shape[m][0] for m in ids), initial=0))
                      if block.kind is BlockKind.CONV else tuple(v.out_shape[s][0] for s in srcs))
            p, g = {}, {}
            for name, _, _ in v.slots[ids[0]]:
                slots = [f"{m}/{name}" for m in ids]
                p[name] = np.concatenate([self.params[s] for s in slots])
                g[name] = np.zeros_like(p[name])
                lo = 0
                for s in slots:
                    hi = lo + self.params[s].shape[0]
                    self.params[s], self.grads[s] = p[name][lo:hi], g[name][lo:hi]
                    lo = hi
            src = tuple(tensor[s] for s in srcs)
            fold = (block.params["pool"] if block.kind is BlockKind.CONV and src == (0,)
                    and K.pool_ordered(p["w"], block.params["pool"]) else 1)
            plan.append(_Step(block.kind, block.params, src, tuple(tensor[m] for m in ids),
                              bounds, p, g, fold))
        return plan

    # --- parameter access ---

    def param_slots(self):
        """(slot, value, grad) triples in the canonical checkpoint order."""
        for slot, value in self.params.items():
            yield slot, value, self.grads[slot]

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
        outs: list = [None] * len(self.v.order)
        outs[0] = x
        saved: list = []
        for i, step in enumerate(self._plan):
            saved.append(self._forward_step(step, outs))
            for t in step.out:
                if not np.isfinite(outs[t]).all():
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
        the value its backward reads: a conv group's output (in plain
        order ReLU'd, its channel slices the members' activations; in
        pool-offset order the pre-activation), the merge concat or the
        dense hidden activation.  The stem's output is the batch."""
        kind, params, src, out, bounds, p, _, fold = step
        if kind is BlockKind.CONV and fold > 1:
            z = K.conv2d_pool_ordered(outs[src[0]], p["w"], p["b"], params["pad"], fold)
            for t, lo, hi in zip(out, bounds, bounds[1:]):
                outs[t] = K.pool_relu(z[:, lo:hi])
            return z
        if kind is BlockKind.CONV:
            z = K.conv2d(outs[src[0]], p["w"], p["b"], params["pad"])
            pool = params["pool"]
            # per member, never over the whole of z (see the module docstring)
            for t, lo, hi in zip(out, bounds, bounds[1:]):
                a = K.relu(z[:, lo:hi])
                outs[t] = K.maxpool(a, pool) if pool > 1 else a
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
        step that produced it has run."""
        if self._acts is None:
            raise StaleActivation("backward called without a preceding forward")
        (outs, saved), self._acts = self._acts, None
        grads: list = [None] * len(outs)
        grads[-1] = np.asarray(grad_logits, self.dtype)
        # every consumer of a tensor runs after its producer, so in reverse each
        # tensor's gradient is complete when its producer's step runs; step 0
        # is the stem
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
            # each member's gradient goes into its channel slice of one
            # buffer; a lone member's gradient is the group's
            gz = np.empty(keep.shape, keep.dtype) if len(out) > 1 or fold > 1 else None
            for lo, hi, y, gy in zip(bounds, bounds[1:], ys, gys):
                if fold > 1:
                    K.pool_relu_backward(gy, y, keep[:, lo:hi], gz[:, lo:hi])
                    continue
                # ReLU back on the pooled gradient, a quarter of the cells:
                # a window's max is > 0 exactly where its winner's relu(z)
                # is, and relu(z) > 0 exactly where z > 0
                gy = K.relu_backward(gy, y)
                if pool > 1:
                    gy = K.maxpool_backward(gy, keep[:, lo:hi], pool)
                if gz is None:
                    gz = gy
                else:
                    gz[:, lo:hi] = gy
            # the conv output (the members' activations may view it) dies
            # before the conv backward allocates its patches
            del keep, ys, gys, y, gy
            if src[0]:
                gx, g["w"][...], g["b"][...] = K.conv2d_backward(
                    gz, outs[src[0]], p["w"], params["pad"])
                gins = [gx]
            else:  # nothing reads the batch's gradient
                g["w"][...], g["b"][...] = K.conv2d_param_backward(
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
                grads[t] = gin if grads[t] is None else grads[t] + gin


def compile_arch(spec: ArchitectureSpec | ValidatedArch, seed: int, *,
                 dtype=np.float32) -> CompiledGraph:
    v = spec if isinstance(spec, ValidatedArch) else validate(spec)
    return CompiledGraph(v, seed, dtype=dtype)


# --- checkpointing ---

def save_checkpoint(g: CompiledGraph, path) -> None:
    """Magic, 4-byte spec-JSON length, spec JSON, then every parameter as
    little-endian float32 in slot order.  Only float32 graphs are saved,
    so no parameter loses precision on the way to disk."""
    if g.dtype != np.float32:
        raise CheckpointError(
            f"{path}: checkpoints store float32, graph is {g.dtype}")
    doc = g.spec.to_json().encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(doc)))
        fh.write(doc)
        for _, value, _ in g.param_slots():
            fh.write(np.ascontiguousarray(value, dtype="<f4").tobytes())


def load_checkpoint(path) -> CompiledGraph:
    blob = read_input(path)
    if len(blob) < 8 or blob[:4] != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: not a checkpoint (magic {blob[:4]!r})")
    (doc_len,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + doc_len:
        raise TruncatedFile(path, 8 + doc_len, len(blob))
    spec = ArchitectureSpec.from_json(blob[8:8 + doc_len])
    g = compile_arch(spec, seed=0)
    offset = 8 + doc_len
    for slot, value, _ in g.param_slots():
        nbytes = value.size * 4
        if len(blob) < offset + nbytes:
            raise TruncatedFile(path, offset + nbytes, len(blob))
        flat = np.frombuffer(blob, dtype="<f4", count=value.size, offset=offset)
        value[...] = flat.reshape(value.shape)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(
            f"{path}: {len(blob) - offset} trailing bytes after parameters")
    return g
