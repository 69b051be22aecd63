"""Compile validated architectures into executable parameterized graphs.

A compiled graph owns one flat namespace of parameter arrays keyed
"block_id/name", ordered by topological block position then name.  That
order is the contract for optimizers and for the checkpoint layout, so
it must never depend on dict insertion history.  The slots, their shapes
and fan-ins come from the validated arch (`ValidatedArch.slots`, filled
from the block-kind table in arch.py); the graph adds no shape rule.

Compiling binds every block's kind, params and sources into a plan of
steps, so forward and backward look nothing up per block.  Conv blocks
that read the same source with the same kernel, pad and pool form one
sibling group; most groups have a single member, and every conv runs
through a group.  A group is one step, placed at its first member:

  * forward runs one conv whose kernels are the members' kernels
    stacked along the output channels, then ReLU and pooling per member
    on that member's channel slice;
  * backward pools and ReLUs back per member, concatenates the results,
    and runs one conv backward, so the shared input's im2col patches and
    its gradient are built once per group rather than once per member.

The group's weights and biases, and their gradients, each live in one
buffer, and every member slot in `params` and `grads` is a [lo:hi] view
of it.  Slot order, initialization, checkpoints and the slot-keyed
optimizer state are therefore those of separate convs.

ReLU and pooling must not run over the whole fused tensor.  The stem
group of a 1x28x28 circuit at batch 64 is a (64, 80, 28, 28) float32
tensor of 16 MB, four times a 4 MB L2, while one member's slice is
1.6 MB.  A prototype that did so, and also kept a second copy for the
ReLU output, trained the 1x28x28 circuit 15% slower on such a core and
raised the benchmark's peak memory by 13-18%.  `K.relu` writes into its
input instead, so member activations are views of the one conv output.

Forward caches per-block activations; backward consumes and invalidates
them.  Initialization is Kaiming-uniform over fan-in with zero biases,
drawn from a counter-based generator in slot order, so a (spec, seed)
pair always yields the same parameters regardless of dtype.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from ..arch import ArchitectureSpec, BlockKind, ValidatedArch, validate
from ..errors import (
    BadMagic,
    CheckpointError,
    NonFiniteActivation,
    ShapeMismatch,
    StaleActivation,
    TruncatedFile,
)
from . import kernels as K

CHECKPOINT_MAGIC = b"CFG1"


class _Step(NamedTuple):
    """One unit of the execution plan.  A conv step runs a whole sibling
    group: `members` holds each member's id and output-channel range
    [lo, hi), and `w`, `b` are the buffers the members' slots view."""
    block_id: str  # for a conv group, its first member
    kind: BlockKind
    params: dict
    srcs: tuple[str, ...]
    members: tuple[tuple[str, int, int], ...] = ()
    w: np.ndarray | None = None
    b: np.ndarray | None = None


class CompiledGraph:
    def __init__(self, v: ValidatedArch, seed: int, *, dtype=np.float32):
        self.v = v
        self.spec = v.spec
        self.dtype = np.dtype(dtype)
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._slot_order: list[str] = []
        self._acts: dict[str, dict] | None = None
        rng = np.random.Generator(np.random.Philox(key=int(seed)))
        for block_id in v.order:
            for name, shape, fan_in in v.slots[block_id]:
                slot = f"{block_id}/{name}"
                if fan_in == 0:  # bias
                    value = np.zeros(shape, dtype=self.dtype)
                else:
                    bound = np.sqrt(6.0 / fan_in)
                    value = rng.uniform(-bound, bound, size=shape).astype(self.dtype)
                self.params[slot] = value
                self.grads[slot] = np.zeros(shape, dtype=self.dtype)
                self._slot_order.append(slot)
        self._plan = self._compile_plan()

    def _compile_plan(self) -> list[_Step]:
        """One step per block, except that sibling convs share one step at
        the first member's position; their slots become views of the
        group's buffers."""
        groups: dict[object, list[str]] = {}
        for block_id in self.v.order:
            block = self.spec.block(block_id)
            key: object = block_id
            if block.kind is BlockKind.CONV:
                p = block.params
                key = (self.v.inputs[block_id][0], p["kernel"], p["pad"], p["pool"])
            groups.setdefault(key, []).append(block_id)
        return [self._bind(ids) for ids in groups.values()]

    def _bind(self, ids: list[str]) -> _Step:
        block = self.spec.block(ids[0])
        step = _Step(ids[0], block.kind, block.params, self.v.inputs[ids[0]])
        if block.kind is not BlockKind.CONV:
            return step
        bufs = {}
        for name in ("w", "b"):
            value = np.concatenate([self.params[f"{m}/{name}"] for m in ids])
            bufs[name] = (value, np.zeros_like(value))
        members = []
        lo = 0
        for m in ids:
            hi = lo + self.params[f"{m}/b"].shape[0]
            for name, (value, grad) in bufs.items():
                self.params[f"{m}/{name}"] = value[lo:hi]
                self.grads[f"{m}/{name}"] = grad[lo:hi]
            members.append((m, lo, hi))
            lo = hi
        return step._replace(members=tuple(members), w=bufs["w"][0], b=bufs["b"][0])

    # --- parameter access ---

    def param_slots(self):
        """(slot, value, grad) triples in the canonical checkpoint order."""
        for slot in self._slot_order:
            yield slot, self.params[slot], self.grads[slot]

    def n_params(self) -> int:
        return sum(p.size for p in self.params.values())

    # --- execution ---

    def forward(self, x: np.ndarray) -> np.ndarray:
        # free the previous pass before this one allocates, and leave no
        # activations behind for backward if this pass raises
        self._acts = None
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4 or x.shape[1:] != tuple(self.spec.input_shape):
            raise ShapeMismatch(
                f"batch shape {x.shape} does not match input {self.spec.input_shape}")
        acts: dict[str, dict] = {}
        for block_id, kind, params, srcs, members, w, b in self._plan:
            cache: dict = {}
            if kind is BlockKind.STEM:
                out = x
            elif kind is BlockKind.CONV:
                xin = acts[srcs[0]]["out"]
                z = K.conv2d(xin, w, b, params["pad"])
                pool = params["pool"]
                # per member, never over the whole of z (see the module docstring)
                for member, lo, hi in members:
                    a = K.relu(z[:, lo:hi])
                    out = K.maxpool(a, pool) if pool > 1 else a
                    self._check_finite(member, out)
                    acts[member] = {"a": a, "out": out}
                acts[block_id]["x"] = xin
                continue
            elif kind is BlockKind.MERGE:
                parts = [acts[s]["out"] for s in srcs]
                cat = K.concat_channels(parts)
                if params["project"]:
                    out = K.conv2d(cat, self.params[f"{block_id}/w"],
                                   self.params[f"{block_id}/b"], 0)
                    cache = {"cat": cat}
                else:
                    out = cat
                cache["channels"] = [p.shape[1] for p in parts]
            elif kind is BlockKind.GLOBAL_POOL:
                xin = acts[srcs[0]]["out"]
                out = K.global_avg_pool(xin)
                cache = {"x_shape": xin.shape}
            else:  # BlockKind.DENSE_HEAD
                flat = acts[srcs[0]]["out"].reshape(x.shape[0], -1)
                if params["hidden"] > 0:
                    h1 = K.dense(flat, self.params[f"{block_id}/w1"],
                                 self.params[f"{block_id}/b1"])
                    a1 = K.relu(h1)
                    out = K.dense(a1, self.params[f"{block_id}/w2"],
                                  self.params[f"{block_id}/b2"])
                    cache = {"flat": flat, "a1": a1}
                else:
                    out = K.dense(flat, self.params[f"{block_id}/w"],
                                  self.params[f"{block_id}/b"])
                    cache = {"flat": flat}
                cache["in_shape"] = acts[srcs[0]]["out"].shape
            self._check_finite(block_id, out)
            cache["out"] = out
            acts[block_id] = cache
        self._acts = acts
        return acts[self.v.order[-1]]["out"]

    def _check_finite(self, block_id: str, out: np.ndarray) -> None:
        if not np.isfinite(out).all():
            raise NonFiniteActivation(f"block {block_id!r} produced non-finite values")

    def backward(self, grad_logits: np.ndarray) -> None:
        """Populate parameter gradients from the logits gradient.  Consumes
        the activations of the latest forward pass."""
        if self._acts is None:
            raise StaleActivation("backward called without a preceding forward")
        acts = self._acts
        self._acts = None
        agrad: dict[str, np.ndarray] = {self.v.order[-1]: np.asarray(grad_logits, self.dtype)}

        def grad_of(block_id: str) -> np.ndarray:
            g = agrad.get(block_id)
            if g is None:
                raise StaleActivation(f"no gradient reached block {block_id!r}")
            return g

        def push(src: str, g: np.ndarray) -> None:
            if src in agrad:
                agrad[src] = agrad[src] + g
            else:
                agrad[src] = g

        # a group's step comes before every consumer of every member, so in
        # reverse each member's gradient is complete when the step runs
        for block_id, kind, params, srcs, members, w, _ in reversed(self._plan):
            if kind is BlockKind.CONV:
                pool = params["pool"]
                gzs = []
                for member, _, _ in members:
                    # ReLU back on the pooled gradient, a quarter of the cells:
                    # a window's max is > 0 exactly where its winner's relu(z)
                    # is, and relu(z) > 0 exactly where z > 0
                    gout = K.relu_backward(grad_of(member), acts[member]["out"])
                    a = acts[member]["a"]
                    gzs.append(K.maxpool_backward(gout, a, pool) if pool > 1 else gout)
                gz = gzs[0] if len(gzs) == 1 else np.concatenate(gzs, axis=1)
                # free the parts before conv2d_backward allocates: holding them
                # too raised each step's peak enough that the heap was handed
                # back to the OS and page-faulted in again every step
                del gzs
                gx, gw, gb = K.conv2d_backward(gz, acts[block_id]["x"], w, params["pad"])
                for member, lo, hi in members:
                    self._set_grads(member, w=gw[lo:hi], b=gb[lo:hi])
                push(srcs[0], gx)
                continue
            gout = grad_of(block_id)
            cache = acts[block_id]
            if kind is BlockKind.MERGE:
                if params["project"]:
                    gcat, gw, gb = K.conv2d_backward(gout, cache["cat"],
                                                     self.params[f"{block_id}/w"], 0)
                    self._set_grads(block_id, w=gw, b=gb)
                else:
                    gcat = gout
                for src, g in zip(srcs, K.concat_channels_backward(gcat, cache["channels"])):
                    push(src, g)
            elif kind is BlockKind.GLOBAL_POOL:
                push(srcs[0], K.global_avg_pool_backward(gout, cache["x_shape"]))
            elif kind is BlockKind.DENSE_HEAD:
                if params["hidden"] > 0:
                    ga1, gw2, gb2 = K.dense_backward(gout, cache["a1"],
                                                     self.params[f"{block_id}/w2"])
                    gh1 = K.relu_backward(ga1, cache["a1"])
                    gflat, gw1, gb1 = K.dense_backward(gh1, cache["flat"],
                                                       self.params[f"{block_id}/w1"])
                    self._set_grads(block_id, w1=gw1, b1=gb1, w2=gw2, b2=gb2)
                else:
                    gflat, gw, gb = K.dense_backward(gout, cache["flat"],
                                                     self.params[f"{block_id}/w"])
                    self._set_grads(block_id, w=gw, b=gb)
                push(srcs[0], gflat.reshape(cache["in_shape"]))

    def _set_grads(self, block_id: str, **grads: np.ndarray) -> None:
        """Store one block's parameter gradients, refusing non-finite ones."""
        for name, g in grads.items():
            self.grads[f"{block_id}/{name}"][...] = g
        if not all(np.isfinite(g).all() for g in grads.values()):
            raise NonFiniteActivation(
                f"block {block_id!r} produced a non-finite parameter gradient")


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


def load_checkpoint(path, *, dtype=np.float32) -> CompiledGraph:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: not a checkpoint (magic {blob[:4]!r})")
    (doc_len,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + doc_len:
        raise TruncatedFile(path, 8 + doc_len, len(blob))
    spec = ArchitectureSpec.from_json(blob[8:8 + doc_len].decode("utf-8"))
    g = compile_arch(spec, seed=0, dtype=dtype)
    offset = 8 + doc_len
    for slot, value, _ in g.param_slots():
        nbytes = value.size * 4
        if len(blob) < offset + nbytes:
            raise TruncatedFile(path, offset + nbytes, len(blob))
        flat = np.frombuffer(blob, dtype="<f4", count=value.size, offset=offset)
        value[...] = flat.reshape(value.shape).astype(g.dtype)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(
            f"{path}: {len(blob) - offset} trailing bytes after parameters")
    return g
