"""Compile validated architectures into executable parameterized graphs.

A compiled graph owns one flat namespace of parameter arrays keyed
"block_id/name", ordered by topological block position then name.  That
order is the contract for optimizers and for the checkpoint layout, so
it must never depend on dict insertion history.

Forward caches per-block activations; backward consumes and invalidates
them.  Initialization is Kaiming-uniform over fan-in with zero biases,
drawn from a counter-based generator in slot order, so a (spec, seed)
pair always yields the same parameters regardless of dtype.
"""

from __future__ import annotations

import struct

import numpy as np

from ..arch import ArchitectureSpec, BlockKind, ValidatedArch, validate
from ..errors import (
    BadMagic,
    CheckpointError,
    NonFiniteActivation,
    ShapeMismatch,
    StaleActivation,
    TruncatedFile,
    UnsupportedBlockKind,
)
from . import kernels as K

CHECKPOINT_MAGIC = b"CFG1"


class CompiledGraph:
    def __init__(self, v: ValidatedArch, seed: int, *, dtype=np.float32,
                 check_finite: bool = True):
        self.v = v
        self.spec = v.spec
        self.dtype = np.dtype(dtype)
        self.check_finite = check_finite
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._slot_order: list[str] = []
        self._acts: dict[str, dict] | None = None
        rng = np.random.Generator(np.random.Philox(key=int(seed)))
        for block_id in v.order:
            block = self.spec.block(block_id)
            for name, shape, fan_in in self._slot_plan(block_id, block):
                slot = f"{block_id}/{name}"
                if fan_in == 0:  # bias
                    value = np.zeros(shape, dtype=self.dtype)
                else:
                    bound = np.sqrt(6.0 / fan_in)
                    value = rng.uniform(-bound, bound, size=shape).astype(self.dtype)
                self.params[slot] = value
                self.grads[slot] = np.zeros(shape, dtype=self.dtype)
                self._slot_order.append(slot)

    def _slot_plan(self, block_id: str, block) -> list[tuple[str, tuple, int]]:
        """(name, shape, fan_in) for each parameter; fan_in 0 marks a bias.
        Names sort in initialization order within the block."""
        spec = self.spec
        v = self.v
        if block.kind in (BlockKind.STEM, BlockKind.GLOBAL_POOL):
            return []
        if block.kind is BlockKind.CONV:
            in_ch = v.in_shapes(block_id)[0][0]
            out_ch = block.params["multiplier"] * spec.c
            k = block.params["kernel"]
            return [("b", (out_ch,), 0), ("w", (out_ch, in_ch, k, k), in_ch * k * k)]
        if block.kind is BlockKind.MERGE:
            if not block.params["project"]:
                return []
            in_ch = sum(s[0] for s in v.in_shapes(block_id))
            return [("b", (spec.c,), 0), ("w", (spec.c, in_ch, 1, 1), in_ch)]
        if block.kind is BlockKind.DENSE_HEAD:
            ch, h, w = v.in_shapes(block_id)[0]
            flat = ch * h * w
            hidden = block.params["hidden"]
            if hidden == 0:
                return [("b", (spec.num_categories,), 0),
                        ("w", (flat, spec.num_categories), flat)]
            return [("b1", (hidden,), 0), ("b2", (spec.num_categories,), 0),
                    ("w1", (flat, hidden), flat),
                    ("w2", (hidden, spec.num_categories), hidden)]
        raise UnsupportedBlockKind(f"no kernels for block kind {block.kind!r}")

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
        for block_id in self.v.order:
            block = self.spec.block(block_id)
            srcs = self.v.inputs[block_id]
            cache: dict = {}
            if block.kind is BlockKind.STEM:
                out = x
            elif block.kind is BlockKind.CONV:
                xin = acts[srcs[0]]["out"]
                z = K.conv2d(xin, self.params[f"{block_id}/w"],
                             self.params[f"{block_id}/b"], block.params["pad"])
                a = K.relu(z)
                pool = block.params["pool"]
                out = K.maxpool(a, pool) if pool > 1 else a
                cache = {"x": xin, "a": a}
            elif block.kind is BlockKind.MERGE:
                parts = [acts[s]["out"] for s in srcs]
                cat = K.concat_channels(parts)
                if block.params["project"]:
                    out = K.conv2d(cat, self.params[f"{block_id}/w"],
                                   self.params[f"{block_id}/b"], 0)
                    cache = {"cat": cat}
                else:
                    out = cat
                cache["channels"] = [p.shape[1] for p in parts]
            elif block.kind is BlockKind.GLOBAL_POOL:
                xin = acts[srcs[0]]["out"]
                out = K.global_avg_pool(xin)
                cache = {"x_shape": xin.shape}
            elif block.kind is BlockKind.DENSE_HEAD:
                flat = acts[srcs[0]]["out"].reshape(x.shape[0], -1)
                if block.params["hidden"] > 0:
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
            else:
                raise UnsupportedBlockKind(f"no kernels for block kind {block.kind!r}")
            if self.check_finite and not np.isfinite(out).all():
                raise NonFiniteActivation(f"block {block_id!r} produced non-finite values")
            cache["out"] = out
            acts[block_id] = cache
        self._acts = acts
        return acts[self.v.order[-1]]["out"]

    def backward(self, grad_logits: np.ndarray) -> None:
        """Populate parameter gradients from the logits gradient.  Consumes
        the activations of the latest forward pass."""
        if self._acts is None:
            raise StaleActivation("backward called without a preceding forward")
        acts = self._acts
        self._acts = None
        agrad: dict[str, np.ndarray] = {self.v.order[-1]: np.asarray(grad_logits, self.dtype)}

        def push(src: str, g: np.ndarray) -> None:
            if src in agrad:
                agrad[src] = agrad[src] + g
            else:
                agrad[src] = g

        for block_id in reversed(self.v.order):
            block = self.spec.block(block_id)
            srcs = self.v.inputs[block_id]
            gout = agrad.get(block_id)
            if gout is None:
                raise StaleActivation(f"no gradient reached block {block_id!r}")
            cache = acts[block_id]
            if block.kind is BlockKind.STEM:
                continue
            if block.kind is BlockKind.CONV:
                pool = block.params["pool"]
                ga = K.maxpool_backward(gout, cache["a"], pool) if pool > 1 else gout
                # relu(z) > 0 exactly where z > 0, so the output stands in for z
                gz = K.relu_backward(ga, cache["a"])
                gx, gw, gb = K.conv2d_backward(gz, cache["x"],
                                               self.params[f"{block_id}/w"],
                                               block.params["pad"])
                self._set_grads(block_id, w=gw, b=gb)
                push(srcs[0], gx)
            elif block.kind is BlockKind.MERGE:
                if block.params["project"]:
                    gcat, gw, gb = K.conv2d_backward(gout, cache["cat"],
                                                     self.params[f"{block_id}/w"], 0)
                    self._set_grads(block_id, w=gw, b=gb)
                else:
                    gcat = gout
                for src, g in zip(srcs, K.concat_channels_backward(gcat, cache["channels"])):
                    push(src, g)
            elif block.kind is BlockKind.GLOBAL_POOL:
                push(srcs[0], K.global_avg_pool_backward(gout, cache["x_shape"]))
            elif block.kind is BlockKind.DENSE_HEAD:
                if block.params["hidden"] > 0:
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
        """Store one block's parameter gradients, refusing non-finite ones
        when check_finite is set."""
        for name, g in grads.items():
            self.grads[f"{block_id}/{name}"][...] = g
        if self.check_finite and not all(np.isfinite(g).all() for g in grads.values()):
            raise NonFiniteActivation(
                f"block {block_id!r} produced a non-finite parameter gradient")


def compile_arch(spec: ArchitectureSpec | ValidatedArch, seed: int, *,
                 dtype=np.float32, check_finite: bool = True) -> CompiledGraph:
    v = spec if isinstance(spec, ValidatedArch) else validate(spec)
    return CompiledGraph(v, seed, dtype=dtype, check_finite=check_finite)


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


def load_checkpoint(path, *, dtype=np.float32, check_finite: bool = True) -> CompiledGraph:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: not a checkpoint (magic {blob[:4]!r})")
    (doc_len,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + doc_len:
        raise TruncatedFile(path, 8 + doc_len, len(blob))
    spec = ArchitectureSpec.from_json(blob[8:8 + doc_len].decode("utf-8"))
    g = compile_arch(spec, seed=0, dtype=dtype, check_finite=check_finite)
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
