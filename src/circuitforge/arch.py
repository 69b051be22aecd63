"""Compile circuits into convolutional-network architectures.

Three generators share one block vocabulary:

  * circuit style: every neuron becomes a 3x3 ConvBlock wired exactly
    like the circuit; sensory blocks downsample once by 2, nodes with
    several inputs get a channel-concat Merge (projected back to c by a
    1x1 convolution), motor outputs are concatenated, average-pooled
    and fed to a dense head;
  * randomized style: same node and edge counts, a fresh role-preserving
    tripartite wiring drawn from a seeded generator, mapped onto blocks
    by the same DAG compiler as the circuit style;
  * sequential style: a LeNet-like chain of two 5x5 valid convolutions
    with 2x pooling and a hidden dense layer.

Each block kind's required params, input count, output-shape rule and
parameter slots live in one table, `_OPS`, which block construction,
validation, `param_count` and the engine's compiler all read.

The block graph serializes to a small JSON document; validation
topologically sorts the graph and annotates every block with its output
shape and parameter slots, failing loudly on cycles, unreachable blocks
or exhausted spatial dims.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from .connectome import Role, json_text, read_json, write_json
from .errors import (
    ConstraintUnsatisfiable,
    CycleDetected,
    EmptyCircuit,
    InvalidArchitecture,
    ShapeInferenceFailure,
    ShapeMismatchAtMerge,
    UnreachableBlock,
    check_int,
    seeded_generator,
)
from .extraction import FunctionalCircuit

Shape = tuple[int, int, int]
Slot = tuple[str, tuple[int, ...], int]  # (name, shape, fan_in); fan_in 0 marks a bias


class BlockKind(enum.Enum):
    STEM = "Stem"
    CONV = "ConvBlock"
    MERGE = "Merge"
    GLOBAL_POOL = "GlobalPool"
    DENSE_HEAD = "DenseHead"


# --- the op table ---

class _Op(NamedTuple):
    """The rules of one block kind.  Which kernels run it is the engine's
    business (one branch per kind in `CompiledGraph.forward`/`backward`)."""
    params: dict[str, int | type[bool]]  # required param -> its minimum, or bool for a flag
    n_in: tuple[int, float]  # fewest and most inputs
    shape: Callable[[LayerBlock, list[Shape], ArchitectureSpec], Shape]
    # (block, input shapes, output shape) -> slots, named in initialization order
    slots: Callable[[LayerBlock, list[Shape], Shape], list[Slot]]


def _conv_shape(b: LayerBlock, ins: list[Shape], spec: ArchitectureSpec) -> Shape:
    _, h, w = ins[0]
    k, pad, pool = b.params["kernel"], b.params["pad"], b.params["pool"]
    h2, w2 = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    if h2 < 1 or w2 < 1:
        raise ShapeInferenceFailure(f"block {b.id!r}: {k}x{k} kernel exhausts {h}x{w} input")
    if h2 < pool or w2 < pool:
        raise ShapeInferenceFailure(f"block {b.id!r}: pool {pool} exhausts {h2}x{w2}")
    return (b.params["multiplier"] * spec.c, h2 // pool, w2 // pool)


def _merge_shape(b: LayerBlock, ins: list[Shape], spec: ArchitectureSpec) -> Shape:
    hw = {s[1:] for s in ins}
    if len(hw) != 1:
        raise ShapeMismatchAtMerge(f"merge {b.id!r} inputs disagree spatially: {sorted(hw)}")
    return (spec.c if b.params["project"] else sum(s[0] for s in ins),) + hw.pop()


def _conv_slots(out_ch: int, in_ch: int, k: int) -> list[Slot]:
    return [("b", (out_ch,), 0), ("w", (out_ch, in_ch, k, k), in_ch * k * k)]


def _dense_slots(b: LayerBlock, ins: list[Shape], out: Shape) -> list[Slot]:
    flat, hidden, n_out = math.prod(ins[0]), b.params["hidden"], out[0]
    if hidden == 0:
        return [("b", (n_out,), 0), ("w", (flat, n_out), flat)]
    return [("b1", (hidden,), 0), ("b2", (n_out,), 0),
            ("w1", (flat, hidden), flat), ("w2", (hidden, n_out), hidden)]


def _no_slots(b: LayerBlock, ins: list[Shape], out: Shape) -> list[Slot]:
    return []


_OPS: dict[BlockKind, _Op] = {
    BlockKind.STEM: _Op({}, (0, 0), lambda b, ins, spec: spec.input_shape, _no_slots),
    BlockKind.CONV: _Op(
        {"kernel": 1, "multiplier": 1, "pad": 0, "pool": 1}, (1, 1), _conv_shape,
        lambda b, ins, out: _conv_slots(out[0], ins[0][0], b.params["kernel"])),
    BlockKind.MERGE: _Op(
        {"project": bool}, (2, math.inf), _merge_shape,
        lambda b, ins, out: (_conv_slots(out[0], sum(s[0] for s in ins), 1)
                             if b.params["project"] else [])),
    BlockKind.GLOBAL_POOL: _Op({}, (1, 1), lambda b, ins, spec: (ins[0][0], 1, 1), _no_slots),
    BlockKind.DENSE_HEAD: _Op({"hidden": 0}, (1, 1),
                              lambda b, ins, spec: (spec.num_categories, 1, 1), _dense_slots),
}


@dataclass(frozen=True)
class LayerBlock:
    id: str
    kind: BlockKind
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        want = _OPS[self.kind].params
        if set(self.params) != set(want):
            raise InvalidArchitecture(
                f"block {self.id!r} ({self.kind.value}) has params {sorted(self.params)}, "
                f"expected {sorted(want)}")
        for key, low in want.items():
            value = self.params[key]
            if low is not bool:
                check_int(f"block {self.id!r}: {key}", value, low, InvalidArchitecture)
            elif not isinstance(value, bool):
                raise InvalidArchitecture(f"block {self.id!r}: {key} must be a bool, got {value!r}")


@dataclass(frozen=True)
class ArchitectureSpec:
    """Immutable block graph; blocks and wires are kept sorted so equal
    architectures compare and serialize identically."""
    blocks: tuple[LayerBlock, ...]
    wires: tuple[tuple[str, str], ...]
    input_shape: Shape
    num_categories: int
    c: int
    topology_source: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, key=lambda b: b.id)))
        object.__setattr__(self, "wires", tuple(sorted(tuple(w) for w in self.wires)))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        check_int("c", self.c, 1, InvalidArchitecture)
        check_int("num_categories", self.num_categories, 2, InvalidArchitecture)
        if len(self.input_shape) != 3:
            raise InvalidArchitecture(f"bad input shape {self.input_shape}")
        for d in self.input_shape:
            check_int(f"input_shape {self.input_shape} entry", d, 1, InvalidArchitecture)
        # not a field, so equality and the JSON form are unaffected
        object.__setattr__(self, "_by_id", {b.id: b for b in self.blocks})

    def block(self, block_id: str) -> LayerBlock:
        try:
            return self._by_id[block_id]
        except KeyError:
            raise InvalidArchitecture(f"no block {block_id!r}") from None

    to_json = json_text
    from_json = classmethod(partial(read_json, error=InvalidArchitecture, name="architecture JSON"))


def save_arch(spec: ArchitectureSpec, path) -> None:
    write_json(path, spec)


# --- validation / shape inference ---

@dataclass(frozen=True)
class ValidatedArch:
    """Architecture plus its topological order and, per block, its sorted
    inputs, output shape and parameter slots."""
    spec: ArchitectureSpec
    order: tuple[str, ...]
    inputs: dict[str, tuple[str, ...]]
    out_shape: dict[str, Shape]
    slots: dict[str, tuple[Slot, ...]]


def validate(spec: ArchitectureSpec) -> ValidatedArch:
    ids = [b.id for b in spec.blocks]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise InvalidArchitecture(f"duplicate block ids: {', '.join(dupes)}")
    by_id = spec._by_id

    def only(kind: BlockKind) -> str:
        found = [b.id for b in spec.blocks if b.kind is kind]
        if len(found) != 1:
            raise InvalidArchitecture(f"need exactly one {kind.value}, found {len(found)}")
        return found[0]

    only(BlockKind.STEM)
    head = only(BlockKind.DENSE_HEAD)

    if len(set(spec.wires)) != len(spec.wires):
        raise InvalidArchitecture("duplicate wires")
    inputs: dict[str, list[str]] = {i: [] for i in ids}
    outputs: dict[str, list[str]] = {i: [] for i in ids}
    for a, b in spec.wires:
        if a not in by_id or b not in by_id:
            raise InvalidArchitecture(f"wire ({a!r}, {b!r}) references unknown block")
        inputs[b].append(a)
        outputs[a].append(b)

    for b in spec.blocks:
        lo, hi = _OPS[b.kind].n_in
        n_in = len(inputs[b.id])
        if not lo <= n_in <= hi:
            want = f"exactly {lo}" if lo == hi else f">= {lo}"
            raise InvalidArchitecture(
                f"{b.kind.value} {b.id!r} needs {want} inputs, has {n_in}")
    if outputs[head]:
        raise InvalidArchitecture("DenseHead must be terminal")

    # deterministic Kahn order: smallest ready id first
    indeg = {i: len(inputs[i]) for i in ids}
    ready = sorted(i for i in ids if indeg[i] == 0)
    order: list[str] = []
    while ready:
        cur = ready.pop(0)
        order.append(cur)
        changed = False
        for nxt in outputs[cur]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
                changed = True
        if changed:
            ready.sort()
    if len(order) != len(ids):
        stuck = sorted(i for i in ids if indeg[i] > 0)
        raise CycleDetected(f"cycle through blocks: {', '.join(stuck)}")

    # every block but the stem has an input and the graph is acyclic, so
    # every block is reachable from the stem; check the other way
    back = {head}
    for i in reversed(order):
        if i in back:
            back.update(inputs[i])
    dead = sorted(set(ids) - back)
    if dead:
        raise UnreachableBlock(f"dense head not reachable from: {', '.join(dead)}")

    # shapes and parameter slots along the order
    srcs = {i: tuple(sorted(inputs[i])) for i in ids}
    shapes: dict[str, Shape] = {}
    slots: dict[str, tuple[Slot, ...]] = {}
    for i in order:
        b, op = by_id[i], _OPS[by_id[i].kind]
        ins = [shapes[s] for s in srcs[i]]
        shapes[i] = op.shape(b, ins, spec)
        slots[i] = tuple(op.slots(b, ins, shapes[i]))
    return ValidatedArch(spec=spec, order=tuple(order), inputs=srcs,
                         out_shape=shapes, slots=slots)


def param_count(v: ValidatedArch) -> int:
    """Exact trainable parameter total: the sizes of every block's slots."""
    return sum(math.prod(shape) for slots in v.slots.values() for _, shape, _ in slots)


# --- synthesis: circuit style, through the DAG compiler it shares with randomized ---

def _conv_id(node: str) -> str:
    return f"conv:{node}"


def _merge_id(node: str) -> str:
    return f"merge:{node}"


def _compile_dag(nodes: list[str], edges: list[tuple[str, str]], entries: list[str],
                 exits: list[str], c: int, input_shape: Shape, num_categories: int,
                 topology_source: str) -> ArchitectureSpec:
    """Map a DAG one-to-one onto a block graph.

    Nodes become 3x3 ConvBlocks, edges become wires, and fan-in goes
    through concat Merges projected back to c channels.  Entry nodes read
    the stem and downsample by 2; exit outputs feed concat -> global
    average pool -> dense head.  The caller picks entries and exits by
    neuron role: sensory nodes enter, motor nodes exit.
    """
    if not exits:
        raise InvalidArchitecture(f"{topology_source}: no exit nodes to collect outputs from")
    fan_in = Counter(b for _, b in edges)
    merged = [n for n in nodes if fan_in[n] >= 2]
    blocks = [LayerBlock("stem", BlockKind.STEM), LayerBlock("pool:out", BlockKind.GLOBAL_POOL),
              LayerBlock("head", BlockKind.DENSE_HEAD, {"hidden": 0})]
    blocks += [LayerBlock(_conv_id(n), BlockKind.CONV, {
        "kernel": 3, "multiplier": 1, "pad": 1, "pool": 2 if n in entries else 1}) for n in nodes]
    blocks += [LayerBlock(_merge_id(n), BlockKind.MERGE, {"project": True}) for n in merged]
    wires = [("stem", _conv_id(n)) for n in entries]
    wires += [(_merge_id(n), _conv_id(n)) for n in merged]
    wires += [(_conv_id(a), _merge_id(b) if fan_in[b] >= 2 else _conv_id(b)) for a, b in edges]
    pool_src = _conv_id(exits[0])
    if len(exits) >= 2:
        pool_src = "merge:out"
        blocks.append(LayerBlock(pool_src, BlockKind.MERGE, {"project": False}))
        wires += [(_conv_id(n), pool_src) for n in exits]
    wires += [(pool_src, "pool:out"), ("pool:out", "head")]
    return ArchitectureSpec(blocks=tuple(blocks), wires=tuple(wires),
                            input_shape=tuple(input_shape),
                            num_categories=num_categories, c=c,
                            topology_source=topology_source)


def synthesize_circuit_arch(circuit: FunctionalCircuit, c: int, input_shape: Shape,
                            num_categories: int) -> ArchitectureSpec:
    """Map a circuit one-to-one onto a block graph: sensory nodes are the
    entries and motor nodes the exits of `_compile_dag`."""
    if not circuit.edges:
        raise EmptyCircuit("cannot synthesize from a circuit with no edges")
    return _compile_dag(sorted(circuit.nodes), list(circuit.edges),
                        circuit.nodes_with_role(Role.SENSORY),
                        circuit.nodes_with_role(Role.MOTOR),
                        c, input_shape, num_categories, "circuit")


# --- synthesis: randomized style ---

def _min_cover_edges(sensory: list[str], inter: list[str], motor: list[str],
                     rng) -> set[tuple[str, str]]:
    """Smallest edge set wiring every node usefully: each interneuron gets
    an in and an out, each sensory an out, each motor an in."""
    s, i, m = len(sensory), len(inter), len(motor)
    if i > 0 and (s == 0 or m == 0):
        raise ConstraintUnsatisfiable(
            "interneurons need sensory sources and motor targets")
    if i == 0 and (s == 0) != (m == 0):
        raise ConstraintUnsatisfiable(
            "cannot wire sensory and motor neurons without both roles present")
    sens = [sensory[t] for t in rng.permutation(s)] if s else []
    ints = [inter[t] for t in rng.permutation(i)] if i else []
    mots = [motor[t] for t in rng.permutation(m)] if m else []

    cover: set[tuple[str, str]] = set()
    for t, node in enumerate(ints):
        cover.add((sens[t % s], node))
    for t, node in enumerate(ints):
        cover.add((node, mots[t % m]))
    covered_out = {a for a, _ in cover}
    covered_in = {b for _, b in cover}
    spare_motors = [x for x in mots if x not in covered_in]
    for t, node in enumerate(x for x in sens if x not in covered_out):
        target = spare_motors[t] if t < len(spare_motors) else mots[t % m] if m else None
        if target is None:
            raise ConstraintUnsatisfiable("sensory neuron has no legal target")
        cover.add((node, target))
    covered_in = {b for _, b in cover}
    feeders = ints if i else sens
    for t, node in enumerate(x for x in mots if x not in covered_in):
        cover.add((feeders[t % len(feeders)], node))
    return cover


def synthesize_randomized_arch(circuit: FunctionalCircuit, c: int, seed: int,
                               input_shape: Shape, num_categories: int) -> ArchitectureSpec:
    """Control architecture: a fresh tripartite DAG over the circuit's
    neurons, with as many edges, drawn from a counter-based generator."""
    if not circuit.edges:
        raise EmptyCircuit("cannot synthesize from a circuit with no edges")
    rng = seeded_generator("seed", seed, InvalidArchitecture)
    n_edges = circuit.n_edges
    sensory = circuit.nodes_with_role(Role.SENSORY)
    inter = circuit.nodes_with_role(Role.INTER)
    motor = circuit.nodes_with_role(Role.MOTOR)
    all_slots = sorted(
        {(a, b) for a in sensory for b in inter + motor} |
        {(a, b) for a in inter for b in motor})
    edges = _min_cover_edges(sensory, inter, motor, rng)
    if len(edges) > n_edges:
        raise ConstraintUnsatisfiable(
            f"{n_edges} edges cannot wire every neuron "
            f"({len(edges)} needed for {len(sensory)}/{len(inter)}/{len(motor)} roles)")
    if n_edges > len(all_slots):
        raise ConstraintUnsatisfiable(
            f"{n_edges} edges exceed the {len(all_slots)} legal connections")
    free = [slot for slot in all_slots if slot not in edges]
    extra = rng.choice(len(free), size=n_edges - len(edges), replace=False)
    edges.update(free[t] for t in sorted(extra))
    return _compile_dag(sorted(circuit.nodes), sorted(edges), sensory, motor, c, input_shape,
                        num_categories, f"randomized:{seed}")


# --- synthesis: sequential style ---

def synthesize_sequential_arch(c: int, input_shape: Shape, num_categories: int
                               ) -> ArchitectureSpec:
    """Plain chain: two 5x5 valid convolutions with 2x pooling, then a
    flattening dense head with one hidden layer of 20*c units."""
    # here, or a bad c is reported as the head's hidden width
    check_int("c", c, 1, InvalidArchitecture)
    blocks = (
        LayerBlock("stem", BlockKind.STEM),
        LayerBlock("conv:a", BlockKind.CONV,
                   {"kernel": 5, "multiplier": 1, "pad": 0, "pool": 2}),
        LayerBlock("conv:b", BlockKind.CONV,
                   {"kernel": 5, "multiplier": 2, "pad": 0, "pool": 2}),
        LayerBlock("head", BlockKind.DENSE_HEAD, {"hidden": 20 * c}),
    )
    wires = (("stem", "conv:a"), ("conv:a", "conv:b"), ("conv:b", "head"))
    spec = ArchitectureSpec(blocks=blocks, wires=wires, input_shape=tuple(input_shape),
                            num_categories=num_categories, c=c,
                            topology_source="sequential")
    validate(spec)  # raises ShapeInferenceFailure if the input is too small
    return spec


def synthesize(style: str, circuit: FunctionalCircuit | None, c: int, input_shape: Shape,
               num_categories: int, seed: int) -> ArchitectureSpec:
    """Build one style's architecture: 'circuit' and 'randomized' from
    `circuit`, 'sequential' without one; only 'randomized' reads `seed`."""
    if style == "circuit":
        return synthesize_circuit_arch(circuit, c, input_shape, num_categories)
    if style == "randomized":
        return synthesize_randomized_arch(circuit, c, seed, input_shape, num_categories)
    if style == "sequential":
        return synthesize_sequential_arch(c, input_shape, num_categories)
    raise InvalidArchitecture(f"unknown style {style!r}")
