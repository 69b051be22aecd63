"""Compile circuits into convolutional-network architectures.

Three generators share one block vocabulary:

  * circuit style: every neuron becomes a 3x3 ConvBlock wired exactly
    like the circuit; sensory blocks downsample once by 2, nodes with
    several inputs get a channel-concat Merge (projected back to c by a
    1x1 convolution), motor outputs are concatenated, average-pooled
    and fed to a dense head;
  * randomized style: same node and edge counts, wiring drawn from a
    seeded generator (role-preserving tripartite by default);
  * sequential style: a LeNet-like chain of two 5x5 valid convolutions
    with 2x pooling and a hidden dense layer.

The block graph serializes to a small JSON document; validation
topologically sorts the graph and annotates every block with its output
shape, failing loudly on cycles, unreachable blocks or exhausted
spatial dims.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from .connectome import Role
from .errors import (
    ConstraintUnsatisfiable,
    CycleDetected,
    EmptyCircuit,
    InvalidArchitecture,
    ShapeInferenceFailure,
    ShapeMismatchAtMerge,
    UnreachableBlock,
)
from .extraction import FunctionalCircuit

Shape = tuple[int, int, int]


class BlockKind(enum.Enum):
    STEM = "Stem"
    CONV = "ConvBlock"
    MERGE = "Merge"
    GLOBAL_POOL = "GlobalPool"
    DENSE_HEAD = "DenseHead"

    @classmethod
    def parse(cls, text: str) -> BlockKind:
        for kind in cls:
            if kind.value == text:
                return kind
        raise InvalidArchitecture(f"unknown block kind {text!r}")


_REQUIRED_PARAMS = {
    BlockKind.STEM: frozenset(),
    BlockKind.CONV: frozenset({"kernel", "multiplier", "pad", "pool"}),
    BlockKind.MERGE: frozenset({"project"}),
    BlockKind.GLOBAL_POOL: frozenset(),
    BlockKind.DENSE_HEAD: frozenset({"hidden"}),
}


@dataclass(frozen=True)
class LayerBlock:
    id: str
    kind: BlockKind
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        want = _REQUIRED_PARAMS[self.kind]
        got = frozenset(self.params)
        if got != want:
            raise InvalidArchitecture(
                f"block {self.id!r} ({self.kind.value}) has params {sorted(got)}, "
                f"expected {sorted(want)}")
        if self.kind is BlockKind.CONV:
            for key in ("kernel", "multiplier", "pool"):
                if self.params[key] < 1:
                    raise InvalidArchitecture(f"block {self.id!r}: {key} must be >= 1")
            if self.params["pad"] < 0:
                raise InvalidArchitecture(f"block {self.id!r}: pad must be >= 0")
        if self.kind is BlockKind.DENSE_HEAD and self.params["hidden"] < 0:
            raise InvalidArchitecture(f"block {self.id!r}: hidden must be >= 0")


@dataclass(frozen=True)
class RandomizationSeed:
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


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
        if self.c < 1:
            raise InvalidArchitecture(f"c must be >= 1, got {self.c}")
        if self.num_categories < 2:
            raise InvalidArchitecture(
                f"need >= 2 categories, got {self.num_categories}")
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise InvalidArchitecture(f"bad input shape {self.input_shape}")
        # not a field, so equality and the JSON form are unaffected
        object.__setattr__(self, "_by_id", {b.id: b for b in self.blocks})

    def block(self, block_id: str) -> LayerBlock:
        try:
            return self._by_id[block_id]
        except KeyError:
            raise InvalidArchitecture(f"no block {block_id!r}") from None

    # --- json interchange ---

    def to_json(self) -> str:
        doc = {
            "topology_source": self.topology_source,
            "input_shape": list(self.input_shape),
            "num_categories": self.num_categories,
            "c": self.c,
            "blocks": [{"id": b.id, "kind": b.kind.value, "params": dict(sorted(b.params.items()))}
                       for b in self.blocks],
            "wires": [list(w) for w in self.wires],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> ArchitectureSpec:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidArchitecture(f"unparsable architecture JSON: {exc}")
        try:
            blocks = tuple(LayerBlock(id=b["id"], kind=BlockKind.parse(b["kind"]),
                                      params=dict(b["params"]))
                           for b in doc["blocks"])
            return cls(blocks=blocks,
                       wires=tuple((a, b) for a, b in doc["wires"]),
                       input_shape=tuple(doc["input_shape"]),
                       num_categories=doc["num_categories"],
                       c=doc["c"],
                       topology_source=doc["topology_source"])
        except (KeyError, TypeError) as exc:
            raise InvalidArchitecture(f"architecture JSON missing field: {exc}")


def save_arch(spec: ArchitectureSpec, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(spec.to_json())


def load_arch(path) -> ArchitectureSpec:
    with open(path, encoding="utf-8") as fh:
        return ArchitectureSpec.from_json(fh.read())


# --- validation / shape inference ---

@dataclass(frozen=True)
class ValidatedArch:
    """Architecture plus its topological order and per-block shapes."""
    spec: ArchitectureSpec
    order: tuple[str, ...]
    inputs: dict[str, tuple[str, ...]]
    out_shape: dict[str, Shape]

    def in_shapes(self, block_id: str) -> list[Shape]:
        return [self.out_shape[src] for src in self.inputs[block_id]]


def validate(spec: ArchitectureSpec) -> ValidatedArch:
    ids = [b.id for b in spec.blocks]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise InvalidArchitecture(f"duplicate block ids: {', '.join(dupes)}")
    by_id = spec._by_id

    stems = [b for b in spec.blocks if b.kind is BlockKind.STEM]
    heads = [b for b in spec.blocks if b.kind is BlockKind.DENSE_HEAD]
    if len(stems) != 1:
        raise InvalidArchitecture(f"need exactly one Stem, found {len(stems)}")
    if len(heads) != 1:
        raise InvalidArchitecture(f"need exactly one DenseHead, found {len(heads)}")
    stem, head = stems[0], heads[0]

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
        n_in = len(inputs[b.id])
        if b.kind is BlockKind.STEM and n_in != 0:
            raise InvalidArchitecture(f"Stem {b.id!r} must have no inputs")
        if b.kind is BlockKind.MERGE and n_in < 2:
            raise InvalidArchitecture(f"Merge {b.id!r} needs >= 2 inputs, has {n_in}")
        if b.kind in (BlockKind.CONV, BlockKind.GLOBAL_POOL, BlockKind.DENSE_HEAD) and n_in != 1:
            raise InvalidArchitecture(
                f"{b.kind.value} {b.id!r} needs exactly 1 input, has {n_in}")
    if outputs[head.id]:
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

    # reachability both ways
    fwd = {stem.id}
    for i in order:
        if i in fwd:
            fwd.update(outputs[i])
    missing = sorted(set(ids) - fwd)
    if missing:
        raise UnreachableBlock(f"not reachable from stem: {', '.join(missing)}")
    back = {head.id}
    for i in reversed(order):
        if i in back:
            back.update(inputs[i])
    dead = sorted(set(ids) - back)
    if dead:
        raise UnreachableBlock(f"dense head not reachable from: {', '.join(dead)}")

    # shape inference along the order
    shapes: dict[str, Shape] = {}
    for i in order:
        b = by_id[i]
        srcs = tuple(sorted(inputs[i]))
        if b.kind is BlockKind.STEM:
            shapes[i] = spec.input_shape
        elif b.kind is BlockKind.CONV:
            ch, h, w = shapes[srcs[0]]
            k, pad, pool = b.params["kernel"], b.params["pad"], b.params["pool"]
            h2, w2 = h + 2 * pad - k + 1, w + 2 * pad - k + 1
            if h2 < 1 or w2 < 1:
                raise ShapeInferenceFailure(
                    f"block {i!r}: {k}x{k} kernel exhausts {h}x{w} input")
            h3, w3 = h2 // pool, w2 // pool
            if h3 < 1 or w3 < 1:
                raise ShapeInferenceFailure(
                    f"block {i!r}: pool {pool} exhausts {h2}x{w2}")
            shapes[i] = (b.params["multiplier"] * spec.c, h3, w3)
        elif b.kind is BlockKind.MERGE:
            hw = {shapes[s][1:] for s in srcs}
            if len(hw) != 1:
                raise ShapeMismatchAtMerge(
                    f"merge {i!r} inputs disagree spatially: {sorted(hw)}")
            total_ch = sum(shapes[s][0] for s in srcs)
            out_ch = spec.c if b.params["project"] else total_ch
            shapes[i] = (out_ch,) + next(iter(hw))
        elif b.kind is BlockKind.GLOBAL_POOL:
            shapes[i] = (shapes[srcs[0]][0], 1, 1)
        else:
            shapes[i] = (spec.num_categories, 1, 1)

    return ValidatedArch(spec=spec, order=tuple(order),
                         inputs={i: tuple(sorted(inputs[i])) for i in ids},
                         out_shape=shapes)


def param_count(v: ValidatedArch) -> int:
    """Exact trainable parameter total: kernels, biases, dense weights."""
    total = 0
    for block_id in v.order:
        b = v.spec.block(block_id)
        if b.kind is BlockKind.CONV:
            in_ch = v.in_shapes(block_id)[0][0]
            out_ch = b.params["multiplier"] * v.spec.c
            total += b.params["kernel"] ** 2 * in_ch * out_ch + out_ch
        elif b.kind is BlockKind.MERGE and b.params["project"]:
            in_ch = sum(s[0] for s in v.in_shapes(block_id))
            total += in_ch * v.spec.c + v.spec.c
        elif b.kind is BlockKind.DENSE_HEAD:
            ch, h, w = v.in_shapes(block_id)[0]
            flat = ch * h * w
            hidden = b.params["hidden"]
            if hidden > 0:
                total += flat * hidden + hidden + hidden * v.spec.num_categories + v.spec.num_categories
            else:
                total += flat * v.spec.num_categories + v.spec.num_categories
    return total


# --- synthesis: circuit style ---

def _conv_id(node: str) -> str:
    return f"conv:{node}"


def _merge_id(node: str) -> str:
    return f"merge:{node}"


def synthesize_circuit_arch(circuit: FunctionalCircuit, c: int, input_shape: Shape,
                            num_categories: int, *, topology_source: str = "circuit"
                            ) -> ArchitectureSpec:
    """Map a circuit one-to-one onto a block graph.

    Nodes become 3x3 ConvBlocks (sensory ones downsample by 2), edges
    become wires, fan-in goes through concat Merges projected back to c
    channels, and motor outputs feed concat -> global average pool ->
    dense head.
    """
    if not circuit.edges:
        raise EmptyCircuit("cannot synthesize from a circuit with no edges")
    blocks: list[LayerBlock] = [LayerBlock("stem", BlockKind.STEM)]
    wires: list[tuple[str, str]] = []

    indeg: dict[str, int] = {}
    for (_, j) in circuit.edges:
        indeg[j] = indeg.get(j, 0) + 1

    for node in sorted(circuit.nodes):
        pool = 2 if circuit.roles[node] is Role.SENSORY else 1
        blocks.append(LayerBlock(_conv_id(node), BlockKind.CONV,
                                 {"kernel": 3, "multiplier": 1, "pad": 1, "pool": pool}))
        if indeg.get(node, 0) >= 2:
            blocks.append(LayerBlock(_merge_id(node), BlockKind.MERGE, {"project": True}))
            wires.append((_merge_id(node), _conv_id(node)))

    for node in circuit.nodes_with_role(Role.SENSORY):
        wires.append(("stem", _conv_id(node)))
    for (i, j) in circuit.edges:
        target = _merge_id(j) if indeg.get(j, 0) >= 2 else _conv_id(j)
        wires.append((_conv_id(i), target))

    motors = circuit.nodes_with_role(Role.MOTOR)
    if not motors:
        raise InvalidArchitecture("circuit has no motor nodes to collect outputs from")
    if len(motors) >= 2:
        blocks.append(LayerBlock("merge:out", BlockKind.MERGE, {"project": False}))
        for m in motors:
            wires.append((_conv_id(m), "merge:out"))
        pool_src = "merge:out"
    else:
        pool_src = _conv_id(motors[0])
    blocks.append(LayerBlock("pool:out", BlockKind.GLOBAL_POOL))
    blocks.append(LayerBlock("head", BlockKind.DENSE_HEAD, {"hidden": 0}))
    wires.append((pool_src, "pool:out"))
    wires.append(("pool:out", "head"))

    return ArchitectureSpec(blocks=tuple(blocks), wires=tuple(wires),
                            input_shape=tuple(input_shape),
                            num_categories=num_categories, c=c,
                            topology_source=topology_source)


def circuit_wires(spec: ArchitectureSpec) -> frozenset[tuple[str, str]]:
    """Project block wires back onto circuit edges (for isomorphism checks).

    conv:X -> conv:Y and conv:X -> merge:Y both project to (X, Y); plumbing
    wires (stem, merges into their own conv, output collection) drop out.
    """
    def neuron(block_id: str) -> str | None:
        if block_id.startswith("conv:"):
            return block_id[len("conv:"):]
        if block_id.startswith("merge:") and block_id != "merge:out":
            return block_id[len("merge:"):]
        return None

    edges = set()
    for a, b in spec.wires:
        na, nb = neuron(a), neuron(b)
        if na is not None and nb is not None and na != nb:
            edges.add((na, nb))
    return frozenset(edges)


# --- synthesis: randomized style ---

_MAX_ATTEMPTS = 1000


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


def synthesize_randomized_arch(circuit: FunctionalCircuit, c: int, seed: int | RandomizationSeed,
                               input_shape: Shape, num_categories: int, *,
                               role_preserving: bool = True) -> ArchitectureSpec:
    """Control architecture: same node and edge counts as the circuit,
    wiring drawn from a counter-based generator.

    Role-preserving mode (default) samples a fresh tripartite DAG over the
    same neurons; with role_preserving=False any acyclic wiring over as
    many nodes and edges is allowed, in-degree-0 blocks acting as the
    downsampling entry points.
    """
    if not circuit.edges:
        raise EmptyCircuit("cannot synthesize from a circuit with no edges")
    key = seed.seed if isinstance(seed, RandomizationSeed) else int(seed)
    rng = np.random.Generator(np.random.Philox(key=key))
    n_edges = circuit.n_edges

    if role_preserving:
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
        roles = dict(circuit.roles)
    else:
        nodes = sorted(circuit.nodes)
        n = len(nodes)
        if n_edges > n * (n - 1) // 2:
            raise ConstraintUnsatisfiable(
                f"{n_edges} edges exceed acyclic capacity of {n} nodes")
        for _ in range(_MAX_ATTEMPTS):
            perm = [nodes[t] for t in rng.permutation(n)]
            pos = {node: t for t, node in enumerate(perm)}
            all_slots = sorted((a, b) for a in nodes for b in nodes if pos[a] < pos[b])
            picked = rng.choice(len(all_slots), size=n_edges, replace=False)
            edges = {all_slots[t] for t in sorted(picked)}
            touched = {x for e in edges for x in e}
            if len(touched) == n:
                break
        else:
            raise ConstraintUnsatisfiable(
                f"could not cover all {n} nodes with {n_edges} edges "
                f"in {_MAX_ATTEMPTS} attempts")
        return _compile_free_dag(sorted(edges), c, input_shape, num_categories,
                                 topology_source=f"randomized:{key}")

    randomized = FunctionalCircuit(roles=roles, edges={e: 1.0 for e in sorted(edges)})
    return synthesize_circuit_arch(randomized, c, input_shape, num_categories,
                                   topology_source=f"randomized:{key}")


def _compile_free_dag(edges: list[tuple[str, str]], c: int, input_shape: Shape,
                      num_categories: int, *, topology_source: str) -> ArchitectureSpec:
    """Same block mapping as the circuit style, but entry and exit nodes
    are defined by degree rather than by neuron role."""
    nodes = sorted({x for e in edges for x in e})
    indeg = {x: 0 for x in nodes}
    outdeg = {x: 0 for x in nodes}
    for a, b in edges:
        outdeg[a] += 1
        indeg[b] += 1

    blocks: list[LayerBlock] = [LayerBlock("stem", BlockKind.STEM)]
    wires: list[tuple[str, str]] = []
    for node in nodes:
        pool = 2 if indeg[node] == 0 else 1
        blocks.append(LayerBlock(_conv_id(node), BlockKind.CONV,
                                 {"kernel": 3, "multiplier": 1, "pad": 1, "pool": pool}))
        if indeg[node] >= 2:
            blocks.append(LayerBlock(_merge_id(node), BlockKind.MERGE, {"project": True}))
            wires.append((_merge_id(node), _conv_id(node)))
        if indeg[node] == 0:
            wires.append(("stem", _conv_id(node)))
    for a, b in edges:
        target = _merge_id(b) if indeg[b] >= 2 else _conv_id(b)
        wires.append((_conv_id(a), target))

    sinks = [x for x in nodes if outdeg[x] == 0]
    if len(sinks) >= 2:
        blocks.append(LayerBlock("merge:out", BlockKind.MERGE, {"project": False}))
        for x in sinks:
            wires.append((_conv_id(x), "merge:out"))
        pool_src = "merge:out"
    else:
        pool_src = _conv_id(sinks[0])
    blocks.append(LayerBlock("pool:out", BlockKind.GLOBAL_POOL))
    blocks.append(LayerBlock("head", BlockKind.DENSE_HEAD, {"hidden": 0}))
    wires.append((pool_src, "pool:out"))
    wires.append(("pool:out", "head"))
    return ArchitectureSpec(blocks=tuple(blocks), wires=tuple(wires),
                            input_shape=tuple(input_shape),
                            num_categories=num_categories, c=c,
                            topology_source=topology_source)


# --- synthesis: sequential style ---

def synthesize_sequential_arch(c: int, input_shape: Shape, num_categories: int
                               ) -> ArchitectureSpec:
    """Plain chain: two 5x5 valid convolutions with 2x pooling, then a
    flattening dense head with one hidden layer of 20*c units."""
    if c < 1:
        raise InvalidArchitecture(f"c must be >= 1, got {c}")
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
