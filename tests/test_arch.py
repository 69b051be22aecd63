from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from circuitforge.arch import (
    ArchitectureSpec,
    BlockKind,
    LayerBlock,
    param_count,
    save_arch,
    synthesize_circuit_arch,
    synthesize_randomized_arch,
    synthesize_sequential_arch,
    validate,
)
from circuitforge.connectome import Role
from circuitforge.engine.graph import compile_arch
from circuitforge.errors import (
    ConstraintUnsatisfiable,
    CycleDetected,
    EmptyCircuit,
    InvalidArchitecture,
    ShapeInferenceFailure,
    ShapeMismatchAtMerge,
    UnreachableBlock,
    read_input,
)
from circuitforge.extraction import ExtractionConfig, FunctionalCircuit, extract_circuits
from circuitforge.reference import reference_circuit
from conftest import circuit_wires, random_connectome, random_selection

CONV = {"kernel": 3, "multiplier": 1, "pad": 1, "pool": 1}


def _chain_spec(c: int = 4) -> ArchitectureSpec:
    blocks = (
        LayerBlock("stem", BlockKind.STEM, {}),
        LayerBlock("conv:a", BlockKind.CONV, dict(CONV, pool=2)),
        LayerBlock("head", BlockKind.DENSE_HEAD, {"hidden": 0}),
    )
    wires = (("stem", "conv:a"), ("conv:a", "head"))
    return ArchitectureSpec(blocks=blocks, wires=wires, input_shape=(1, 8, 8),
                            num_categories=3, c=c, topology_source="circuit")


def test_layer_block_validates_params():
    with pytest.raises(InvalidArchitecture):
        LayerBlock("conv:x", BlockKind.CONV, {"kernel": 3})  # missing fields
    with pytest.raises(InvalidArchitecture):
        LayerBlock("m", BlockKind.MERGE, {"project": True, "extra": 1})
    with pytest.raises(InvalidArchitecture):
        LayerBlock("conv:x", BlockKind.CONV, dict(CONV, kernel=0))
    with pytest.raises(InvalidArchitecture, match="'conv:x': kernel"):  # to_json could not write it
        LayerBlock("conv:x", BlockKind.CONV, dict(CONV, kernel=np.int64(3)))


def test_json_round_trip_identity():
    spec = _chain_spec()
    text = spec.to_json()
    again = ArchitectureSpec.from_json(text)
    assert again == spec
    assert again.to_json() == text


def test_save_load(tmp_path):
    spec = _chain_spec()
    save_arch(spec, tmp_path / "arch.json")
    assert ArchitectureSpec.from_json(read_input(tmp_path / "arch.json")) == spec


def test_validate_shape_trace():
    v = validate(_chain_spec())
    assert v.out_shape["conv:a"] == (4, 4, 4)  # pad keeps 8x8, pool 2 halves
    assert v.out_shape["head"] == (3, 1, 1)
    assert v.order[0] == "stem" and v.order[-1] == "head"


def test_validate_rejects_cycle():
    blocks = (
        LayerBlock("stem", BlockKind.STEM, {}),
        LayerBlock("conv:a", BlockKind.CONV, CONV),
        LayerBlock("merge:a", BlockKind.MERGE, {"project": True}),
        LayerBlock("conv:b", BlockKind.CONV, CONV),
        LayerBlock("head", BlockKind.DENSE_HEAD, {"hidden": 0}),
    )
    wires = (("stem", "conv:a"), ("conv:a", "merge:a"), ("conv:b", "merge:a"),
             ("merge:a", "conv:b"), ("merge:a", "head"))
    spec = ArchitectureSpec(blocks, wires, (1, 8, 8), 3, 4, "circuit")
    with pytest.raises(CycleDetected):
        validate(spec)


def test_validate_rejects_unreachable():
    # conv:z taps the stem but feeds nothing, so it can't reach the head
    blocks = _chain_spec().blocks + (LayerBlock("conv:z", BlockKind.CONV, CONV),)
    wires = _chain_spec().wires + (("stem", "conv:z"),)
    spec = ArchitectureSpec(blocks, wires, (1, 8, 8), 3, 4, "circuit")
    with pytest.raises(UnreachableBlock):
        validate(spec)


def test_validate_rejects_spatial_mismatch_at_merge():
    blocks = (
        LayerBlock("stem", BlockKind.STEM, {}),
        LayerBlock("conv:a", BlockKind.CONV, dict(CONV, pool=2)),
        LayerBlock("conv:b", BlockKind.CONV, CONV),
        LayerBlock("merge:m", BlockKind.MERGE, {"project": True}),
        LayerBlock("head", BlockKind.DENSE_HEAD, {"hidden": 0}),
    )
    wires = (("stem", "conv:a"), ("stem", "conv:b"), ("conv:a", "merge:m"),
             ("conv:b", "merge:m"), ("merge:m", "head"))
    spec = ArchitectureSpec(blocks, wires, (1, 8, 8), 3, 4, "circuit")
    with pytest.raises(ShapeMismatchAtMerge):
        validate(spec)


def test_validate_rejects_overpooling():
    blocks = (
        LayerBlock("stem", BlockKind.STEM, {}),
        LayerBlock("conv:a", BlockKind.CONV, {"kernel": 5, "multiplier": 1,
                                              "pad": 0, "pool": 2}),
        LayerBlock("head", BlockKind.DENSE_HEAD, {"hidden": 0}),
    )
    wires = (("stem", "conv:a"), ("conv:a", "head"))
    spec = ArchitectureSpec(blocks, wires, (1, 5, 5), 3, 4, "circuit")
    with pytest.raises(ShapeInferenceFailure):
        validate(spec)


# --- circuit-style synthesis -------------------------------------------------

def test_circuit_arch_wire_isomorphism_on_reference():
    circuit = reference_circuit()
    spec = synthesize_circuit_arch(circuit, 8, (1, 28, 28), 10)
    assert circuit_wires(spec) == frozenset(circuit.edges)
    validate(spec)


def _incoming(circuit: FunctionalCircuit, node: str) -> list[str]:
    return [i for i, j in circuit.edges if j == node]


def _outgoing(circuit: FunctionalCircuit, node: str) -> list[str]:
    return [j for i, j in circuit.edges if i == node]


def _plumbed(circuit: FunctionalCircuit) -> bool:
    """True when every block of the compiled arch can sit on a stem->head
    path: needs sensory and motor nodes, and no dangling interneurons."""
    if not (circuit.nodes_with_role(Role.MOTOR)
            and circuit.nodes_with_role(Role.SENSORY)):
        return False
    return all(_incoming(circuit, n) and _outgoing(circuit, n)
               for n in circuit.nodes_with_role(Role.INTER))


def test_circuit_arch_wire_isomorphism_on_random_circuits():
    checked = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        conn = random_connectome(rng)
        circuit = extract_circuits(conn, random_selection(rng, conn),
                                   ExtractionConfig(k=3))
        if not _plumbed(circuit):
            continue
        spec = synthesize_circuit_arch(circuit, 4, (1, 28, 28), 10)
        assert circuit_wires(spec) == frozenset(circuit.edges), seed
        validate(spec)
        checked += 1
    assert checked >= 10  # the corpus must actually exercise the property


def test_circuit_arch_merges_multi_input_nodes():
    circuit = reference_circuit()
    spec = synthesize_circuit_arch(circuit, 8, (1, 28, 28), 10)
    merge_ids = {b.id for b in spec.blocks if b.kind is BlockKind.MERGE}
    multi_in = {n for n in circuit.nodes
                if len(_incoming(circuit, n)) >= 2}
    assert {f"merge:{n}" for n in multi_in} <= merge_ids
    # final channel collector keeps every motor pathway un-projected
    out_merge = spec.block("merge:out")
    assert out_merge.params["project"] is False


def test_circuit_arch_rejects_empty():
    empty = FunctionalCircuit({}, {})
    with pytest.raises(EmptyCircuit):
        synthesize_circuit_arch(empty, 8, (1, 28, 28), 10)


# --- randomized style --------------------------------------------------------

def test_randomized_preserves_counts_over_100_seeds():
    circuit = reference_circuit()
    base_spec = synthesize_circuit_arch(circuit, 8, (1, 28, 28), 10)
    base_kinds = sorted(b.kind.value for b in base_spec.blocks
                        if b.kind is BlockKind.CONV)
    for seed in range(100):
        spec = synthesize_randomized_arch(circuit, 8, seed, (1, 28, 28), 10)
        validate(spec)
        kinds = sorted(b.kind.value for b in spec.blocks if b.kind is BlockKind.CONV)
        assert kinds == base_kinds, seed
        assert len(circuit_wires(spec)) == circuit.n_edges, seed
        assert spec.topology_source == f"randomized:{seed}"


def test_randomized_same_seed_is_deterministic():
    circuit = reference_circuit()
    a = synthesize_randomized_arch(circuit, 8, 7, (1, 28, 28), 10)
    b = synthesize_randomized_arch(circuit, 8, 7, (1, 28, 28), 10)
    assert a == b


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.0, True])
def test_randomized_seed_must_fit_64_unsigned_bits(seed):
    circuit = reference_circuit()
    with pytest.raises(InvalidArchitecture, match="seed"):
        synthesize_randomized_arch(circuit, 8, seed, (1, 28, 28), 10)
    top = synthesize_randomized_arch(circuit, 8, 2 ** 64 - 1, (1, 28, 28), 10)
    assert top.topology_source == f"randomized:{2 ** 64 - 1}"


def test_randomized_seeds_shuffle_topology():
    circuit = reference_circuit()
    wires = {synthesize_randomized_arch(circuit, 8, s, (1, 28, 28), 10).wires
             for s in range(10)}
    assert len(wires) > 1


def test_randomized_rejects_unsatisfiable_roles():
    # an interneuron with no motor to feed cannot form a legal wiring
    degenerate = FunctionalCircuit({"S1": Role.SENSORY, "I1": Role.INTER},
                                   {("S1", "I1"): 1.0})
    with pytest.raises(ConstraintUnsatisfiable):
        synthesize_randomized_arch(degenerate, 4, 0, (1, 28, 28), 10)


# --- sequential style --------------------------------------------------------

def test_sequential_golden_param_count():
    spec = synthesize_sequential_arch(6, (1, 28, 28), 10)
    v = validate(spec)
    # 5x5 stack: (25*6+6) + (25*6*12+12) + (12*4*4)*120+120 + 120*10+10
    assert param_count(v) == 26338


def test_sequential_shape_trace():
    v = validate(synthesize_sequential_arch(8, (1, 28, 28), 10))
    assert v.out_shape[v.order[-1]] == (10, 1, 1)


def test_sequential_rejects_tiny_input():
    with pytest.raises(ShapeInferenceFailure):
        synthesize_sequential_arch(8, (1, 9, 9), 10)


# --- shared properties -------------------------------------------------------

def test_param_count_strictly_increases_in_c():
    circuit = reference_circuit()
    for make in (
        lambda c: synthesize_circuit_arch(circuit, c, (1, 28, 28), 10),
        lambda c: synthesize_randomized_arch(circuit, c, 0, (1, 28, 28), 10),
        lambda c: synthesize_sequential_arch(c, (1, 28, 28), 10),
    ):
        counts = [param_count(validate(make(c))) for c in (4, 8, 16)]
        assert counts[0] < counts[1] < counts[2], counts


# --- typed errors for non-integer fields ----------------------------------------

def _merge_spec() -> ArchitectureSpec:
    blocks = (
        LayerBlock("stem", BlockKind.STEM, {}),
        LayerBlock("conv:a", BlockKind.CONV, CONV),
        LayerBlock("conv:b", BlockKind.CONV, CONV),
        LayerBlock("merge:m", BlockKind.MERGE, {"project": True}),
        LayerBlock("head", BlockKind.DENSE_HEAD, {"hidden": 2}),
    )
    wires = (("stem", "conv:a"), ("stem", "conv:b"), ("conv:a", "merge:m"),
             ("conv:b", "merge:m"), ("merge:m", "head"))
    return ArchitectureSpec(blocks, wires, (1, 8, 8), 3, 4, "circuit")


def _set_param(block_id: str, key: str, value):
    def mutate(doc: dict) -> None:
        next(b for b in doc["blocks"] if b["id"] == block_id)["params"][key] = value
    return mutate


# each mutation of the spec's JSON document, and what its error must name
MALFORMED = {
    "kernel_float": (_set_param("conv:a", "kernel", 5.0), "block 'conv:a': kernel"),
    "pad_string": (_set_param("conv:b", "pad", "1"), "block 'conv:b': pad"),
    "multiplier_bool": (_set_param("conv:b", "multiplier", True), "block 'conv:b': multiplier"),
    "hidden_float": (_set_param("head", "hidden", 2.0), "block 'head': hidden"),
    "project_int": (_set_param("merge:m", "project", 1), "block 'merge:m': project"),
    "c_float": (lambda doc: doc.update(c=2.0), "^c must be an integer"),
    "num_categories_bool": (lambda doc: doc.update(num_categories=True), "^num_categories"),
    "input_shape_float": (lambda doc: doc.update(input_shape=[1, 8.0, 8]), "^input_shape"),
    # the document's shape: a mutation that returns a value replaces the document,
    # and one that returns bytes replaces the file's bytes
    "document_list": (lambda doc: [doc], "^architecture JSON must be an object"),
    "blocks_int": (lambda doc: doc.update(blocks=5), "^blocks must be a list"),
    "params_list": (lambda doc: doc["blocks"][1].update(params=[]), r"^blocks\[1\]\.params"),
    "id_int": (lambda doc: doc["blocks"][0].update(id=5), r"^blocks\[0\]\.id"),
    "wire_one_end": (lambda doc: doc["wires"].insert(0, ["stem"]), r"^wires\[0\]"),
    "topology_source_int": (lambda doc: doc.update(topology_source=5), "^topology_source"),
    "input_shape_int": (lambda doc: doc.update(input_shape=28), "^input_shape must be a list"),
    "not_utf8": (lambda doc: json.dumps(doc).encode("utf-8").replace(b'"circuit"', b'"circ\xe9"'),
                 "^architecture JSON is not UTF-8: byte 0xe9"),
    "not_json": (lambda doc: json.dumps(doc)[:-1].encode("utf-8"),
                 "^unparsable architecture JSON"),
    "nested_too_deep": (lambda doc: b"[" * 100_000, "^unparsable architecture JSON"),
    "missing_c": (lambda doc: doc.__delitem__("c"), "^architecture JSON missing field: c"),
    "block_missing_id": (lambda doc: doc["blocks"][0].__delitem__("id"),
                         r"^blocks\[0\] missing field: id"),
    "unknown_field": (lambda doc: doc.update(depth=3), "^unknown architecture JSON fields: depth"),
    "unknown_block_field": (lambda doc: doc["blocks"][0].update(depth=3),
                            r"^unknown blocks\[0\] fields: depth"),
    "kind_unknown": (lambda doc: doc["blocks"][0].update(kind="Conv"),
                     r"^blocks\[0\]\.kind must be one of 'Stem', 'ConvBlock'"),
    "kind_null": (lambda doc: doc["blocks"][0].update(kind=None), r"^blocks\[0\]\.kind"),
    "wire_int": (lambda doc: doc["wires"][0].__setitem__(1, 7), r"^wires\[0\]\[1\]"),
    "duplicate_key": (lambda doc: json.dumps(doc)[:-1].encode("utf-8") + b', "c": 2}',
                      "^unparsable architecture JSON: duplicate key 'c'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_fields_raise_invalid_architecture(case, tmp_path):
    mutate, names = MALFORMED[case]
    doc = json.loads(_merge_spec().to_json())
    replaced = mutate(doc)
    raw = replaced if isinstance(replaced, bytes) else \
        json.dumps(doc if replaced is None else replaced).encode("utf-8")
    with pytest.raises(InvalidArchitecture, match=names):
        ArchitectureSpec.from_json(raw)

    # the same document as an arch.json file
    (tmp_path / "arch.json").write_bytes(raw)
    with pytest.raises(InvalidArchitecture, match=names):
        ArchitectureSpec.from_json(read_input(tmp_path / "arch.json"))


def test_stem_params_may_be_omitted():
    doc = json.loads(_merge_spec().to_json())
    del next(b for b in doc["blocks"] if b["kind"] == "Stem")["params"]
    assert ArchitectureSpec.from_json(json.dumps(doc)) == _merge_spec()


# --- arch.json goldens -----------------------------------------------------------

def _synthesize(circuit: FunctionalCircuit, style: str, shape) -> ArchitectureSpec:
    name, _, seed = style.partition(":")
    if name == "circuit":
        return synthesize_circuit_arch(circuit, 8, shape, 10)
    if name == "sequential":
        return synthesize_sequential_arch(8, shape, 10)
    return synthesize_randomized_arch(circuit, 8, int(seed), shape, 10)


# sha256 prefix of spec.to_json() and the parameter count, at c=8 on the
# reference circuit, as written when the circuit and free-DAG styles had
# separate block mappings and the engine its own slot rules
ARCH_JSON_GOLDENS = {
    ((1, 28, 28), "circuit"): ("c711b7578a00b62f", 9530),
    ((1, 28, 28), "randomized:0"): ("be255ffe53943551", 9386),
    ((1, 28, 28), "randomized:1"): ("2492d208dfb5ffd6", 9458),
    ((1, 28, 28), "randomized:2"): ("4ed011efd7eb2c66", 9458),
    ((1, 28, 28), "sequential"): ("8f40d4b3a5238a29", 46154),
    ((3, 32, 32), "circuit"): ("e9c1a356c47f8188", 10970),
    ((3, 32, 32), "randomized:0"): ("58a7e4be8bd52447", 10826),
    ((3, 32, 32), "randomized:1"): ("6b6a3c4766799052", 10898),
    ((3, 32, 32), "randomized:2"): ("d8e1096a9fcdb668", 10898),
    ((3, 32, 32), "sequential"): ("65b9eec114f88b03", 69594),
}


@pytest.fixture(scope="module")
def ref_circuit() -> FunctionalCircuit:
    return reference_circuit()


@pytest.mark.parametrize("shape, style", sorted(ARCH_JSON_GOLDENS),
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
def test_arch_json_goldens(ref_circuit, shape, style):
    spec = _synthesize(ref_circuit, style, shape)
    prefix, n_params = ARCH_JSON_GOLDENS[shape, style]
    assert hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest().startswith(prefix)
    v = validate(spec)
    assert param_count(v) == n_params
    assert sum(value.size for value in compile_arch(v, 0).params.values()) == n_params
