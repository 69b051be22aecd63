from __future__ import annotations

import numpy as np
import pytest

from circuitforge.connectome import Connectome, Direction, Role, top_k_neighbors
from circuitforge.cri import SelectedNeurons
from circuitforge.errors import DegenerateCircuit, InvalidCircuit, RoleMismatch, UnknownNeuron
from circuitforge.extraction import (
    ExtractionConfig,
    FunctionalCircuit,
    extend_from_interneuron,
    extend_from_motor,
    extend_from_sensory,
    export_circuit,
    extract_circuits,
    load_circuit,
    merge_circuits,
    sparsity,
    validate_circuit,
)
from conftest import make_connectome, random_connectome, random_selection

K3 = ExtractionConfig(k=3)


def test_config_rejects_bad_k():
    with pytest.raises(ValueError):
        ExtractionConfig(k=0)


# --- the three hand-traced goldens ------------------------------------------

def test_sensory_extension_golden():
    conn = make_connectome({("S", "I1"): 9, ("S", "I2"): 7, ("S", "S2"): 6,
                            ("S", "M1"): 2, ("I1", "M1"): 4})
    part = extend_from_sensory(conn, {"S"}, K3)
    assert part.nodes == {"S", "I1", "I2", "M1"}
    assert part.edges == {("S", "I1"): 9.0, ("S", "I2"): 7.0, ("I1", "M1"): 4.0}
    # S->M1 exists but M1 is not among S's three strongest targets
    assert ("S", "M1") not in part.edges


def test_interneuron_extension_golden():
    conn = make_connectome({
        ("S1", "I0"): 10, ("S2", "I0"): 8, ("I9", "I0"): 6, ("S3", "I0"): 1,
        ("I0", "M1"): 9, ("I0", "I9"): 5, ("I0", "M2"): 4, ("I0", "M3"): 1,
    })
    part = extend_from_interneuron(conn, "I0", K3)
    assert part.edges == {("S1", "I0"): 10.0, ("S2", "I0"): 8.0,
                         ("I0", "M1"): 9.0, ("I0", "M2"): 4.0}
    assert part.nodes == {"S1", "S2", "I0", "M1", "M2"}


def test_motor_extension_golden():
    conn = make_connectome({
        ("I1", "M0"): 9, ("S1", "M0"): 7, ("M9", "M0"): 5, ("I2", "M0"): 1,
        ("S2", "I1"): 8, ("S3", "I1"): 6, ("I5", "I1"): 4, ("S4", "I1"): 1,
    })
    part = extend_from_motor(conn, "M0", K3)
    assert part.edges == {("I1", "M0"): 9.0, ("S1", "M0"): 7.0,
                         ("S2", "I1"): 8.0, ("S3", "I1"): 6.0}


# --- trivial cases pinned by the scenario rules ------------------------------

def test_sensory_with_no_outgoing_edges_yields_empty():
    conn = make_connectome({("S2", "S1"): 3}, extra=("M1",))
    part = extend_from_sensory(conn, {"S1"}, K3)
    assert part.edges == {} and part.nodes == frozenset()


def test_sensory_targets_all_sensory_yields_empty():
    conn = make_connectome({("S1", "S2"): 5, ("S1", "S3"): 2})
    part = extend_from_sensory(conn, {"S1"}, K3)
    assert part.edges == {}


def test_isolated_interneuron_yields_empty():
    conn = make_connectome({("S1", "M1"): 2}, extra=("I1",))
    part = extend_from_interneuron(conn, "I1", K3)
    assert part.edges == {}


def test_inter_without_motor_targets_keeps_only_inputs():
    conn = make_connectome({("S1", "I1"): 5, ("I1", "I2"): 4, ("I1", "S2"): 3})
    part = extend_from_interneuron(conn, "I1", K3)
    assert part.edges == {("S1", "I1"): 5.0}


def test_motor_with_only_motor_sources_yields_empty():
    conn = make_connectome({("M2", "M1"): 5, ("M3", "M1"): 2})
    part = extend_from_motor(conn, "M1", K3)
    assert part.edges == {}


def test_k_beyond_degree_truncates():
    conn = make_connectome({("S1", "M1"): 4, ("I1", "M1"): 2})
    part = extend_from_motor(conn, "M1", ExtractionConfig(k=50))
    assert part.edges == {("S1", "M1"): 4.0, ("I1", "M1"): 2.0}


def test_extension_checks_start_role():
    conn = make_connectome({("S1", "I1"): 3, ("I1", "M1"): 2})
    with pytest.raises(RoleMismatch):
        extend_from_sensory(conn, {"I1"}, K3)
    with pytest.raises(RoleMismatch):
        extend_from_interneuron(conn, "M1", K3)
    with pytest.raises(RoleMismatch):
        extend_from_motor(conn, "S1", K3)


@pytest.mark.parametrize("starts", [["ZED", "S9", "BOB"], frozenset({"ZED", "S9", "BOB"})],
                         ids=["list", "frozenset"])
def test_extension_names_the_first_unknown_start_by_name(starts):
    conn = make_connectome({("S1", "I1"): 3, ("I1", "M1"): 2})
    with pytest.raises(UnknownNeuron, match="^neuron 'BOB' not in connectome$"):
        extend_from_sensory(conn, starts, K3)


def test_electrical_weight_contributes_both_directions():
    # the gap junction makes S1<->I1 worth 5 each way; ranking uses the sum
    conn = make_connectome({("S1", "I1"): 2, ("S1", "I2"): 4, ("S1", "I3"): 4,
                            ("S1", "S2"): 6}, {("S1", "I1"): 3})
    part = extend_from_sensory(conn, {"S1"}, K3)
    assert part.edges[("S1", "I1")] == 5.0


# --- merging and full extraction ---------------------------------------------

def test_merge_disjoint_sums_counts():
    a = FunctionalCircuit({"S1": Role.SENSORY, "I1": Role.INTER}, {("S1", "I1"): 3.0})
    b = FunctionalCircuit({"S2": Role.SENSORY, "M1": Role.MOTOR}, {("S2", "M1"): 2.0})
    merged = merge_circuits(a, b)
    assert merged.n_nodes == 4 and merged.n_edges == 2


def test_merge_shared_edge_stored_once():
    a = FunctionalCircuit({"S1": Role.SENSORY, "I1": Role.INTER}, {("S1", "I1"): 3.0})
    merged = merge_circuits(a, a)
    assert merged.n_edges == 1


def test_merge_rejects_role_conflicts():
    a = FunctionalCircuit({"X": Role.SENSORY, "I1": Role.INTER}, {("X", "I1"): 1.0})
    b = FunctionalCircuit({"X": Role.INTER, "M1": Role.MOTOR}, {("X", "M1"): 1.0})
    with pytest.raises(InvalidCircuit):
        merge_circuits(a, b)


def test_extract_requires_nonempty_selection():
    conn = make_connectome({("S1", "I1"): 1})
    empty = SelectedNeurons(frozenset(), frozenset(), frozenset())
    with pytest.raises(ValueError):
        extract_circuits(conn, empty, K3)


def test_extract_union_over_scenarios():
    conn = make_connectome({
        ("S1", "I1"): 9, ("I1", "M1"): 8, ("S2", "I1"): 7, ("S3", "M1"): 6,
    })
    sel = SelectedNeurons(frozenset({"S1"}), frozenset({"I1"}), frozenset({"M1"}))
    circuit = extract_circuits(conn, sel, K3)
    assert circuit.edges == {("S1", "I1"): 9.0, ("I1", "M1"): 8.0,
                            ("S2", "I1"): 7.0, ("S3", "M1"): 6.0}
    validate_circuit(circuit)


# --- invariants and validation ----------------------------------------------

def test_validate_rejects_illegal_role_pair():
    bad = FunctionalCircuit({"I1": Role.INTER, "S1": Role.SENSORY},
                            {("I1", "S1"): 2.0})
    with pytest.raises(RoleMismatch):
        validate_circuit(bad)


def test_validate_rejects_nonpositive_weight():
    bad = FunctionalCircuit({"S1": Role.SENSORY, "I1": Role.INTER},
                            {("S1", "I1"): 0.0})
    with pytest.raises(InvalidCircuit):
        validate_circuit(bad)


def test_validate_rejects_isolated_node():
    bad = FunctionalCircuit(
        {"S1": Role.SENSORY, "I1": Role.INTER, "M1": Role.MOTOR},
        {("S1", "I1"): 1.0})
    with pytest.raises(InvalidCircuit):
        validate_circuit(bad)


def test_sparsity_values():
    roles = {f"S{i}": Role.SENSORY for i in range(10)}
    roles.update({f"I{i}": Role.INTER for i in range(5)})
    roles.update({f"M{i}": Role.MOTOR for i in range(7)})
    edges = {(f"S{i}", "I0"): 1.0 for i in range(10)}
    edges.update({(f"I{i}", "M0"): 1.0 for i in range(5)})
    edges.update({("I0", f"M{i}"): 1.0 for i in range(1, 7)})
    circuit = FunctionalCircuit(roles, edges)
    assert circuit.n_nodes == 22 and circuit.n_edges == 21
    assert sparsity(circuit) == pytest.approx(1 - 21 / 462, abs=1e-12)


def test_sparsity_complete_graph_is_zero():
    roles = {"S1": Role.SENSORY, "I1": Role.INTER, "M1": Role.MOTOR}
    edges = {("S1", "I1"): 1.0, ("S1", "M1"): 1.0, ("I1", "M1"): 1.0,
             ("I1", "S1"): 1.0, ("M1", "S1"): 1.0, ("M1", "I1"): 1.0}
    assert sparsity(FunctionalCircuit(roles, edges)) == 0.0


def test_sparsity_needs_two_nodes():
    tiny = FunctionalCircuit({"S1": Role.SENSORY}, {})
    with pytest.raises(DegenerateCircuit):
        sparsity(tiny)


# --- property tests over random connectomes ----------------------------------

def test_extraction_invariants_hold_on_random_connectomes():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        conn = random_connectome(rng)
        sel = random_selection(rng, conn)
        circuit = extract_circuits(conn, sel, K3)
        validate_circuit(circuit)
        # every retained edge sits in a top-3 list of one of its endpoints
        for (pre, post) in circuit.edges:
            out3 = {n for n, _ in top_k_neighbors(conn, pre, Direction.OUTGOING, 3)}
            in3 = {n for n, _ in top_k_neighbors(conn, post, Direction.INCOMING, 3)}
            assert post in out3 or pre in in3, (seed, pre, post)
        # determinism
        again = extract_circuits(conn, sel, K3)
        assert again.edges == circuit.edges and again.roles == circuit.roles


def test_extraction_is_idempotent():
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        conn = random_connectome(rng)
        sel = random_selection(rng, conn)
        circuit = extract_circuits(conn, sel, K3)
        kept = circuit.nodes
        inner_sel = SelectedNeurons(sel.sensory & kept, sel.inter & kept,
                                    sel.motor & kept)
        if not inner_sel.all:
            continue
        # the circuit as a connectome, its weights as chemical counts
        chem = {pair: int(round(w)) for pair, w in circuit.edges.items()}
        again = extract_circuits(Connectome(roles=dict(circuit.roles), chem=chem, elec={}),
                                 inner_sel, K3)
        assert set(again.edges) <= set(circuit.edges), seed


def test_extraction_monotone_in_k():
    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        conn = random_connectome(rng)
        sel = random_selection(rng, conn)
        previous: set = set()
        for k in (1, 2, 3, 4):
            circuit = extract_circuits(conn, sel, ExtractionConfig(k=k))
            current = set(circuit.edges)
            assert previous <= current, (seed, k)
            previous = current


# --- exports -----------------------------------------------------------------

def test_export_and_load_round_trip(tmp_path):
    conn = make_connectome({("S1", "I1"): 9, ("I1", "M1"): 4, ("S2", "I1"): 3})
    sel = SelectedNeurons(frozenset({"S1", "S2"}), frozenset({"I1"}),
                          frozenset({"M1"}))
    circuit = extract_circuits(conn, sel, K3)
    paths = export_circuit(circuit, tmp_path)
    assert set(paths) == {"edges", "roles", "dot"}
    back = load_circuit(paths["edges"], paths["roles"])
    assert back.edges == circuit.edges
    assert back.roles == circuit.roles
    dot = paths["dot"].read_text()
    assert "S1" in dot and "->" in dot


def test_export_is_byte_stable(tmp_path):
    conn = make_connectome({("S1", "I1"): 9, ("I1", "M1"): 4})
    sel = SelectedNeurons(frozenset({"S1"}), frozenset(), frozenset())
    circuit = extract_circuits(conn, sel, K3)
    a = export_circuit(circuit, tmp_path / "a")
    b = export_circuit(circuit, tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()
