from __future__ import annotations

import numpy as np
import pytest

from circuitforge.connectome import (
    Direction,
    Role,
    aggregate_functional,
    edge_weight,
    load_aggregation,
    load_connectome,
    load_roles,
    save_connectome,
    top_k_neighbors,
)
from circuitforge.errors import (
    AsymmetricElectrical,
    MalformedRow,
    MixedRoleGroup,
    NegativeCount,
    SelfLoopRejected,
    UnknownNeuron,
    UnknownRole,
    UnmappedNeuron,
)
from conftest import make_connectome, random_connectome, write_connectome_tsv

ROLES_SIM = {"S1": "sensory", "S2": "sensory", "I1": "inter", "M1": "motor"}


def test_load_basic(tmp_path):
    conn_path, roles_path = write_connectome_tsv(
        tmp_path, [("S1", "I1", 4, 0), ("I1", "M1", 2, 1)], ROLES_SIM)
    conn = load_connectome(conn_path, roles_path)
    assert conn.neurons == {"S1", "I1", "M1"}
    assert conn.role("S1") is Role.SENSORY
    assert conn.chem[("S1", "I1")] == 4
    # electrical counts are stored in both directions
    assert conn.elec[("I1", "M1")] == 1
    assert conn.elec[("M1", "I1")] == 1


def test_load_skips_comments_and_blanks(tmp_path):
    conn_path = tmp_path / "c.tsv"
    conn_path.write_text("# comment\npre\tpost\tchem\telec\n\nS1\tI1\t3\t0\n")
    roles_path = tmp_path / "r.tsv"
    roles_path.write_text("neuron\trole\nS1\tsensory\nI1\tinter\n")
    conn = load_connectome(conn_path, roles_path)
    assert conn.chem == {("S1", "I1"): 3}


@pytest.mark.parametrize("rows,exc", [
    ([("S1", "I1", -1, 0)], NegativeCount),
    ([("S1", "S1", 1, 0)], SelfLoopRejected),
    ([("S1", "I1", 1, 0), ("S1", "I1", 2, 0)], MalformedRow),
])
def test_load_rejects_bad_rows(tmp_path, rows, exc):
    conn_path, roles_path = write_connectome_tsv(tmp_path, rows, ROLES_SIM)
    with pytest.raises(exc):
        load_connectome(conn_path, roles_path)


def test_load_unknown_role(tmp_path):
    conn_path, roles_path = write_connectome_tsv(
        tmp_path, [("S1", "X9", 1, 0)], ROLES_SIM)
    with pytest.raises(UnknownRole):
        load_connectome(conn_path, roles_path)


def test_asymmetric_electrical_rejected(tmp_path):
    conn_path, roles_path = write_connectome_tsv(
        tmp_path, [("S1", "I1", 0, 3), ("I1", "S1", 0, 5)], ROLES_SIM)
    with pytest.raises(AsymmetricElectrical):
        load_connectome(conn_path, roles_path)


def test_bad_header(tmp_path):
    conn_path = tmp_path / "c.tsv"
    conn_path.write_text("from\tto\tweight\n")
    roles_path = tmp_path / "r.tsv"
    roles_path.write_text("neuron\trole\nS1\tsensory\n")
    with pytest.raises(MalformedRow):
        load_connectome(conn_path, roles_path)


def test_role_parse_rejects_unknown():
    with pytest.raises(UnknownRole):
        Role.parse("glial")


def test_roles_file_may_list_unused_neurons(tmp_path):
    roles = dict(ROLES_SIM, UNUSED="motor")
    conn_path, roles_path = write_connectome_tsv(tmp_path, [("S1", "I1", 1, 0)], roles)
    conn = load_connectome(conn_path, roles_path)
    assert "UNUSED" not in conn.neurons
    assert load_roles(roles_path)["UNUSED"] is Role.MOTOR


def test_edge_weight_sums_chem_and_elec():
    conn = make_connectome({("S1", "I1"): 4}, {("S1", "I1"): 3})
    assert edge_weight(conn, "S1", "I1") == 7
    assert edge_weight(conn, "I1", "S1") == 3  # electrical only, reverse direction
    with pytest.raises(UnknownNeuron):
        edge_weight(conn, "S1", "Z1")


def test_top_k_ranking_and_ties():
    conn = make_connectome({("S1", "I1"): 9, ("S1", "M1"): 9, ("S1", "S2"): 12,
                            ("S1", "I2"): 1})
    ranked = top_k_neighbors(conn, "S1", Direction.OUTGOING, 3)
    # weight descending, equal weights broken by ascending name
    assert ranked == [("S2", 12), ("I1", 9), ("M1", 9)]
    assert top_k_neighbors(conn, "S1", Direction.OUTGOING, 10)[-1] == ("I2", 1)


def test_top_k_incoming_uses_sources():
    conn = make_connectome({("S1", "M1"): 5, ("I1", "M1"): 8}, {("S2", "M1"): 2})
    ranked = top_k_neighbors(conn, "M1", Direction.INCOMING, 2)
    assert ranked == [("I1", 8), ("S1", 5)]


def test_top_k_rejects_bad_k():
    conn = make_connectome({("S1", "I1"): 1})
    with pytest.raises(ValueError):
        top_k_neighbors(conn, "S1", Direction.OUTGOING, 0)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    conn = random_connectome(rng)
    save_connectome(conn, tmp_path / "c.tsv", tmp_path / "r.tsv")
    back = load_connectome(tmp_path / "c.tsv", tmp_path / "r.tsv")
    assert back.chem == conn.chem
    assert back.elec == conn.elec
    # save keeps only neurons that touch an edge
    touched = {n for pair in list(conn.chem) + list(conn.elec) for n in pair}
    assert back.neurons == touched


def test_save_is_deterministic(tmp_path):
    conn = random_connectome(np.random.default_rng(5))
    save_connectome(conn, tmp_path / "a.tsv", tmp_path / "ar.tsv")
    save_connectome(conn, tmp_path / "b.tsv", tmp_path / "br.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


def test_aggregation_sums_counts_and_drops_internal_pairs():
    conn = make_connectome(
        {("S1L", "I1"): 3, ("S1R", "I1"): 4, ("S1L", "S1R"): 2},
        {("S1L", "S1R"): 1},
    )
    # conftest's prefix roles treat S1L/S1R as sensory, so the merge is legal
    mapping = {"S1L": "S1", "S1R": "S1", "I1": "I1"}
    agg = aggregate_functional(conn, mapping)
    assert agg.chem == {("S1", "I1"): 7}
    assert agg.elec == {}
    assert agg.neurons == {"S1", "I1"}


def test_aggregation_requires_full_map():
    conn = make_connectome({("S1", "I1"): 1})
    with pytest.raises(UnmappedNeuron):
        aggregate_functional(conn, {"S1": "S1"})


def test_aggregation_rejects_mixed_roles():
    conn = make_connectome({("S1", "M1"): 1, ("S2", "I1"): 1})
    mapping = {"S1": "G", "M1": "G", "S2": "S2", "I1": "I1"}
    with pytest.raises(MixedRoleGroup):
        aggregate_functional(conn, mapping)


def test_load_aggregation_rejects_conflicts(tmp_path):
    path = tmp_path / "agg.tsv"
    path.write_text("raw\tfunctional\nA1\tA\nA1\tB\n")
    with pytest.raises(MalformedRow):
        load_aggregation(path)


def test_load_aggregation(tmp_path):
    path = tmp_path / "agg.tsv"
    path.write_text("raw\tfunctional\nADLL\tADL\nADLR\tADL\n")
    assert load_aggregation(path) == {"ADLL": "ADL", "ADLR": "ADL"}
