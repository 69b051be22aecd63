from __future__ import annotations

import hashlib

import numpy as np

from circuitforge.connectome import Role, bundled_data_path, load_aggregation, load_roles
from circuitforge.extraction import (
    ExtractionConfig,
    extend_from_interneuron,
    extend_from_motor,
    extend_from_sensory,
    sparsity,
    validate_circuit,
)
from circuitforge.reference import reference_circuit
from conftest import (
    load_functional_connectome,
    load_reference_connectome,
    load_reference_cri,
    reference_selection,
)

EXPECTED_SELECTION = {"ADL", "ASK", "ASI", "AWA", "AFD", "PHB",
                      "CAN", "AWC", "ASJ", "PVN", "ASER"}


def test_bundled_files_present():
    for name in ("connectome.tsv", "roles.tsv", "aggregation.tsv", "cri_table.csv"):
        assert bundled_data_path(name).is_file()


def test_raw_connectome_shape():
    raw = load_reference_connectome()
    assert len(raw.neurons) == 296
    assert all(raw.roles[n] in Role for n in raw.neurons)


def test_functional_connectome_shape():
    conn = load_functional_connectome()
    assert len(conn.neurons) == 121
    by_role = {r: sum(1 for n in conn.neurons if conn.roles[n] == r) for r in Role}
    assert by_role[Role.SENSORY] == 36
    assert by_role[Role.INTER] == 53
    assert by_role[Role.MOTOR] == 32


def test_aggregation_preserves_chemical_mass():
    raw = load_reference_connectome()
    conn = load_functional_connectome()
    # merging neurons can only drop within-group synapses, which the
    # bundled chemical table does not contain
    raw_total = sum(raw.chem.values())
    agg_total = sum(conn.chem.values())
    assert agg_total == raw_total


def test_cri_table_matches_functional_population():
    cri, roles = load_reference_cri()
    conn = load_functional_connectome()
    assert set(cri.values) == set(conn.neurons)
    assert roles == conn.roles
    assert all(np.isfinite(v) for v in cri.values.values())


def test_selection_is_the_published_eleven():
    sel = reference_selection()
    assert set(sel.all) == EXPECTED_SELECTION
    assert len(sel.sensory) == 9
    assert set(sel.inter) == {"CAN"}
    assert set(sel.motor) == {"PVN"}


def test_reference_circuit_shape_and_sparsity():
    circuit = reference_circuit()
    validate_circuit(circuit)
    assert circuit.role_counts() == (10, 5, 7)
    assert circuit.n_nodes == 22
    assert circuit.n_edges == 21
    assert abs(sparsity(circuit) - (1.0 - 21.0 / 462.0)) < 1e-12


# sha256 prefix of each bundled table as its loader parses it, recorded while
# every loader still had its own reader
BUNDLED_DIGESTS = {
    "roles.tsv": "3fd1017c14427170",
    "connectome.tsv": "524c73692dd72bfa",
    "aggregation.tsv": "497b8af318e88738",
    "cri_table.csv": "5552aabcb23f3d2b",
    "reference_circuit": "a516b91e829576f6",
}


def _digest(*maps: dict) -> str:
    """sha256 prefix of the maps, each dumped as its sorted (key, value) list."""
    dump = tuple(sorted((k, getattr(v, "value", v)) for k, v in m.items()) for m in maps)
    return hashlib.sha256(repr(dump).encode()).hexdigest()[:16]


def _bundled_digests() -> dict[str, str]:
    conn = load_reference_connectome()
    cri, cri_roles = load_reference_cri()
    circuit = reference_circuit()
    return {
        "roles.tsv": _digest(load_roles(bundled_data_path("roles.tsv"))),
        "connectome.tsv": _digest(conn.roles, conn.chem, conn.elec),
        "aggregation.tsv": _digest(load_aggregation(bundled_data_path("aggregation.tsv"))),
        "cri_table.csv": _digest(cri.values, cri_roles),
        "reference_circuit": _digest(circuit.roles, circuit.edges),
    }


def test_bundled_tables_parse_as_recorded():
    assert _bundled_digests() == BUNDLED_DIGESTS


def test_extension_order_as_recorded():
    """Every bundled functional neuron as a single start, all sensory neurons
    as one start, at k = 1, 2, 3 and 5, then the reference circuit: edges
    and roles in insertion order, recorded before the extension rules were
    written as hops."""
    conn = load_functional_connectome()
    extend = {Role.SENSORY: lambda c, n, cfg: extend_from_sensory(c, {n}, cfg),
              Role.INTER: extend_from_interneuron, Role.MOTOR: extend_from_motor}
    sensory = frozenset(n for n, r in conn.roles.items() if r is Role.SENSORY)
    parts = []
    for k in (1, 2, 3, 5):
        cfg = ExtractionConfig(k=k)
        parts += [extend[conn.roles[n]](conn, n, cfg) for n in sorted(conn.roles)]
        parts.append(extend_from_sensory(conn, sensory, cfg))
    parts.append(reference_circuit())
    dump = [(list(p.edges.items()), [(n, r.value) for n, r in p.roles.items()])
            for p in parts]
    assert len(dump) == 489
    assert hashlib.sha256(repr(dump).encode()).hexdigest()[:16] == "e419c49336f97b03"
