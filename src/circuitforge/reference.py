"""The tables -> circuit pipeline, defaulting to the bundled reference data.

The package ships a raw connectome, a neuron role table, the left/right
and dorsal/ventral aggregation map, and the published per-neuron
correlation indexes.  `extract_from_tables` runs the standard pipeline
(load, aggregate, select, extract) over given tables or those files, so
callers (CLI, benchmarks, examples) do not have to wire the steps
themselves.
"""

from __future__ import annotations

from pathlib import Path

from .connectome import (
    aggregate_functional,
    bundled_data_path,
    load_aggregation,
    load_connectome,
)
from .cri import SelectedNeurons, SelectionPolicy, TopK, load_cri_table, select_correlated
from .errors import InvalidConfig
from .extraction import ExtractionConfig, FunctionalCircuit, extract_circuits, load_circuit


def extract_from_tables(connectome=None, roles=None, aggregation=None, cri=None,
                        policy: SelectionPolicy = TopK(),
                        cfg: ExtractionConfig = ExtractionConfig()
                        ) -> tuple[SelectedNeurons, FunctionalCircuit]:
    """The selection and the circuit extracted from the given tables.

    Each path defaults to its bundled file.  The bundled aggregation map
    applies when neither a connectome nor a map is given.  The CRI
    table's roles, when it has a role column, win over the connectome's.
    An empty path is refused: it names no file, bundled or given.
    """
    given = {"connectome": connectome, "roles": roles, "aggregation": aggregation, "cri": cri}
    for name, path in given.items():
        if path == "":
            raise InvalidConfig(f"{name} path is empty")
    conn = load_connectome(connectome or bundled_data_path("connectome.tsv"),
                           roles or bundled_data_path("roles.tsv"))
    if aggregation is None and connectome is None:
        aggregation = bundled_data_path("aggregation.tsv")
    if aggregation:
        conn = aggregate_functional(conn, load_aggregation(aggregation))
    cri_table, cri_roles = load_cri_table(cri or bundled_data_path("cri_table.csv"))
    sel = select_correlated(cri_table, cri_roles or conn.roles, policy)
    return sel, extract_circuits(conn, sel, cfg)


def reference_circuit() -> FunctionalCircuit:
    """Functional circuit extracted from the bundled data with the
    standard selection `TopK()` and `ExtractionConfig()`."""
    return extract_from_tables()[1]


def source_circuit(edges_path=None, roles_path=None) -> FunctionalCircuit:
    """The circuit exported to `edges_path`, with roles from `roles_path`
    (by default its sibling circuit_roles.tsv); the reference circuit when
    no path is given."""
    if not edges_path:
        return reference_circuit()
    edges_path = Path(edges_path)
    return load_circuit(edges_path, roles_path or edges_path.with_name("circuit_roles.tsv"))
