"""Convenience loaders for the bundled nematode reference data.

The package ships a raw connectome, a neuron role table, the left/right
and dorsal/ventral aggregation map, and the published per-neuron
correlation indexes.  These helpers run the standard pipeline over
those files so callers (CLI defaults, benchmarks, examples) do not have
to wire the steps themselves.
"""

from __future__ import annotations

from pathlib import Path

from .connectome import (
    Connectome,
    aggregate_functional,
    bundled_data_path,
    load_aggregation,
    load_connectome,
)
from .cri import CriTable, SelectedNeurons, TopK, load_cri_table, select_correlated
from .extraction import ExtractionConfig, FunctionalCircuit, extract_circuits, load_circuit


def load_reference_connectome() -> Connectome:
    """The bundled raw connectome (per-neuron resolution)."""
    return load_connectome(bundled_data_path("connectome.tsv"),
                           bundled_data_path("roles.tsv"))


def load_functional_connectome() -> Connectome:
    """Raw connectome aggregated into functional (merged) neurons."""
    raw = load_reference_connectome()
    mapping = load_aggregation(bundled_data_path("aggregation.tsv"))
    return aggregate_functional(raw, mapping)


def load_reference_cri() -> tuple[CriTable, dict]:
    return load_cri_table(bundled_data_path("cri_table.csv"))


def reference_selection() -> SelectedNeurons:
    """The standard selection: `TopK()` by correlation index."""
    cri, roles = load_reference_cri()
    return select_correlated(cri, roles, TopK())


def reference_circuit() -> FunctionalCircuit:
    """Functional circuit extracted from the bundled data with the
    standard selection and `ExtractionConfig()`."""
    conn = load_functional_connectome()
    sel = reference_selection()
    return extract_circuits(conn, sel, ExtractionConfig())


def source_circuit(edges_path=None, roles_path=None) -> FunctionalCircuit:
    """The circuit exported to `edges_path`, with roles from `roles_path`
    (by default its sibling circuit_roles.tsv); the reference circuit when
    no path is given."""
    if not edges_path:
        return reference_circuit()
    edges_path = Path(edges_path)
    return load_circuit(edges_path, roles_path or edges_path.with_name("circuit_roles.tsv"))
