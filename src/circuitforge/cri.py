"""Per-neuron correlation indexes from gene fold changes and expression.

The index for a neuron is the sum over differentially expressed genes of
(expression proportion of the gene in that neuron) x |fold change of the
gene|, with fold changes clipped to [-50, 50] beforehand.  Neurons that
express none of the genes score 0, so the index is total over any neuron
set.  Selection of learning-correlated neurons runs either as top-k by
index (default k=11) or as a z-score threshold.

The CSV tables are declared once as `TableFormat`s under "file io" below;
expression.csv may open with a '#units=fraction|percent' pragma line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .connectome import NeuronId, Role, TableFormat, read_table, write_table
from .errors import (
    EmptyTable,
    InvalidConfig,
    KExceedsPopulation,
    MalformedRow,
    MissingFoldChange,
    NonFiniteValue,
    UnknownRole,
    check_int,
)

GeneId = str

FOLD_CHANGE_LIMIT = 50.0
_UNIT_SCALE = {"units=fraction": 1.0, "units=percent": 0.01}  # expression.csv pragma


@dataclass(frozen=True)
class FoldChangeTable:
    """Gene -> fold change (sign encodes up/down regulation)."""
    values: dict[GeneId, float]


@dataclass(frozen=True)
class ExpressionMatrix:
    """(gene, neuron) -> expression proportion in [0, 1]; missing means 0."""
    w: dict[tuple[GeneId, NeuronId], float]

    @property
    def genes(self) -> frozenset[GeneId]:
        return frozenset(g for g, _ in self.w)

    @property
    def neurons(self) -> frozenset[NeuronId]:
        return frozenset(n for _, n in self.w)


@dataclass(frozen=True)
class CriTable:
    values: dict[NeuronId, float]
    n_genes: int


@dataclass(frozen=True)
class TopK:
    k: int = 11


@dataclass(frozen=True)
class ZScore:
    threshold: float = 1.0


SelectionPolicy = TopK | ZScore


@dataclass(frozen=True)
class SelectedNeurons:
    sensory: frozenset[NeuronId]
    inter: frozenset[NeuronId]
    motor: frozenset[NeuronId]

    @property
    def all(self) -> frozenset[NeuronId]:
        return self.sensory | self.inter | self.motor

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.sensory), len(self.inter), len(self.motor))


def clip_fold_changes(raw: FoldChangeTable) -> FoldChangeTable:
    """Clamp every fold change into [-50, 50]; non-finite input is an error."""
    clipped: dict[GeneId, float] = {}
    for gene, m in raw.values.items():
        if not math.isfinite(m):
            raise NonFiniteValue(f"fold change for gene {gene!r} is {m!r}")
        clipped[gene] = min(max(m, -FOLD_CHANGE_LIMIT), FOLD_CHANGE_LIMIT)
    return FoldChangeTable(values=clipped)


def compute_cri(w: ExpressionMatrix, m: FoldChangeTable,
                neurons: set[NeuronId] | frozenset[NeuronId]) -> CriTable:
    """Sum expression-weighted absolute fold changes for each requested neuron.

    Fold changes are clipped to [-50, 50] first (a no-op on already-clipped
    tables).  Sequential accumulation in gene order sorted by name keeps the
    result bit-identical across runs.
    """
    m = clip_fold_changes(m)
    missing = sorted(w.genes - set(m.values))
    if missing:
        raise MissingFoldChange(f"genes without fold changes: {', '.join(missing)}")
    per_neuron: dict[NeuronId, list[tuple[GeneId, float]]] = {n: [] for n in neurons}
    for (gene, neuron), prop in w.w.items():
        if neuron in per_neuron:
            per_neuron[neuron].append((gene, prop))
    values: dict[NeuronId, float] = {}
    for neuron in sorted(per_neuron):
        total = 0.0
        for gene, prop in sorted(per_neuron[neuron]):
            total += prop * abs(m.values[gene])
        values[neuron] = total
    return CriTable(values=values, n_genes=len(m.values))


def select_correlated(cri: CriTable, roles: dict[NeuronId, Role],
                      policy: SelectionPolicy = TopK()) -> SelectedNeurons:
    """Pick learning-correlated neurons and partition them by role.

    TopK keeps the k highest-index neurons (ties broken by ascending name);
    ZScore keeps neurons whose index lies more than `threshold` population
    standard deviations above the mean.
    """
    if not cri.values:
        raise EmptyTable("correlation-index table is empty")
    for neuron in cri.values:
        if neuron not in roles:
            raise UnknownRole(f"neuron {neuron!r} has no role assignment")

    if isinstance(policy, TopK):
        check_int("k", policy.k, 1, InvalidConfig)
        if policy.k > len(cri.values):
            raise KExceedsPopulation(
                f"k={policy.k} exceeds population of {len(cri.values)} neurons")
        ranked = sorted(cri.values.items(), key=lambda nv: (-nv[1], nv[0]))
        chosen = [n for n, _ in ranked[:policy.k]]
    else:
        n = len(cri.values)
        mean = sum(cri.values.values()) / n
        var = sum((v - mean) ** 2 for v in cri.values.values()) / n
        std = math.sqrt(var)
        if std == 0.0:
            chosen = []
        else:
            chosen = [name for name, v in cri.values.items()
                      if (v - mean) / std > policy.threshold]

    by_role = {Role.SENSORY: set(), Role.INTER: set(), Role.MOTOR: set()}
    for neuron in chosen:
        by_role[roles[neuron]].add(neuron)
    return SelectedNeurons(sensory=frozenset(by_role[Role.SENSORY]),
                           inter=frozenset(by_role[Role.INTER]),
                           motor=frozenset(by_role[Role.MOTOR]))


# --- file io ---

FOLD_CHANGES_CSV = TableFormat((("gene", "fold_change"),), ",", 1)
EXPRESSION_CSV = TableFormat((("gene", "neuron", "proportion"),), ",", 2)
CRI_TABLE_CSV = TableFormat((("neuron", "role", "cri"), ("neuron", "cri")), ",", 1)


def load_fold_changes(path) -> FoldChangeTable:
    table = read_table(path, FOLD_CHANGES_CSV)
    return FoldChangeTable(values=dict(zip(table.columns["gene"], table.numbers("fold_change"))))


def load_expression(path) -> ExpressionMatrix:
    """Read expression.csv; a '#units=percent' pragma divides values by 100."""
    table = read_table(path, EXPRESSION_CSV)
    first = table.lines[0].strip()
    scale = 1.0
    if first.startswith("#"):
        scale = _UNIT_SCALE.get(first.lstrip("#").strip().lower())
        if scale is None:
            raise MalformedRow(path, 1, f"unknown pragma {first!r}")
    w: dict[tuple[GeneId, NeuronId], float] = {}
    for line_no, gene, neuron, value in zip(table.line_nos, table.columns["gene"],
                                            table.columns["neuron"], table.numbers("proportion")):
        value *= scale
        if not 0.0 <= value <= 1.0:
            raise MalformedRow(path, line_no,
                               f"proportion {value} outside [0, 1] after unit scaling")
        w[(gene, neuron)] = value
    return ExpressionMatrix(w=w)


def write_cri_table(cri: CriTable, roles: dict[NeuronId, Role], path) -> None:
    """Write cri_table.csv with roles, index descending; every index reads back equal."""
    missing = sorted(cri.values.keys() - roles.keys())
    if missing:
        raise UnknownRole(f"neuron {missing[0]!r} has no role assignment")
    ranked = sorted(cri.values.items(), key=lambda nv: (-nv[1], nv[0]))
    write_table(path, CRI_TABLE_CSV, ((n, roles[n].value, v) for n, v in ranked))


def load_cri_table(path) -> tuple[CriTable, dict[NeuronId, Role]]:
    """Read cri_table.csv, roles optional; returns the table and any roles present."""
    table = read_table(path, CRI_TABLE_CSV)
    neurons = table.columns["neuron"]
    roles = dict(zip(neurons, table.roles("role"))) if "role" in table.header else {}
    return CriTable(values=dict(zip(neurons, table.numbers("cri"))), n_genes=0), roles
