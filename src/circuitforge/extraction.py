"""Functional-circuit extraction by following strongest connections.

Starting from the learning-correlated neurons, three role-specific
extension rules carve a sparse tripartite circuit out of the full
connectome.  Each rule is made of hops.  A hop ranks one node's k
strongest connections in one direction (outgoing or incoming), keeps the
neighbors whose role is listed, and records each kept edge as
pre -> post:

  * a sensory start hops outgoing onto interneurons and motor neurons,
    then each kept interneuron hops outgoing onto motor neurons;
  * an interneuron start hops incoming onto sensory neurons and outgoing
    onto motor neurons;
  * a motor start hops incoming onto sensory neurons and interneurons,
    then each kept interneuron hops incoming onto sensory neurons.

Ranking is by combined chemical plus electrical weight; ties break by
ascending neuron name, and nodes hop in name order, so extraction is
deterministic.  Neighbors of the wrong role inside a top-k list are
dropped, not replaced, so a start can retain fewer than k edges.  The
union over all starts is the functional circuit.  Edges between two
interneurons are never retained.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .connectome import (ROLES_TSV, Connectome, Direction, NeuronId, Role, TableFormat,
                         read_table, save_roles, top_k_neighbors, write_table)
from .errors import (
    DegenerateCircuit,
    InvalidCircuit,
    InvalidConfig,
    RoleMismatch,
    UnknownRole,
    check_int,
)

LEGAL_EDGES = {
    (Role.SENSORY, Role.INTER),
    (Role.SENSORY, Role.MOTOR),
    (Role.INTER, Role.MOTOR),
}


@dataclass(frozen=True)
class ExtractionConfig:
    """k = number of strongest connections followed at every hop."""
    k: int = 3

    def __post_init__(self) -> None:
        check_int("k", self.k, 1, InvalidConfig)


@dataclass(frozen=True)
class FunctionalCircuit:
    """Sparse tripartite subgraph: sensory -> inter -> motor.

    edges maps (pre, post) to the retained connection weight.  Role
    legality makes the graph acyclic by construction.
    """
    roles: dict[NeuronId, Role]
    edges: dict[tuple[NeuronId, NeuronId], float]

    @property
    def nodes(self) -> frozenset[NeuronId]:
        return frozenset(self.roles)

    @property
    def n_nodes(self) -> int:
        return len(self.roles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def role_counts(self) -> tuple[int, int, int]:
        """(sensory, inter, motor) node counts."""
        counts = {Role.SENSORY: 0, Role.INTER: 0, Role.MOTOR: 0}
        for role in self.roles.values():
            counts[role] += 1
        return (counts[Role.SENSORY], counts[Role.INTER], counts[Role.MOTOR])

    def nodes_with_role(self, role: Role) -> list[NeuronId]:
        return sorted(n for n, r in self.roles.items() if r is role)


def _start(conn: Connectome, starts, want: Role) -> FunctionalCircuit:
    """An empty circuit, once every start has role want; starts are
    checked in name order, so an error names the same neuron every run."""
    for neuron in sorted(starts):
        got = conn.role(neuron)
        if got is not want:
            raise RoleMismatch(f"{neuron} has role {got.value}, expected {want.value}")
    return FunctionalCircuit(roles={}, edges={})


def _hop(conn: Connectome, circuit: FunctionalCircuit, nodes, direction: Direction,
         keep: tuple[Role, ...], k: int) -> set[NeuronId]:
    """For each node in name order, rank its k strongest connections in
    direction and add to circuit the edge to every neighbor whose role is
    in keep, oriented pre -> post; returns the interneurons kept."""
    kept_inter: set[NeuronId] = set()
    for node in sorted(nodes):
        for j, w in top_k_neighbors(conn, node, direction, k):
            role = conn.role(j)
            if role not in keep:
                continue
            pre, post = (node, j) if direction is Direction.OUTGOING else (j, node)
            circuit.roles[pre] = conn.role(pre)
            circuit.roles[post] = conn.role(post)
            circuit.edges[(pre, post)] = w
            if role is Role.INTER:
                kept_inter.add(j)
    return kept_inter


def extend_from_sensory(conn: Connectome, starts: set[NeuronId] | frozenset[NeuronId],
                        cfg: ExtractionConfig = ExtractionConfig()) -> FunctionalCircuit:
    """First scenario: follow strongest outgoing connections of each
    sensory start, then the strongest outgoing connections of every
    interneuron reached that way."""
    circuit = _start(conn, starts, Role.SENSORY)
    inter = _hop(conn, circuit, starts, Direction.OUTGOING, (Role.INTER, Role.MOTOR), cfg.k)
    _hop(conn, circuit, inter, Direction.OUTGOING, (Role.MOTOR,), cfg.k)
    return circuit


def extend_from_interneuron(conn: Connectome, inter: NeuronId,
                            cfg: ExtractionConfig = ExtractionConfig()) -> FunctionalCircuit:
    """Second scenario: sensory sources feeding the interneuron and motor
    targets fed by it, both restricted to its strongest connections."""
    circuit = _start(conn, [inter], Role.INTER)
    _hop(conn, circuit, [inter], Direction.INCOMING, (Role.SENSORY,), cfg.k)
    _hop(conn, circuit, [inter], Direction.OUTGOING, (Role.MOTOR,), cfg.k)
    return circuit


def extend_from_motor(conn: Connectome, motor: NeuronId,
                      cfg: ExtractionConfig = ExtractionConfig()) -> FunctionalCircuit:
    """Third scenario: walk backwards from a motor neuron through its
    strongest sources, and one hop further back from any interneuron."""
    circuit = _start(conn, [motor], Role.MOTOR)
    inter = _hop(conn, circuit, [motor], Direction.INCOMING, (Role.SENSORY, Role.INTER), cfg.k)
    _hop(conn, circuit, inter, Direction.INCOMING, (Role.SENSORY,), cfg.k)
    return circuit


def merge_circuits(*parts: FunctionalCircuit) -> FunctionalCircuit:
    """Union of partial circuits; a shared edge is stored once."""
    roles: dict[NeuronId, Role] = {}
    edges: dict[tuple[NeuronId, NeuronId], float] = {}
    for part in parts:
        for n, r in part.roles.items():
            if roles.get(n, r) is not r:
                raise InvalidCircuit(f"{n} has conflicting roles across partial circuits")
            roles[n] = r
        edges.update(part.edges)
    return FunctionalCircuit(roles=roles, edges=edges)


def extract_circuits(conn: Connectome, sel, cfg: ExtractionConfig = ExtractionConfig()
                     ) -> FunctionalCircuit:
    """Run all three scenarios over a selection and merge the results.

    sel carries frozenset fields .sensory / .inter / .motor (see
    cri.SelectedNeurons).  Scenario order cannot matter: the union is a
    plain set merge.
    """
    if not (sel.sensory or sel.inter or sel.motor):
        raise InvalidConfig("selection is empty")
    parts = [extend_from_sensory(conn, sel.sensory, cfg)] if sel.sensory else []
    for inter in sorted(sel.inter):
        parts.append(extend_from_interneuron(conn, inter, cfg))
    for motor in sorted(sel.motor):
        parts.append(extend_from_motor(conn, motor, cfg))
    circuit = merge_circuits(*parts)
    validate_circuit(circuit)
    return circuit


def _edge_fault(i: NeuronId, j: NeuronId, w: float, roles: dict[NeuronId, Role]
                ) -> InvalidCircuit | RoleMismatch | None:
    """The error for edge i -> j of weight w between nodes with roles, if any."""
    if w <= 0:
        return InvalidCircuit(f"edge ({i}, {j}) has non-positive weight {w}")
    pair = (roles[i], roles[j])
    if pair not in LEGAL_EDGES:
        return RoleMismatch(
            f"edge {i}->{j} is {pair[0].value}->{pair[1].value}, which is not allowed")
    return None


def validate_circuit(circuit: FunctionalCircuit) -> None:
    """Check the tripartite invariants; raises on the first violation."""
    for (i, j), w in circuit.edges.items():
        if i not in circuit.roles or j not in circuit.roles:
            raise InvalidCircuit(f"edge ({i}, {j}) references a node without a role")
        if fault := _edge_fault(i, j, w, circuit.roles):
            raise fault
    touched = {n for edge in circuit.edges for n in edge}
    isolated = sorted(circuit.nodes - touched)
    if isolated:
        raise InvalidCircuit(f"isolated nodes: {', '.join(isolated)}")


def sparsity(circuit: FunctionalCircuit) -> float:
    """1 - |edges| / (n * (n - 1)), against the complete directed graph."""
    n = circuit.n_nodes
    if n < 2:
        raise DegenerateCircuit(f"sparsity needs >= 2 nodes, circuit has {n}")
    return 1.0 - circuit.n_edges / (n * (n - 1))


# --- file io ---

CIRCUIT_TSV = TableFormat((("pre", "post", "weight"),), "\t", 2)


def export_circuit(circuit: FunctionalCircuit, out_dir) -> dict[str, Path]:
    """Write circuit.tsv, circuit_roles.tsv and circuit.dot into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "edges": out / "circuit.tsv",
        "roles": out / "circuit_roles.tsv",
        "dot": out / "circuit.dot",
    }
    write_table(paths["edges"], CIRCUIT_TSV,
                ((i, j, w) for (i, j), w in sorted(circuit.edges.items())))
    save_roles(circuit.roles, paths["roles"])
    with open(paths["dot"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_to_dot(circuit))
    return paths


_DOT_SHAPE = {Role.SENSORY: "ellipse", Role.INTER: "box", Role.MOTOR: "diamond"}


def _to_dot(circuit: FunctionalCircuit) -> str:
    lines = ["digraph circuit {", "  rankdir=LR;"]
    for role in (Role.SENSORY, Role.INTER, Role.MOTOR):
        members = circuit.nodes_with_role(role)
        if not members:
            continue
        lines.append(f"  {{ rank=same; // {role.value}")
        for n in members:
            lines.append(f'    "{n}" [shape={_DOT_SHAPE[role]}];')
        lines.append("  }")
    for (i, j), w in sorted(circuit.edges.items()):
        lines.append(f'  "{i}" -> "{j}" [label="{w:g}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_circuit(edges_path, roles_path) -> FunctionalCircuit:
    """Round-trip reader for export_circuit output; validates on load.  A
    non-positive weight or a role-illegal edge names its circuit.tsv line,
    and a role row for a neuron no edge touches names its roles-file line."""
    table = read_table(edges_path, CIRCUIT_TSV)
    role_table = read_table(roles_path, ROLES_TSV)
    roles = dict(zip(role_table.columns["neuron"], role_table.roles("role")))
    pairs = list(zip(table.columns["pre"], table.columns["post"]))
    weights = table.numbers("weight")
    for line_no, pair, w in zip(table.line_nos, pairs, weights):
        missing = [name for name in pair if name not in roles]
        if missing:
            raise UnknownRole(
                f"{edges_path}:{line_no}: neuron {missing[0]!r} absent from {roles_path}")
        if fault := _edge_fault(*pair, w, roles):
            raise type(fault)(f"{edges_path}:{line_no}: {fault}")
    touched = {n for pair in pairs for n in pair}
    for line_no, name in zip(role_table.line_nos, role_table.columns["neuron"]):
        if name not in touched:
            raise InvalidCircuit(f"{roles_path}:{line_no}: isolated node {name}")
    circuit = FunctionalCircuit(roles=roles, edges=dict(zip(pairs, weights)))
    validate_circuit(circuit)
    return circuit
