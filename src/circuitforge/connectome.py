"""Weighted nematode connectome: loading, validation, aggregation, neighbors.

The connectome is a directed multigraph over neuron names with two synapse
count maps: chemical counts C[i,j] (directed, C[i,j] != C[j,i] in general)
and electrical counts E[i,j] (gap junctions, stored symmetrically in both
directions).  The effective edge weight is C[i,j] + E[i,j].

File formats (tab-separated, UTF-8, one header line):

    connectome.tsv   pre  post  chem  elec    key (pre, post)
    roles.tsv        neuron  role              key neuron; role in {sensory, inter, motor}
    aggregation.tsv  raw  functional           key raw

These and the CSV tables of `cri` and `extraction` are all read by
`read_table`, which holds the rules every table shares.

A Connectome instance is immutable after construction; every operation here
is a pure read and safe to call concurrently.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import (
    AsymmetricElectrical,
    MalformedRow,
    MixedRoleGroup,
    NegativeCount,
    SelfLoopRejected,
    UnknownNeuron,
    UnknownRole,
    UnmappedNeuron,
)

NeuronId = str


class Role(enum.Enum):
    SENSORY = "sensory"
    INTER = "inter"
    MOTOR = "motor"

    @classmethod
    def parse(cls, text: str) -> "Role":
        role = _ROLE_BY_VALUE.get(text.strip().lower())
        if role is None:
            raise UnknownRole(f"unknown role {text!r} (expected sensory/inter/motor)")
        return role


_ROLE_BY_VALUE = {role.value: role for role in Role}  # several times faster than Role(value)


class Direction(enum.Enum):
    OUTGOING = "outgoing"   # i is presynaptic: edges i -> x
    INCOMING = "incoming"   # i is postsynaptic: edges x -> i


@dataclass(frozen=True)
class Connectome:
    """Validated synapse-count graph.  elec holds both (i,j) and (j,i)."""

    roles: dict[NeuronId, Role]
    chem: dict[tuple[NeuronId, NeuronId], int]
    elec: dict[tuple[NeuronId, NeuronId], int]

    @property
    def neurons(self) -> frozenset[NeuronId]:
        return frozenset(self.roles)

    def role(self, i: NeuronId) -> Role:
        try:
            return self.roles[i]
        except KeyError:
            raise UnknownNeuron(f"neuron {i!r} not in connectome")


class Table(NamedTuple):
    """A table file as `read_table` returns it: its data held by column."""
    path: str | Path
    header: tuple[str, ...]  # the allowed header that matched, lower-case
    line_nos: list[int]  # 1-based line number of each data row
    columns: dict[str, list[str]]  # header name -> the stripped field of each row
    lines: list[str]  # every line of the file, for what the rules skip

    def numbers(self, name: str, kind: type = float) -> list:
        """Column `name` as finite `kind` values (float or int); a field that
        is not one raises MalformedRow at its line."""
        texts = self.columns[name]
        try:
            values = list(map(kind, texts))
            if all(map(math.isfinite, values)):
                return values
        except (ValueError, OverflowError):
            pass
        for line_no, text in zip(self.line_nos, texts):  # find the first bad field
            try:
                if math.isfinite(kind(text)):
                    continue
            except (ValueError, OverflowError):
                pass
            raise MalformedRow(self.path, line_no, f"bad {name} {text!r}")

    def roles(self, name: str) -> list[Role]:
        """Column `name` parsed by `Role.parse`; UnknownRole names path:line."""
        out = []
        for line_no, text in zip(self.line_nos, self.columns[name]):
            try:
                out.append(Role.parse(text))
            except UnknownRole as exc:
                raise UnknownRole(f"{self.path}:{line_no}: {exc}") from None
        return out


def read_table(path, *headers: tuple[str, ...], sep: str, unique: int) -> Table:
    """Read a `sep`-delimited UTF-8 table under the rules every table shares.

    Blank lines and lines starting with '#' are skipped.  The first other
    row must equal one of `headers`, ignoring case and surrounding
    whitespace.  Every data row has exactly as many fields as that header,
    each non-empty after stripping; a field may be double-quoted as R's
    write.csv does, but may not run onto the next line.  The first `unique`
    fields of a row are its key, and no key appears twice.  A violation
    raises MalformedRow naming path:line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    line_nos = [n for n, line in enumerate(lines, start=1)
                if (text := line.strip()) and text[0] != "#"]
    reader = csv.reader([lines[n - 1] for n in line_nos], delimiter=sep, strict=True)
    try:
        header = tuple(f.strip().lower() for f in next(reader, ()))
        if header not in headers:
            raise MalformedRow(path, line_nos[0] if line_nos else 0, "expected header "
                               + " or ".join(repr(sep.join(h)) for h in headers))
        records = list(reader)
    except csv.Error as exc:
        raise MalformedRow(path, line_nos[reader.line_num - 1], f"bad quoting: {exc}") from None
    del line_nos[0]
    columns = [list(map(str.strip, col)) for col in zip(*records)] or [[] for _ in header]
    # fewer records than lines means a quoted field ran onto the next line
    if (len(records) != len(line_nos) or set(map(len, records)) - {len(header)}
            or any("" in col for col in columns)
            or len(set(zip(*columns[:unique]))) != len(records)):
        first_seen: dict[tuple[str, ...], int] = {}  # find the first row at fault
        for line_no, record in zip(line_nos, records):
            if any("\n" in f or "\r" in f for f in record):
                raise MalformedRow(path, line_no, "quoted field runs onto the next line")
            fields = [f.strip() for f in record]
            if len(fields) != len(header):
                raise MalformedRow(path, line_no,
                                   f"expected {len(header)} columns, got {len(fields)}")
            if "" in fields:
                raise MalformedRow(path, line_no, f"empty {header[fields.index('')]!r} field")
            key = tuple(fields[:unique])
            if key in first_seen:
                raise MalformedRow(path, line_no, f"duplicate {'/'.join(header[:unique])} "
                                   f"{'/'.join(key)!r} (first on line {first_seen[key]})")
            first_seen[key] = line_no
    return Table(path, header, line_nos, dict(zip(header, columns)), lines)


def load_roles(path) -> dict[NeuronId, Role]:
    table = read_table(path, ("neuron", "role"), sep="\t", unique=1)
    return dict(zip(table.columns["neuron"], table.roles("role")))


def load_connectome(path, roles_path, *, allow_self_loops: bool = False) -> Connectome:
    """Parse connectome.tsv against roles.tsv and return a validated graph.

    Electrical counts are symmetrized by storing both directions; a pair
    whose rows disagree on the electrical count raises AsymmetricElectrical.
    Neurons appearing in edges but absent from the role table raise
    UnknownRole.  Self-loop rows are rejected unless allow_self_loops.
    """
    role_table = load_roles(roles_path)
    table = read_table(path, ("pre", "post", "chem", "elec"), sep="\t", unique=2)
    roles: dict[NeuronId, Role] = {}
    chem: dict[tuple[NeuronId, NeuronId], int] = {}
    elec: dict[tuple[NeuronId, NeuronId], int] = {}
    columns = table.columns
    for line_no, pre, post, c, e in zip(table.line_nos, columns["pre"], columns["post"],
                                        table.numbers("chem", int), table.numbers("elec", int)):
        if c < 0 or e < 0:
            raise NegativeCount(path, line_no, f"negative synapse count ({c}, {e})")
        if pre == post and not allow_self_loops:
            raise SelfLoopRejected(path, line_no, f"self-loop on {pre!r} rejected")
        try:
            roles[pre], roles[post] = role_table[pre], role_table[post]
        except KeyError as exc:
            raise UnknownRole(
                f"{path}:{line_no}: neuron {exc.args[0]!r} absent from role table") from None
        if c > 0:
            chem[(pre, post)] = c
        if e > 0:
            for pair in ((pre, post), (post, pre)):
                if pair in elec and elec[pair] != e:
                    raise AsymmetricElectrical(
                        f"{path}:{line_no}: electrical count for ({pre}, {post}) "
                        f"given as {e} but previously {elec[pair]}")
                elec[pair] = e
    return Connectome(roles=roles, chem=chem, elec=elec)


def save_connectome(conn: Connectome, path, roles_path) -> None:
    """Write the round-trippable TSV pair (sorted rows, \\n line endings)."""
    pairs = sorted(set(conn.chem) | {(i, j) for (i, j) in conn.elec})
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("pre\tpost\tchem\telec\n")
        for i, j in pairs:
            c = conn.chem.get((i, j), 0)
            e = conn.elec.get((i, j), 0)
            if c == 0 and (j, i) in pairs and (j, i) < (i, j):
                continue  # elec-only pair already emitted in the other direction
            fh.write(f"{i}\t{j}\t{c}\t{e}\n")
    save_roles(conn.roles, roles_path)


def save_roles(roles: dict[NeuronId, Role], path) -> None:
    """Write a role table (roles.tsv, circuit_roles.tsv), sorted by neuron."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("neuron\trole\n")
        for name in sorted(roles):
            fh.write(f"{name}\t{roles[name].value}\n")


def load_aggregation(path) -> dict[NeuronId, NeuronId]:
    table = read_table(path, ("raw", "functional"), sep="\t", unique=1)
    return dict(zip(table.columns["raw"], table.columns["functional"]))


def aggregate_functional(conn: Connectome, mapping: dict[NeuronId, NeuronId]) -> Connectome:
    """Collapse raw neurons into functional groups, summing synapse counts.

    Self-pairs created by a merge are dropped.  Every neuron of conn must
    appear in the map; raw members of one group must share a role.
    """
    missing = sorted(n for n in conn.roles if n not in mapping)
    if missing:
        raise UnmappedNeuron(f"neurons absent from aggregation map: {', '.join(missing)}")

    roles: dict[NeuronId, Role] = {}
    for raw, functional in mapping.items():
        if raw not in conn.roles:
            continue
        role = conn.roles[raw]
        if functional in roles and roles[functional] is not role:
            raise MixedRoleGroup(
                f"group {functional!r} mixes roles {roles[functional].value} and {role.value}")
        roles[functional] = role

    def collapse(counts: dict[tuple[NeuronId, NeuronId], int]) -> dict:
        out: dict[tuple[NeuronId, NeuronId], int] = {}
        for (i, j), count in counts.items():
            fi, fj = mapping[i], mapping[j]
            if fi != fj:
                out[(fi, fj)] = out.get((fi, fj), 0) + count
        return out
    return Connectome(roles=roles, chem=collapse(conn.chem), elec=collapse(conn.elec))


def edge_weight(conn: Connectome, i: NeuronId, j: NeuronId) -> int:
    """Total synapse count i -> j: chemical plus electrical, 0 if none stored."""
    for n in (i, j):
        if n not in conn.roles:
            raise UnknownNeuron(f"neuron {n!r} not in connectome")
    return conn.chem.get((i, j), 0) + conn.elec.get((i, j), 0)


def top_k_neighbors(conn: Connectome, i: NeuronId, direction: Direction,
                    k: int) -> list[tuple[NeuronId, int]]:
    """Strongest-k partners of i, weight descending, ties by ascending name.

    OUTGOING ranks targets of i (i presynaptic), INCOMING ranks sources.
    Zero-weight pairs are excluded; fewer than k neighbors may exist.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if i not in conn.roles:
        raise UnknownNeuron(f"neuron {i!r} not in connectome")
    weights: dict[NeuronId, int] = {}
    outgoing = direction is Direction.OUTGOING
    for counts in (conn.chem, conn.elec):
        for (a, b), w in counts.items():
            if (a if outgoing else b) == i:
                partner = b if outgoing else a
                weights[partner] = weights.get(partner, 0) + w
    ranked = sorted(((n, w) for n, w in weights.items() if w > 0),
                    key=lambda nw: (-nw[1], nw[0]))
    return ranked[:k]


def bundled_data_path(name: str) -> Path:
    """Path of a data file shipped with the package (connectome.tsv, roles.tsv,
    aggregation.tsv, cri_table.csv)."""
    return Path(resources.files("circuitforge").joinpath("data", name))
