"""Weighted nematode connectome: loading, validation, aggregation, neighbors.

The connectome is a directed multigraph over neuron names with two synapse
count maps: chemical counts C[i,j] (directed, C[i,j] != C[j,i] in general)
and electrical counts E[i,j] (gap junctions, stored symmetrically in both
directions).  The effective edge weight is C[i,j] + E[i,j].

Each text table's layout (headers, separator, key) is one `TableFormat`
constant beside its loader, here and in `cri`, `extraction` and `bench`.
Every table is read by `read_table` and written by `write_table`, which
hold the rules all tables share.  Each JSON document is declared by its
dataclass alone, read by `read_json` and written by `write_json`.

A Connectome instance is immutable after construction; every operation here
is a pure read and safe to call concurrently.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import re
from dataclasses import MISSING, dataclass, fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from .errors import (
    AsymmetricElectrical,
    CircuitForgeError,
    InvalidConfig,
    MalformedRow,
    MixedRoleGroup,
    NegativeCount,
    SelfLoopRejected,
    UnknownNeuron,
    UnknownRole,
    UnmappedNeuron,
    check_int,
    read_text,
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


class TableFormat(NamedTuple):
    """One table's layout, shared by its reader and its writer."""
    headers: tuple[tuple[str, ...], ...]  # the headers it may carry; the writer writes the first
    sep: str
    key: int  # how many leading fields form a row's key


CONNECTOME_TSV = TableFormat((("pre", "post", "chem", "elec"),), "\t", 2)
ROLES_TSV = TableFormat((("neuron", "role"),), "\t", 1)
AGGREGATION_TSV = TableFormat((("raw", "functional"),), "\t", 1)


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


def read_table(path, fmt: TableFormat) -> Table:
    """Read a UTF-8 table laid out as `fmt` under the rules every table shares.

    Blank lines and lines starting with '#' are skipped.  The first other
    row must equal one of `fmt.headers`, ignoring case and surrounding
    whitespace.  Every data row has exactly as many fields as that header,
    each non-empty after stripping; a field may be double-quoted as R's
    write.csv does, but may not run onto the next line.  The first
    `fmt.key` fields of a row are its key, and no key appears twice.  A
    violation, or a byte that is not UTF-8, raises MalformedRow naming
    path:line; a file that cannot be read raises through `read_input`.
    """
    lines = io.StringIO(read_text(path), newline="").readlines()
    line_nos = [n for n, line in enumerate(lines, start=1)
                if (text := line.strip()) and text[0] != "#"]
    reader = csv.reader([lines[n - 1] for n in line_nos], delimiter=fmt.sep, strict=True)
    try:
        header = tuple(f.strip().lower() for f in next(reader, ()))
        if header not in fmt.headers:
            raise MalformedRow(path, line_nos[0] if line_nos else 0, "expected header "
                               + " or ".join(repr(fmt.sep.join(h)) for h in fmt.headers))
        records = list(reader)
    except csv.Error as exc:
        raise MalformedRow(path, line_nos[reader.line_num - 1], f"bad quoting: {exc}") from None
    del line_nos[0]
    columns = [list(map(str.strip, col)) for col in zip(*records)] or [[] for _ in header]
    # fewer records than lines means a quoted field ran onto the next line
    if (len(records) != len(line_nos) or set(map(len, records)) - {len(header)}
            or any("" in col for col in columns)
            or len(set(zip(*columns[:fmt.key]))) != len(records)):
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
            key = tuple(fields[:fmt.key])
            if key in first_seen:
                raise MalformedRow(path, line_no, f"duplicate {'/'.join(header[:fmt.key])} "
                                   f"{'/'.join(key)!r} (first on line {first_seen[key]})")
            first_seen[key] = line_no
    return Table(path, header, line_nos, dict(zip(header, columns)), lines)


def _text(value) -> str:
    """A float as the shortest text that reads back equal, less repr's '.0'."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return text[:-2] if text.endswith(".0") else text
    return str(value)


def write_table(path, fmt: TableFormat, rows) -> None:
    """Write `rows` under `fmt`'s first header as UTF-8 with '\\n' line endings,
    quoted by the csv module, so that `read_table` reads every field back as
    written.  Every row is checked before the file is opened: a row of the
    wrong length, or a field `read_table` would alter or drop (empty, padded,
    holding a line break, or first in its row and starting with '#'), or one
    that is not encodable as UTF-8, raises MalformedRow naming path and the
    line the row would have taken."""
    header = fmt.headers[0]
    records = [header]
    for line_no, row in enumerate(rows, start=2):
        fields = list(map(_text, row))
        if len(fields) != len(header) or fields[0][:1] == "#" or not all(
                f and f == f.strip() and "\n" not in f and "\r" not in f for f in fields):
            raise MalformedRow(path, line_no, f"row {fields} would not read back as written")
        records.append(fields)
    buf = io.StringIO()
    csv.writer(buf, delimiter=fmt.sep, lineterminator="\n").writerows(records)
    text = buf.getvalue()
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate; each row is one line
        raise MalformedRow(path, text.count("\n", 0, exc.start) + 1,
                           f"not UTF-8 encodable: {text[exc.start]!r}") from None
    Path(path).write_bytes(data)


# --- JSON documents ---

def _plain(value):
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.value if isinstance(value, enum.Enum) else value


def json_text(doc) -> str:
    """`doc` as two-space JSON with sorted keys: a dataclass as its fields, an
    Enum as its value, an ndarray as nested lists, dict keys as strings."""
    return json.dumps(_plain(doc), indent=2, sort_keys=True) + "\n"


def write_json(path, doc) -> None:
    Path(path).write_bytes(json_text(doc).encode("utf-8"))  # UTF-8, '\n' line endings


def _distinct_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are distinct; `json.loads` alone keeps the last of two."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def read_json(cls: type, data: bytes | str, error: type[CircuitForgeError], name: str):
    """UTF-8 JSON `data` as dataclass `cls`: fields with a default are optional, unknown
    or repeated ones refused, types checked against the type hints (a bool is no int),
    values by the constructors.  A fault raises `error` naming `name` or the field path."""
    def need(ok, where: str, what: str, value) -> None:
        if not ok:
            raise error(f"{where or name} must be {what}, got {value!r:.40}")

    def decode(value, hint, where: str):
        origin, args = get_origin(hint), get_args(hint)
        if type(None) in args:  # the one union declared is `X | None`
            (hint,) = set(args) - {type(None)}
            return None if value is None else decode(value, hint, where)
        if hint in (str, int, float):
            need(type(value) in ((int, float) if hint is float else (hint,)), where,
                 {str: "a string", int: "an integer", float: "a number"}[hint], value)
            return value
        if isinstance(hint, enum.EnumMeta):
            values = [m.value for m in hint]
            need(value in values, where, f"one of {', '.join(map(repr, values))}", value)
            return hint(value)
        if origin in (list, tuple):
            need(isinstance(value, list), where, "a list", value)
            if origin is list or args[-1] is Ellipsis:
                args = args[:1] * len(value)
            need(len(value) == len(args), where, f"a list of {len(args)} items", value)
            return origin(decode(v, t, f"{where}[{i}]")
                          for i, (v, t) in enumerate(zip(value, args)))
        need(isinstance(value, dict), where, "an object", value)
        if is_dataclass(hint):
            declared = {f.name: f for f in fields(hint)}
            unknown = sorted(value.keys() - declared.keys())
            if unknown:
                raise error(f"unknown {where or name} fields: {', '.join(unknown)}")
            missing = [k for k, f in declared.items() if k not in value
                       and f.default is MISSING and f.default_factory is MISSING]
            if missing:
                raise error(f"{where or name} missing field: {', '.join(missing)}")
            hints = get_type_hints(hint)
            return hint(**{k: decode(v, hints[k], f"{where}.{k}" if where else k)
                           for k, v in value.items()})
        if not args:  # an untyped dict, checked by its owner's constructor
            return value
        for key in value:  # dict[int, ...] is the one typed dict declared
            need(re.fullmatch("0|-?[1-9][0-9]*", key), f"{where}.{key}", "an integer key", key)
        return {int(k): decode(v, args[1], f"{where}.{k}") for k, v in value.items()}

    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data,
                         object_pairs_hook=_distinct_keys)
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not UTF-8: byte {data[exc.start]:#04x} at {exc.start}") from None
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"unparsable {name}: {exc}") from None
    return decode(doc, cls, "")


def load_roles(path) -> dict[NeuronId, Role]:
    table = read_table(path, ROLES_TSV)
    return dict(zip(table.columns["neuron"], table.roles("role")))


def load_connectome(path, roles_path) -> Connectome:
    """Parse connectome.tsv against roles.tsv and return a validated graph.

    Electrical counts are symmetrized by storing both directions; a pair
    whose rows disagree on the electrical count raises AsymmetricElectrical.
    Neurons appearing in edges but absent from the role table raise
    UnknownRole.  Self-loop rows raise SelfLoopRejected.
    """
    role_table = load_roles(roles_path)
    table = read_table(path, CONNECTOME_TSV)
    roles: dict[NeuronId, Role] = {}
    chem: dict[tuple[NeuronId, NeuronId], int] = {}
    elec: dict[tuple[NeuronId, NeuronId], int] = {}
    columns = table.columns
    for line_no, pre, post, c, e in zip(table.line_nos, columns["pre"], columns["post"],
                                        table.numbers("chem", int), table.numbers("elec", int)):
        if c < 0 or e < 0:
            raise NegativeCount(path, line_no, f"negative synapse count ({c}, {e})")
        if pre == post:
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
    """Write the TSV pair, rows sorted; an elec-only pair once, as its lesser direction."""
    pairs = conn.chem.keys() | conn.elec.keys()
    write_table(path, CONNECTOME_TSV, (
        (i, j, c, conn.elec.get((i, j), 0)) for i, j in sorted(pairs)
        if (c := conn.chem.get((i, j), 0)) or (j, i) not in pairs or (i, j) <= (j, i)))
    save_roles(conn.roles, roles_path)


def save_roles(roles: dict[NeuronId, Role], path) -> None:
    """Write a role table (roles.tsv, circuit_roles.tsv), sorted by neuron."""
    write_table(path, ROLES_TSV, ((name, roles[name].value) for name in sorted(roles)))


def load_aggregation(path) -> dict[NeuronId, NeuronId]:
    table = read_table(path, AGGREGATION_TSV)
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
    check_int("k", k, 1, InvalidConfig)
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
