"""The text-table rules every loader and writer shares
(`connectome.read_table`, `connectome.write_table`), and the faults they
close: each malformed input must raise a typed error that names the file
and line at fault, and every table written must read back as written."""

from __future__ import annotations

import pytest

from circuitforge.arch import ArchitectureSpec
from circuitforge.connectome import (
    AGGREGATION_TSV,
    Role,
    TableFormat,
    bundled_data_path,
    load_aggregation,
    load_roles,
    read_table,
    save_connectome,
    write_table,
)
from circuitforge.cri import (
    CriTable,
    TopK,
    load_cri_table,
    load_expression,
    load_fold_changes,
    select_correlated,
    write_cri_table,
)
from circuitforge.datasets import load_idx
from circuitforge.errors import (
    CircuitForgeError,
    InvalidCircuit,
    MalformedRow,
    MissingInput,
    RoleMismatch,
    UnknownRole,
    read_input,
)
from circuitforge.extraction import FunctionalCircuit, export_circuit, load_circuit
from conftest import load_reference_connectome, load_reference_cri

ROLES = "neuron\trole\nS1\tsensory\nI1\tinter\nM1\tmotor\n"
EDGES = "pre\tpost\tweight\nS1\tI1\t3\nI1\tM1\t2\n"


def _circuit(edges: str, roles: str = ROLES):
    """load_circuit over an (edges, roles) pair of files."""
    return lambda d: load_circuit(_write(d, "circuit.tsv", edges),
                                  _write(d, "circuit_roles.tsv", roles))


def _one(loader, name: str, text: str):
    return lambda d: loader(_write(d, name, text))


def _write(directory, name: str, text: str | bytes):
    path = directory / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


# case -> (load call, error type, file and line the error must name)
MALFORMED = {
    "circuit_without_header": (
        _circuit("S1\tI1\t3\nI1\tM1\t2\n"), MalformedRow, "circuit.tsv:1"),
    "circuit_duplicate_edge": (
        _circuit(EDGES + "S1\tI1\t4\n"), MalformedRow, "circuit.tsv:4"),
    "circuit_nan_weight": (
        _circuit("pre\tpost\tweight\nS1\tI1\tnan\nI1\tM1\t2\n"), MalformedRow, "circuit.tsv:2"),
    "circuit_bad_role": (
        _circuit(EDGES, ROLES.replace("M1\tmotor", "M1\tmotr")), UnknownRole,
        "circuit_roles.tsv:4"),
    "circuit_endpoint_without_role": (
        _circuit(EDGES + "S1\tM9\t1\n"), UnknownRole, "circuit.tsv:4"),
    "circuit_zero_weight": (
        _circuit(EDGES + "S1\tM1\t0\n"), InvalidCircuit, "circuit.tsv:4"),
    "circuit_role_illegal_edge": (
        _circuit(EDGES + "I1\tS1\t1\n"), RoleMismatch, "circuit.tsv:4"),
    "circuit_isolated_role_row": (
        _circuit(EDGES, ROLES + "X\tinter\n"), InvalidCircuit, "circuit_roles.tsv:5"),
    "roles_not_utf8": (
        _one(load_roles, "roles.tsv", b"neuron\trole\nS1\tsensory\nI\xff1\tinter\n"),
        MalformedRow, "roles.tsv:3"),
    "roles_conflicting_rows": (
        _one(load_roles, "roles.tsv", ROLES + "S1\tmotor\n"), MalformedRow, "roles.tsv:5"),
    "roles_bad_role": (
        _one(load_roles, "roles.tsv", "neuron\trole\nS1\tglial\n"), UnknownRole, "roles.tsv:2"),
    "aggregation_repeated_row": (
        _one(load_aggregation, "agg.tsv", "raw\tfunctional\nADAL\tADA\nADAL\tADA\n"),
        MalformedRow, "agg.tsv:3"),
    "cri_nan_index": (
        _one(load_cri_table, "cri.csv", "neuron,role,cri\nS1,sensory,nan\n"),
        MalformedRow, "cri.csv:2"),
    "cri_duplicate_neuron": (
        _one(load_cri_table, "cri.csv", "neuron,cri\nS1,2.5\nS1,1.0\n"),
        MalformedRow, "cri.csv:3"),
    "cri_bad_role": (
        _one(load_cri_table, "cri.csv", "neuron,role,cri\nS1,sensorial,2.5\n"),
        UnknownRole, "cri.csv:2"),
    "cri_comment_line_skipped": (
        _one(load_cri_table, "cri.csv", "neuron,cri\n# exported index\nS1,x\n"),
        MalformedRow, "cri.csv:3"),
    "fold_inf": (
        _one(load_fold_changes, "fc.csv", "gene,fold_change\ng1,inf\n"), MalformedRow, "fc.csv:2"),
    "fold_duplicate_gene": (
        _one(load_fold_changes, "fc.csv", "gene,fold_change\ng1,2\ng1,3\n"),
        MalformedRow, "fc.csv:3"),
    "fold_comment_line_skipped": (
        _one(load_fold_changes, "fc.csv", "gene,fold_change\n# batch 2\ng1,-inf\n"),
        MalformedRow, "fc.csv:3"),
    "expression_duplicate_pair": (
        _one(load_expression, "w.csv", "gene,neuron,proportion\ng1,S1,0.1\ng1,S1,0.2\n"),
        MalformedRow, "w.csv:3"),
    "expression_header_after_pragma": (
        _one(load_expression, "w.csv", "#units=percent\ngene,cell,proportion\ng1,S1,5\n"),
        MalformedRow, "w.csv:2"),
    "expression_comment_line_skipped": (
        _one(load_expression, "w.csv", "gene,neuron,proportion\n# note\ng1,S1,0.5\ng2,S1,1.5\n"),
        MalformedRow, "w.csv:4"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_table_names_file_and_line(case, tmp_path):
    load, error, where = MALFORMED[case]
    with pytest.raises(error) as info:
        load(tmp_path)
    assert f"{tmp_path / where}:" in str(info.value)


@pytest.mark.parametrize("load", [lambda p: read_table(p, AGGREGATION_TSV),
                                  lambda p: ArchitectureSpec.from_json(read_input(p)),
                                  lambda p: load_idx(p, p)], ids=["read_table", "arch", "idx"])
def test_missing_input_names_the_path(tmp_path, load):
    path = tmp_path / "nope.txt"
    with pytest.raises(MissingInput) as info:
        load(path)
    assert isinstance(info.value, CircuitForgeError) and isinstance(info.value, FileNotFoundError)
    assert str(info.value) == f"{path}: no such file"


def test_load_circuit_strips_padding(tmp_path):
    (tmp_path / "plain").mkdir()
    plain = _circuit(EDGES)(tmp_path / "plain")
    padded = _circuit("pre\tpost\tweight\n S1 \tI1 \t 3\nI1\t M1\t2 \n",
                      "neuron\trole\nS1 \tsensory\n I1\tinter\nM1\t motor\n")(tmp_path)
    assert padded == plain


def test_expression_reads_r_quoted_csv(tmp_path):
    path = _write(tmp_path, "w.csv",
                  '#units=percent\n"gene","neuron","proportion"\n"odr-10","AWA",40\n')
    assert load_expression(path).w == {("odr-10", "AWA"): pytest.approx(0.4)}


# --- the shared rules, through the reader itself --------------------------------

def test_read_table_rules(tmp_path):
    path = _write(tmp_path, "t.csv",
                  '# a comment\n\n Name , VALUE \r\n"a, b",1\n  \n# another\nc , 2\n')
    table = read_table(path, TableFormat((("id", "value"), ("name", "value")), ",", 1))
    assert table.header == ("name", "value")
    assert table.line_nos == [4, 7]
    assert table.columns == {"name": ["a, b", "c"], "value": ["1", "2"]}
    assert table.numbers("value", int) == [1, 2]


NAME_VALUE_CSV = TableFormat((("name", "value"),), ",", 1)
NAME_VALUE_TSV = TableFormat((("name", "value"),), "\t", 1)


@pytest.mark.parametrize("text,line,reason", [
    ("", 0, "expected header"),
    ("# only a comment\n", 0, "expected header"),
    ("name,value\na,1,2\n", 2, "expected 2 columns, got 3"),
    ("name,value\na,1\nb,  \n", 3, "empty 'value' field"),
    ('name,value\na,"1\n2"\nb,3\n', 2, "runs onto the next line"),
    ('name,value\na,"1\n', 2, "bad quoting"),
    ('name,value\n"a"b,1\n', 2, "bad quoting"),
    ("name,value\na,1\nb,2\na,3\n", 4, "duplicate name 'a' (first on line 2)"),
])
def test_read_table_refusals(tmp_path, text, line, reason):
    path = _write(tmp_path, "t.csv", text)
    with pytest.raises(MalformedRow) as info:
        read_table(path, NAME_VALUE_CSV)
    assert reason in info.value.reason
    assert info.value.line_no == line


# --- the writer -------------------------------------------------------------------

def test_writers_reproduce_the_bundled_tables(tmp_path):
    save_connectome(load_reference_connectome(), tmp_path / "connectome.tsv",
                    tmp_path / "roles.tsv")
    write_cri_table(*load_reference_cri(), tmp_path / "cri_table.csv")
    write_table(tmp_path / "aggregation.tsv", AGGREGATION_TSV,
                load_aggregation(bundled_data_path("aggregation.tsv")).items())
    for name in ("connectome.tsv", "roles.tsv", "cri_table.csv", "aggregation.tsv"):
        assert (tmp_path / name).read_bytes() == bundled_data_path(name).read_bytes(), name


@pytest.mark.parametrize("fmt,row,refused", [
    (NAME_VALUE_CSV, ("a,b", "1"), False),
    (NAME_VALUE_TSV, ("a\tb", "1"), False),
    (NAME_VALUE_CSV, ('say "hi"', "1"), False),
    (NAME_VALUE_TSV, (" X", "1"), True),
    (NAME_VALUE_TSV, ("X", ""), True),
    (NAME_VALUE_CSV, ("X", "1\n2"), True),
    (NAME_VALUE_CSV, ("X", "1\r"), True),
    (NAME_VALUE_TSV, ("#X", "1"), True),
    (NAME_VALUE_CSV, ("X", "1", "2"), True),
    (NAME_VALUE_TSV, ("b\udcff", "1"), True),  # a lone surrogate is not UTF-8
])
def test_write_table_rules(tmp_path, fmt, row, refused):
    path = tmp_path / "t.txt"
    rows = [("first", 0.5), row]
    if not refused:
        write_table(path, fmt, rows)
        assert path.read_bytes().endswith(b"\n") and b"\r\n" not in path.read_bytes()
        table = read_table(path, fmt)
        assert list(zip(*table.columns.values())) == [("first", "0.5"), row]
        return
    with pytest.raises(MalformedRow) as info:
        write_table(path, fmt, rows)
    assert str(info.value).startswith(f"{path}:3: ")
    assert not path.exists()  # every row is checked before the file is opened


def test_exported_circuit_with_comment_like_name_is_refused(tmp_path):
    circuit = FunctionalCircuit(roles={"#S": Role.SENSORY, "M": Role.MOTOR},
                                edges={("#S", "M"): 2.0})
    with pytest.raises(MalformedRow) as info:
        export_circuit(circuit, tmp_path)
    assert f"{tmp_path / 'circuit.tsv'}:2:" in str(info.value)


def test_exported_weights_read_back_equal(tmp_path):
    circuit = FunctionalCircuit(
        roles={"S": Role.SENSORY, "I": Role.INTER, "M": Role.MOTOR},
        edges={("S", "I"): 1234567.0, ("I", "M"): 0.1, ("S", "M"): 0.30000000000000004})
    paths = export_circuit(circuit, tmp_path)
    assert load_circuit(paths["edges"], paths["roles"]) == circuit


def test_cri_table_keeps_the_top_pick(tmp_path):
    cri = CriTable(values={"Z": 100.0000002, "A": 100.0000001, "X,Y": 1.0}, n_genes=0)
    roles = {"Z": Role.SENSORY, "A": Role.SENSORY, "X,Y": Role.MOTOR}
    write_cri_table(cri, roles, tmp_path / "cri.csv")
    again, again_roles = load_cri_table(tmp_path / "cri.csv")
    assert again.values == cri.values and again_roles == roles
    assert select_correlated(again, roles, TopK(1)).sensory == {"Z"}
