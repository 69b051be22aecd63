from __future__ import annotations

import json

import pytest

from circuitforge.bench import BenchmarkConfig, MetricsReport
from circuitforge.cli import build_parser, main
from circuitforge.extraction import export_circuit
from circuitforge.reference import reference_circuit
from conftest import write_bench_corpus


def test_extract_bundled_defaults(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["extract", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "(10 sensory, 5 inter, 7 motor)" in printed
    assert "diff vs reported (10, 5, 7): (0, 0, 0)" in printed
    for name in ("circuit.tsv", "circuit_roles.tsv", "circuit.dot"):
        assert (out / name).is_file()
    # the CLI and reference_circuit run one pipeline with one set of defaults
    ref = export_circuit(reference_circuit(), tmp_path / "ref")
    for key, name in (("edges", "circuit.tsv"), ("roles", "circuit_roles.tsv")):
        assert (out / name).read_bytes() == ref[key].read_bytes()


def test_extract_malformed_input_exits_one(tmp_path, capsys):
    bad = tmp_path / "conn.tsv"
    bad.write_text("pre\tpost\n")  # wrong header
    code = main(["extract", "--connectome", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_extract_nan_cri_exits_one_naming_the_line(tmp_path, capsys):
    cri = tmp_path / "cri.csv"
    cri.write_text("neuron,role,cri\nADL,sensory,289.51\nASK,sensory,nan\n")
    assert main(["extract", "--cri", str(cri), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cri}:3:")


@pytest.mark.parametrize("argv", [
    ["extract", "--connectome", "{missing}", "--out", "{tmp}/o"],
    ["bench", "run", "--config", "{missing}"],
    ["synthesize", "--circuit", "{missing}", "--style", "circuit", "--out", "{tmp}/a.json"],
], ids=["extract", "bench_run", "synthesize"])
def test_missing_input_exits_one_naming_the_path(tmp_path, capsys, argv):
    missing = tmp_path / "nope.tsv"
    code = main([a.format(missing=missing, tmp=tmp_path) for a in argv])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {missing}: no such file"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "a.json").exists()


def test_synthesize_negative_seed_exits_one(tmp_path, capsys):
    code = main(["synthesize", "--style", "randomized", "--seed", "-1",
                 "--out", str(tmp_path / "a.json")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: seed must be an integer >= 0")


@pytest.mark.parametrize("style", ["circuit", "random", "sequential"])
def test_synthesize_styles(tmp_path, style, capsys):
    out = tmp_path / f"{style}.json"
    assert main(["synthesize", "--style", style, "--c", "4",
                 "--input", "1x16x16", "--categories", "4",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["blocks"] and doc["wires"]
    assert "parameters" in capsys.readouterr().out


def test_synthesize_sequential_reference_count(tmp_path, capsys):
    out = tmp_path / "seq.json"
    assert main(["synthesize", "--style", "sequential", "--c", "6",
                 "--out", str(out)]) == 0
    assert "26338 parameters" in capsys.readouterr().out


def test_synthesize_from_exported_circuit(tmp_path):
    circ_dir = tmp_path / "circ"
    assert main(["extract", "--out", str(circ_dir)]) == 0
    out = tmp_path / "arch.json"
    assert main(["synthesize", "--style", "circuit",
                 "--circuit", str(circ_dir / "circuit.tsv"),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["topology_source"] == "circuit"


def test_cri_pipeline(tmp_path, capsys):
    (tmp_path / "fold.csv").write_text(
        "gene,fold_change\ng1,10\ng2,-60\n")
    (tmp_path / "expr.csv").write_text(
        "gene,neuron,proportion\ng1,S1,0.5\ng2,S1,0.1\ng1,I1,0.3\n")
    (tmp_path / "roles.tsv").write_text(
        "neuron\trole\nS1\tsensory\nI1\tinter\n")
    out = tmp_path / "cri.csv"
    assert main(["cri", "--foldchanges", str(tmp_path / "fold.csv"),
                 "--expression", str(tmp_path / "expr.csv"),
                 "--roles", str(tmp_path / "roles.tsv"),
                 "--policy", "topk:1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "selected 1: 1 sensory / 0 inter / 0 motor" in printed
    # S1 = 0.5*|10| + 0.1*|-50 after clipping| = 10, ahead of I1 = 3
    assert out.read_text().splitlines()[1] == "S1,sensory,10"


def test_policy_argument_rejects_garbage():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["cri", "--foldchanges", "f", "--expression", "e",
                                   "--roles", "r", "--policy", "best:3", "--out", "o"])


@pytest.mark.parametrize("flag, text, form", [
    ("--policy", "zscore:high", "policy must be topk:<k> or zscore:<threshold>"),
    ("--policy", "topk:2.5", "policy must be topk:<k> or zscore:<threshold>"),
    ("--input", "1xax28", "input shape must be CxHxW (e.g. 1x28x28)"),
    ("--input", "1x28", "input shape must be CxHxW (e.g. 1x28x28)"),
], ids=["policy_word", "policy_fraction", "shape_letter", "shape_two_parts"])
def test_bad_policy_or_shape_names_the_expected_form(capsys, flag, text, form):
    argv = (["extract", flag, text, "--out", "o"] if flag == "--policy"
            else ["synthesize", "--style", "sequential", flag, text, "--out", "o"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.endswith(f"argument {flag}: {form}, got {text!r}"), err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_extract_non_finite_zscore_exits_one_naming_the_threshold(tmp_path, capsys, value):
    out = tmp_path / "out"
    assert main(["extract", "--policy", f"zscore:{value}", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: threshold must be a finite number, got {float(value)!r}"]
    assert not out.exists()


def test_bench_run_and_summarize(tmp_path, capsys):
    data = write_bench_corpus(tmp_path / "data")
    cfg = BenchmarkConfig(dataset="mnist", styles=("circuit",), seeds=(0,),
                          c=2, epochs=1, batch_size=16,
                          train_subset=32, test_subset=16,
                          data_dir=str(data), out_dir=str(tmp_path / "ignored"))
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(cfg.to_json())
    out = tmp_path / "out"
    assert main(["bench", "run", "--config", str(cfg_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "1 runs complete" in printed
    assert (out / "summary.csv").is_file()

    assert main(["bench", "summarize", "--dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "circuit: accuracy" in printed
    assert "ordering flag:" in printed


def test_bench_run_missing_data_exits_one(tmp_path, capsys):
    cfg = BenchmarkConfig(dataset="mnist", styles=("circuit",), seeds=(0,),
                          data_dir=str(tmp_path / "nowhere"),
                          out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(cfg.to_json())
    assert main(["bench", "run", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flags", [["--k", "0"], ["--policy", "topk:0"]])
def test_extract_bad_flag_exits_one_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["extract", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: k must be an integer >= 1")
    assert not out.exists()


@pytest.mark.parametrize("name", ["connectome", "roles", "aggregation", "cri"])
def test_extract_empty_path_exits_one_naming_the_argument(tmp_path, capsys, name):
    """An empty path names no file: neither the bundled one nor "no map"."""
    out = tmp_path / "out"
    assert main(["extract", f"--{name}", "", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {name} path is empty"]
    assert not out.exists()


@pytest.mark.parametrize("doc,message", [
    ({"seeds": []}, "seeds must be a non-empty list"),
    ({"styles": "circuit"}, "styles must be a list"),
    ({"bogus": 1}, "unknown benchmark config fields: bogus"),
    ([1], "benchmark config must be an object"),
    ({"epochs": 0}, "epochs must be an integer >= 1"),
    (b'{"c": "\xe9"}', "benchmark config is not UTF-8: byte 0xe9"),
    (b'{"c": 8', "unparsable benchmark config"),
    ({"c": "8"}, "c must be an integer"),
    ({"seeds": [0, True]}, "seeds[1] must be an integer"),
    ({"lr": "fast"}, "lr must be a number"),
    ({"data_dir": 3}, "data_dir must be a string"),
    (b'{"c": 0, "c": 8}', "unparsable benchmark config: duplicate key 'c'"),
])
def test_bench_run_bad_config_exits_one_before_writing(tmp_path, capsys, doc, message):
    if isinstance(doc, dict):
        doc.setdefault("data_dir", str(write_bench_corpus(tmp_path / "data")))
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode("utf-8"))
    out = tmp_path / "out"
    assert main(["bench", "run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["extract", "--connectome", "{dir}", "--out", "{dir}/o"],
    ["bench", "run", "--config", "{dir}", "--out", "{dir}/o"],
], ids=["extract", "bench_run"])
def test_directory_input_exits_one_naming_the_path(tmp_path, capsys, argv):
    assert main([a.format(dir=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {tmp_path}: ")
    assert not (tmp_path / "o").exists()


def _report_doc() -> dict:
    report = MetricsReport(
        dataset="toy", style="circuit", seed=0, c=2, param_count=50, accuracy=0.5,
        per_category={0: 1.0, 1: 0.0}, consistency_score=0.5, confusion=[[2, 0], [2, 0]],
        step_losses=[1.0, 0.5], epoch_mean_losses=[0.75], wall_time_s=1.0,
        train_examples=4, test_examples=4)
    return json.loads(report.to_json())


@pytest.mark.parametrize("mutate,message", [
    (lambda doc: json.dumps(doc).encode("utf-8").replace(b'"toy"', b'"t\xe9"'),
     "run report is not UTF-8: byte 0xe9"),
    (lambda doc: json.dumps(doc)[:-1].encode("utf-8"), "unparsable run report"),
    (lambda doc: [doc], "run report must be an object"),
    (lambda doc: doc.__delitem__("seed"), "run report missing field: seed"),
    (lambda doc: doc.update(notes="x"), "unknown run report fields: notes"),
    (lambda doc: doc.update(seed="0"), "seed must be an integer"),
    (lambda doc: doc.update(accuracy=None), "accuracy must be a number"),
    (lambda doc: doc["per_category"].update(x=1.0), "per_category.x must be an integer key"),
    (lambda doc: doc["per_category"].update({"01": 1.0}),
     "per_category.01 must be an integer key"),
    (lambda doc: doc["confusion"][1].__setitem__(0, 2.0), "confusion[1][0] must be an integer"),
    (lambda doc: doc["step_losses"].append(False), "step_losses[2] must be a number"),
    (lambda doc: doc.update(style="bogus"), "style must be one of 'circuit', 'randomized'"),
    (lambda doc: doc.update(epoch_mean_losses=[]), "epoch_mean_losses must be a non-empty list"),
    (lambda doc: doc["step_losses"].__setitem__(1, -0.5),
     "step_losses[1] must be a finite number >= 0, got -0.5"),
    (lambda doc: doc["epoch_mean_losses"].__setitem__(0, float("nan")),
     "epoch_mean_losses[0] must be a finite number >= 0, got nan"),
    (lambda doc: json.dumps(doc)[:-1].encode("utf-8") + b', "seed": 0}',
     "unparsable run report: duplicate key 'seed'"),
], ids=["not_utf8", "not_json", "document_list", "missing_seed", "unknown_field",
        "seed_string", "accuracy_null", "category_key_word", "category_key_padded",
        "confusion_float", "step_loss_bool", "style_unknown", "no_epoch_losses",
        "step_loss_negative", "epoch_loss_nan", "duplicate_key"])
def test_bench_summarize_bad_report_exits_one_naming_it(tmp_path, capsys, mutate, message):
    doc = _report_doc()
    replaced = mutate(doc)
    run_dir = tmp_path / "runs" / "circuit_s0"
    run_dir.mkdir(parents=True)
    raw = replaced if isinstance(replaced, bytes) else \
        json.dumps(doc if replaced is None else replaced).encode("utf-8")
    (run_dir / "report.json").write_bytes(raw)
    assert main(["bench", "summarize", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {run_dir / 'report.json'}: {message}")
    assert not (tmp_path / "summary.csv").exists()
