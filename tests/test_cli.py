from __future__ import annotations

import json

import pytest

from circuitforge.bench import BenchmarkConfig
from circuitforge.cli import build_parser, main
from conftest import write_bench_corpus


def test_extract_bundled_defaults(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["extract", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "(10 sensory, 5 inter, 7 motor)" in printed
    assert "diff vs reported (10, 5, 7): (0, 0, 0)" in printed
    for name in ("circuit.tsv", "circuit_roles.tsv", "circuit.dot"):
        assert (out / name).is_file()


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
    assert len(err) == 1 and err[0].startswith("error: k must be >= 1")
    assert not out.exists()


@pytest.mark.parametrize("doc,message", [
    ({"seeds": []}, "seeds must be a non-empty list"),
    ({"styles": "circuit"}, "styles must be a non-empty list"),
    ({"bogus": 1}, "unknown benchmark config fields: bogus"),
    ([1], "benchmark config must be a JSON object"),
    ({"epochs": 0}, "epochs must be an integer >= 1"),
])
def test_bench_run_bad_config_exits_one_before_writing(tmp_path, capsys, doc, message):
    if isinstance(doc, dict):
        doc["data_dir"] = str(write_bench_corpus(tmp_path / "data"))
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["bench", "run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not out.exists()
