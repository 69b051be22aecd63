from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from circuitforge.bench import (
    BenchmarkConfig,
    MetricsReport,
    consistency,
    convergence_rate,
    load_reports,
    run_benchmark,
    summarize,
)
from circuitforge.errors import EmptyVector, InvalidConfig
from conftest import write_bench_corpus


def test_consistency_is_population_std():
    assert consistency([1.0, 0.5]) == pytest.approx(0.25)
    assert consistency([0.8]) == 0.0
    assert consistency([0.3, 0.3, 0.3]) == 0.0
    with pytest.raises(EmptyVector):
        consistency([])


def test_convergence_rate_first_crossing():
    assert convergence_rate([5.0, 2.0, 1.0], 2.5) == 1
    assert convergence_rate([5.0, 2.0, 1.0], 5.0) == 0
    assert convergence_rate([5.0, 2.0, 1.0], 0.5) is None
    with pytest.raises(ValueError):
        convergence_rate([1.0], 0.0)
    with pytest.raises(EmptyVector):
        convergence_rate([], 1.0)


def test_benchmark_config_round_trip():
    cfg = BenchmarkConfig(dataset="mnist", styles=("circuit",), seeds=(4, 5),
                          c=4, epochs=2, out_dir="x")
    again = BenchmarkConfig.from_json(cfg.to_json())
    assert again == cfg
    with pytest.raises(ValueError):
        BenchmarkConfig(styles=("circuit", "mystery"))
    with pytest.raises(ValueError):
        BenchmarkConfig(seeds=())


@pytest.mark.parametrize("field,value", [
    ("dataset", "svhn"), ("styles", ("circuit", "circuit")), ("seeds", (1, 1)),
    ("seeds", (-1,)), ("seeds", (True,)), ("c", 0), ("train_subset", -1), ("subset_seed", 2.0),
    ("epochs", 0), ("batch_size", 8.0), ("optimizer", "rmsprop"), ("lr", 0.0),
    ("lr", float("nan")), ("data_dir", 3), ("out_dir", None),
])
def test_benchmark_config_refuses_bad_field(field, value):
    with pytest.raises(InvalidConfig) as info:
        BenchmarkConfig(**{field: value})
    assert str(info.value).startswith(field)


def test_metrics_report_round_trip():
    report = MetricsReport(
        dataset="mnist", style="circuit", seed=1, c=8, param_count=100,
        accuracy=0.9, per_category={0: 1.0, 1: 0.8},
        consistency_score=0.1, confusion=np.array([[5, 0], [1, 4]]),
        step_losses=[2.0, 1.0], epoch_mean_losses=[1.5],
        wall_time_s=3.3, train_examples=10, test_examples=10)
    again = MetricsReport.from_json(report.to_json())
    assert again.per_category == {0: 1.0, 1: 0.8}
    assert np.array_equal(again.confusion, report.confusion)
    assert again.to_json() == report.to_json()


# --- summarize as a pure function of persisted reports -----------------------

def _fake_report(out: Path, style: str, seed: int, accuracy: float,
                 wall_time: float = 1.0) -> None:
    per_cat = {0: accuracy, 1: accuracy}
    report = MetricsReport(
        dataset="toy", style=style, seed=seed, c=2, param_count=50,
        accuracy=accuracy, per_category=per_cat,
        consistency_score=consistency(per_cat.values()),
        confusion=np.eye(2, dtype=np.int64),
        step_losses=[1.0, 0.5], epoch_mean_losses=[1.0, 0.5],
        wall_time_s=wall_time, train_examples=4, test_examples=4)
    run_dir = out / "runs" / f"{style}_s{seed}"
    run_dir.mkdir(parents=True)
    (run_dir / "report.json").write_text(report.to_json(), encoding="utf-8")


def test_summarize_flags_clear_ordering_pass(tmp_path):
    for seed, acc in ((0, 0.95), (1, 0.94)):
        _fake_report(tmp_path, "circuit", seed, acc)
    for seed, acc in ((0, 0.90), (1, 0.89)):
        _fake_report(tmp_path, "randomized", seed, acc)
    for seed, acc in ((0, 0.80), (1, 0.79)):
        _fake_report(tmp_path, "sequential", seed, acc)
    summary = summarize(tmp_path)
    assert summary["ordering"]["flag"] == "PASS"
    assert summary["ordering"]["observed"] == ["circuit", "randomized", "sequential"]
    assert summary["per_style"]["circuit"]["mean_accuracy"] == pytest.approx(0.945)
    assert summary["per_style"]["circuit"]["std_accuracy"] == pytest.approx(0.005)
    # threshold = 1.2 * best final loss = 0.6, reached at epoch 1 everywhere
    assert summary["loss_threshold"] == pytest.approx(0.6)
    assert summary["per_style"]["circuit"]["convergence_epochs"] == [1, 1]


def test_summarize_flags_overlapping_ordering_inconclusive(tmp_path):
    for seed, acc in ((0, 0.90), (1, 0.80)):
        _fake_report(tmp_path, "circuit", seed, acc)
    for seed, acc in ((0, 0.88), (1, 0.86)):
        _fake_report(tmp_path, "randomized", seed, acc)
    summary = summarize(tmp_path)
    assert summary["ordering"]["flag"] == "INCONCLUSIVE"
    assert summary["ordering"]["observed"][0] == "randomized"


def test_summary_ignores_wall_time(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, wall in ((a, 1.0), (b, 99.0)):
        _fake_report(out, "circuit", 0, 0.9, wall_time=wall)
        _fake_report(out, "sequential", 0, 0.7, wall_time=wall * 2)
        summarize(out)
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_summarize_empty_dir_raises(tmp_path):
    with pytest.raises(EmptyVector):
        summarize(tmp_path)


def test_summary_csv_layout(tmp_path):
    _fake_report(tmp_path, "circuit", 0, 0.9)
    summarize(tmp_path)
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == ("style,runs,param_count,mean_accuracy,std_accuracy,"
                       "mean_consistency,std_consistency,mean_convergence,"
                       "runs_reaching_threshold")
    assert lines[1].startswith("circuit,1,50,0.900000,")


# --- end to end on a small synthetic corpus ----------------------------------

def _tiny_config(data_dir: Path, out_dir: Path, **overrides) -> BenchmarkConfig:
    base = dict(dataset="mnist", styles=("circuit", "randomized", "sequential"),
                c=2, seeds=(0, 1), epochs=2, batch_size=16,
                train_subset=32, test_subset=16,
                data_dir=str(data_dir), out_dir=str(out_dir))
    base.update(overrides)
    return BenchmarkConfig(**base)


def test_run_benchmark_end_to_end(tmp_path):
    data = write_bench_corpus(tmp_path / "data")
    out = tmp_path / "out"
    reports, summary = run_benchmark(_tiny_config(data, out))

    assert len(reports) == 6
    assert (out / "bench.json").is_file()
    for style in ("circuit", "randomized", "sequential"):
        for seed in (0, 1):
            run_dir = out / "runs" / f"{style}_s{seed}"
            assert (run_dir / "arch.json").is_file()
            assert (run_dir / "report.json").is_file()
            metrics = (run_dir / "metrics.csv").read_text().splitlines()
            assert metrics[0] == "step,epoch,loss,accuracy"
    assert summary["ordering"]["flag"] in ("PASS", "INCONCLUSIVE")
    assert set(summary["per_style"]) == {"circuit", "randomized", "sequential"}
    for style, stats in summary["per_style"].items():
        assert stats["runs"] == 2
        assert 0.0 <= stats["mean_accuracy"] <= 1.0
    for name in ("accuracy_bars.csv", "per_category_accuracy.csv", "loss_curves.csv"):
        assert (out / "plots" / name).is_file()

    loaded = load_reports(out)
    assert len(loaded) == 6
    assert {r.style for r in loaded} == {"circuit", "randomized", "sequential"}
    assert all(r.train_examples == 32 and r.test_examples == 16 for r in loaded)


def test_run_benchmark_reruns_byte_identical(tmp_path):
    data = write_bench_corpus(tmp_path / "data")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_kwargs = dict(styles=("circuit", "sequential"), seeds=(0,), epochs=1)
    run_benchmark(_tiny_config(data, out_a, **cfg_kwargs))
    run_benchmark(_tiny_config(data, out_b, **cfg_kwargs))
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    for rel in ("runs/circuit_s0/metrics.csv", "plots/loss_curves.csv"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_run_benchmark_respects_circuit_dir(tmp_path):
    from circuitforge.extraction import export_circuit
    from circuitforge.reference import reference_circuit

    data = write_bench_corpus(tmp_path / "data")
    circ_dir = tmp_path / "circ"
    export_circuit(reference_circuit(), circ_dir)
    out = tmp_path / "out"
    reports, _ = run_benchmark(_tiny_config(
        data, out, styles=("circuit",), seeds=(0,), epochs=1,
        circuit_dir=str(circ_dir)))
    arch = json.loads((out / "runs" / "circuit_s0" / "arch.json").read_text())
    assert reports[0].param_count > 0
    assert arch["topology_source"] == "circuit"
