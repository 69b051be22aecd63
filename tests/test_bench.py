from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from circuitforge import bench
from circuitforge.arch import ArchitectureSpec, synthesize_sequential_arch
from circuitforge.bench import (
    STYLES,
    BenchmarkConfig,
    MetricsReport,
    consistency,
    convergence_rate,
    load_reports,
    run_benchmark,
    summarize,
)
from circuitforge.connectome import Direction, Role, top_k_neighbors
from circuitforge.cri import CriTable, SelectedNeurons, TopK, select_correlated
from circuitforge.datasets import batches, load_cifar, load_dataset, subset
from circuitforge.engine.graph import compile_arch
from circuitforge.engine.optim import SGD, Adam
from circuitforge.engine.train import TrainConfig, fit
from circuitforge.errors import (CountMismatch, EmptyVector, InvalidConfig, InvalidReport,
                                 NonFiniteActivation)
from circuitforge.extraction import ExtractionConfig, extract_circuits
from conftest import make_connectome, synthetic_dataset, write_bench_corpus, write_idx_pair


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
    assert convergence_rate([1.0, -0.0], 0.0) == 1  # a loss of 0 gives a threshold of 0
    with pytest.raises(ValueError):
        convergence_rate([1.0], -0.5)
    with pytest.raises(EmptyVector):
        convergence_rate([], 1.0)


# argument checks outside the benchmark config, each refused as InvalidConfig
BAD_ARGUMENTS = {
    "dataset_name": lambda d: load_dataset(d, "svhn"),
    "dataset_split": lambda d: load_dataset(d, "mnist", "val"),
    "cifar_variant": lambda d: load_cifar(d, "C20"),
    "cifar_split": lambda d: load_cifar(d, "C10", "val"),
    "batch_size": lambda d: list(batches(synthetic_dataset(n=4), 0, seed=0)),
    "batch_size_float": lambda d: list(batches(synthetic_dataset(n=4), 2.5, seed=0)),
    "batches_seed": lambda d: list(batches(synthetic_dataset(n=4), 2, seed=-1)),
    "subset_n": lambda d: subset(synthetic_dataset(n=4), -1, seed=0),
    "subset_n_float": lambda d: subset(synthetic_dataset(n=4), 2.0, seed=0),
    "subset_seed": lambda d: subset(synthetic_dataset(n=4), 2, seed=-5),
    # a seed is an int in [0, 2**64); Philox would take up to 2**128, then fail bare
    "subset_seed_huge": lambda d: subset(synthetic_dataset(n=4), 2, seed=2 ** 128),
    "batches_seed_huge": lambda d: list(batches(synthetic_dataset(n=4), 2, seed=2 ** 128)),
    "compile_seed_huge": lambda d: compile_arch(synthesize_sequential_arch(2, (1, 16, 16), 4),
                                                2 ** 128),
    "train_seed_huge": lambda d: TrainConfig(seed=2 ** 128),
    "train_seed_64_bits": lambda d: TrainConfig(seed=2 ** 64),
    "sgd_lr": lambda d: SGD(lr=0.0),
    "adam_lr": lambda d: Adam(lr=-1.0),
    "convergence_threshold": lambda d: convergence_rate([1.0], -1.0),
    "empty_selection": lambda d: extract_circuits(
        make_connectome({("S1", "I1"): 1}),
        SelectedNeurons(frozenset(), frozenset(), frozenset())),
    "extraction_k_float": lambda d: ExtractionConfig(k=2.5),
    "topk_float": lambda d: select_correlated(
        CriTable({"S1": 2.0, "S2": 1.0}, 1), {"S1": Role.SENSORY, "S2": Role.SENSORY}, TopK(2.5)),
    "neighbors_k_float": lambda d: top_k_neighbors(
        make_connectome({("S1", "I1"): 1}), "S1", Direction.OUTGOING, 2.5),
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_argument_raises_invalid_config(case, tmp_path):
    with pytest.raises(InvalidConfig):
        BAD_ARGUMENTS[case](tmp_path)


def test_benchmark_config_round_trip():
    cfg = BenchmarkConfig(dataset="mnist", styles=("circuit",), seeds=(4, 5),
                          c=4, epochs=2, lr=1, out_dir="x")
    again = BenchmarkConfig.from_json(cfg.to_json())
    assert again == cfg
    assert type(again.lr) is int  # a JSON integer in a float field comes back as written
    assert BenchmarkConfig.from_json("{}") == BenchmarkConfig()  # every field has a default
    with pytest.raises(InvalidConfig, match="^c must be an integer, got True"):
        BenchmarkConfig.from_json('{"c": true}')
    with pytest.raises(ValueError):
        BenchmarkConfig(styles=("circuit", "mystery"))
    with pytest.raises(ValueError):
        BenchmarkConfig(seeds=())


@pytest.mark.parametrize("field,value", [
    ("dataset", "svhn"), ("styles", ("circuit", "circuit")), ("seeds", (1, 1)),
    ("seeds", (-1,)), ("seeds", (True,)), ("c", 0), ("train_subset", -1), ("subset_seed", 2.0),
    ("epochs", 0), ("batch_size", 8.0), ("optimizer", "rmsprop"), ("lr", 0.0),
    ("lr", float("nan")), ("data_dir", 3), ("out_dir", None),
    # seeds follow the generators' rule, [0, 2**64), so no run starts on one they refuse
    ("seeds", (2 ** 64,)), ("seeds", (0, 2 ** 128)), ("subset_seed", 2 ** 64 - 1),
])
def test_benchmark_config_refuses_bad_field(field, value):
    with pytest.raises(InvalidConfig) as info:
        BenchmarkConfig(**{field: value})
    assert str(info.value).startswith(field)


def test_metrics_report_round_trip():
    report = MetricsReport(
        dataset="mnist", style="circuit", seed=1, c=8, param_count=100,
        accuracy=1, per_category={k: k / 12 for k in range(12)},
        consistency_score=0.1, confusion=np.eye(12, dtype=np.int64),
        step_losses=[2.0, 1.0], epoch_mean_losses=[1.5], epoch_accuracies=[0.5],
        wall_time_s=3.3, train_examples=12, test_examples=12)
    again = MetricsReport.from_json(report.to_json())
    assert again.per_category == report.per_category
    assert again.confusion == report.confusion.tolist()
    assert again.to_json() == report.to_json()
    assert MetricsReport.from_json(again.to_json()) == again
    assert type(again.accuracy) is int
    # category keys are written as strings, so they sort as strings: "10" before "2"
    assert list(json.loads(report.to_json())["per_category"]) == sorted(map(str, range(12)))
    with pytest.raises(InvalidReport, match="^seed must be an integer, got False"):
        MetricsReport.from_json(report.to_json().replace('"seed": 1', '"seed": false'))


# --- summarize as a pure function of persisted reports -----------------------

def _fake_report(out: Path, style: str, seed: int, accuracy: float,
                 wall_time: float = 1.0, dataset: str = "toy", c: int = 2) -> None:
    per_cat = {0: accuracy, 1: accuracy}
    report = MetricsReport(
        dataset=dataset, style=style, seed=seed, c=c, param_count=50,
        accuracy=accuracy, per_category=per_cat,
        consistency_score=consistency(per_cat.values()),
        confusion=np.eye(2, dtype=np.int64),
        step_losses=[1.0, 0.5], epoch_mean_losses=[1.0, 0.5], epoch_accuracies=[0.5, 1.0],
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


def test_summarize_flags_tied_ordering_inconclusive(tmp_path):
    """Equal means at zero spread: each gap is 0, which clears no pooled std."""
    for style in STYLES:
        for seed in (0, 1):
            _fake_report(tmp_path, style, seed, 1.0)
    ordering = summarize(tmp_path)["ordering"]
    assert [g["gap"] for g in ordering["gaps"]] == [0.0, 0.0]
    assert [g["pooled_std"] for g in ordering["gaps"]] == [0.0, 0.0]
    assert ordering["flag"] == "INCONCLUSIVE"


def test_summary_ignores_wall_time(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, wall in ((a, 1.0), (b, 99.0)):
        _fake_report(out, "circuit", 0, 0.9, wall_time=wall)
        _fake_report(out, "sequential", 0, 0.7, wall_time=wall * 2)
        summarize(out)
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_summarize_refuses_mixed_datasets_or_widths(tmp_path):
    """Stale runs of another dataset or width in a reused out_dir are
    refused, naming the first report that differs, not averaged in; the
    CLI's count of kept runs reads them through load_reports too."""
    for case, (dataset, c) in enumerate((("cifar10", 2), ("toy", 4), ("cifar10", 4))):
        out = tmp_path / str(case)
        _fake_report(out, "circuit", 0, 0.9)
        _fake_report(out, "randomized", 0, 0.8)
        _fake_report(out, "sequential", 0, 0.7, dataset=dataset, c=c)
        _fake_report(out, "sequential", 1, 0.7, dataset="other", c=8)
        with pytest.raises(InvalidReport, match=rf"sequential_s0/report\.json: dataset "
                                                rf"'{dataset}' at c = {c} differs from 'toy' "
                                                r"at c = 2 in .*circuit_s0/report\.json"):
            summarize(out)
        assert not (out / "summary.csv").exists()
        with pytest.raises(InvalidReport, match=r"sequential_s0/report\.json: dataset"):
            load_reports(out)


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
    cfg = _tiny_config(data, out)
    reports, summary = run_benchmark(cfg)

    assert len(reports) == 6
    assert (out / "bench.json").is_file()
    train = subset(load_dataset(data, "mnist", "train"), cfg.train_subset, cfg.subset_seed)
    for report in reports:
        run_dir = out / "runs" / f"{report.style}_s{report.seed}"
        assert sorted(p.name for p in run_dir.iterdir()) == ["arch.json", "report.json"]
        # the report keeps every epoch's training accuracy that fit returned
        spec = ArchitectureSpec.from_json((run_dir / "arch.json").read_bytes())
        history = fit(compile_arch(spec, report.seed), train,
                      TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size, seed=report.seed))
        assert report.epoch_accuracies == [ep.accuracy for ep in history]
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
    assert (out_a / "plots/loss_curves.csv").read_bytes() == \
        (out_b / "plots/loss_curves.csv").read_bytes()


def test_run_benchmark_refuses_splits_of_other_categories(tmp_path):
    """IDX splits name categories up to their highest label; a test split
    that stops short of the train split's is refused before any run."""
    data = write_bench_corpus(tmp_path / "data")
    write_idx_pair(data / "mnist", "t10k", np.zeros((24, 16, 16), dtype=np.uint8),
                   np.arange(24) % 3)
    out = tmp_path / "out"
    with pytest.raises(CountMismatch, match="^mnist: train split names 4 categories, "
                                            "test split 3; both need the same names$"):
        run_benchmark(_tiny_config(data, out))
    assert not (out / "runs").exists()


def test_run_benchmark_names_the_run_of_a_non_finite_activation(tmp_path, monkeypatch):
    real = bench.compile_arch

    def poisoned(spec, seed):
        g = real(spec, seed)
        next(value for slot, value in g.params.items() if slot.endswith("/b"))[0] = np.nan
        return g

    monkeypatch.setattr(bench, "compile_arch", poisoned)
    data = write_bench_corpus(tmp_path / "data")
    with pytest.raises(NonFiniteActivation, match=r"^sequential seed 1: epoch 0, step 0: "
                       r"block '[^']+' produced non-finite values$"):
        run_benchmark(_tiny_config(data, tmp_path / "out", styles=("sequential",), seeds=(1,)))


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
