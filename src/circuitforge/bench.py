"""Benchmark harness: train the three architecture styles side by side.

For every (style, seed) pair the harness synthesizes an architecture,
trains it on a stratified subset, evaluates on the test split, and
writes a self-contained report JSON (confusion matrix included, so
every derived number can be recomputed offline).  `summarize` is a pure
function of those report files: it aggregates mean and spread per
style, scores convergence against a shared loss threshold, emits
plot-ready CSVs, and flags whether the expected accuracy ordering
(circuit >= randomized >= sequential) holds beyond one pooled standard
deviation of noise.

Wall-clock time is recorded in the per-run reports but never flows into
the summary, which must be byte-identical across identical re-runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import arch as A
from .connectome import TableFormat, write_table
from .datasets import DATASET_IDS, LabeledDataset, load_dataset, resolve_data_dir, subset
from .engine.graph import compile_arch
from .engine.train import TrainConfig, evaluate, fit
from .errors import EmptyVector, InvalidConfig
from .extraction import FunctionalCircuit
from .reference import source_circuit

STYLES = ("circuit", "randomized", "sequential")
CLAIMED_ORDER = ("circuit", "randomized", "sequential")


@dataclass(frozen=True)
class BenchmarkConfig:
    dataset: str = "fashion_mnist"
    styles: tuple[str, ...] = STYLES
    c: int = 8
    seeds: tuple[int, ...] = (0, 1, 2)
    epochs: int = 3
    batch_size: int = 64
    train_subset: int = 10000
    test_subset: int = 10000
    subset_seed: int = 2024
    optimizer: str = "adam"
    lr: float = 1e-3
    data_dir: str | None = None
    circuit_dir: str | None = None
    out_dir: str = "bench_out"

    def __post_init__(self) -> None:
        """Refuse a bad field with InvalidConfig, before a run writes anything;
        the training fields go through TrainConfig's rules."""
        if self.dataset not in DATASET_IDS:
            raise InvalidConfig(f"dataset must be one of {DATASET_IDS}, got {self.dataset!r}")
        for name, what, ok in (("styles", f"styles of {STYLES}", STYLES.__contains__),
                               ("seeds", "integers >= 0", lambda s: type(s) is int and s >= 0)):
            values = getattr(self, name)
            if not (isinstance(values, tuple) and values and all(map(ok, values))
                    and len(set(values)) == len(values)):
                raise InvalidConfig(f"{name} must be a non-empty list of distinct {what}, "
                                    f"got {values!r}")
        for name, low in (("c", 1), ("train_subset", 0), ("test_subset", 0), ("subset_seed", 0)):
            A.check_int(name, getattr(self, name), low, InvalidConfig)
        TrainConfig(epochs=self.epochs, batch_size=self.batch_size, optimizer=self.optimizer,
                    lr=self.lr)
        for name in ("data_dir", "circuit_dir", "out_dir"):
            value = getattr(self, name)
            if not (isinstance(value, str) or value is None and name != "out_dir"):
                raise InvalidConfig(f"{name} must be a path string, got {value!r}")

    def to_json(self) -> str:
        doc = {k: (list(v) if isinstance(v, tuple) else v)
               for k, v in self.__dict__.items()}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> BenchmarkConfig:
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise InvalidConfig(f"benchmark config is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise InvalidConfig(f"benchmark config must be a JSON object, got {doc!r:.40}")
        unknown = sorted(doc.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidConfig(f"unknown benchmark config fields: {', '.join(unknown)}")
        return cls(**{key: tuple(v) if key in ("styles", "seeds") and isinstance(v, list) else v
                      for key, v in doc.items()})


@dataclass
class MetricsReport:
    dataset: str
    style: str
    seed: int
    c: int
    param_count: int
    accuracy: float
    per_category: dict[int, float]
    consistency_score: float
    confusion: np.ndarray
    step_losses: list[float]
    epoch_mean_losses: list[float]
    wall_time_s: float
    train_examples: int
    test_examples: int

    def to_json(self) -> str:
        doc = dict(self.__dict__)
        doc["confusion"] = self.confusion.tolist()
        doc["per_category"] = {str(k): v for k, v in sorted(self.per_category.items())}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> MetricsReport:
        doc = json.loads(text)
        doc["confusion"] = np.asarray(doc["confusion"], dtype=np.int64)
        doc["per_category"] = {int(k): v for k, v in doc["per_category"].items()}
        return cls(**doc)


def consistency(values) -> float:
    """Population standard deviation.  Of a run's per-category accuracies it
    is the run's consistency score (lower means more uniform performance
    across categories); `summarize` also takes it across a style's seeds."""
    values = list(values)
    if not values:
        raise EmptyVector("no values")
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def convergence_rate(epoch_mean_losses, threshold: float) -> int | None:
    """First epoch index whose mean loss is at or below the threshold;
    None when the curve never gets there."""
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    losses = list(epoch_mean_losses)
    if not losses:
        raise EmptyVector("empty loss curve")
    for epoch, loss in enumerate(losses):
        if loss <= threshold:
            return epoch
    return None


# --- running ---

def run_one(style: str, seed: int, cfg: BenchmarkConfig, circuit: FunctionalCircuit | None,
            train_ds: LabeledDataset, test_ds: LabeledDataset, run_dir: Path
            ) -> MetricsReport:
    run_dir.mkdir(parents=True, exist_ok=True)
    spec = A.synthesize(style, circuit, cfg.c, train_ds.input_shape,
                        train_ds.num_categories, seed)
    validated = A.validate(spec)
    A.save_arch(spec, run_dir / "arch.json")

    start = time.perf_counter()
    g = compile_arch(validated, seed)
    history = fit(g, train_ds, TrainConfig(epochs=cfg.epochs, batch_size=cfg.batch_size,
                                           optimizer=cfg.optimizer, lr=cfg.lr, seed=seed),
                  metrics_path=run_dir / "metrics.csv")
    result = evaluate(g, test_ds)
    elapsed = time.perf_counter() - start

    report = MetricsReport(
        dataset=cfg.dataset, style=style, seed=seed, c=cfg.c,
        param_count=A.param_count(validated),
        accuracy=result.accuracy,
        per_category=result.per_category,
        consistency_score=consistency(result.per_category.values()),
        confusion=result.confusion,
        step_losses=[loss for ep in history for loss in ep.step_losses],
        epoch_mean_losses=[ep.mean_loss for ep in history],
        wall_time_s=elapsed,
        train_examples=len(train_ds),
        test_examples=len(test_ds),
    )
    (run_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    return report


def run_benchmark(cfg: BenchmarkConfig) -> tuple[list[MetricsReport], dict]:
    """Execute every (style, seed) run, then summarize.  Completed run
    artifacts are already on disk if a later run raises."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.json").write_text(cfg.to_json(), encoding="utf-8")

    data_dir = resolve_data_dir(cfg.data_dir)
    train_full = load_dataset(data_dir, cfg.dataset, "train")
    test_full = load_dataset(data_dir, cfg.dataset, "test")
    train_ds = subset(train_full, cfg.train_subset, cfg.subset_seed) \
        if cfg.train_subset else train_full
    test_ds = subset(test_full, cfg.test_subset, cfg.subset_seed + 1) \
        if cfg.test_subset else test_full

    circuit = None
    if any(s in ("circuit", "randomized") for s in cfg.styles):
        edges = Path(cfg.circuit_dir) / "circuit.tsv" if cfg.circuit_dir else None
        circuit = source_circuit(edges)

    reports = []
    for style in cfg.styles:
        for seed in cfg.seeds:
            run_dir = out / "runs" / f"{style}_s{seed}"
            reports.append(run_one(style, seed, cfg, circuit, train_ds, test_ds, run_dir))
    summary = summarize(out)
    return reports, summary


# --- summarizing ---

def load_reports(out_dir) -> list[MetricsReport]:
    runs = sorted(Path(out_dir).glob("runs/*/report.json"))
    return [MetricsReport.from_json(p.read_text(encoding="utf-8")) for p in runs]


def summarize(out_dir) -> dict:
    """Aggregate persisted reports into summary.csv / summary.json and the
    plot CSVs.  Deterministic: identical reports give identical bytes."""
    out = Path(out_dir)
    reports = load_reports(out)
    if not reports:
        raise EmptyVector(f"no run reports under {out}")

    # shared convergence threshold: 120% of the best final epoch loss
    threshold = 1.2 * min(r.epoch_mean_losses[-1] for r in reports)
    styles = sorted({r.style for r in reports}, key=lambda s: STYLES.index(s))
    per_style: dict[str, dict] = {}
    for style in styles:
        mine = sorted((r for r in reports if r.style == style), key=lambda r: r.seed)
        accs = [r.accuracy for r in mine]
        cons = [r.consistency_score for r in mine]
        conv = [convergence_rate(r.epoch_mean_losses, threshold) for r in mine]
        reached = [c for c in conv if c is not None]
        per_style[style] = {
            "runs": len(mine),
            "seeds": [r.seed for r in mine],
            "param_count": mine[0].param_count,
            "mean_accuracy": sum(accs) / len(accs),
            "std_accuracy": consistency(accs),
            "mean_consistency": sum(cons) / len(cons),
            "std_consistency": consistency(cons),
            "convergence_epochs": conv,
            "mean_convergence": sum(reached) / len(reached) if reached else None,
            "runs_reaching_threshold": len(reached),
        }

    ordering = _ordering_flag(per_style)
    summary = {
        "dataset": reports[0].dataset,
        "loss_threshold": threshold,
        "per_style": per_style,
        "ordering": ordering,
    }

    write_table(out / "summary.csv", SUMMARY_CSV, (
        (style, s["runs"], s["param_count"],
         *(f"{s[k]:.6f}" for k in ("mean_accuracy", "std_accuracy",
                                   "mean_consistency", "std_consistency")),
         "not_reached" if s["mean_convergence"] is None else f"{s['mean_convergence']:.4f}",
         s["runs_reaching_threshold"]) for style, s in per_style.items()))
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    emit_plots(reports, out / "plots")
    return summary


def _ordering_flag(per_style: dict[str, dict]) -> dict:
    """Compare mean accuracies along the claimed order.  PASS only when
    every adjacent gap clears one pooled standard deviation; otherwise
    the comparison is reported as inconclusive rather than failed."""
    present = [s for s in CLAIMED_ORDER if s in per_style]
    observed = sorted(per_style, key=lambda s: -per_style[s]["mean_accuracy"])
    if len(present) < 2:
        return {"claimed": list(CLAIMED_ORDER), "observed": observed,
                "flag": "INCONCLUSIVE", "reason": "fewer than two styles ran"}
    gaps = []
    holds = True
    for hi, lo in zip(present, present[1:]):
        gap = per_style[hi]["mean_accuracy"] - per_style[lo]["mean_accuracy"]
        pooled = math.sqrt((per_style[hi]["std_accuracy"] ** 2 +
                            per_style[lo]["std_accuracy"] ** 2) / 2)
        gaps.append({"pair": [hi, lo], "gap": gap, "pooled_std": pooled})
        if gap < pooled:
            holds = False
    return {"claimed": list(CLAIMED_ORDER), "observed": observed,
            "flag": "PASS" if holds else "INCONCLUSIVE", "gaps": gaps}


SUMMARY_CSV = TableFormat((("style", "runs", "param_count", "mean_accuracy", "std_accuracy",
                            "mean_consistency", "std_consistency", "mean_convergence",
                            "runs_reaching_threshold"),), ",", 1)
ACCURACY_BARS_CSV = TableFormat((("style", "seed", "accuracy", "consistency"),), ",", 2)
PER_CATEGORY_CSV = TableFormat((("style", "seed", "category", "accuracy"),), ",", 3)
LOSS_CURVES_CSV = TableFormat((("style", "seed", "step", "loss"),), ",", 3)


def emit_plots(reports: list[MetricsReport], out_dir) -> dict[str, Path]:
    """Plot-ready CSVs: accuracy bars, per-category accuracy spread, and
    loss curves, mirroring the three panel families of the comparison."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "accuracy": out / "accuracy_bars.csv",
        "consistency": out / "per_category_accuracy.csv",
        "loss": out / "loss_curves.csv",
    }
    ordered = sorted(reports, key=lambda r: (STYLES.index(r.style), r.seed))
    write_table(paths["accuracy"], ACCURACY_BARS_CSV, (
        (r.style, r.seed, f"{r.accuracy:.6f}", f"{r.consistency_score:.6f}") for r in ordered))
    write_table(paths["consistency"], PER_CATEGORY_CSV, (
        (r.style, r.seed, cat, f"{acc:.6f}")
        for r in ordered for cat, acc in sorted(r.per_category.items())))
    write_table(paths["loss"], LOSS_CURVES_CSV, (
        (r.style, r.seed, step, f"{loss:.6f}")
        for r in ordered for step, loss in enumerate(r.step_losses)))
    return paths
