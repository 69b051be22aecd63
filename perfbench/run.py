"""Benchmark of the three-style training protocol.

    python3 perfbench/run.py --workload protocol-gray28 --seed 1 --seconds 45 --trace 0

Each run writes a seeded synthetic corpus in an official on-disk format,
then calls `circuitforge.bench.run_benchmark` in a closed loop (one caller,
the next call starts when the previous one returns) until `--seconds`
would be overrun.  One call trains and evaluates the circuit, randomized
and sequential nets for one epoch on a stratified subset.  Every call is
checked by the correctness gate; a (style, seed) run that fails it counts
in `failed`.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` calls alternate untraced and traced, and it carries the
per-layer metrics of the traced calls plus the tracing overhead.  The
lines above it give the environment and every metric with its sample
count.  NOTES.md says which layer metric should move which end-to-end
metric, and why each workload exists.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, pinned before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import corpus
import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

STYLES = ("circuit", "randomized", "sequential")
HOT_KERNELS = ("conv2d", "conv2d_backward", "maxpool", "maxpool_backward")
GFLOPS_KERNELS = ("conv2d", "conv2d_backward", "dense")
# layer spans whose self time, summed over one protocol call, is reported
CALL_LAYERS = ("connectome.load", "connectome.aggregate", "cri.load", "cri.select",
               "extraction.extract", "arch.synthesize", "arch.validate",
               "engine.compile", "datasets.load", "datasets.subset",
               "bench.save_arch", "bench.summarize")
# fewer calls cannot check repeat determinism, and a traced run needs one
# untraced and one traced call
MIN_CALLS = 2


@dataclass(frozen=True)
class Workload:
    write: Callable[[Path, int, bool], str]  # (data_dir, seed, tiny) -> dataset id
    param_counts: dict[str, int]


def _gray28(data_dir: Path, seed: int, tiny: bool) -> str:
    if tiny:
        return corpus.write_gray28(data_dir, seed, train_n=600, test_n=200)
    return corpus.write_gray28(data_dir, seed)


def _rgb32(data_dir: Path, seed: int, tiny: bool) -> str:
    return corpus.write_rgb32(data_dir, seed, per_batch=120 if tiny else corpus.RGB_PER_BATCH)


WORKLOADS = {
    # goldens of the published 1x28x28 nets (README, acceptance check 05)
    "protocol-gray28": Workload(_gray28, {"circuit": 9530, "randomized": 9386,
                                          "sequential": 46154}),
    # the same nets at 3x32x32, recorded when this benchmark was written
    "protocol-rgb32": Workload(_rgb32, {"circuit": 10970, "randomized": 10826,
                                        "sequential": 69594}),
}


@dataclass
class Call:
    wall_s: float
    traced: bool
    spans: list
    t0: float


# --- environment ---

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# --- correctness gate ---

def gate(cfg, reports, summary: bytes, first_summary: bytes | None,
         goldens: dict[str, int]) -> int:
    """Failed (style, seed) runs of one call; reasons go to stderr."""
    failed = 0
    for style in cfg.styles:
        mine = [r for r in reports if r.style == style]
        problems = []
        if len(mine) != len(cfg.seeds):
            problems.append(f"{len(mine)} reports for {len(cfg.seeds)} seeds")
        for r in mine:
            if not r.step_losses or not all(math.isfinite(x) for x in r.step_losses):
                problems.append(f"seed {r.seed}: non-finite or missing step loss")
            if r.param_count != goldens[style]:
                problems.append(f"seed {r.seed}: {r.param_count} params, "
                                f"golden {goldens[style]}")
        if first_summary is not None and summary != first_summary:
            problems.append("summary.csv differs from the first call of this run")
        if problems:
            failed += len(cfg.seeds)
            print(f"gate: {style}: {'; '.join(problems)}", file=sys.stderr)
    return failed


# --- metrics ---

def _median(values):
    return statistics.median(values) if values else float("nan")


def _p90(values):
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(calls: list[Call], n_train: int, n_test: int) -> dict:
    """name -> (value, unit, samples)."""
    setup, train_rate, eval_rate = [], {s: [] for s in STYLES}, {s: [] for s in STYLES}
    for call in calls:
        fits = [s for s in call.spans if s.name == "engine.fit"]
        setup.append(min(s.start for s in fits) - call.t0)
        for s in fits:
            train_rate[s.style].append(n_train / s.dur)
        for s in call.spans:
            if s.name == "engine.evaluate":
                eval_rate[s.style].append(n_test / s.dur)
    out = {
        "setup_s": (_median(setup), "s", len(setup)),
        "protocol_wall_s": (_median([c.wall_s for c in calls]), "s", len(calls)),
    }
    for style in STYLES:
        out[f"train_ex_per_s.{style}"] = (_median(train_rate[style]), "ex/s",
                                          len(train_rate[style]))
    for style in STYLES:
        out[f"eval_ex_per_s.{style}"] = (_median(eval_rate[style]), "ex/s",
                                         len(eval_rate[style]))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = (peak_mb, "MB", 1)
    return out


def per_layer(calls: list[Call]) -> dict:
    """name -> (value, unit, samples), from the traced calls."""
    traced = [c for c in calls if c.traced]
    plain = [c for c in calls if not c.traced]
    out: dict = {}

    def per_call(name, unit, fn):
        values = [fn(c.spans) for c in traced]
        out[name] = (_median(values), unit, len(values))

    def self_ms(spans_, pred):
        return 1e3 * sum(s.self_s for s in spans_ if pred(s))

    for layer in CALL_LAYERS:
        per_call(f"{layer}_ms", "ms", lambda sp, n=layer: self_ms(sp, lambda s: s.name == n))
    for style in STYLES:
        per_call(f"bench.run_one_ms.{style}", "ms",
                 lambda sp, st=style: 1e3 * sum(s.dur for s in sp
                                                if s.name == "bench.run_one"
                                                and s.style == st))

    # training-phase spans pooled over every traced call, keyed by call index
    train = [(i, s) for i, c in enumerate(traced) for s in c.spans if s.phase == "train"]

    def step_ms(name, style=None):
        return [1e3 * s.dur for _, s in train
                if s.name == name and style in (None, s.style)]

    waits = step_ms("datasets.batch_wait")
    out["datasets.batch_wait_ms"] = (_median(waits), "ms", len(waits))
    for style in STYLES:
        steps = step_ms("engine.step", style)
        out[f"engine.step_ms.p50.{style}"] = (_median(steps), "ms", len(steps))
        out[f"engine.step_ms.p90.{style}"] = (_p90(steps), "ms", len(steps))
    for part in ("forward", "backward", "optim"):
        for style in STYLES:
            ms = step_ms(f"engine.{part}", style)
            out[f"engine.{part}_ms.{style}"] = (_median(ms), "ms", len(ms))
    loss = step_ms("engine.kernel.softmax_xent")
    out["engine.loss_ms"] = (_median(loss), "ms", len(loss))
    for style in STYLES:
        dispatch: dict[tuple[int, int], float] = {}  # (call, step span) -> ms
        for i, s in train:
            if s.style == style and s.name in ("engine.forward", "engine.backward"):
                dispatch[i, s.parent] = dispatch.get((i, s.parent), 0.0) + 1e3 * s.self_s
        out[f"engine.dispatch_ms.{style}"] = (_median(list(dispatch.values())), "ms",
                                              len(dispatch))

    for k in spans.KERNEL_FLOP:
        name = f"engine.kernel.{k}"
        per_call(f"{name}.self_ms", "ms", lambda sp, n=name: self_ms(sp, lambda s: s.name == n))
        per_call(f"{name}.calls", "count",
                 lambda sp, n=name: sum(1 for s in sp if s.name == n))
        per_call(f"{name}.gflop", "GFLOP-computed",
                 lambda sp, n=name: sum(s.gflop for s in sp if s.name == n))
        if k in GFLOPS_KERNELS:
            gflop, ms = out[f"{name}.gflop"][0], out[f"{name}.self_ms"][0]
            out[f"{name}.gflops"] = (gflop / (ms / 1e3) if ms > 0 else float("nan"),
                                     "GFLOP/s", len(traced))
        if k in HOT_KERNELS:
            for style in STYLES:
                per_call(f"{name}.self_ms.{style}", "ms",
                         lambda sp, n=name, st=style: self_ms(
                             sp, lambda s: s.name == n and s.style == st))

    overhead = _median([c.wall_s for c in traced]) - _median([c.wall_s for c in plain])
    out["trace.overhead_s"] = (overhead, "s", min(len(traced), len(plain)))
    return out


# --- the run loop ---

def run(args) -> int:
    if not (SRC / "circuitforge").is_dir():
        print(f"perfbench: no circuitforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from circuitforge import bench

    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32
    n_train, n_test = (64, 64) if args.tiny else (256, 512)
    work = WORK / f"{args.workload}-{os.getpid()}"
    tracer = spans.Tracer()
    spans.instrument(tracer, layers=bool(args.trace))
    calls: list[Call] = []
    walls: list[float] = []  # every call, failed or not, to predict the next one
    attempted = failed = 0
    first_summary = None
    try:
        dataset = workload.write(work / "data", seed, args.tiny)
        start = spans.now()
        while len(walls) < MIN_CALLS or \
                spans.now() - start + max(walls[-2:]) <= args.seconds:
            k = len(walls)
            cfg = bench.BenchmarkConfig(
                dataset=dataset, styles=STYLES, c=8, seeds=(0,), epochs=1,
                batch_size=64, train_subset=n_train, test_subset=n_test,
                subset_seed=seed, optimizer="adam", lr=1e-3,
                data_dir=str(work / "data"), out_dir=str(work / f"call{k}"))
            traced = bool(args.trace) and k % 2 == 1
            tracer.enabled = not args.trace or traced
            runs = len(cfg.styles) * len(cfg.seeds)
            attempted += runs
            t0 = spans.now()
            try:
                reports, _ = bench.run_benchmark(cfg)
            except Exception:  # one failed call must not end the run
                traceback.print_exc()
                failed += runs
                tracer.reset()
                walls.append(spans.now() - t0)
                continue
            wall = spans.now() - t0
            walls.append(wall)
            summary = (Path(cfg.out_dir) / "summary.csv").read_bytes()
            failed += gate(cfg, reports, summary, first_summary, workload.param_counts)
            first_summary = first_summary or summary
            calls.append(Call(wall, traced, tracer.take(), t0))
            shutil.rmtree(cfg.out_dir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORK.rmdir()

    if {c.traced for c in calls} != ({False, True} if args.trace else {False}):
        print("perfbench: no successful call to measure", file=sys.stderr)
        return 1
    metrics = per_layer(calls) if args.trace else end_to_end(calls, n_train, n_test)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(calls)} calls, train {n_train} / test {n_test} examples per style")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:48s} {value:14.4f} {unit:15s} n={n}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="any integer; corpus and subset use it modulo 2**32")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small corpus and subsets, for the smoke test")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
