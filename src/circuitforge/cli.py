"""Command-line entry points.

    circuitforge cri        recompute correlation indexes from expression data
    circuitforge extract    carve the functional circuit out of a connectome
    circuitforge synthesize build an architecture JSON from a circuit
    circuitforge bench      run or summarize the three-way comparison

Every subcommand defaults to the bundled reference data where that
makes sense, so `circuitforge extract --out out/` works out of the box.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import arch as A
from . import bench as B
from .connectome import load_roles
from .cri import (
    TopK,
    ZScore,
    compute_cri,
    load_expression,
    load_fold_changes,
    select_correlated,
    write_cri_table,
)
from .errors import CircuitForgeError, read_input
from .extraction import ExtractionConfig, export_circuit, sparsity
from .reference import extract_from_tables, source_circuit

REPORTED_ROLE_SPLIT = (10, 5, 7)  # published circuit size to diff against


def _parse_policy(text: str):
    kind, _, value = text.partition(":")
    try:
        if kind == "topk":
            return TopK(int(value)) if value else TopK()
        if kind == "zscore":
            return ZScore(float(value)) if value else ZScore()
    except ValueError:  # a value that is not a number
        pass
    raise argparse.ArgumentTypeError(
        f"policy must be topk:<k> or zscore:<threshold>, got {text!r}")


def _parse_shape(text: str) -> tuple[int, int, int]:
    try:
        c, h, w = (int(p) for p in text.lower().split("x"))
    except ValueError:  # not three parts, or a part that is not an integer
        raise argparse.ArgumentTypeError(
            f"input shape must be CxHxW (e.g. 1x28x28), got {text!r}") from None
    return (c, h, w)


def _cmd_cri(args) -> int:
    fold = load_fold_changes(args.foldchanges)
    expr = load_expression(args.expression)
    roles = load_roles(args.roles)
    cri = compute_cri(expr, fold, set(roles))
    write_cri_table(cri, roles, args.out)
    sel = select_correlated(cri, roles, args.policy)
    print(f"wrote {args.out} ({len(cri.values)} neurons, {cri.n_genes} genes)")
    print(f"selected {len(sel.all)}: "
          f"{len(sel.sensory)} sensory / {len(sel.inter)} inter / {len(sel.motor)} motor")
    for name in sorted(sel.all):
        print(f"  {name}")
    return 0


def _cmd_extract(args) -> int:
    sel, circuit = extract_from_tables(args.connectome, args.roles, args.aggregation, args.cri,
                                       args.policy, ExtractionConfig(k=args.k))
    paths = export_circuit(circuit, args.out)

    s, i, m = circuit.role_counts()
    print(f"selected {len(sel.all)} neurons "
          f"({len(sel.sensory)}/{len(sel.inter)}/{len(sel.motor)} by role)")
    print(f"circuit: {circuit.n_nodes} nodes ({s} sensory, {i} inter, {m} motor), "
          f"{circuit.n_edges} edges, sparsity {sparsity(circuit):.4f}")
    diff = tuple(got - want for got, want in zip((s, i, m), REPORTED_ROLE_SPLIT))
    print(f"role-count diff vs reported {REPORTED_ROLE_SPLIT}: {diff}")
    for key in ("edges", "roles", "dot"):
        print(f"wrote {paths[key]}")
    return 0


def _cmd_synthesize(args) -> int:
    style = {"random": "randomized"}.get(args.style, args.style)
    circuit = None if style == "sequential" else source_circuit(args.circuit, args.circuit_roles)
    spec = A.synthesize(style, circuit, args.c, args.input, args.categories, args.seed)
    validated = A.validate(spec)
    A.save_arch(spec, args.out)
    print(f"wrote {args.out}: {len(spec.blocks)} blocks, {len(spec.wires)} wires, "
          f"{A.param_count(validated)} parameters")
    return 0


def _cmd_bench_run(args) -> int:
    cfg = B.BenchmarkConfig.from_json(read_input(args.config))
    if args.out:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    try:
        reports, summary = B.run_benchmark(cfg)
    except CircuitForgeError as exc:
        done = len(B.load_reports(cfg.out_dir))
        print(f"error: {exc}", file=sys.stderr)
        if done:
            print(f"{done} completed run(s) kept under {cfg.out_dir}/runs", file=sys.stderr)
            return 2
        raise
    print(f"{len(reports)} runs complete; ordering flag: {summary['ordering']['flag']}")
    print(f"summary: {Path(cfg.out_dir) / 'summary.csv'}")
    return 0


def _cmd_bench_summarize(args) -> int:
    summary = B.summarize(args.dir)
    for style, stats in summary["per_style"].items():
        print(f"{style}: accuracy {stats['mean_accuracy']:.4f} "
              f"± {stats['std_accuracy']:.4f}, "
              f"consistency {stats['mean_consistency']:.4f}")
    print(f"ordering flag: {summary['ordering']['flag']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="circuitforge", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cri", help="compute correlation indexes and select neurons")
    p.add_argument("--foldchanges", required=True, help="fold-change table (CSV)")
    p.add_argument("--expression", required=True, help="expression table (CSV)")
    p.add_argument("--roles", required=True, help="role table (TSV) or cri CSV with roles")
    p.add_argument("--policy", type=_parse_policy, default=TopK())
    p.add_argument("--out", required=True, help="output cri_table.csv")
    p.set_defaults(func=_cmd_cri)

    p = sub.add_parser("extract", help="extract the functional circuit")
    p.add_argument("--connectome", help="raw connectome TSV (default: bundled)")
    p.add_argument("--roles", help="neuron role TSV (default: bundled)")
    p.add_argument("--aggregation", help="raw->functional name map TSV")
    p.add_argument("--cri", help="cri_table.csv (default: bundled)")
    p.add_argument("--policy", type=_parse_policy, default=TopK())
    p.add_argument("--k", type=int, default=ExtractionConfig().k,
                   help="connections followed per hop")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("synthesize", help="build an architecture JSON")
    p.add_argument("--circuit", help="circuit.tsv (default: bundled pipeline)")
    p.add_argument("--circuit-roles", help="circuit_roles.tsv (default: sibling file)")
    p.add_argument("--style", required=True,
                   choices=("circuit", "random", "randomized", "sequential"))
    p.add_argument("--c", type=int, default=8, help="base kernel count")
    p.add_argument("--input", type=_parse_shape, default=(1, 28, 28),
                   metavar="CxHxW")
    p.add_argument("--categories", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="randomized style only")
    p.add_argument("--out", required=True, help="output arch.json")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("bench", help="run or summarize benchmarks")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    pr = bench_sub.add_parser("run", help="execute a benchmark config")
    pr.add_argument("--config", required=True, help="bench.json")
    pr.add_argument("--out", help="override the config's output directory")
    pr.set_defaults(func=_cmd_bench_run)
    ps = bench_sub.add_parser("summarize", help="rebuild summary from run reports")
    ps.add_argument("--dir", required=True, help="benchmark output directory")
    ps.set_defaults(func=_cmd_bench_summarize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CircuitForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
