"""Package acceptance suite.

Each test exercises one shipped claim end to end and prints a single
verdict line that stays visible through pytest's output capture, so a
plain `pytest -v` run doubles as a checklist.  Checks that need the
official dataset files skip loudly when the files are absent;
scripts/fetch_datasets.py downloads them.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from circuitforge.arch import (
    ArchitectureSpec,
    BlockKind,
    param_count,
    synthesize_circuit_arch,
    synthesize_randomized_arch,
    synthesize_sequential_arch,
    validate,
)
from circuitforge.bench import BenchmarkConfig, run_benchmark
from circuitforge.connectome import Direction, Role, top_k_neighbors
from circuitforge.cri import (
    ExpressionMatrix,
    FoldChangeTable,
    TopK,
    clip_fold_changes,
    compute_cri,
    select_correlated,
)
from circuitforge.datasets import load_dataset, load_idx, subset
from circuitforge.engine.graph import compile_arch
from circuitforge.engine.kernels import conv2d, softmax_xent
from circuitforge.engine.train import TrainConfig, evaluate, fit
from circuitforge.errors import BadMagic, BadRecordLength, TruncatedFile
from circuitforge.extraction import (
    ExtractionConfig,
    FunctionalCircuit,
    extend_from_interneuron,
    extend_from_motor,
    extend_from_sensory,
    extract_circuits,
    sparsity,
    validate_circuit,
)
from circuitforge.reference import reference_circuit
from conftest import (
    circuit_wires,
    load_reference_cri,
    make_connectome,
    naive_conv,
    official_data_dir,
    random_connectome,
    random_selection,
    write_idx_pair,
)

K3 = ExtractionConfig(k=3)

EXPECTED_ELEVEN = {"ADL", "ASK", "ASI", "AWA", "AFD", "PHB",
                   "CAN", "AWC", "ASJ", "PVN", "ASER"}


def _verdict(capsys, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'}{tail}")


def _official_or_skip(capsys, name: str, label: str):
    base = official_data_dir()
    if base is None or not (base / name).is_dir():
        with capsys.disabled():
            print(f"\n[acceptance] {label}: SKIP (official {name} files absent; "
                  f"run scripts/fetch_datasets.py --only {name})")
        pytest.skip(f"official {name} files not present")
    return base


def test_01_published_index_selection(capsys):
    cri, roles = load_reference_cri()
    sel = select_correlated(cri, roles, TopK(11))
    got = set(sel.all)
    ok = got == EXPECTED_ELEVEN and sel.counts == (9, 1, 1)
    _verdict(capsys, "index table TopK(11) selection", ok,
             f"split {sel.counts[0]} sensory / {sel.counts[1]} inter / "
             f"{sel.counts[2]} motor, members as published")
    assert got == EXPECTED_ELEVEN
    assert sel.counts == (9, 1, 1)


def test_02_index_matches_double_loop_oracle(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        genes = [f"g{i}" for i in range(int(rng.integers(1, 9)))]
        neurons = {f"n{j}" for j in range(int(rng.integers(1, 10)))}
        m = {g: float(rng.uniform(-80, 80)) for g in genes}
        w = {(g, n): float(rng.uniform(0.0, 1.0))
             for g in genes for n in neurons if rng.random() < 0.6}
        got = compute_cri(ExpressionMatrix(w=w), FoldChangeTable(values=m), neurons)
        for n in neurons:
            want = 0.0
            for g in genes:
                clipped = min(max(m[g], -50.0), 50.0)
                want += w.get((g, n), 0.0) * abs(clipped)
            worst = max(worst, abs(got.values[n] - want) / max(1.0, abs(want)))
    clip = clip_fold_changes(FoldChangeTable(values={"up": 73.2, "down": -70.0}))
    clip_ok = clip.values == {"up": 50.0, "down": -50.0}
    ok = worst <= 1e-12 and clip_ok
    _verdict(capsys, "index vs double-loop oracle", ok,
             f"100 fixtures, worst rel err {worst:.2e}; "
             f"clipping 73.2->{clip.values['up']:g}, -70->{clip.values['down']:g}")
    assert worst <= 1e-12
    assert clip_ok


def test_03_extraction_goldens_and_reference_diff(capsys):
    conn = make_connectome({("S", "I1"): 9, ("S", "I2"): 7, ("S", "S2"): 6,
                            ("S", "M1"): 2, ("I1", "M1"): 4})
    part = extend_from_sensory(conn, {"S"}, K3)
    golden1 = (part.nodes == {"S", "I1", "I2", "M1"}
               and part.edges == {("S", "I1"): 9.0, ("S", "I2"): 7.0, ("I1", "M1"): 4.0})

    conn = make_connectome({
        ("S1", "I0"): 10, ("S2", "I0"): 8, ("I9", "I0"): 6, ("S3", "I0"): 1,
        ("I0", "M1"): 9, ("I0", "I9"): 5, ("I0", "M2"): 4, ("I0", "M3"): 1,
    })
    part = extend_from_interneuron(conn, "I0", K3)
    golden2 = part.edges == {("S1", "I0"): 10.0, ("S2", "I0"): 8.0,
                            ("I0", "M1"): 9.0, ("I0", "M2"): 4.0}

    conn = make_connectome({
        ("I1", "M0"): 9, ("S1", "M0"): 7, ("M9", "M0"): 5, ("I2", "M0"): 1,
        ("S2", "I1"): 8, ("S3", "I1"): 6, ("I5", "I1"): 4, ("S4", "I1"): 1,
    })
    part = extend_from_motor(conn, "M0", K3)
    golden3 = part.edges == {("I1", "M0"): 9.0, ("S1", "M0"): 7.0,
                            ("S2", "I1"): 8.0, ("S3", "I1"): 6.0}

    invariants = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        conn = random_connectome(rng)
        sel = random_selection(rng, conn)
        circuit = extract_circuits(conn, sel, K3)
        validate_circuit(circuit)
        again = extract_circuits(conn, sel, K3)
        if circuit.edges != again.edges or circuit.roles != again.roles:
            invariants = False
            break
        for (pre, post) in circuit.edges:
            out3 = {n for n, _ in top_k_neighbors(conn, pre, Direction.OUTGOING, 3)}
            in3 = {n for n, _ in top_k_neighbors(conn, post, Direction.INCOMING, 3)}
            if post not in out3 and pre not in in3:
                invariants = False

    ref = reference_circuit()
    counts = ref.role_counts()
    diff = tuple(got - want for got, want in zip(counts, (10, 5, 7)))
    ok = golden1 and golden2 and golden3 and invariants
    _verdict(capsys, "circuit extraction", ok,
             f"3 hand-traced goldens exact; legality and determinism on 100 "
             f"random graphs; bundled-connectome split {counts} vs reported "
             f"(10, 5, 7), diff {diff}")
    assert golden1 and golden2 and golden3
    assert invariants


def test_04_reference_circuit_sparsity(capsys):
    circuit = reference_circuit()
    s = sparsity(circuit)
    target = 1.0 - 21.0 / 462.0
    ok = (circuit.n_nodes == 22 and circuit.n_edges == 21
          and abs(s - target) <= 1e-12)
    _verdict(capsys, "extracted-circuit sparsity", ok,
             f"{circuit.n_edges} edges over {circuit.n_nodes} nodes, "
             f"sparsity {s:.4f} (published as 96%)")
    assert circuit.n_nodes == 22 and circuit.n_edges == 21
    assert abs(s - target) <= 1e-12


def test_05_architecture_synthesis_properties(capsys):
    circuit = reference_circuit()
    shape, cats = (1, 28, 28), 10
    spec_c = synthesize_circuit_arch(circuit, 8, shape, cats)
    iso = circuit_wires(spec_c) == frozenset(circuit.edges)

    base_convs = len([b for b in spec_c.blocks if b.kind is BlockKind.CONV])
    preserved = True
    for seed in range(100):
        spec_r = synthesize_randomized_arch(circuit, 8, seed, shape, cats)
        validate(spec_r)
        convs = len([b for b in spec_r.blocks if b.kind is BlockKind.CONV])
        if convs != base_convs or len(circuit_wires(spec_r)) != circuit.n_edges:
            preserved = False
            break

    makers = {
        "circuit": lambda c: synthesize_circuit_arch(circuit, c, shape, cats),
        "randomized": lambda c: synthesize_randomized_arch(circuit, c, 0, shape, cats),
        "sequential": lambda c: synthesize_sequential_arch(c, shape, cats),
    }
    series = {style: [param_count(validate(make(c))) for c in (4, 8, 16)]
              for style, make in makers.items()}
    increasing = all(s[0] < s[1] < s[2] for s in series.values())

    round_trip = all(ArchitectureSpec.from_json(make(8).to_json()) == make(8)
                     for make in makers.values())

    ok = iso and preserved and increasing and round_trip
    _verdict(capsys, "architecture synthesis", ok,
             f"wires isomorphic to circuit; node/edge counts preserved over "
             f"100 randomized seeds; params strictly increasing in c "
             f"{series}; JSON round trip identical")
    assert iso
    assert preserved
    assert increasing
    assert round_trip


def test_06_engine_gradient_and_loss_checks(capsys):
    rng = np.random.default_rng(6)
    conv_worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5]))
        pad = int(rng.integers(0, 2))
        side = int(rng.integers(k, k + 4))
        x = rng.normal(size=(n, cin, side, side))
        w = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        got, want = conv2d(x, w, b, pad), naive_conv(x, w, b, pad)
        conv_worst = max(conv_worst,
                         float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want)))))
    conv_ok = conv_worst <= 1e-6

    tiny = FunctionalCircuit(
        roles={"S1": Role.SENSORY, "S2": Role.SENSORY, "I1": Role.INTER,
               "M1": Role.MOTOR, "M2": Role.MOTOR},
        edges={("S1", "I1"): 3, ("S2", "I1"): 2, ("I1", "M1"): 4, ("S1", "M2"): 1})
    spec = synthesize_circuit_arch(tiny, 3, (1, 8, 8), 4)
    assert {b.kind for b in spec.blocks} == set(BlockKind)  # every kind on the path
    kind_of = {b.id: b.kind.value for b in spec.blocks}
    g = compile_arch(validate(spec), seed=1, dtype=np.float64)
    x = rng.normal(size=(2, 1, 8, 8))
    labels = np.array([1, 3])

    def loss() -> float:
        return softmax_xent(g.forward(x), labels)[0]

    g.backward(softmax_xent(g.forward(x), labels)[1])
    eps = 1e-6
    per_kind: dict[str, float] = {}
    for slot, value in g.params.items():
        kind = kind_of[slot.split("/")[0]]
        flat_v, flat_g = value.reshape(-1), g.grads[slot].reshape(-1)
        for i in rng.choice(flat_v.size, size=min(4, flat_v.size), replace=False):
            keep = flat_v[i]
            flat_v[i] = keep + eps
            hi = loss()
            flat_v[i] = keep - eps
            lo = loss()
            flat_v[i] = keep
            numeric = (hi - lo) / (2 * eps)
            rel = abs(numeric - flat_g[i]) / max(abs(numeric), abs(flat_g[i]), 1e-8)
            per_kind[kind] = max(per_kind.get(kind, 0.0), rel)
    grad_worst = max(per_kind.values())
    grad_ok = grad_worst <= 1e-4

    loss_ok = True
    for k in (2, 5, 10, 100):
        val = softmax_xent(np.zeros((3, k)), np.array([0, 1 % k, k - 1]))[0]
        loss_ok &= abs(val - math.log(k)) <= 1e-9

    ok = conv_ok and grad_ok and loss_ok
    _verdict(capsys, "engine gradients and loss", ok,
             f"conv vs naive oracle over 50 cases, worst {conv_worst:.2e}; "
             f"finite-difference worst per parameterized kind "
             f"{ {k: f'{v:.1e}' for k, v in sorted(per_kind.items())} }; "
             f"uniform-logit loss = ln K to 1e-9")
    assert conv_ok
    assert grad_ok
    assert loss_ok


def test_07_desk_scale_training_floor(capsys):
    base = _official_or_skip(capsys, "mnist", "desk-scale training floor")
    train_full = load_dataset(base, "mnist", "train")
    test_full = load_dataset(base, "mnist", "test")
    train = subset(train_full, 10_000, seed=2024)
    spec = synthesize_circuit_arch(reference_circuit(), 8,
                                   train.input_shape, train.num_categories)
    g = compile_arch(validate(spec), seed=0)
    start = time.perf_counter()
    fit(g, train, TrainConfig(epochs=5, batch_size=64, optimizer="adam",
                              lr=1e-3, seed=0))
    minutes = (time.perf_counter() - start) / 60.0
    result = evaluate(g, test_full, 64)
    ok = result.accuracy >= 0.95 and minutes < 20.0 and len(test_full) == 10_000
    _verdict(capsys, "desk-scale training floor", ok,
             f"accuracy {result.accuracy:.4f} on the {len(test_full)}-image "
             f"test set after 5 epochs on a 10000-image train subset "
             f"in {minutes:.1f} min, single thread")
    assert len(test_full) == 10_000
    assert result.accuracy >= 0.95
    assert minutes < 20.0


def test_08_comparative_protocol(capsys, tmp_path):
    base = _official_or_skip(capsys, "fashion_mnist", "comparative protocol")
    cfg = BenchmarkConfig(dataset="fashion_mnist", data_dir=str(base),
                          out_dir=str(tmp_path / "a"))
    reports, summary = run_benchmark(cfg)
    run_benchmark(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
    identical = ((tmp_path / "a" / "summary.csv").read_bytes()
                 == (tmp_path / "b" / "summary.csv").read_bytes())

    wanted = {"mean_accuracy", "std_accuracy", "mean_consistency",
              "std_consistency", "convergence_epochs"}
    complete = (set(summary["per_style"]) == {"circuit", "randomized", "sequential"}
                and all(wanted <= set(stats) and stats["runs"] == 3
                        for stats in summary["per_style"].values())
                and len(reports) == 9)
    flag = summary["ordering"]["flag"]
    ok = identical and complete and flag in ("PASS", "INCONCLUSIVE")
    stats = "; ".join(
        f"{s} {summary['per_style'][s]['mean_accuracy']:.4f}"
        f"±{summary['per_style'][s]['std_accuracy']:.4f}"
        for s in ("circuit", "randomized", "sequential"))
    _verdict(capsys, "comparative protocol", ok,
             f"{stats}; observed order {' >= '.join(summary['ordering']['observed'])} "
             f"flagged {flag}; re-run summary byte-identical: {identical}")
    assert complete
    assert identical
    assert flag in ("PASS", "INCONCLUSIVE")


def test_09_loader_corrupt_file_paths(capsys, tmp_path):
    images = np.zeros((6, 4, 4), dtype=np.uint8)
    labels = np.zeros(6, dtype=np.uint8)

    trunc_dir = tmp_path / "trunc"
    trunc_dir.mkdir()
    img, lbl = write_idx_pair(trunc_dir, "train", images, labels)
    img.write_bytes(img.read_bytes()[:-5])
    with pytest.raises(TruncatedFile):
        load_idx(img, lbl)

    magic_dir = tmp_path / "magic"
    magic_dir.mkdir()
    img, lbl = write_idx_pair(magic_dir, "train", images, labels)
    blob = bytearray(img.read_bytes())
    blob[3] = 7
    img.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        load_idx(img, lbl)

    cifar = tmp_path / "cifar10" / "cifar-10-batches-bin"
    cifar.mkdir(parents=True)
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        (cifar / name).write_bytes(bytes(3073 * 2))
    (cifar / "data_batch_2.bin").write_bytes(bytes(3073 * 2 - 11))
    with pytest.raises(BadRecordLength):
        load_dataset(tmp_path, "cifar10", "train")

    _verdict(capsys, "loader corrupt-file handling", True,
             "truncated, wrong-magic and short-record fixtures all rejected")


@pytest.mark.parametrize("name,train_n,test_n", [
    ("mnist", 60_000, 10_000),
    ("fashion_mnist", 60_000, 10_000),
    ("cifar10", 50_000, 10_000),
    ("cifar100", 50_000, 10_000),
])
def test_09_official_dataset_counts(capsys, name, train_n, test_n):
    base = _official_or_skip(capsys, name, f"official {name} counts")
    train = load_dataset(base, name, "train")
    test = load_dataset(base, name, "test")
    ok = len(train) == train_n and len(test) == test_n
    _verdict(capsys, f"official {name} counts", ok,
             f"train {len(train)}, test {len(test)}")
    assert len(train) == train_n
    assert len(test) == test_n
