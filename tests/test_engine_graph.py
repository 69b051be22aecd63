from __future__ import annotations

import numpy as np
import pytest

from circuitforge.arch import param_count, synthesize_circuit_arch, validate
from circuitforge.connectome import Role
from circuitforge.engine.graph import (
    CompiledGraph,
    compile_arch,
    load_checkpoint,
    save_checkpoint,
)
from circuitforge.engine.kernels import softmax_xent
from circuitforge.engine.optim import Adam
from circuitforge.engine.train import TrainConfig, evaluate, fit, train_epoch
from circuitforge.errors import (
    BadMagic,
    CheckpointError,
    EmptyDataset,
    NonFiniteActivation,
    ShapeMismatch,
    StaleActivation,
    TruncatedFile,
)
from circuitforge.extraction import FunctionalCircuit
from conftest import synthetic_dataset

TINY = FunctionalCircuit(
    roles={"S1": Role.SENSORY, "S2": Role.SENSORY, "I1": Role.INTER,
           "M1": Role.MOTOR, "M2": Role.MOTOR},
    edges={("S1", "I1"): 3.0, ("S2", "I1"): 2.0, ("I1", "M1"): 4.0,
           ("S1", "M2"): 1.0},
)


def tiny_graph(seed: int = 0, side: int = 12, dtype=np.float32) -> CompiledGraph:
    spec = synthesize_circuit_arch(TINY, 2, (1, side, side), 4)
    return compile_arch(validate(spec), seed, dtype=dtype)


def test_compile_covers_every_kind_and_counts_match():
    g = tiny_graph()
    assert g.n_params() == param_count(validate(
        synthesize_circuit_arch(TINY, 2, (1, 12, 12), 4)))
    slots = [slot for slot, _, _ in g.param_slots()]
    assert any(slot.startswith("merge:I1/") for slot in slots)
    assert any(slot.startswith("head/") for slot in slots)


def test_compile_is_deterministic():
    a, b = tiny_graph(seed=5), tiny_graph(seed=5)
    for (sa, va, _), (sb, vb, _) in zip(a.param_slots(), b.param_slots()):
        assert sa == sb
        assert np.array_equal(va, vb)
    c = tiny_graph(seed=6)
    assert any(not np.array_equal(va, vc) for (_, va, _), (_, vc, _)
               in zip(a.param_slots(), c.param_slots()))


def test_init_identical_across_dtypes():
    a = tiny_graph(seed=3, dtype=np.float32)
    b = tiny_graph(seed=3, dtype=np.float64)
    for (sa, va, _), (sb, vb, _) in zip(a.param_slots(), b.param_slots()):
        assert sa == sb
        assert np.array_equal(va, vb.astype(np.float32))


def test_forward_shapes_and_input_check():
    g = tiny_graph()
    x = np.zeros((3, 1, 12, 12), dtype=np.float32)
    logits = g.forward(x)
    assert logits.shape == (3, 4)
    with pytest.raises(ShapeMismatch):
        g.forward(np.zeros((3, 1, 10, 10), dtype=np.float32))


def test_forward_rejects_non_finite():
    g = tiny_graph()
    x = np.full((1, 1, 12, 12), np.inf, dtype=np.float32)
    with pytest.raises(NonFiniteActivation):
        g.forward(x)


def test_backward_requires_fresh_forward():
    g = tiny_graph()
    grad = np.ones((2, 4), dtype=np.float32)
    with pytest.raises(StaleActivation):
        g.backward(grad)
    g.forward(np.zeros((2, 1, 12, 12), dtype=np.float32))
    g.backward(grad)
    with pytest.raises(StaleActivation):  # activations are consumed
        g.backward(grad)
    g.forward(np.zeros((2, 1, 12, 12), dtype=np.float32))
    with pytest.raises(NonFiniteActivation):
        g.forward(np.full((2, 1, 12, 12), np.inf, dtype=np.float32))
    with pytest.raises(StaleActivation):  # a failed forward leaves nothing behind
        g.backward(grad)


def test_backward_rejects_non_finite_gradient():
    g = tiny_graph()
    g.forward(np.zeros((2, 1, 12, 12), dtype=np.float32))
    grad = np.zeros((2, 4), dtype=np.float32)
    grad[1, 2] = np.nan
    with pytest.raises(NonFiniteActivation, match="'head'"):
        g.backward(grad)


def test_whole_graph_gradient_check_float64():
    rng = np.random.default_rng(9)
    g = tiny_graph(seed=1, side=8, dtype=np.float64)
    x = rng.normal(0.0, 1.0, size=(2, 1, 8, 8))
    labels = np.array([1, 3])

    def loss() -> float:
        return softmax_xent(g.forward(x), labels)[0]

    g.backward(softmax_xent(g.forward(x), labels)[1])
    eps = 1e-6
    for slot, value, grad in g.param_slots():
        flat_v = value.reshape(-1)
        flat_g = grad.reshape(-1)
        picks = rng.choice(flat_v.size, size=min(4, flat_v.size), replace=False)
        for i in picks:
            keep = flat_v[i]
            flat_v[i] = keep + eps
            hi = loss()
            flat_v[i] = keep - eps
            lo = loss()
            flat_v[i] = keep
            numeric = (hi - lo) / (2 * eps)
            denom = max(abs(numeric), abs(flat_g[i]), 1e-8)
            assert abs(numeric - flat_g[i]) / denom <= 1e-4, (slot, i)


def test_checkpoint_round_trip(tmp_path):
    g = tiny_graph(seed=4)
    x = np.random.default_rng(0).normal(size=(2, 1, 12, 12)).astype(np.float32)
    before = g.forward(x)
    path = tmp_path / "model.ckpt"
    save_checkpoint(g, path)
    back = load_checkpoint(path)
    assert back.v.spec == g.v.spec
    for (sa, va, _), (sb, vb, _) in zip(g.param_slots(), back.param_slots()):
        assert sa == sb and np.array_equal(va, vb)
    assert np.array_equal(back.forward(x), before)


def test_checkpoint_refuses_non_float32(tmp_path):
    path = tmp_path / "model.ckpt"
    with pytest.raises(CheckpointError, match=r"model\.ckpt.*float64"):
        save_checkpoint(tiny_graph(dtype=np.float64), path)
    assert not path.exists()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagic):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    g = tiny_graph()
    path = tmp_path / "model.ckpt"
    save_checkpoint(g, path)
    blob = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(blob[:len(blob) - 40])
    with pytest.raises(TruncatedFile):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_checkpoint_trailing_garbage(tmp_path):
    g = tiny_graph()
    path = tmp_path / "model.ckpt"
    save_checkpoint(g, path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# --- training loop -----------------------------------------------------------

def test_train_epoch_requires_batches():
    g = tiny_graph()
    with pytest.raises(EmptyDataset):
        train_epoch(g, iter(()), Adam())


def test_fit_learns_texture_task(tmp_path):
    ds = synthetic_dataset(n=120, categories=4, side=8)
    spec = synthesize_circuit_arch(TINY, 4, (1, 8, 8), 4)
    g = compile_arch(validate(spec), seed=0)
    cfg = TrainConfig(epochs=25, batch_size=16, optimizer="adam", lr=3e-3, seed=0)
    history = fit(g, ds, cfg, metrics_path=tmp_path / "metrics.csv")
    assert len(history) == 25
    assert history[-1].mean_loss < history[0].mean_loss
    report = evaluate(g, ds)
    assert report.accuracy >= 0.9

    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "step,epoch,loss,accuracy"
    assert len(lines) > 25  # per-step rows plus epoch summaries


def test_evaluate_confusion_layout():
    ds = synthetic_dataset(n=40, categories=4, side=8)
    spec = synthesize_circuit_arch(TINY, 2, (1, 8, 8), 4)
    g = compile_arch(validate(spec), seed=0)
    report = evaluate(g, ds)
    assert report.confusion.shape == (4, 4)
    assert int(report.confusion.sum()) == 40
    assert report.accuracy == pytest.approx(np.trace(report.confusion) / 40)
    assert set(report.per_category) <= set(range(4))


def test_fit_is_deterministic():
    ds = synthetic_dataset(n=48, categories=4, side=8)
    outs = []
    for _ in range(2):
        spec = synthesize_circuit_arch(TINY, 2, (1, 8, 8), 4)
        g = compile_arch(validate(spec), seed=2)
        fit(g, ds, TrainConfig(epochs=2, batch_size=16, seed=2))
        outs.append(np.concatenate([v.reshape(-1) for _, v, _ in g.param_slots()]))
    assert np.array_equal(outs[0], outs[1])
