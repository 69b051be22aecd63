from __future__ import annotations

import hashlib
import itertools
import weakref

import numpy as np
import pytest

from circuitforge.arch import (
    ArchitectureSpec,
    BlockKind,
    LayerBlock,
    param_count,
    synthesize,
    synthesize_circuit_arch,
    synthesize_randomized_arch,
    synthesize_sequential_arch,
    validate,
)
from circuitforge.connectome import Role
from circuitforge.datasets import LabeledDataset, batches
from circuitforge.engine import kernels as K
from circuitforge.engine.graph import (
    CompiledGraph,
    compile_arch,
    load_checkpoint,
    save_checkpoint,
)
from circuitforge.engine.kernels import softmax_xent
from circuitforge.engine.optim import Adam
from circuitforge.engine.train import TrainConfig, evaluate, fit
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
from circuitforge.reference import reference_circuit
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
    assert sum(value.size for _, value, _ in g.param_slots()) == param_count(validate(
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


def test_evaluation_forward_keeps_nothing():
    g = tiny_graph()
    x = np.random.default_rng(1).normal(size=(2, 1, 12, 12)).astype(np.float32)
    logits = g.forward(x, keep=False)
    assert g._acts is None
    with pytest.raises(StaleActivation):  # nothing was saved for it
        g.backward(np.ones((2, 4), dtype=np.float32))
    assert np.array_equal(g.forward(x), logits)
    g.forward(x, keep=False)  # and it frees what a training forward kept
    assert g._acts is None


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

def test_fit_requires_examples():
    with pytest.raises(EmptyDataset):
        fit(tiny_graph(), synthetic_dataset(n=0, side=12), TrainConfig(epochs=1))


def test_fit_learns_texture_task(tmp_path):
    ds = synthetic_dataset(n=120, categories=4, side=8)
    spec = synthesize_circuit_arch(TINY, 4, (1, 8, 8), 4)
    g = compile_arch(validate(spec), seed=0)
    cfg = TrainConfig(epochs=25, batch_size=16, optimizer="adam", lr=3e-3, seed=0)
    history = fit(g, ds, cfg, metrics_path=tmp_path / "metrics.csv")
    assert len(history) == 25
    assert history[-1].mean_loss < history[0].mean_loss
    report = evaluate(g, ds, cfg.batch_size)
    assert report.accuracy >= 0.9

    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "step,epoch,loss,accuracy"
    assert len(lines) > 25  # per-step rows plus epoch summaries


def test_evaluate_confusion_layout():
    ds = synthetic_dataset(n=40, categories=4, side=8)
    spec = synthesize_circuit_arch(TINY, 2, (1, 8, 8), 4)
    g = compile_arch(validate(spec), seed=0)
    report = evaluate(g, ds, 16)
    assert report.confusion.shape == (4, 4)
    assert int(report.confusion.sum()) == 40
    assert report.accuracy == pytest.approx(np.trace(report.confusion) / 40)
    assert set(report.per_category) <= set(range(4))


@pytest.mark.parametrize("shape", [(1, 28, 28), (3, 32, 32)], ids=["gray28", "rgb32"])
@pytest.mark.parametrize("style", ["circuit", "randomized", "sequential"])
def test_evaluate_does_not_depend_on_batch_size(style, shape):
    """A run evaluates at its training batch; 300 examples leave a ragged
    last batch at both sizes."""
    rng = np.random.default_rng(5)
    level = rng.uniform(0, 255, size=(300, 1, 1, 1))
    noise = rng.uniform(0, 1, size=(300, shape[0], 1, 1)) * rng.normal(0, 120, (300, *shape))
    ds = LabeledDataset(images=np.clip(level + noise, 0, 255).astype(np.uint8),
                        labels=rng.integers(0, 4, size=300), category_names=tuple("abcd"))
    g = compile_arch(validate(synthesize(style, TINY, 2, shape, 4, seed=0)), seed=0)
    small, large = evaluate(g, ds, 64), evaluate(g, ds, 256)
    assert np.array_equal(small.confusion, large.confusion)
    assert int(small.confusion.sum()) == 300
    logits = [np.concatenate([g.forward(x) for x, _ in batches(ds, size, 0, shuffle=False)])
              for size in (64, 256)]
    np.testing.assert_allclose(logits[0], logits[1], rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_fit_is_deterministic(optimizer):
    ds = synthetic_dataset(n=48, categories=4, side=8)
    outs = []
    for _ in range(2):
        spec = synthesize_circuit_arch(TINY, 2, (1, 8, 8), 4)
        g = compile_arch(validate(spec), seed=2)
        fit(g, ds, TrainConfig(epochs=2, batch_size=16, optimizer=optimizer, seed=2))
        outs.append(np.concatenate([v.reshape(-1) for _, v, _ in g.param_slots()]))
    assert np.array_equal(outs[0], outs[1])


# --- sibling conv groups -----------------------------------------------------

class ReferenceGraph:
    """Per-block executor, one conv at a time: the oracle for the
    compiled plan, which runs sibling convs as one.  It holds its own
    copies of a compiled graph's parameters, in the same slots."""

    def __init__(self, g: CompiledGraph):
        self.v = g.v
        self.params = {slot: value.copy() for slot, value, _ in g.param_slots()}
        self.grads = {slot: np.zeros_like(value) for slot, value in self.params.items()}

    def param_slots(self):
        for slot, value in self.params.items():
            yield slot, value, self.grads[slot]

    def forward(self, x: np.ndarray) -> np.ndarray:
        acts: dict[str, dict] = {}
        for block_id in self.v.order:
            block = self.v.spec.block(block_id)
            srcs = self.v.inputs[block_id]
            p = {name.split("/")[1]: value for name, value in self.params.items()
                 if name.startswith(block_id + "/")}
            cache: dict = {}
            if block.kind is BlockKind.STEM:
                out = x
            elif block.kind is BlockKind.CONV:
                xin = acts[srcs[0]]["out"]
                a = K.relu(K.conv2d(xin, p["w"], p["b"], block.params["pad"]))
                pool = block.params["pool"]
                out = K.maxpool(a, pool) if pool > 1 else a
                cache = {"x": xin, "a": a}
            elif block.kind is BlockKind.MERGE:
                parts = [acts[s]["out"] for s in srcs]
                cat = K.concat_channels(parts)
                out = K.conv2d(cat, p["w"], p["b"], 0) if block.params["project"] else cat
                cache = {"cat": cat, "channels": [part.shape[1] for part in parts]}
            elif block.kind is BlockKind.GLOBAL_POOL:
                xin = acts[srcs[0]]["out"]
                out = K.global_avg_pool(xin)
                cache = {"x_shape": xin.shape}
            else:
                xin = acts[srcs[0]]["out"]
                flat = xin.reshape(x.shape[0], -1)
                cache = {"flat": flat, "in_shape": xin.shape}
                if block.params["hidden"] > 0:
                    cache["a1"] = K.relu(K.dense(flat, p["w1"], p["b1"]))
                    out = K.dense(cache["a1"], p["w2"], p["b2"])
                else:
                    out = K.dense(flat, p["w"], p["b"])
            cache["out"] = out
            acts[block_id] = cache
        self.acts = acts
        return out

    def backward(self, grad_logits: np.ndarray) -> None:
        agrad = {self.v.order[-1]: grad_logits}

        def push(src: str, g: np.ndarray) -> None:
            agrad[src] = agrad[src] + g if src in agrad else g

        for block_id in reversed(self.v.order):
            block = self.v.spec.block(block_id)
            srcs = self.v.inputs[block_id]
            gout, cache = agrad[block_id], self.acts[block_id]
            w = self.params.get(f"{block_id}/w")
            grads: dict[str, np.ndarray] = {}
            if block.kind is BlockKind.CONV:
                pool = block.params["pool"]
                ga = K.maxpool_backward(gout, cache["a"], pool) if pool > 1 else gout
                gx, grads["w"], grads["b"] = K.conv2d_backward(
                    K.relu_backward(ga, cache["a"]), cache["x"], w, block.params["pad"])
                push(srcs[0], gx)
            elif block.kind is BlockKind.MERGE:
                gcat = gout
                if block.params["project"]:
                    gcat, grads["w"], grads["b"] = K.conv2d_backward(gout, cache["cat"], w, 0)
                for src, g in zip(srcs, K.concat_channels_backward(gcat, cache["channels"])):
                    push(src, g)
            elif block.kind is BlockKind.GLOBAL_POOL:
                push(srcs[0], K.global_avg_pool_backward(gout, cache["x_shape"]))
            elif block.kind is BlockKind.DENSE_HEAD:
                if block.params["hidden"] > 0:
                    ga1, grads["w2"], grads["b2"] = K.dense_backward(
                        gout, cache["a1"], self.params[f"{block_id}/w2"])
                    gflat, grads["w1"], grads["b1"] = K.dense_backward(
                        K.relu_backward(ga1, cache["a1"]), cache["flat"],
                        self.params[f"{block_id}/w1"])
                else:
                    gflat, grads["w"], grads["b"] = K.dense_backward(gout, cache["flat"], w)
                push(srcs[0], gflat.reshape(cache["in_shape"]))
            for name, g in grads.items():
                self.grads[f"{block_id}/{name}"][...] = g


def sibling_spec(channels: int) -> ArchitectureSpec:
    """conv:a and conv:b read the stem alike but for `multiplier`, so they
    fuse; conv:c differs from them in `pool` only, so it stays apart."""
    def conv(block_id: str, multiplier: int, pool: int) -> LayerBlock:
        return LayerBlock(block_id, BlockKind.CONV,
                          {"kernel": 3, "multiplier": multiplier, "pad": 1, "pool": pool})

    blocks = (LayerBlock("stem", BlockKind.STEM), conv("conv:a", 1, 2), conv("conv:b", 2, 2),
              conv("conv:c", 1, 1), conv("conv:d", 1, 2),
              LayerBlock("merge", BlockKind.MERGE, {"project": True}),
              LayerBlock("pool", BlockKind.GLOBAL_POOL),
              LayerBlock("head", BlockKind.DENSE_HEAD, {"hidden": 3}))
    wires = (("stem", "conv:a"), ("stem", "conv:b"), ("stem", "conv:c"),
             ("conv:c", "conv:d"), ("conv:a", "merge"), ("conv:b", "merge"),
             ("conv:d", "merge"), ("merge", "pool"), ("pool", "head"))
    return ArchitectureSpec(blocks=blocks, wires=wires, input_shape=(channels, 12, 12),
                            num_categories=4, c=2, topology_source="siblings")


def conv_groups(g: CompiledGraph) -> list[list[str]]:
    return [[g.v.order[t] for t in step.out] for step in g._plan
            if step.kind is BlockKind.CONV]


@pytest.fixture(scope="module")
def ref_circuit() -> FunctionalCircuit:
    return reference_circuit()


SPECS = {
    "circuit": lambda circ, ch: synthesize_circuit_arch(circ, 2, (ch, 12, 12), 4),
    "randomized": lambda circ, ch: synthesize_randomized_arch(circ, 2, 1, (ch, 12, 12), 4),
    # two 5x5 valid convs with 2x pooling need at least 16x16
    "sequential": lambda circ, ch: synthesize_sequential_arch(2, (ch, 16, 16), 4),
    "siblings": lambda circ, ch: sibling_spec(ch),
    # 30 stem channels: at least the 3x3 stem's columns for 1 and 3 input
    # channels (9 and 27), so the stem runs in pool-offset order
    "circuit_c3": lambda circ, ch: synthesize_circuit_arch(circ, 3, (ch, 12, 12), 4),
}


def rel_diff(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("style", sorted(SPECS))
def test_grouped_plan_matches_per_block_reference(ref_circuit, style, channels):
    spec = SPECS[style](ref_circuit, channels)
    g = compile_arch(validate(spec), seed=7, dtype=np.float64)
    # at c=2 only the 1-channel circuit and randomized stems (20 channels
    # >= 9 columns) take the pool-offset order; at c=3 both circuit stems do
    pooled = style == "circuit_c3" or channels == 1 and style in ("circuit", "randomized")
    assert sum(step.fold > 1 for step in g._plan) == pooled
    ref = ReferenceGraph(g)
    rng = np.random.default_rng(channels)
    x = rng.normal(size=(3,) + spec.input_shape)
    labels = np.array([0, 3, 1])
    g_opt, ref_opt = Adam(lr=1e-2), Adam(lr=1e-2)
    for _ in range(3):
        logits, want = g.forward(x), ref.forward(x)
        assert rel_diff(logits, want) <= 1e-12
        g.backward(softmax_xent(logits, labels)[1])
        ref.backward(softmax_xent(want, labels)[1])
        for (slot, _, grad), (ref_slot, _, ref_grad) in zip(g.param_slots(), ref.param_slots()):
            assert slot == ref_slot
            assert rel_diff(grad, ref_grad) <= 1e-12, slot
        g_opt.step(g)
        ref_opt.step(ref)
    # the updates went through the slot views into the group buffers
    for (slot, value, _), (_, ref_value, _) in zip(g.param_slots(), ref.param_slots()):
        assert rel_diff(value, ref_value) <= 1e-12, slot
    assert rel_diff(g.forward(x), ref.forward(x)) <= 1e-12


def test_siblings_group_by_source_kernel_pad_and_pool(ref_circuit):
    assert conv_groups(compile_arch(sibling_spec(1), 0)) == [
        ["conv:a", "conv:b"], ["conv:c"], ["conv:d"]]
    sensory = [f"conv:{n}" for n in ref_circuit.nodes_with_role(Role.SENSORY)]
    fused = {style: [grp for grp in conv_groups(compile_arch(
        SPECS[style](ref_circuit, 1), 0)) if len(grp) > 1]
        for style in ("circuit", "randomized", "sequential")}
    assert len(sensory) == 10
    assert fused == {"circuit": [sorted(sensory), ["conv:RME_DV", "conv:SMB"]],
                     "randomized": [sorted(sensory)],
                     "sequential": []}


# sha256 prefixes of the seed-0 float32 1x28x28 c=8 checkpoints as written
# when every conv ran on its own
GOLDEN_CHECKPOINTS = {
    "circuit": "60b3c7e82be47798",
    "randomized": "72640793b516de3a",
    "sequential": "91cc259b592224a2",
}


@pytest.mark.parametrize("style", sorted(GOLDEN_CHECKPOINTS))
def test_seed0_checkpoints_are_unchanged_by_grouping(ref_circuit, tmp_path, style):
    spec = {"circuit": lambda: synthesize_circuit_arch(ref_circuit, 8, (1, 28, 28), 10),
            "randomized": lambda: synthesize_randomized_arch(ref_circuit, 8, 0, (1, 28, 28), 10),
            "sequential": lambda: synthesize_sequential_arch(8, (1, 28, 28), 10)}[style]()
    path = tmp_path / "model.ckpt"
    save_checkpoint(compile_arch(validate(spec), 0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest().startswith(GOLDEN_CHECKPOINTS[style])


def test_non_finite_sibling_is_named():
    g = tiny_graph()
    assert conv_groups(g)[0] == ["conv:S1", "conv:S2"]
    x = np.random.default_rng(2).normal(size=(2, 1, 12, 12)).astype(np.float32)
    g.params["conv:S2/b"][0] = np.nan  # lands in the group's bias buffer
    with pytest.raises(NonFiniteActivation, match="'conv:S2'"):
        g.forward(x)
    # through fit, the message also names the epoch and the step
    with pytest.raises(NonFiniteActivation,
                       match="^epoch 0, step 0: block 'conv:S2' produced non-finite values$"):
        fit(g, synthetic_dataset(n=8, side=12), TrainConfig(epochs=1, batch_size=4))


# case -> (graph, kernel, slot whose buffer the poisoned call reads as `w`,
#          index of the poisoned output, its poisoned rows, block named)
NAN_PARAM_GRADS = {
    # the stem group's weight gradient, whose rows 2: belong to conv:S2
    "sibling": (tiny_graph, "conv2d_param_backward", "conv:S1/w", 0, slice(2, None), "conv:S2"),
    "merge_projection": (tiny_graph, "conv2d_backward", "merge:I1/w", 2, slice(None),
                         "merge:I1"),
    "dense_hidden": (lambda: compile_arch(validate(synthesize_sequential_arch(2, (1, 16, 16), 4)),
                                          0), "dense_backward", "head/w1", 1, slice(None), "head"),
}


@pytest.mark.parametrize("case", sorted(NAN_PARAM_GRADS))
def test_non_finite_parameter_gradient_is_named(monkeypatch, case):
    make, kernel, slot, index, rows, block = NAN_PARAM_GRADS[case]
    g = make()
    target = g.params[slot]
    real = getattr(K, kernel)

    def poisoned(gy, xin, w, *rest):
        outs = list(real(gy, xin, w, *rest))
        if np.shares_memory(w, target):
            outs[index][rows] = np.nan
        return tuple(outs)

    monkeypatch.setattr(K, kernel, poisoned)
    g.forward(np.random.default_rng(2).normal(size=(2,) + g.spec.input_shape))
    with pytest.raises(NonFiniteActivation,
                       match=f"'{block}' produced a non-finite parameter gradient"):
        g.backward(np.ones((2, 4), dtype=np.float32))


# --- liveness ----------------------------------------------------------------

def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns a view's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


FORWARD_KERNELS = ("conv2d", "conv2d_pool_ordered", "relu", "maxpool", "pool_relu",
                   "concat_channels", "global_avg_pool", "dense")
CONVS = ("conv2d", "conv2d_pool_ordered")


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("style", sorted(SPECS))
def test_evaluation_drops_each_tensor_after_its_last_reader(ref_circuit, monkeypatch, style,
                                                           channels):
    """When a step starts, every conv or pool output still alive is read
    by this kernel call or a later one.
    graph.py looks kernels up as `K.<name>` at call time, so the wrappers
    see every call."""
    g = compile_arch(validate(SPECS[style](ref_circuit, channels)), seed=0)
    x = np.random.default_rng(0).normal(size=(2,) + g.spec.input_shape).astype(np.float32)
    made: list = []  # a weakref to the memory of each conv and pool output
    last_read: dict[int, int] = {}  # index into made -> the last call that read it
    alive_at: list = []  # (call, indices into made still alive) at each step's start
    calls = itertools.count()

    def watch(name):
        real = getattr(K, name)

        def kernel(*args):
            call = next(calls)
            roots = [_root(a) for arg in args for a in (arg if isinstance(arg, list) else [arg])
                     if isinstance(a, np.ndarray)]
            for i, ref in enumerate(made):
                if any(ref() is r for r in roots):
                    last_read[i] = call
            # a concat or a global pool starts a step, and so does a conv or dense
            # layer that reads the batch or a conv or pool output; the others read
            # a value their own step made (a merge's concat, a hidden activation)
            if name in ("concat_channels", "global_avg_pool") or name in (*CONVS, "dense") and (
                    args[0] is x or any(ref() is roots[0] for ref in made)):
                alive_at.append((call, [i for i, ref in enumerate(made) if ref() is not None]))
            out = real(*args)
            if name in (*CONVS, "maxpool", "pool_relu"):
                made.append(weakref.ref(_root(out)))
            return out

        monkeypatch.setattr(K, name, kernel)

    for name in FORWARD_KERNELS:
        watch(name)
    g.forward(x, keep=False)
    assert len(alive_at) >= 2
    for call, alive in alive_at:
        assert all(last_read[i] >= call for i in alive), (call, alive, last_read)
    assert all(ref() is None for ref in made)


@pytest.mark.parametrize("style", ["circuit", "sequential", "siblings", "circuit_c3"])
def test_backward_frees_a_group_conv_output_before_its_conv_backward(ref_circuit, monkeypatch,
                                                                    style):
    """The conv output of a group that reads the batch (the ten sensory
    convs of the circuit net) is dead when that group's
    `conv2d_param_backward` is entered: only the gradient built from it
    lives.  circuit_c3's stem runs in pool-offset order, the others in
    plain order."""
    g = compile_arch(validate(SPECS[style](ref_circuit, 3)), seed=0)
    x = np.random.default_rng(0).normal(size=(2,) + g.spec.input_shape).astype(np.float32)
    made: list = []  # (kernel buffer, weakref to the output) per conv that reads the batch
    dead: list[bool] = []

    def forward(name):
        real = getattr(K, name)

        def conv(xin, w, *rest):
            out = real(xin, w, *rest)
            if xin is x:
                made.append((w, weakref.ref(_root(out))))
            return out

        monkeypatch.setattr(K, name, conv)

    real_backward = K.conv2d_param_backward

    def conv2d_param_backward(gy, xin, w, *rest):
        if xin is x:
            dead.extend(ref() is None for kw, ref in made if kw is w)
        return real_backward(gy, xin, w, *rest)

    for name in CONVS:
        forward(name)
    monkeypatch.setattr(K, "conv2d_param_backward", conv2d_param_backward)
    logits = g.forward(x)
    assert made and all(ref() is not None for _, ref in made)  # kept for backward
    g.backward(softmax_xent(logits, np.array([0, 3]))[1])
    assert dead == [True] * len(made)


@pytest.mark.parametrize("style", sorted(SPECS))
def test_a_group_that_reads_the_batch_computes_no_input_gradient(ref_circuit, monkeypatch,
                                                                 style):
    g = compile_arch(validate(SPECS[style](ref_circuit, 1)), seed=0)
    x = np.random.default_rng(0).normal(size=(2,) + g.spec.input_shape).astype(np.float32)
    reads = {"conv2d_backward": [], "conv2d_param_backward": []}

    def watch(name):
        real = getattr(K, name)

        def kernel(gy, xin, *rest):
            reads[name].append(xin is x)
            return real(gy, xin, *rest)

        monkeypatch.setattr(K, name, kernel)

    for name in reads:
        watch(name)
    logits = g.forward(x)
    g.backward(softmax_xent(logits, np.array([0, 3]))[1])
    batch_groups = sum(step.src == (0,) for step in g._plan if step.kind is BlockKind.CONV)
    assert reads["conv2d_param_backward"] == [True] * batch_groups
    assert True not in reads["conv2d_backward"]
