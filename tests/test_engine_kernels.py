from __future__ import annotations

import importlib.util
import inspect
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circuitforge.engine import kernels
from circuitforge.engine.kernels import (
    SHIFT_MIN_CIN,
    concat_channels,
    concat_channels_backward,
    conv2d,
    conv2d_backward,
    dense,
    dense_backward,
    global_avg_pool,
    global_avg_pool_backward,
    maxpool,
    maxpool_backward,
    relu,
    relu_backward,
    softmax_xent,
)
from circuitforge.errors import LabelOutOfRange, ShapeMismatch


def naive_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int) -> np.ndarray:
    n, _, h, wdt = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = h + 2 * pad - k + 1, wdt + 2 * pad - k + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    out[ni, co, i, j] = np.sum(xp[ni, :, i:i + k, j:j + k] * w[co]) + b[co]
    return out


def naive_conv_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray, pad: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, _, h, wdt = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    gb = np.zeros(cout, dtype=gy.dtype)
    for ni in range(n):
        for co in range(cout):
            for i in range(gy.shape[2]):
                for j in range(gy.shape[3]):
                    g = gy[ni, co, i, j]
                    gb[co] += g
                    gw[co] += g * xp[ni, :, i:i + k, j:j + k]
                    gxp[ni, :, i:i + k, j:j + k] += g * w[co]
    return gxp[:, :, pad:pad + h, pad:pad + wdt], gw, gb


def test_conv_forward_and_backward_match_naive_oracle():
    rng = np.random.default_rng(0)
    cins = (1, 2, 3, 4, 8, 16)  # both conv paths, and both sides of the switch
    assert cins[0] < SHIFT_MIN_CIN <= cins[-1]
    # H != W: the shifted path's flat layout depends on the padded width
    grid = itertools.product((1, 3, 5), (0, 1, 2), cins, ((5, 9), (9, 5), (7, 7)))
    for case, (k, pad, cin, (h, wdt)) in enumerate(grid):
        n = int(rng.integers(1, 3))
        cout = int(rng.integers(1, 4))
        x = rng.normal(size=(n, cin, h, wdt))
        w = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        got = conv2d(x, w, b, pad)
        want = naive_conv(x, w, b, pad)
        assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want))), case
        gy = rng.normal(size=want.shape)
        for g, h in zip(conv2d_backward(gy, x, w, pad), naive_conv_backward(gy, x, w, pad)):
            assert g.shape == h.shape, case
            assert np.max(np.abs(g - h)) <= 1e-9 * max(1.0, np.max(np.abs(h))), case


def central_diff(f, arr: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = f()
        flat[i] = keep - eps
        lo = f()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b)) / scale)


def test_conv_backward_finite_difference():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    proj = rng.normal(size=conv2d(x, w, b, 1).shape)
    loss = lambda: float(np.sum(conv2d(x, w, b, 1) * proj))
    gx, gw, gb = conv2d_backward(proj, x, w, 1)
    assert rel_err(gx, central_diff(loss, x)) <= 1e-4
    assert rel_err(gw, central_diff(loss, w)) <= 1e-4
    assert rel_err(gb, central_diff(loss, b)) <= 1e-4


def test_maxpool_forward_and_floor_semantics():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    out = maxpool(x, 2)
    assert out.shape == (1, 1, 2, 2)
    assert out[0, 0].tolist() == [[5, 7], [13, 15]]
    # odd trailing row/column is dropped
    odd = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    assert maxpool(odd, 2).shape == (1, 1, 1, 1)
    assert maxpool(odd, 2)[0, 0, 0, 0] == 4.0


def test_maxpool_backward_routes_to_first_max_on_ties():
    x = np.ones((1, 1, 2, 2))
    gy = np.array([[[[5.0]]]])
    gx = maxpool_backward(gy, x, 2)
    assert gx[0, 0, 0, 0] == 5.0
    assert np.sum(gx) == 5.0 and np.count_nonzero(gx) == 1


def naive_maxpool(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Pooled values plus, per window, the flat index into x of its first
    maximum in row-major order."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // p, w // p), dtype=x.dtype)
    where = np.zeros(out.shape, dtype=np.int64)
    for ni in range(n):
        for ci in range(c):
            for i in range(h // p):
                for j in range(w // p):
                    best = (i * p, j * p)
                    for di in range(p):
                        for dj in range(p):
                            if x[ni, ci, i * p + di, j * p + dj] > x[(ni, ci) + best]:
                                best = (i * p + di, j * p + dj)
                    out[ni, ci, i, j] = x[(ni, ci) + best]
                    where[ni, ci, i, j] = np.ravel_multi_index((ni, ci) + best, x.shape)
    return out, where


def naive_maxpool_backward(gy: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    _, where = naive_maxpool(x, p)
    gx = np.zeros_like(x)
    gx.reshape(-1)[where.reshape(-1)] = gy.reshape(-1)
    return gx


def test_maxpool_and_backward_match_first_max_oracle():
    rng = np.random.default_rng(7)
    grid = itertools.product((2, 3), ("relu", "quantized", "late_tie"))
    for case, (p, inputs) in enumerate(grid):
        h, w = (int(v) for v in rng.integers(p, 4 * p, size=2))
        x = rng.normal(size=(2, 3, h, w))
        if inputs == "relu":  # many all-zero windows after a ReLU
            x = np.maximum(x - 0.7, 0.0)
            x[:, :, :p, :p] = 0.0
        elif inputs == "quantized":
            x = np.round(x)
        else:  # two equal maxima at non-first offsets of every window
            for i in range(h // p):
                for j in range(w // p):
                    top = x[:, :, i * p:(i + 1) * p, j * p:(j + 1) * p].max() + 1.0
                    x[:, :, i * p, j * p + p - 1] = top
                    x[:, :, i * p + p - 1, j * p + 1] = top
        want, _ = naive_maxpool(x, p)
        assert np.array_equal(maxpool(x, p), want), case
        gy = rng.normal(size=want.shape)
        assert np.array_equal(maxpool_backward(gy, x, p), naive_maxpool_backward(gy, x, p)), case
        # the graph runs ReLU backward on the pooled gradient, masked by the
        # pooled output; it must give the bytes of the full-size order,
        # non-finite gradients included
        bad = gy.copy()
        bad.flat[::5] = np.nan
        bad.flat[1::7] = -np.inf
        for g in (gy, bad):
            with np.errstate(invalid="ignore"):  # inf * 0
                pooled_first = maxpool_backward(relu_backward(g, want), x, p)
                full_first = relu_backward(maxpool_backward(g, x, p), x)
            assert pooled_first.tobytes() == full_first.tobytes(), case


def test_maxpool_backward_finite_difference():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2, 6, 6))  # distinct values, ties improbable
    proj = rng.normal(size=(2, 2, 3, 3))
    loss = lambda: float(np.sum(maxpool(x, 2) * proj))
    gx = maxpool_backward(proj, x, 2)
    assert rel_err(gx, central_diff(loss, x)) <= 1e-4


def test_hot_kernels_keep_float32():
    rng = np.random.default_rng(8)
    for cin in (SHIFT_MIN_CIN - 1, SHIFT_MIN_CIN):  # im2col and shifted conv paths
        x = rng.normal(size=(2, cin, 7, 7)).astype(np.float32)
        w = rng.normal(size=(4, cin, 3, 3)).astype(np.float32)
        b = np.zeros(4, dtype=np.float32)
        y = conv2d(x, w, b, 1)
        outs = [y, *conv2d_backward(y, x, w, 1), maxpool(x, 2),
                maxpool_backward(maxpool(x, 2), x, 2)]
        assert [o.dtype for o in outs] == [np.float32] * len(outs), cin


def test_relu_and_backward():
    x = np.array([-2.0, -0.5, 0.5, 3.0])
    out = relu(x)
    assert out is x  # rectified in place
    assert out.tolist() == [0.0, 0.0, 0.5, 3.0]
    x = np.array([-2.0, -0.5, 0.5, 3.0])
    gy = np.ones_like(x)
    assert relu_backward(gy, x).tolist() == [0.0, 0.0, 1.0, 1.0]


def test_concat_and_backward_split():
    a = np.ones((2, 3, 4, 4))
    b = 2 * np.ones((2, 2, 4, 4))
    cat = concat_channels([a, b])
    assert cat.shape == (2, 5, 4, 4)
    ga, gb = concat_channels_backward(np.ones_like(cat), [3, 2])
    assert ga.shape == a.shape and gb.shape == b.shape


def test_global_avg_pool_and_backward():
    x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
    out = global_avg_pool(x)
    assert out.shape == (1, 2, 1, 1)
    assert out[0, 0, 0, 0] == pytest.approx(1.5)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 3, 4, 4))
    proj = rng.normal(size=(2, 3, 1, 1))
    loss = lambda: float(np.sum(global_avg_pool(x) * proj))
    gx = global_avg_pool_backward(proj, x.shape)
    assert rel_err(gx, central_diff(loss, x)) <= 1e-4


def test_dense_finite_difference():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(5, 4))
    b = rng.normal(size=4)
    proj = rng.normal(size=(3, 4))
    loss = lambda: float(np.sum(dense(x, w, b) * proj))
    gx, gw, gb = dense_backward(proj, x, w)
    assert rel_err(gx, central_diff(loss, x)) <= 1e-4
    assert rel_err(gw, central_diff(loss, w)) <= 1e-4
    assert rel_err(gb, central_diff(loss, b)) <= 1e-4


def test_uniform_logits_loss_is_ln_k():
    for k in (2, 5, 10, 100):
        logits = np.zeros((4, k))
        labels = np.arange(4) % k
        loss, _ = softmax_xent(logits, labels)
        assert abs(loss - math.log(k)) <= 1e-9


def test_softmax_xent_gradient_finite_difference():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 6))
    labels = rng.integers(0, 6, size=4)
    _, grad = softmax_xent(logits, labels)
    num = central_diff(lambda: softmax_xent(logits, labels)[0], logits)
    assert rel_err(grad, num) <= 1e-4
    # per-row gradient sums to zero (softmax shift invariance)
    assert np.max(np.abs(grad.sum(axis=1))) <= 1e-12


def test_softmax_xent_is_shift_invariant_and_overflow_safe():
    logits = np.array([[1000.0, 1001.0, 999.0]])
    labels = np.array([1])
    loss, grad = softmax_xent(logits, labels)
    small, sgrad = softmax_xent(logits - 1000.0, labels)
    assert loss == pytest.approx(small, rel=1e-12)
    assert np.allclose(grad, sgrad)
    assert np.isfinite(loss)


def test_softmax_xent_validates_inputs():
    with pytest.raises(LabelOutOfRange):
        softmax_xent(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ShapeMismatch):
        softmax_xent(np.zeros((2, 3)), np.array([0]))
    with pytest.raises(ShapeMismatch):
        softmax_xent(np.zeros(3), np.array([0]))


SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_kernel_signatures_match_perfbench_flop_table(monkeypatch):
    """perfbench/spans.py wraps each kernel named in KERNEL_FLOP and calls
    its FLOP lambda with the kernel's arguments, as `flop(*args, **kwargs)`,
    so a renamed kernel or any changed parameter (keyword-only ones and
    defaults included) breaks traced benchmark runs."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look the module up
    spec.loader.exec_module(spans)

    def params(fn):
        return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]

    for name, flop in spans.KERNEL_FLOP.items():
        kernel = getattr(kernels, name, None)
        assert callable(kernel), name
        assert params(kernel) == params(flop), name


def test_perfbench_wraps_existing_names():
    """`spans.instrument` wraps public functions of arch, bench, graph and
    the rest by name; a renamed or dropped one fails it.  It patches
    modules for good, so it runs in its own interpreter, with -B so
    perfbench/ gets no bytecode."""
    script = "\n".join([
        "import importlib.util, sys",
        f"spec = importlib.util.spec_from_file_location('perfbench_spans', {str(SPANS)!r})",
        "spans = importlib.util.module_from_spec(spec)",
        "sys.modules[spec.name] = spans",
        "spec.loader.exec_module(spans)",
        "spans.instrument(spans.Tracer(), layers=True)",
    ])
    src = str(Path(kernels.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-B", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
