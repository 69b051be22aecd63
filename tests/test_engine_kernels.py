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
    conv2d_param_backward,
    conv2d_pool_ordered,
    dense,
    dense_backward,
    global_avg_pool,
    global_avg_pool_backward,
    maxpool,
    maxpool_backward,
    pool_ordered,
    pool_relu,
    pool_relu_backward,
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
    """gy at each window's first maximum; the window's other cells get
    gy * 0 (NaN where gy is not finite), cells no window covers get 0."""
    _, where = naive_maxpool(x, p)
    gx = np.zeros_like(x)
    n, c, hq, wq = gy.shape
    for ni in range(n):
        for ci in range(c):
            for i in range(hq):
                for j in range(wq):
                    gx[ni, ci, i * p:(i + 1) * p, j * p:(j + 1) * p] = gy[ni, ci, i, j] * 0
    gx.reshape(-1)[where.reshape(-1)] = gy.reshape(-1)
    return gx


def pool_inputs(rng: np.random.Generator, p: int, inputs: str) -> np.ndarray:
    """A (2, 3, H, W) batch with H, W in [p, 4p), so odd sizes leave rows
    and columns that no window covers: after a ReLU with many all-zero
    windows, quantized to integers, or with two equal maxima at
    non-first offsets of every window."""
    h, w = (int(v) for v in rng.integers(p, 4 * p, size=2))
    x = rng.normal(size=(2, 3, h, w))
    if inputs == "relu":
        x = np.maximum(x - 0.7, 0.0)
        x[:, :, :p, :p] = 0.0
    elif inputs == "quantized":
        x = np.round(x)
    else:  # "late_tie"
        for i in range(h // p):
            for j in range(w // p):
                top = x[:, :, i * p:(i + 1) * p, j * p:(j + 1) * p].max() + 1.0
                x[:, :, i * p, j * p + p - 1] = top
                x[:, :, i * p + p - 1, j * p + 1] = top
    return x


def with_non_finite(gy: np.ndarray) -> np.ndarray:
    bad = gy.copy()
    bad.flat[::5] = np.nan
    bad.flat[1::7] = -np.inf
    return bad


POOL_CASES = list(itertools.product((2, 3), ("relu", "quantized", "late_tie")))


def test_maxpool_and_backward_match_first_max_oracle():
    rng = np.random.default_rng(7)
    for case, (p, inputs) in enumerate(POOL_CASES):
        x = pool_inputs(rng, p, inputs)
        want, _ = naive_maxpool(x, p)
        assert np.array_equal(maxpool(x, p), want), case
        gy = rng.normal(size=want.shape)
        for g in (gy, with_non_finite(gy)):
            with np.errstate(invalid="ignore"):  # inf * 0
                got, oracle = maxpool_backward(g, x, p), naive_maxpool_backward(g, x, p)
                # pool_relu_backward runs ReLU backward on the pooled
                # gradient, masked by the pooled output; it must give the
                # bytes of the full-size order, non-finite gradients included
                pooled_first = maxpool_backward(relu_backward(g, want), x, p)
                full_first = relu_backward(maxpool_backward(g, x, p), x)
            assert got.tobytes() == oracle.tobytes(), case
            assert pooled_first.tobytes() == full_first.tobytes(), case


def to_pool_order(a: np.ndarray, p: int) -> np.ndarray:
    """(N, C, H, W) -> (N, C, p*p, H//p, W//p): slab a*p + b holds the
    cells (i*p + a, j*p + b); trailing rows and columns are dropped."""
    n, c, h, w = a.shape
    hq, wq = h // p, w // p
    return (a[:, :, :hq * p, :wq * p].reshape(n, c, hq, p, wq, p)
            .transpose(0, 1, 3, 5, 2, 4).reshape(n, c, p * p, hq, wq))


def from_pool_order(z: np.ndarray, h: int, w: int) -> np.ndarray:
    """The inverse of to_pool_order, with zeros in the dropped cells."""
    n, c, pp, hq, wq = z.shape
    p = math.isqrt(pp)
    out = np.zeros((n, c, h, w), dtype=z.dtype)
    out[:, :, :hq * p, :wq * p] = (z.reshape(n, c, p, p, hq, wq).transpose(0, 1, 4, 2, 5, 3)
                                   .reshape(n, c, hq * p, wq * p))
    return out


def test_pool_ordered_conv_forward_matches_conv_relu_maxpool():
    """The conv is the plain conv re-ordered, up to the order in which BLAS
    sums a column's dot product, which can depend on the column's place in
    the GEMM; given those values, the epilogue in either layout is
    bit-equal to the loop oracle of maxpool(relu(.))."""
    rng = np.random.default_rng(11)
    # odd sizes leave rows and columns that no window covers
    grid = itertools.product((2, 3), (1, 3), (3, 5), (0, 1), (np.float32, np.float64))
    for case, (p, cin, k, pad, dtype) in enumerate(grid):
        h, w = (int(v) for v in rng.integers(k + p, k + 4 * p, size=2))
        x = rng.normal(size=(2, cin, h, w)).astype(dtype)
        wt = rng.normal(size=(5, cin, k, k)).astype(dtype)
        b = rng.normal(size=5).astype(dtype)
        plain = conv2d(x, wt, b, pad)
        z = conv2d_pool_ordered(x, wt, b, pad, p)
        assert z.dtype == dtype, case
        tol = 1e-5 if dtype == np.float32 else 1e-12
        assert rel_err(z, to_pool_order(plain, p)) <= tol, case
        for got, a in ((pool_relu(z, p), relu(from_pool_order(z, *plain.shape[2:]))),
                       (pool_relu(plain, p), relu(plain.copy()))):
            want, _ = naive_maxpool(a, p)
            assert got.tobytes() == want.tobytes(), case


def test_pool_relu_backward_matches_relu_then_maxpool_backward():
    """The cases of the first-max oracle test, as conv pre-activations z
    in either layout: the gradient, un-permuted, has the bytes of the loop
    oracle of the plain epilogue (ReLU backward on the pooled gradient,
    then maxpool backward against relu(z)), non-finite upstream gradients
    included, and exact zeros in the cells no window covers."""
    rng = np.random.default_rng(7)
    for case, (p, inputs) in enumerate(POOL_CASES):
        z = pool_inputs(rng, p, inputs)
        a = relu(z.copy())
        pooled, _ = naive_maxpool(a, p)
        gy = rng.normal(size=pooled.shape)
        for layout in (z, to_pool_order(z, p)):
            y = pool_relu(layout, p)
            assert y.tobytes() == pooled.tobytes(), case
            for g in (gy, with_non_finite(gy)):
                out = np.full(layout.shape, np.nan)  # every cell must be written
                with np.errstate(invalid="ignore"):  # inf * 0
                    pool_relu_backward(g, y, layout, p, out)
                    want = naive_maxpool_backward(relu_backward(g, pooled), a, p)
                got = out if out.ndim == 4 else from_pool_order(out, *z.shape[2:])
                assert got.tobytes() == want.tobytes(), (case, layout.ndim)


def test_conv_param_backward_matches_naive_oracle():
    """Weight and bias gradients from either column order and either
    conv layout, with no input gradient."""
    rng = np.random.default_rng(12)
    grid = itertools.product((1, 2, 3), (1, 3, SHIFT_MIN_CIN), (3, 5), (0, 1))
    for case, (p, cin, k, pad) in enumerate(grid):
        if p > 1 and cin >= SHIFT_MIN_CIN:  # pool order is an im2col layout
            continue
        h, w = (int(v) for v in rng.integers(k + p, k + 4 * p, size=2))
        x = rng.normal(size=(2, cin, h, w))
        wt = rng.normal(size=(4, cin, k, k))
        ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
        gy = rng.normal(size=(2, 4, ho, wo))
        if p > 1:  # cells outside every pool window get no gradient
            gy = from_pool_order(to_pool_order(gy, p), ho, wo)
            got = conv2d_param_backward(to_pool_order(gy, p), x, wt, pad, p)
        else:
            got = conv2d_param_backward(gy, x, wt, pad, p)
        _, *want = naive_conv_backward(gy, x, wt, pad)
        for g, h_ in zip(got, want):
            assert g.shape == h_.shape, case
            assert np.max(np.abs(g - h_)) <= 1e-9 * max(1.0, np.max(np.abs(h_))), case


def test_pool_order_is_taken_by_wide_im2col_convs_only():
    stem = lambda cout, cin, k: np.zeros((cout, cin, k, k))
    assert pool_ordered(stem(80, 1, 3), 2) and pool_ordered(stem(80, 3, 3), 2)
    assert pool_ordered(stem(27, 3, 3), 2) and not pool_ordered(stem(26, 3, 3), 2)
    assert not pool_ordered(stem(8, 1, 5), 2) and not pool_ordered(stem(8, 3, 5), 2)
    assert not pool_ordered(stem(80, 1, 3), 1)  # nothing to pool
    assert not pool_ordered(stem(80, SHIFT_MIN_CIN, 3), 2)  # shifted-GEMM layout


def test_maxpool_backward_finite_difference():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2, 6, 6))  # distinct values, ties improbable
    proj = rng.normal(size=(2, 2, 3, 3))
    loss = lambda: float(np.sum(maxpool(x, 2) * proj))
    gx = maxpool_backward(proj, x, 2)
    assert rel_err(gx, central_diff(loss, x)) <= 1e-4


def test_im2col_blocks_match_one_block(monkeypatch):
    """Plain-order columns built in several blocks, the last one short,
    give the one-block result byte for byte: each example's GEMM is the
    same call in any block, and the weight gradient's running sum is
    carried from block to block.  Pool-offset columns stay one block."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(37, 3, 32, 32))
    w = rng.normal(size=(8, 3, 5, 5))
    b = rng.normal(size=8)
    gy = rng.normal(size=(37, 8, 28, 28))

    def run():
        return (conv2d(x, w, b, 0), *conv2d_backward(gy, x, w, 0),
                *conv2d_param_backward(gy, x, w, 0, 1))

    monkeypatch.setattr(kernels, "COLS_BLOCK", 1 << 40)
    assert kernels._col_blocks(x, 5, 0, 1)[0] == [slice(0, 37)]
    one = run()
    monkeypatch.setattr(kernels, "COLS_BLOCK", 5 * 3 * 25 * 28 * 28 * x.itemsize + 1)
    blocks, _, _ = kernels._col_blocks(x, 5, 0, 1)
    assert [sl.stop - sl.start for sl in blocks] == [5] * 7 + [2]
    assert kernels._col_blocks(x, 5, 0, 2)[0] == [slice(0, 37)]
    many = run()
    names = ("y", "gx", "gw", "gb", "param gw", "param gb")
    for name, a, c in zip(names, one, many):
        assert a.shape == c.shape and a.tobytes() == c.tobytes(), name
    monkeypatch.setattr(kernels, "COLS_BLOCK", 1)  # one example per block
    for n in (3, 0):  # an empty batch has one empty block and zero gradients
        got = (conv2d(x[:n], w, b, 0), *conv2d_backward(gy[:n], x[:n], w, 0))
        want = (naive_conv(x[:n], w, b, 0), *naive_conv_backward(gy[:n], x[:n], w, 0))
        for g, h_ in zip(got, want):
            assert g.shape == h_.shape, n
            scale = max(1.0, np.max(np.abs(h_), initial=0))
            assert np.max(np.abs(g - h_), initial=0) <= 1e-12 * scale, n


def test_hot_kernels_keep_float32(monkeypatch):
    rng = np.random.default_rng(8)
    # im2col in one block and in one block per example, and shifted GEMMs
    for cin, cols_block in ((SHIFT_MIN_CIN - 1, 1 << 20), (SHIFT_MIN_CIN - 1, 1),
                            (SHIFT_MIN_CIN, 1 << 20)):
        monkeypatch.setattr(kernels, "COLS_BLOCK", cols_block)
        x = rng.normal(size=(2, cin, 7, 7)).astype(np.float32)
        w = rng.normal(size=(4, cin, 3, 3)).astype(np.float32)
        b = np.zeros(4, dtype=np.float32)
        y = conv2d(x, w, b, 1)
        outs = [y, *conv2d_backward(y, x, w, 1), maxpool(x, 2),
                maxpool_backward(maxpool(x, 2), x, 2)]
        # the pooled epilogue and the parameter gradients, in plain order
        # and, on im2col, in pool-offset order
        layouts = [(y, 1)]
        if cin < SHIFT_MIN_CIN:
            layouts.append((conv2d_pool_ordered(x, w, b, 1, 2), 2))
        for z, order in layouts:
            pooled = pool_relu(z, 2)
            gz = np.empty_like(z)
            pool_relu_backward(pooled, pooled, z, 2, gz)
            outs += [z, pooled, gz, *conv2d_param_backward(gz, x, w, 1, order)]
        assert [o.dtype for o in outs] == [np.float32] * len(outs), (cin, cols_block)


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
