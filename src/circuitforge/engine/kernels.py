"""Forward and backward kernels on plain numpy arrays.

Activations are (batch, channels, height, width) throughout; dense
layers work on (batch, features).  Every backward function takes the
upstream gradient plus the forward values it needs (a conv backward
rebuilds its input's columns; the pooled epilogue's backward reads the
pooled output and does not pool again).  All kernels preserve the input
dtype so the same code runs the float32 training path and the float64
gradient-check path.

Convolutions (stride 1) take one of two layouts, chosen by the input
channel count alone:

  * Cin < SHIFT_MIN_CIN (the stems, which read the 1- or 3-channel
    batch): im2col.  `_patches` stacks every kxk window into
    (N, Cin*k*k, Ho*Wo) columns and a batched GEMM contracts them, one
    GEMM per example; backward adds the window gradients back (col2im).
    In plain order the columns are built and multiplied one block of
    examples at a time, at most COLS_BLOCK bytes of columns per block
    (`_col_blocks`), so the GEMM reads them from cache: for the
    sequential nets' 5x5 stem on a 64x3x32x32 batch, whole-batch columns
    take 15 MB.  Each example's GEMM is the same call in any block, so
    the output and the input gradient do not depend on the block size,
    and the weight gradient carries its running sum from block to block,
    so the examples add up in batch order as in one block.  Pool-offset
    columns (below) stay one block: blocked, both `conv2d_pool_ordered`
    and its `conv2d_param_backward` ran 0-7% slower on the circuit stems.
  * Cin >= SHIFT_MIN_CIN: shifted GEMMs.  The input is padded once into a
    per-channel flat buffer (N, Cin, Hp*Wp + k-1) in which every tap of
    every output is a contiguous slice, so forward is a sum of k*k
    batched GEMMs on views and backward adds k*k GEMMs into the same
    layout.  No kxk-times-larger buffer is built.  With few channels
    those GEMMs are too thin for the large stem maps, which is why the
    stems stay on im2col.

Pooling.  A pooled conv has one epilogue in either output layout, plain
or pool-offset order (below): `_windows` views its (N, C, p, p, Hq, Wq)
pool windows, `pool_relu` takes each window's maximum and then ReLU (max
and ReLU commute), and `pool_relu_backward` routes each gradient to its
window's first maximum by comparing the window with the pooled output.
`maxpool` and `maxpool_backward` pool without ReLU through the same
view; they are reference kernels, which no engine step calls.

Pool-offset order.  `_patches(x, k, pad, p)` can order its columns by
the offset (a, b) of each output inside its pxp pool window, as in
space-to-depth: `conv2d_pool_ordered` then writes (N, Cout, p*p, Hq, Wq),
in which slab a*p + b holds outputs (i*p + a, j*p + b), and rows and
columns that no window covers are not computed.  The gather is strided,
so building these columns costs more than the plain order (4.4 against
3.0 ms for a 5x5 conv of a 64x3x32x32 batch); it pays when the conv
output, whose windows the epilogue reads as contiguous slabs, is at
least as wide as the columns, Cout >= Cin*k*k (`pool_ordered`): the
80-channel stems of the circuit nets (80 >= 9 or 27), not the 8-channel
5x5 stems of the sequential nets (8 < 25 or 75), whose evaluation ran
5-10% slower in this order.  Only a conv that reads the batch takes this
order, as its input gradient is never needed: `conv2d_param_backward`
returns the parameter gradients alone, in either order and either layout.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import LabelOutOfRange, ShapeMismatch


# Smallest input channel count that takes the shifted-GEMM path.  For a
# 3x3 pad-1 conv at batch 64, forward + backward is faster shifted from
# Cin 3 at 28x28 (a tie at 32x32) and from Cin 2 at 14x14, but forward
# alone, all that evaluation runs, stays faster on im2col up to Cin 4 on
# the large maps.  4 keeps the 1- and 3-channel stems on im2col.
SHIFT_MIN_CIN = 4

# Most bytes of plain-order im2col columns built and multiplied at once
# (see the module docstring).  For the 5x5 stem of a 64x3x32x32 float32
# batch, forward took 8.2 ms with whole-batch columns, 6.6 ms in 4 MiB
# blocks, 4.4 ms in 1 MiB blocks and 4.6 ms in 256 KiB blocks; the
# 1-channel 5x5 stem at 28x28, 1.6 ms whole and 1.3 ms in 1 MiB blocks.
COLS_BLOCK = 1 << 20


def _col_blocks(x: np.ndarray, k: int, pad: int, p: int
                ) -> tuple[list[slice], int, int]:
    """The blocks of x's examples whose im2col columns are built at once,
    with (Hq, Wq): in plain order (p = 1) as many examples as fit in
    COLS_BLOCK bytes of columns, at least one; in pool-offset order the
    whole batch.  Stride is fixed at 1."""
    n, c, h, w = x.shape
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatch(f"{k}x{k} kernel does not fit {h + 2 * pad}x{w + 2 * pad} input")
    hq, wq = ho // p, wo // p
    if hq < 1 or wq < 1:
        raise ShapeMismatch(f"pool {p} does not fit {ho}x{wo} conv output")
    step = max(1, n if p > 1 else COLS_BLOCK // max(x.itemsize * c * k * k * ho * wo, 1))
    return [slice(lo, min(lo + step, n)) for lo in range(0, max(n, 1), step)], hq, wq


def _patches(x: np.ndarray, k: int, pad: int, p: int, hq: int, wq: int) -> np.ndarray:
    """The im2col columns of x, (N, C*k*k, p*p*Hq*Wq), with (Hq, Wq) from
    `_col_blocks`.

    Column (a*p + b)*Hq*Wq + i*Wq + j holds the kxk window of output
    (i*p + a, j*p + b), so p = 1 is plain row-major order with
    (Hq, Wq) = (Ho, Wo)."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c = x.shape[:2]
    sn, sc, sh, sw = x.strides
    windows = as_strided(x, (n, c, k, k, p, p, hq, wq),
                         (sn, sc, sh, sw, sh, sw, p * sh, p * sw), writeable=False)
    return windows.reshape(n, c * k * k, p * p * hq * wq)  # the one copy


def _flat_padded(x: np.ndarray, k: int, pad: int) -> tuple[np.ndarray, int, int, int]:
    """Pad x once into (N, C, Hp*Wp + k-1) and return it with (Ho, Wo, Wp).

    Output (i, j) sits at flat i*Wp + j, and tap (di, dj) of every output
    is the contiguous slice starting at di*Wp + dj.  Each output row thus
    spans Wp columns, of which the last k-1 are junk."""
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho, wo = hp - k + 1, wp - k + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatch(f"{k}x{k} kernel does not fit {hp}x{wp} input")
    if k == 1 and not pad:  # already in the flat layout
        return x.reshape(n, c, h * w), ho, wo, wp
    xf = np.zeros((n, c, hp * wp + k - 1), dtype=x.dtype)
    xf[:, :, :hp * wp].reshape(n, c, hp, wp)[:, :, pad:pad + h, pad:pad + w] = x
    return xf, ho, wo, wp


def _conv_shapes(x: np.ndarray, w: np.ndarray) -> tuple[int, int, int, int]:
    """(N, Cin, Cout, k) of a conv of x with kernels w."""
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeMismatch(f"conv input {x.shape} vs kernel {w.shape}")
    return x.shape[0], x.shape[1], w.shape[0], w.shape[2]


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int) -> np.ndarray:
    """x (N,Cin,H,W) * w (Cout,Cin,k,k) + b (Cout,) -> (N,Cout,Ho,Wo)."""
    n, cin, cout, k = _conv_shapes(x, w)
    if cin < SHIFT_MIN_CIN:
        return _im2col_conv(x, w, b, pad, 1)[:, :, 0]
    xf, ho, wo, wp = _flat_padded(x, k, pad)
    span = ho * wp
    taps = w.transpose(2, 3, 0, 1).copy()  # (k, k, Cout, Cin)
    y = np.empty((n, cout, span), dtype=np.result_type(x, w))
    part = np.empty_like(y)
    for t in range(k * k):
        di, dj = divmod(t, k)
        start = di * wp + dj
        np.matmul(taps[di, dj], xf[:, :, start:start + span], out=part if t else y)
        if t:
            y += part
    y += b[:, None]
    return y.reshape(n, cout, ho, wp)[:, :, :, :wo]


def conv2d_pool_ordered(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int, p: int
                        ) -> np.ndarray:
    """conv2d on the im2col path with its output in pool-offset order:
    (N, Cout, p*p, Hq, Wq), where [:, :, a*p + b, i, j] is output
    (i*p + a, j*p + b)."""
    _conv_shapes(x, w)
    return _im2col_conv(x, w, b, pad, p)


def _im2col_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int, p: int
                 ) -> np.ndarray:
    n, cout, k = x.shape[0], w.shape[0], w.shape[2]
    blocks, hq, wq = _col_blocks(x, k, pad, p)
    y = np.empty((n, cout, p * p * hq * wq), dtype=np.result_type(x, w))
    for sl in blocks:
        # one GEMM per example: W (Co, C*k*k) @ cols (C*k*k, p*p*Hq*Wq)
        np.matmul(w.reshape(cout, -1), _patches(x[sl], k, pad, p, hq, wq), out=y[sl])
    y += b[:, None]
    return y.reshape(n, cout, p * p, hq, wq)


def pool_ordered(w: np.ndarray, p: int) -> bool:
    """Whether a conv with kernels w that reads the batch and pools pxp
    runs in pool-offset order: im2col, and an output at least as wide as
    its columns (see the module docstring)."""
    cout, cin, k, _ = w.shape
    return p > 1 and cin < SHIFT_MIN_CIN and cout >= cin * k * k


def conv2d_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray, pad: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (gx, gw, gb) for conv2d, on the same path conv2d takes."""
    return _conv_backward(gy, x, w, pad, 1, True)


def conv2d_param_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray, pad: int, p: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """(gw, gb) alone, for a conv whose input gradient nothing reads; gy is
    laid out as conv2d (p = 1) or conv2d_pool_ordered (p > 1) wrote it."""
    return _conv_backward(gy, x, w, pad, p, False)[1:]


def _conv_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray, pad: int, p: int,
                   input_grad: bool) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """(gx, gw, gb), with gx None unless input_grad; p > 1 only on im2col
    and without input_grad."""
    n, cin, cout, k = _conv_shapes(x, w)
    h, wdt = x.shape[2:]
    gb = gy.sum(axis=(0, *range(2, gy.ndim)))
    gx = None
    if cin < SHIFT_MIN_CIN:
        blocks, ho, wo = _col_blocks(x, k, pad, p)
        g = gy.reshape(n, cout, p * p * ho * wo)
        if input_grad:
            gxp = np.zeros((n, cin, h + 2 * pad, wdt + 2 * pad), dtype=gy.dtype)
        gw = None
        for sl in blocks:
            part = np.matmul(g[sl], _patches(x[sl], k, pad, p, ho, wo).transpose(0, 2, 1))
            if gw is not None:  # carried in, so the examples add up in batch order
                part[0] += gw
            gw = part.sum(axis=0)
            if input_grad:
                # spread each output gradient back over its kxk window
                gcols = np.matmul(w.reshape(cout, -1).T, g[sl]).reshape(-1, cin, k, k, ho, wo)
                gxb = gxp[sl]
                for di in range(k):
                    for dj in range(k):
                        gxb[:, :, di:di + ho, dj:dj + wo] += gcols[:, :, di, dj]
        if input_grad:
            gx = gxp[:, :, pad:pad + h, pad:pad + wdt] if pad else gxp
        return gx, gw.reshape(w.shape), gb
    ho, wo = gy.shape[2:]
    xf, _, _, wp = _flat_padded(x, k, pad)
    span = ho * wp
    if wo == wp:
        gf = gy.reshape(n, cout, span)
    else:  # zero junk columns keep them out of gw and gx
        gf = np.zeros((n, cout, ho, wp), dtype=gy.dtype)
        gf[:, :, :, :wo] = gy
        gf = gf.reshape(n, cout, span)
    gw = np.empty(w.shape, dtype=gy.dtype)
    if input_grad:
        taps_t = w.transpose(2, 3, 1, 0).copy()  # (k, k, Cin, Cout)
        # tap (0, 0) writes gxf's first span cells; only the cells past it need zeros
        gxf = np.empty(xf.shape, dtype=gy.dtype)
        gxf[:, :, span:] = 0
        part = np.empty((n, cin, span), dtype=gy.dtype)
    for t in range(k * k):
        di, dj = divmod(t, k)
        start = di * wp + dj
        gw[:, :, di, dj] = np.matmul(
            gf, xf[:, :, start:start + span].transpose(0, 2, 1)).sum(axis=0)
        if input_grad:
            np.matmul(taps_t[di, dj], gf, out=part if t else gxf[:, :, :span])
            if t:
                gxf[:, :, start:start + span] += part
    if input_grad:
        hp = h + 2 * pad
        gx = gxf[:, :, :hp * wp].reshape(n, cin, hp, wp)[:, :, pad:pad + h, pad:pad + wdt]
    return gx, gw, gb


def _windows(z: np.ndarray, p: int) -> np.ndarray:
    """A (N, C, p, p, Hq, Wq) view of z's pxp pool windows, whose
    [:, :, a, b, i, j] is conv output (i*p + a, j*p + b).  z is a conv2d
    output (N, C, H, W), whose rows and columns past the last full window
    the view leaves out, or a conv2d_pool_ordered one (N, C, p*p, Hq, Wq)."""
    if z.ndim == 5:  # splitting one axis always gives a view
        return z.reshape(*z.shape[:2], p, p, *z.shape[3:])
    n, c, h, w = z.shape
    if h // p < 1 or w // p < 1:
        raise ShapeMismatch(f"pool {p} does not fit {h}x{w} input")
    sn, sc, sh, sw = z.strides
    return as_strided(z, (n, c, p, p, h // p, w // p), (sn, sc, sh, sw, p * sh, p * sw))


def _window_max(z: np.ndarray, p: int) -> np.ndarray:
    win = _windows(z, p)
    y = win[:, :, 0, 0].copy()
    for o in range(1, p * p):
        np.maximum(y, win[:, :, o // p, o % p], out=y)
    return y


def _route(g: np.ndarray, y: np.ndarray, z: np.ndarray, p: int, out: np.ndarray) -> None:
    """Writes g, the gradient of y = _window_max(z, p) or of its ReLU,
    into out (z's shape and layout) at each window's first cell, in
    row-major order, that equals y, so ties break identically on every
    run.  The window's other cells get g * 0 (NaN where g is not finite),
    and cells that no window covers get 0."""
    zw, ow = _windows(z, p), _windows(out, p)
    taken = np.zeros(y.shape, dtype=bool)
    hit = np.empty(y.shape, dtype=bool)
    for o in range(p * p):
        np.equal(zw[:, :, o // p, o % p], y, out=hit)
        np.greater(hit, taken, out=hit)  # a hit in a window not yet taken
        # a multiply into the strided view runs ~2.5x faster than copyto(where=)
        np.multiply(g, hit, out=ow[:, :, o // p, o % p])
        taken |= hit
    if out.ndim == 4:
        out[:, :, y.shape[2] * p:] = 0
        out[:, :, :, y.shape[3] * p:] = 0


def maxpool(x: np.ndarray, p: int) -> np.ndarray:
    """Non-overlapping pxp max pooling; trailing rows/cols that do not
    fill a window are dropped (floor semantics)."""
    return _window_max(x, p)


def maxpool_backward(gy: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """Routes each gradient to the first maximum of its window in
    row-major order; the other cells get gy * 0 (see `_route`)."""
    gx = np.empty_like(x)
    _route(gy, _window_max(x, p), x, p, gx)
    return gx


def pool_relu(z: np.ndarray, p: int) -> np.ndarray:
    """relu(maxpool) of a conv output z in either layout -> (N, C, Hq, Wq)."""
    y = _window_max(z, p)
    return np.maximum(y, 0, out=y)


def pool_relu_backward(gy: np.ndarray, y: np.ndarray, z: np.ndarray, p: int,
                       out: np.ndarray) -> None:
    """Writes the gradient of pool_relu's input z into out, z's shape and
    layout, given y = pool_relu(z, p): gy * (y > 0) routed as `_route`
    does.  A window whose y is 0 gets gy * 0 in every cell, whichever
    cell matches."""
    _route(gy * (y > 0), y, z, p, out)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectifies x in place and returns it.  Callers pass a temporary
    they own (a fresh conv or dense output, or a view of one), so no
    second array is allocated."""
    return np.maximum(x, 0, out=x)


def relu_backward(gy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return gy * (x > 0)


def concat_channels(parts: list[np.ndarray]) -> np.ndarray:
    hw = {p.shape[2:] for p in parts}
    if len(hw) != 1:
        raise ShapeMismatch(f"cannot concat differing spatial sizes {sorted(hw)}")
    return np.concatenate(parts, axis=1)


def concat_channels_backward(gy: np.ndarray, channel_counts: list[int]) -> list[np.ndarray]:
    splits = np.cumsum(channel_counts)[:-1]
    return np.split(gy, splits, axis=1)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3), keepdims=True)


def global_avg_pool_backward(gy: np.ndarray, x_shape: tuple) -> np.ndarray:
    n, c, h, w = x_shape
    return np.broadcast_to(gy / (h * w), x_shape).astype(gy.dtype, copy=False).copy()


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (N,F) @ w (F,O) + b (O,)."""
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"dense input {x.shape} vs weight {w.shape}")
    return x @ w + b


def dense_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return gy @ w.T, x.T @ gy, gy.sum(axis=0)


def softmax_xent(logits: np.ndarray, labels: np.ndarray
                 ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits.

    Softmax is computed with per-row max subtraction so large logits
    cannot overflow.
    """
    if logits.ndim != 2:
        raise ShapeMismatch(f"expected (batch, categories) logits, got {logits.shape}")
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels {labels.shape} do not match batch of {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        bad = int(labels[(labels < 0) | (labels >= k)][0])
        raise LabelOutOfRange(f"label {bad} outside [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, np.finfo(logits.dtype).tiny)).mean())
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n
