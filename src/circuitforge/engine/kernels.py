"""Forward and backward kernels on plain numpy arrays.

Activations are (batch, channels, height, width) throughout; dense
layers work on (batch, features).  Every backward function takes the
upstream gradient plus whatever the forward pass needs again, and
recomputes cheap intermediates instead of caching them.  All kernels
preserve the input dtype so the same code runs the float32 training
path and the float64 gradient-check path.

Convolutions (stride 1) take one of two layouts, chosen by the input
channel count alone:

  * Cin < SHIFT_MIN_CIN (the 1- and 3-channel stems): im2col.  `_patches`
    stacks every kxk window into (N, Cin*k*k, Ho*Wo) columns and one
    batched GEMM contracts them; backward adds the window gradients back
    (col2im).
  * Cin >= SHIFT_MIN_CIN: shifted GEMMs.  The input is padded once into a
    per-channel flat buffer (N, Cin, Hp*Wp + k-1) in which every tap of
    every output is a contiguous slice, so forward is a sum of k*k
    batched GEMMs on views and backward adds k*k GEMMs into the same
    layout.  No kxk-times-larger buffer is built.  With few channels
    those GEMMs are too thin for the large stem maps, which is why the
    stems stay on im2col.

Pool-offset order.  `_patches(x, k, pad, p)` can order its columns by
the offset (a, b) of each output inside its pxp pool window, as in
space-to-depth: `conv2d_pool_ordered` then writes (N, Cout, p*p, Hq, Wq),
in which slab a*p + b holds outputs (i*p + a, j*p + b), and rows and
columns that no window covers are not computed.  Max-pooling is then a
maximum over contiguous slabs (`pool_relu`), ReLU runs after it on the
pooled cells (max and ReLU commute), and `pool_relu_backward` routes each
gradient to its window's first maximum by comparing the slabs with the
pooled output.  The gather is strided, so building these columns costs
more than the plain order (4.4 against 3.0 ms for a 5x5 conv of a
64x3x32x32 batch); it pays when the conv output, which the epilogue
walks, is at least as wide as the columns, Cout >= Cin*k*k
(`pool_ordered`): the 80-channel stems of the circuit nets (80 >= 9 or
27), not the 8-channel 5x5 stems of the sequential nets (8 < 25 or 75),
whose evaluation ran 5-10% slower in this order.
Only a conv that reads the batch takes this order, as its input gradient
is never needed: `conv2d_param_backward` returns the parameter
gradients alone, in either order and either layout.
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


def _patches(x: np.ndarray, k: int, pad: int, p: int) -> tuple[np.ndarray, int, int]:
    """The im2col columns of x, (N, C*k*k, p*p*Hq*Wq), with (Hq, Wq).

    Column (a*p + b)*Hq*Wq + i*Wq + j holds the kxk window of output
    (i*p + a, j*p + b), so p = 1 is plain row-major order with
    (Hq, Wq) = (Ho, Wo).  Stride is fixed at 1."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c, h, w = x.shape
    ho, wo = h - k + 1, w - k + 1
    if ho < 1 or wo < 1:
        raise ShapeMismatch(f"{k}x{k} kernel does not fit {h}x{w} input")
    hq, wq = ho // p, wo // p
    if hq < 1 or wq < 1:
        raise ShapeMismatch(f"pool {p} does not fit {ho}x{wo} conv output")
    sn, sc, sh, sw = x.strides
    windows = as_strided(x, (n, c, k, k, p, p, hq, wq),
                         (sn, sc, sh, sw, sh, sw, p * sh, p * sw), writeable=False)
    return windows.reshape(n, c * k * k, p * p * hq * wq), hq, wq  # the one copy


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
    cols, hq, wq = _patches(x, k, pad, p)
    # one GEMM per example: W (Co, C*k*k) @ cols (C*k*k, p*p*Hq*Wq)
    y = np.matmul(w.reshape(cout, -1), cols)
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
        cols, ho, wo = _patches(x, k, pad, p)
        g = gy.reshape(n, cout, -1)
        gw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        if input_grad:
            # spread each output gradient back over its kxk window
            gcols = np.matmul(w.reshape(cout, -1).T, g).reshape(n, cin, k, k, ho, wo)
            gxp = np.zeros((n, cin, h + 2 * pad, wdt + 2 * pad), dtype=gy.dtype)
            for di in range(k):
                for dj in range(k):
                    gxp[:, :, di:di + ho, dj:dj + wo] += gcols[:, :, di, dj]
            gx = gxp[:, :, pad:pad + h, pad:pad + wdt] if pad else gxp
        return gx, gw, gb
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


def _pool_offsets(x: np.ndarray, p: int):
    """Yield the strided (N, C, Ho, Wo) view of each window offset, in
    row-major order within the pxp window."""
    ho, wo = x.shape[2] // p, x.shape[3] // p
    for di in range(p):
        for dj in range(p):
            yield x[:, :, di:ho * p:p, dj:wo * p:p]


def maxpool(x: np.ndarray, p: int) -> np.ndarray:
    """Non-overlapping pxp max pooling; trailing rows/cols that do not
    fill a window are dropped (floor semantics)."""
    h, w = x.shape[2:]
    if h // p < 1 or w // p < 1:
        raise ShapeMismatch(f"pool {p} does not fit {h}x{w} input")
    views = _pool_offsets(x, p)
    out = next(views).copy()
    for v in views:
        np.maximum(out, v, out=out)
    return out


def maxpool_backward(gy: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """Routes each gradient to the first maximum of its window in
    row-major order, so ties break identically on every run.  The other
    cells get gy * 0, which is NaN where gy is not finite."""
    m = maxpool(x, p)
    gx = np.zeros_like(x)
    taken = np.zeros(m.shape, dtype=bool)
    for xv, gv in zip(_pool_offsets(x, p), _pool_offsets(gx, p)):
        hit = xv == m
        hit &= ~taken
        # a multiply into the strided view runs ~2.5x faster than copyto(where=)
        np.multiply(gy, hit, out=gv)
        taken |= hit
    return gx


def pool_relu(z: np.ndarray) -> np.ndarray:
    """relu(maxpool) of a conv2d_pool_ordered output (N, C, p*p, Hq, Wq):
    the maximum over its offset slabs, in maxpool's window order, then ReLU
    on the pooled cells -> (N, C, Hq, Wq)."""
    y = z[:, :, 0].copy()
    for o in range(1, z.shape[2]):
        np.maximum(y, z[:, :, o], out=y)
    return np.maximum(y, 0, out=y)


def pool_relu_backward(gy: np.ndarray, y: np.ndarray, z: np.ndarray, out: np.ndarray) -> None:
    """Writes the gradient of pool_relu's input z into out, z's shape,
    given y = pool_relu(z).  Where y > 0, gy goes to the first slab that
    equals y in its window, as maxpool_backward routes it; every other
    cell gets gy * 0 (NaN where gy is not finite).  Where y is 0, every
    cell of the window gets gy * 0, whichever slab matches."""
    g = gy * (y > 0)
    taken = np.zeros(y.shape, dtype=bool)
    hit = np.empty(y.shape, dtype=bool)
    for o in range(z.shape[2]):
        np.equal(z[:, :, o], y, out=hit)
        np.greater(hit, taken, out=hit)  # a hit in a window not yet taken
        np.multiply(g, hit, out=out[:, :, o])
        taken |= hit


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
