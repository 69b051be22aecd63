"""Forward and backward kernels on plain numpy arrays.

Activations are (batch, channels, height, width) throughout; dense
layers work on (batch, features).  Every backward function takes the
upstream gradient plus the forward values it needs (a conv backward
rebuilds its input's columns; the pooled epilogue's backward reads the
pooled output and does not pool again).  All kernels preserve the input
dtype so the same code runs the float32 training path and the float64
gradient-check path.

Convolutions (stride 1) take one of two layouts, chosen by what the
conv reads; each public conv kernel runs one of them:

  * A conv that reads the batch runs on im2col (`conv2d_batch` and its
    backward `conv2d_batch_param_backward`).  `_patches` stacks every
    kxk window into (N, Cin*k*k, Ho*Wo) columns and a batched GEMM
    contracts them, one GEMM per example.  In plain order (p = 1) the
    columns are built and multiplied one block of examples at a time, at
    most COLS_BLOCK bytes of columns per block (`_col_blocks`), so the
    GEMM reads them from cache: for the sequential nets' 5x5 stem on a
    64x3x32x32 batch, whole-batch columns take 15 MB.  Each example's
    GEMM is the same call in any block, so the output does not depend on
    the block size, and the weight gradient carries its running sum from
    block to block, so the examples add up in batch order as in one
    block.  Pool-offset columns (below) stay one block: blocked, both
    kernels ran 0-7% slower on the circuit stems.  The datasets' batches
    have 1 or 3 channels, too few for shifted GEMMs on their large maps,
    and nothing reads the batch's gradient, so these convs compute none.
  * Every other conv, interior convs and merge projections, runs on
    shifted GEMMs (`conv2d` and `conv2d_backward`).  The input is padded
    once into a per-channel flat buffer (N, Cin, Hp*Wp + k-1) in which
    every tap of every output is a contiguous slice, so forward is a sum
    of k*k batched GEMMs on views, and the weight gradient takes one GEMM
    per tap against the same slices.  No kxk-times-larger buffer is
    built.

One body, `_conv`, computes both the forward pass and the input
gradient.  At stride 1 the input gradient of a conv with kernels w and
pad is the forward conv of gy with w flipped in both spatial axes and
its channel axes swapped, padded k-1-pad (the transposed-convolution
identity; Dumoulin & Visin 2016, "A guide to convolution arithmetic for
deep learning", arXiv:1603.07285).  A pad >= k, legal in an arch, would
need a negative pad: gy's outer pad-k+1 rows and columns reach no input
cell, so they are cropped and the conv runs at pad 0.  Public kernels
call private bodies, never each other, so a tracer that wraps them by
name sees each call once.

Pooling.  A pooled conv has one epilogue in either output layout, plain
or pool-offset order (below): `_windows` views its (N, C, p, p, Hq, Wq)
pool windows, `pool_relu` takes each window's maximum and then ReLU (max
and ReLU commute), and `pool_relu_backward` routes each gradient to its
window's first maximum by comparing the window with the pooled output.
`maxpool` and `maxpool_backward` pool without ReLU through the same
view; they are reference kernels, which no engine step calls.

Pool-offset order.  `_patches(x, k, pad, p)` can order its columns by
the offset (a, b) of each output inside its pxp pool window, as in
space-to-depth: `conv2d_batch` then writes (N, Cout, p*p, Hq, Wq), in
which slab a*p + b holds outputs (i*p + a, j*p + b), and rows and
columns that no window covers are not computed.  The gather is strided,
so building these columns costs more than the plain order (4.4 against
3.0 ms for a 5x5 conv of a 64x3x32x32 batch); it pays when the conv
output, whose windows the epilogue reads as contiguous slabs, is at
least as wide as the columns, Cout >= Cin*k*k (`pool_ordered`): the
80-channel stems of the circuit nets (80 >= 9 or 27), not the 8-channel
5x5 stems of the sequential nets (8 < 25 or 75), whose evaluation ran
5-10% slower in this order; in plain order the circuit nets trained
14-18% slower.  Only a conv that reads the batch takes this order, as it
runs on im2col and its input gradient is never needed:
`conv2d_batch_param_backward` returns the parameter gradients alone, in
either order.

Memory.  Every array that scales with the batch and that a kernel
allocates (outputs, padded copies, im2col columns, masks, GEMM
partials) comes from the private allocator `_empty`: from the
`Workspace` that a compiled graph makes active while it runs forward
or backward, else from `np.empty`.  A kernel's result is thus a
workspace buffer that the workspace lends again only once no array
views it.  Parameter-sized results (a weight or bias gradient, the
conv taps) stay plain arrays.  The buffers come from inside the kernels
rather than through an `out=` parameter, so every public kernel keeps
its signature and the graph keeps calling it by its name.
`pool_relu_backward` may write into its own input z (`out` is z): the
graph writes a pooled group's gradient over its pre-activation.
"""

from __future__ import annotations

import math
import weakref
from contextvars import ContextVar

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import LabelOutOfRange, ShapeMismatch


# Most bytes of plain-order im2col columns built and multiplied at once
# (see the module docstring).  For the 5x5 stem of a 64x3x32x32 float32
# batch, forward took 8.2 ms with whole-batch columns, 6.6 ms in 4 MiB
# blocks, 4.4 ms in 1 MiB blocks and 4.6 ms in 256 KiB blocks; the
# 1-channel 5x5 stem at 28x28, 1.6 ms whole and 1.3 ms in 1 MiB blocks.
COLS_BLOCK = 1 << 20


class Workspace:
    """The buffers of one compiled graph's forward and backward passes.

    `empty(shape, dtype)` lends an array over a buffer of exactly its byte
    size.  The array is a reshape of a 1-D `np.frombuffer` array over a
    memoryview of the buffer, and numpy points every view of it, views
    of views included, at that 1-D array, which stops at the memoryview.
    So the 1-D array dies only once no array views the buffer; a finalizer
    then puts the buffer back on its byte size's free list, and the next
    request of that size takes the most recently released buffer.  A
    buffer is lent again only after that, so an array that a caller still
    holds (logits, an activation view) keeps its bytes.  Nothing else
    frees a buffer: the workspace holds what it lent at most at once per
    size.  The finalizer holds the free list, not the workspace, so the
    workspace dies with its graph.  After the first step at a given batch
    shape every request finds a free buffer, so no step maps or faults in
    memory.

    `with workspace:` makes it the one that the kernels' private allocator
    `_empty` lends from; without one active, `_empty` is `np.empty`.  The
    kernels keep their signatures and the graph keeps calling them by
    their public names.
    """

    def __init__(self) -> None:
        self._free: dict[int, list[np.ndarray]] = {}  # nbytes -> released buffers
        self._tokens: list = []

    def empty(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        free = self._free.setdefault(count * dtype.itemsize, [])
        buf = free.pop() if free else _aligned(count * dtype.itemsize)
        lease = np.frombuffer(memoryview(buf), dtype, count)
        weakref.finalize(lease, free.append, buf)  # holds the free list, not the workspace
        return lease.reshape(shape)

    def __enter__(self) -> Workspace:
        self._tokens.append(_ACTIVE.set(self))
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.reset(self._tokens.pop())


_ACTIVE: ContextVar[Workspace | None] = ContextVar("workspace", default=None)


def _empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized array from the active workspace, else np.empty."""
    ws = _ACTIVE.get()
    return np.empty(shape, dtype) if ws is None else ws.empty(shape, dtype)


def _aligned(nbytes: int) -> np.ndarray:
    """A new uint8 buffer of nbytes that starts on a 64-byte cache line.
    malloc puts a large block 16 bytes past a page boundary, and numpy's
    vector loops over such arrays ran up to 30% slower (an in-place add of
    two 458 KB float32 arrays: 19.9 against 15.4 us)."""
    raw = np.empty(nbytes + 63, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes]


def _zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array from the active workspace, else np.zeros."""
    out = _empty(shape, dtype)
    out.fill(0)
    return out


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
    n, c, h, w = x.shape
    if pad:
        padded = _zeros((n, c, h + 2 * pad, w + 2 * pad), x.dtype)
        padded[:, :, pad:pad + h, pad:pad + w] = x
        x = padded
    sn, sc, sh, sw = x.strides
    windows = as_strided(x, (n, c, k, k, p, p, hq, wq),
                         (sn, sc, sh, sw, sh, sw, p * sh, p * sw), writeable=False)
    cols = _empty((n, c * k * k, p * p * hq * wq), x.dtype)
    np.copyto(cols.reshape(windows.shape), windows)  # the one copy
    return cols


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
    xf = _zeros((n, c, hp * wp + k - 1), x.dtype)
    xf[:, :, :hp * wp].reshape(n, c, hp, wp)[:, :, pad:pad + h, pad:pad + w] = x
    return xf, ho, wo, wp


def _conv_shapes(x: np.ndarray, w: np.ndarray) -> tuple[int, int, int, int]:
    """(N, Cin, Cout, k) of a conv of x with kernels w."""
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeMismatch(f"conv input {x.shape} vs kernel {w.shape}")
    return x.shape[0], x.shape[1], w.shape[0], w.shape[2]


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int) -> np.ndarray:
    """x (N,Cin,H,W) * w (Cout,Cin,k,k) + b (Cout,) -> (N,Cout,Ho,Wo), on
    shifted GEMMs."""
    return _conv(x, w, b, pad)


def _conv(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, pad: int) -> np.ndarray:
    """conv2d's body; no bias when b is None."""
    n, _, cout, k = _conv_shapes(x, w)
    xf, ho, wo, wp = _flat_padded(x, k, pad)
    span = ho * wp
    taps = w.transpose(2, 3, 0, 1).copy()  # (k, k, Cout, Cin)
    y = _empty((n, cout, span), np.result_type(x, w))
    part = _empty(y.shape, y.dtype) if k > 1 else None
    for t in range(k * k):
        di, dj = divmod(t, k)
        start = di * wp + dj
        np.matmul(taps[di, dj], xf[:, :, start:start + span], out=part if t else y)
        if t:
            y += part
    if b is not None:
        y += b[:, None]
    return y.reshape(n, cout, ho, wp)[:, :, :, :wo]


def conv2d_batch(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int, p: int
                 ) -> np.ndarray:
    """The conv of a batch, on im2col: (N, Cout, Ho, Wo) when p = 1, else
    in pool-offset order (N, Cout, p*p, Hq, Wq), where [:, :, a*p + b, i, j]
    is output (i*p + a, j*p + b)."""
    n, _, cout, k = _conv_shapes(x, w)
    blocks, hq, wq = _col_blocks(x, k, pad, p)
    y = _empty((n, cout, p * p * hq * wq), np.result_type(x, w))
    for sl in blocks:
        # one GEMM per example: W (Co, C*k*k) @ cols (C*k*k, p*p*Hq*Wq)
        np.matmul(w.reshape(cout, -1), _patches(x[sl], k, pad, p, hq, wq), out=y[sl])
    y += b[:, None]
    return y.reshape(n, cout, hq, wq) if p == 1 else y.reshape(n, cout, p * p, hq, wq)


def pool_ordered(w: np.ndarray, p: int) -> bool:
    """Whether a conv with kernels w that reads the batch and pools pxp
    runs in pool-offset order: an output at least as wide as its columns
    (see the module docstring)."""
    cout, cin, k, _ = w.shape
    return p > 1 and cout >= cin * k * k


def conv2d_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray, pad: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (gx, gw, gb) for conv2d, on shifted GEMMs; gx is a forward
    conv of gy (see the module docstring)."""
    n, _, cout, k = _conv_shapes(x, w)
    gb = gy.sum(axis=(0, 2, 3))
    ho, wo = gy.shape[2:]
    xf, _, _, wp = _flat_padded(x, k, pad)
    span = ho * wp
    if wo == wp:
        gf = gy.reshape(n, cout, span)
    else:  # zero junk columns keep them out of gw
        gf = _zeros((n, cout, ho, wp), gy.dtype)
        gf[:, :, :, :wo] = gy
        gf = gf.reshape(n, cout, span)
    gw = np.empty(w.shape, dtype=gy.dtype)
    part = _empty((n, cout, x.shape[1]), np.result_type(gy, x))
    for t in range(k * k):
        di, dj = divmod(t, k)
        start = di * wp + dj
        gw[:, :, di, dj] = np.matmul(
            gf, xf[:, :, start:start + span].transpose(0, 2, 1), out=part).sum(axis=0)
    del xf, gf, part  # before the input-gradient conv pads its own copy of gy
    crop = pad - k + 1  # gy's outer rows and columns that reach no input cell
    g = gy[:, :, crop:-crop, crop:-crop] if crop > 0 else gy
    return _conv(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), None, max(-crop, 0)), gw, gb


def conv2d_batch_param_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray,
                                pad: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(gw, gb) alone for conv2d_batch, whose input gradient nothing
    reads; gy is laid out as it wrote its output."""
    n, _, cout, k = _conv_shapes(x, w)
    gb = gy.sum(axis=(0, *range(2, gy.ndim)))
    blocks, hq, wq = _col_blocks(x, k, pad, p)
    g = gy.reshape(n, cout, p * p * hq * wq)
    gw = None
    for sl in blocks:
        part = np.matmul(g[sl], _patches(x[sl], k, pad, p, hq, wq).transpose(0, 2, 1),
                         out=_empty((sl.stop - sl.start, cout, w[0].size), np.result_type(gy, x)))
        if gw is not None:  # carried in, so the examples add up in batch order
            part[0] += gw
        gw = part.sum(axis=0)
    return gw.reshape(w.shape), gb


def _windows(z: np.ndarray, p: int) -> np.ndarray:
    """A (N, C, p, p, Hq, Wq) view of z's pxp pool windows, whose
    [:, :, a, b, i, j] is conv output (i*p + a, j*p + b).  z is a conv
    output in plain order (N, C, H, W), whose rows and columns past the
    last full window the view leaves out, or in pool-offset order
    (N, C, p*p, Hq, Wq)."""
    if z.ndim == 5:  # splitting one axis always gives a view
        return z.reshape(*z.shape[:2], p, p, *z.shape[3:])
    n, c, h, w = z.shape
    if h // p < 1 or w // p < 1:
        raise ShapeMismatch(f"pool {p} does not fit {h}x{w} input")
    sn, sc, sh, sw = z.strides
    return as_strided(z, (n, c, p, p, h // p, w // p), (sn, sc, sh, sw, p * sh, p * sw))


def _window_max(z: np.ndarray, p: int) -> np.ndarray:
    win = _windows(z, p)
    y = _empty(win[:, :, 0, 0].shape, z.dtype)
    np.copyto(y, win[:, :, 0, 0])
    for o in range(1, p * p):
        np.maximum(y, win[:, :, o // p, o % p], out=y)
    return y


def _route(g: np.ndarray, y: np.ndarray, z: np.ndarray, p: int, out: np.ndarray) -> None:
    """Writes g, the gradient of y = _window_max(z, p) or of its ReLU,
    into out (z's shape and layout) at each window's first cell, in
    row-major order, that equals y, so ties break identically on every
    run.  The window's other cells get g * 0 (NaN where g is not finite),
    and cells that no window covers get 0.  Each window offset of z is
    read before that offset of out is written, so out may be z."""
    zw, ow = _windows(z, p), _windows(out, p)
    taken = _zeros(y.shape, bool)
    hit = _empty(y.shape, bool)
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
    cell matches.  out may be z itself, which the gradient overwrites."""
    _route(_masked(gy, y), y, z, p, out)


def _masked(gy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """gy * (x > 0), with both arrays from the workspace."""
    mask = np.greater(x, 0, out=_empty(x.shape, bool))
    return np.multiply(gy, mask, out=_empty(gy.shape, gy.dtype))


def relu(x: np.ndarray) -> np.ndarray:
    """Rectifies x in place and returns it.  Callers pass a temporary
    they own (a fresh conv or dense output, or a view of one), so no
    second array is allocated."""
    return np.maximum(x, 0, out=x)


def relu_backward(gy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _masked(gy, x)


def concat_channels(parts: list[np.ndarray]) -> np.ndarray:
    hw = {p.shape[2:] for p in parts}
    if len(hw) != 1:
        raise ShapeMismatch(f"cannot concat differing spatial sizes {sorted(hw)}")
    n, _, h, w = parts[0].shape
    out = _empty((n, sum(p.shape[1] for p in parts), h, w), np.result_type(*parts))
    return np.concatenate(parts, axis=1, out=out)


def concat_channels_backward(gy: np.ndarray, channel_counts: list[int]) -> list[np.ndarray]:
    splits = np.cumsum(channel_counts)[:-1]
    return np.split(gy, splits, axis=1)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3), keepdims=True, out=_empty((*x.shape[:2], 1, 1), x.dtype))


def global_avg_pool_backward(gy: np.ndarray, x_shape: tuple) -> np.ndarray:
    n, c, h, w = x_shape
    gx = _empty(x_shape, gy.dtype)
    np.copyto(gx, gy / (h * w))
    return gx


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (N,F) @ w (F,O) + b (O,)."""
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeMismatch(f"dense input {x.shape} vs weight {w.shape}")
    y = np.matmul(x, w, out=_empty((x.shape[0], w.shape[1]), np.result_type(x, w, b)))
    y += b
    return y


def dense_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gx = np.matmul(gy, w.T, out=_empty((gy.shape[0], w.shape[0]), np.result_type(gy, w)))
    return gx, x.T @ gy, gy.sum(axis=0)


def softmax_xent(logits: np.ndarray, labels: np.ndarray
                 ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits.

    Softmax is computed with per-row max subtraction so large logits
    cannot overflow.
    """
    if logits.ndim != 2:
        raise ShapeMismatch(f"expected (batch, categories) logits, got {logits.shape}")
    n, k = logits.shape
    if not n:
        raise ShapeMismatch(f"logits shape {logits.shape} holds no examples")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeMismatch(f"labels {labels.shape} do not match batch of {n}")
    if labels.min() < 0 or labels.max() >= k:
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
