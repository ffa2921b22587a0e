"""Neural-network functional primitives with custom autograd kernels.

Convolution and pooling use explicit im2col/col2im kernels with
hand-written backward passes (much faster than composing elementwise
autograd ops, and numerically identical).

Layout convention: NCHW, matching the paper's hardware mapping where a
kernel's rows are streamed into the PE row-by-row.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor, _unbroadcast


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


# Sliding-window gather plans keyed by (C, H, W, K, stride, padding).
# A plan is the flat tap-index array into one padded sample plus the
# output spatial size; networks reuse a handful of shapes thousands of
# times (every timestep of every layer), so the index arithmetic is
# paid once per shape instead of once per call.  Bounded LRU so
# pathological shape churn (e.g. a DSE sweep) cannot grow it unboundedly
# while the hot working set survives; plans are immutable, so one lock
# around the OrderedDict bookkeeping makes lookups safe under the
# engines' block lanes, which run on threads.
_PLAN_CACHE: "OrderedDict[Tuple[int, int, int, int, int, int], Tuple[np.ndarray, int, int]]" = OrderedDict()
_PLAN_CACHE_CAPACITY = 64
_PLAN_CACHE_LOCK = threading.Lock()


def _im2col_plan(
    c: int, h: int, w: int, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Cached flat gather indices mapping a padded (C, HP, WP) sample to
    its im2col rows, with the output spatial size."""
    key = (c, h, w, kernel, stride, padding)
    with _PLAN_CACHE_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE.move_to_end(key)
            return plan
    oh = _conv_output_size(h, kernel, stride, padding)
    ow = _conv_output_size(w, kernel, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    # Offsets of the C*K*K taps of one window into the flat sample.
    taps = (
        np.arange(c)[:, None, None] * (hp * wp)
        + np.arange(kernel)[None, :, None] * wp
        + np.arange(kernel)[None, None, :]
    ).reshape(-1)
    # Top-left corner of each of the OH*OW windows.
    starts = (
        np.arange(oh)[:, None] * (stride * wp) + np.arange(ow)[None, :] * stride
    ).reshape(-1)
    indices = (starts[:, None] + taps[None, :]).astype(np.intp).reshape(-1)
    plan = (indices, oh, ow)
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE[key] = plan
        _PLAN_CACHE.move_to_end(key)
        while len(_PLAN_CACHE) > _PLAN_CACHE_CAPACITY:
            _PLAN_CACHE.popitem(last=False)
    return plan


# Reusable zero-padded workspaces keyed by the full call signature
# (N, C, H, W, padding, dtype) so a buffer is only ever reused by calls
# that overwrite exactly the same interior — the border is written once
# (zeros) and stays zero for the buffer's lifetime.  np.pad would
# re-allocate, re-zero and walk its per-axis edge machinery on every
# unfold.  Callers never see the buffer: im2col's gather copies out of
# it immediately.  The cache is *per thread* (threading.local): two
# lane threads unfolding the same layer shape concurrently must not
# scribble over one shared workspace.  Each thread's dict is a bounded
# LRU, and large arrays skip the cache entirely (the per-call overhead
# is amortised there and pinning multi-hundred-MB activations at module
# scope is not).
class _PadWorkspaces(threading.local):
    def __init__(self) -> None:
        self.buffers: "OrderedDict[tuple, np.ndarray]" = OrderedDict()


_PAD_CACHE = _PadWorkspaces()
_PAD_CACHE_CAPACITY = 16
_PAD_CACHE_MAX_BYTES = 16 * 1024 * 1024


def _padded_workspace(x: np.ndarray, padding: int) -> np.ndarray:
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if n * c * hp * wp * x.dtype.itemsize > _PAD_CACHE_MAX_BYTES:
        return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    key = (n, c, h, w, padding, x.dtype.str)
    buffers = _PAD_CACHE.buffers
    buf = buffers.get(key)
    if buf is None:
        buf = np.zeros((n, c, hp, wp), dtype=x.dtype)
        buffers[key] = buf
    buffers.move_to_end(key)
    while len(buffers) > _PAD_CACHE_CAPACITY:
        buffers.popitem(last=False)
    buf[:, :, padding:-padding, padding:-padding] = x
    return buf


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold ``x`` (N, C, H, W) into columns (N*OH*OW, C*K*K).

    Returns the column matrix together with the output spatial size.
    The gather runs off a cached index plan (one per distinct
    (shape, kernel, stride, padding)) and produces a fresh contiguous
    matrix directly — ready for GEMM with no extra copy.
    """
    n, c, h, w = x.shape
    indices, oh, ow = _im2col_plan(c, h, w, kernel, stride, padding)
    if padding > 0:
        x = _padded_workspace(x, padding)
    flat = x.reshape(n, -1)
    cols = np.take(flat, indices, axis=1).reshape(n * oh * ow, c * kernel * kernel)
    return cols, oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back onto an image, accumulating overlaps (im2col adjoint)."""
    n, c, h, w = x_shape
    oh = _conv_output_size(h, kernel, stride, padding)
    ow = _conv_output_size(w, kernel, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    for ki in range(kernel):
        h_stop = ki + stride * oh
        for kj in range(kernel):
            w_stop = kj + stride * ow
            x_padded[:, :, ki:h_stop:stride, kj:w_stop:stride] += cols6[:, :, ki, kj]
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation), NCHW.

    ``weight`` has shape (C_out, C_in, K, K). Supports autograd w.r.t.
    ``x``, ``weight`` and ``bias``.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"channel mismatch: input {c_in} vs weight {c_in_w}")
    if kh != kw:
        raise ValueError("only square kernels are supported")
    kernel = kh

    cols, oh, ow = im2col(x.data, kernel, stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    out = cols @ w_mat.T  # (N*OH*OW, C_out)
    if bias is not None:
        out = out + bias.data
    out_data = out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        if weight.requires_grad:
            gw = (g_mat.T @ cols).reshape(weight.shape)
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_mat.sum(axis=0))
        if x.requires_grad:
            g_cols = g_mat @ w_mat
            gx = col2im(g_cols, x.shape, kernel, stride, padding)
            x._accumulate(gx)

    return Tensor._make(out_data, parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``; weight shape (out, in)."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def _tap_views(data: np.ndarray, kernel: int) -> list:
    """The k*k strided tap views of a (N, C, H, W) array tiled by ``kernel``."""
    return [
        data[:, :, i::kernel, j::kernel]
        for i in range(kernel)
        for j in range(kernel)
    ]


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows.

    The tiled no-grad case (stride == kernel, spatial dims divisible —
    i.e. every inference/SNN-engine call) reduces k*k strided views
    with ``np.maximum`` — roughly an order of magnitude faster than the
    window gather.  The im2col route remains for training, where the
    backward pass needs the per-window argmax.
    """
    stride = stride or kernel
    n, c, h, w = x.shape
    if (
        stride == kernel
        and h % kernel == 0
        and w % kernel == 0
        and not x.requires_grad
    ):
        taps = _tap_views(x.data, kernel)
        out = np.maximum(taps[0], taps[1]) if len(taps) > 1 else taps[0].copy()
        for tap in taps[2:]:
            np.maximum(out, tap, out=out)
        return Tensor(out)

    cols, oh, ow = im2col(
        x.data.reshape(n * c, 1, h, w), kernel, stride, padding=0
    )  # (N*C*OH*OW, K*K)
    argmax = cols.argmax(axis=1)
    out_flat = cols[np.arange(cols.shape[0]), argmax]
    out_data = out_flat.reshape(n, c, oh, ow)

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g_flat = g.reshape(-1)
        g_cols = np.zeros_like(cols)
        g_cols[np.arange(cols.shape[0]), argmax] = g_flat
        gx = col2im(g_cols, (n * c, 1, h, w), kernel, stride, padding=0)
        x._accumulate(gx.reshape(x.shape))

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling (tiled fast path sums strided views, with a
    strided-scatter backward; strided/ragged windows use im2col)."""
    stride = stride or kernel
    n, c, h, w = x.shape
    if stride == kernel and h % kernel == 0 and w % kernel == 0:
        taps = _tap_views(x.data, kernel)
        acc = taps[0] + taps[1] if len(taps) > 1 else taps[0].copy()
        for tap in taps[2:]:
            np.add(acc, tap, out=acc)
        inv = 1.0 / (kernel * kernel)
        if np.issubdtype(acc.dtype, np.integer):
            out_data = acc * inv  # promote, matching cols.mean on ints
        else:
            out_data = acc * np.asarray(inv, dtype=acc.dtype)

        def backward_tiled(g: np.ndarray) -> None:
            if not x.requires_grad:
                return
            gk = g * inv
            gx = np.empty((n, c, h, w), dtype=gk.dtype)
            for i in range(kernel):
                for j in range(kernel):
                    gx[:, :, i::kernel, j::kernel] = gk
            x._accumulate(gx)

        return Tensor._make(out_data, (x,), backward_tiled)

    cols, oh, ow = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, padding=0)
    out_data = cols.mean(axis=1).reshape(n, c, oh, ow)
    scale = 1.0 / (kernel * kernel)

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g_cols = np.repeat(g.reshape(-1, 1), kernel * kernel, axis=1) * scale
        gx = col2im(g_cols, (n * c, 1, h, w), kernel, stride, padding=0)
        x._accumulate(gx.reshape(x.shape))

    return Tensor._make(out_data, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dimensions, keeping (N, C)."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Losses and classifiers
# ----------------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - shift
    logsumexp = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - logsumexp


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(x, axis=axis).exp()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits (N, C) and integer labels (N,)."""
    targets = np.asarray(targets)
    n = logits.shape[0]
    logp = log_softmax(logits, axis=-1)
    picked_data = logp.data[np.arange(n), targets]
    out_data = np.float32(-picked_data.mean())

    def backward(g: np.ndarray) -> None:
        if not logp.requires_grad:
            return
        grad = np.zeros_like(logp.data)
        grad[np.arange(n), targets] = -1.0 / n
        logp._accumulate(grad * g)

    return Tensor._make(np.asarray(out_data), (logp,), backward)


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Top-1 classification accuracy in [0, 1]."""
    pred = np.asarray(logits.data).argmax(axis=-1)
    return float((pred == np.asarray(targets)).mean())


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity in eval mode."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * Tensor(mask)
