"""COO kernels: convolution, pooling and dedup driven by spike events.

The event-batched engine (:mod:`repro.snn.engines.event_batched`) runs
its coordinate paths on these: :func:`conv_event_rows` builds the
im2col rows a conv's events touch straight from the events,
:func:`conv_rows` multiplies only those rows (bitwise the dense
kernel's values), :func:`pooled_coords` maps events through
non-overlapping pooling windows, and :func:`distinct` deduplicates
integer keys by whichever of a mask or a sort is cheaper.
:func:`conv_active_windows` reports a conv's active rows and im2col
entry count from coordinates alone.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.snn.engines.base import _conv_out_size
from repro.snn.spikes import StepSpikes


def _covering_windows(
    coords: np.ndarray,
    x_shape: Tuple[int, ...],
    kernel: int,
    stride: int,
    padding: int,
    columns: bool = False,
) -> Tuple[int, np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Every (event, covering window) pair of a coordinate batch.

    An event at padded pixel ``y + p`` sits at tap row ``ky`` of the
    window with origin row ``oy = (y + p - ky) / S`` whenever that is a
    whole number on the output grid (likewise for columns), so trying
    all ``K x K`` taps at once enumerates every covering window.  The
    candidate grid is laid out ``(K, K, events)``: each broadcast then
    runs over the long event axis instead of a tiny tap axis.

    Returns ``(windows, rows, cols, pick)``: the window count
    ``N*OH*OW``; each pair's flattened window row ``n * OH * OW + oy *
    OW + ox``; with ``columns``, each pair's im2col column ``c * K² +
    ky * K + kx`` — where the event sits in that window's tap vector —
    else None; and the ``(K, K, events)`` mask of real pairs, which
    orders the pairs.
    """
    n, _, h, w = x_shape
    oh = _conv_out_size(h, kernel, stride, padding)
    ow = _conv_out_size(w, kernel, stride, padding)
    taps = np.arange(kernel)[:, np.newaxis]
    ty = coords[:, 2] + (padding - taps)  # (K, E): oy * S for tap row ky
    tx = coords[:, 3] + (padding - taps)
    if stride == 1:
        oy, ox = ty, tx
        in_y = (ty >= 0) & (ty < oh)
        in_x = (tx >= 0) & (tx < ow)
    else:
        oy, ox = ty // stride, tx // stride
        in_y = (ty >= 0) & (ty % stride == 0) & (oy < oh)
        in_x = (tx >= 0) & (tx % stride == 0) & (ox < ow)
    pick = in_y[:, np.newaxis, :] & in_x[np.newaxis, :, :]
    rows = (
        (coords[:, 0] * (oh * ow) + oy * ow)[:, np.newaxis, :]
        + ox[np.newaxis, :, :]
    )[pick]
    cols = None
    if columns:
        cols = (
            ((coords[:, 1] * kernel + taps) * kernel)[:, np.newaxis, :]
            + taps[np.newaxis, :, :]
        )[pick]
    return n * oh * ow, rows, cols, pick


#: :func:`distinct` marks keys on a boolean mask over their domain while
#: the domain holds at most this many slots per key, and sorts the keys
#: above it.  Measured on numpy 2.4 (x86_64, clustered conv-window keys,
#: domains of 4K to 1M slots): the mask costs about 0.5 ns per slot plus
#: 3 ns per key, the sort about 8 ns per key, and the two tie at 8 to 16
#: slots per key.
_MASK_SLOTS_PER_KEY = 8
#: The same crossover when each key's rank is wanted too: an ``argsort``
#: and its scatter cost about 20 ns per key against the mask's rank table
#: (one more slot-sized array), so the mask wins up to 32 to 64 slots
#: per key.
_RANK_SLOTS_PER_KEY = 32


def distinct(keys: np.ndarray, domain: int, inverse: bool = False):
    """The sorted distinct values of integer ``keys`` in ``[0, domain)``.

    With ``inverse``, returns ``(distinct, rank)`` where ``rank[i]`` is
    the position of ``keys[i]`` among the distinct values.  A bounded
    scatter mask over the domain and a sort of the keys give the same
    arrays; the cheaper one for the ratio of domain to key count runs
    (both beat ``np.unique``, which is about 10x slower than a plain
    sort here).
    """
    slots = _RANK_SLOTS_PER_KEY if inverse else _MASK_SLOTS_PER_KEY
    if domain <= slots * keys.size:
        mask = np.zeros(domain, dtype=bool)
        mask[keys] = True
        values = np.flatnonzero(mask)
        if not inverse:
            return values
        rank = np.empty(domain, dtype=np.intp)
        rank[values] = np.arange(values.size)
        return values, rank[keys]
    if inverse:
        order = np.argsort(keys)
        ordered = keys[order]
    else:
        ordered = np.sort(keys)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if not inverse:
        return ordered[first]
    rank = np.empty(keys.size, dtype=np.intp)
    rank[order] = np.cumsum(first) - 1
    return ordered[first], rank


def conv_active_windows(
    coords: np.ndarray,
    x_shape: Tuple[int, ...],
    kernel: int,
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, int]:
    """Active im2col rows and nonzero-entry count, from coordinates only.

    For spike coordinates ``(n, c, y, x)`` over an ``x_shape`` plane,
    returns the sorted flattened row indices (``n * OH * OW + oy * OW +
    ox``) of every output window that covers at least one spike, plus
    the total number of nonzero im2col entries (each event contributes
    one entry per covering window).  Both quantities equal what a scan
    of the densified im2col matrix (``cols.any(axis=1)`` /
    ``count_nonzero(cols)``) would report — computed in
    ``O(events · K²)`` instead of ``O(windows · C·K²)``.

    The coordinates may equally be a *multi-step batch*: a whole
    stream's events stacked t-major over a ``(T*N, C, H, W)`` plane
    (:meth:`repro.snn.spikes.SpikeStream.stacked`).  Windows never
    cross the stacked batch axis, so one call selects the active rows
    of all T timesteps' convolutions at once — the index arithmetic is
    amortised over the batch instead of paid per step.
    """
    windows, rows, _, _ = _covering_windows(coords, x_shape, kernel, stride, padding)
    return distinct(rows, windows), int(rows.size)


def conv_event_rows(
    coords: np.ndarray,
    amplitude,
    x_shape: Tuple[int, ...],
    kernel: int,
    stride: int,
    padding: int,
    dtype,
    max_rows: Optional[float] = None,
) -> Tuple[np.ndarray, int, Optional[np.ndarray]]:
    """Active im2col rows, their entry count and their row block, from
    events alone — the event-built unfold.

    ``coords`` are the distinct ``(E, 4)`` coordinates of every nonzero
    of an ``x_shape`` plane and ``amplitude`` their values (an ``(E,)``
    array or one scalar).  Returns ``(rows, entries, block)``: ``rows``
    and ``entries`` as :func:`conv_active_windows` reports them, and the
    ``(rows, C*K*K)`` block whose row ``i`` is bitwise row ``rows[i]``
    of :func:`repro.tensor.functional.im2col` of the dense plane.  The
    block starts as zeros and each event's amplitude (cast to
    ``dtype``) is scattered to its tap in every window covering it, so
    the same amplitudes sit at the same places and every other entry is
    ``+0.0`` (a ``-0.0`` of the plane is not an event, so it reads
    ``+0.0`` here).  The cost is one pass over ``events · K²``
    candidate taps plus the zeroed block — not ``O(rows · C·K²)``
    gathers, as reading every tap of every active window would be, when
    about 1 tap in 10 to 60 is nonzero.  Above ``max_rows`` active rows
    the block is not built and None is returned in its place.
    """
    windows, rows, cols, pick = _covering_windows(
        coords, x_shape, kernel, stride, padding, columns=True
    )
    active, rank = distinct(rows, windows, inverse=True)
    if max_rows is not None and active.size > max_rows:
        return active, int(rows.size), None
    taps = x_shape[1] * kernel * kernel
    if np.ndim(amplitude):
        amplitude = np.broadcast_to(amplitude, pick.shape)[pick]
    block = np.zeros((active.size, taps), dtype=dtype)
    block.reshape(-1)[rank * taps + cols] = amplitude
    return active, int(rows.size), block


def pooled_coords(
    step: StepSpikes,
    kernel: int,
    stride: int,
    out_shape: Tuple[int, ...],
    counts: bool = False,
):
    """Output coordinates of a pooled positive spike plane, or None.

    For non-overlapping pooling (``kernel == stride``) of a plane whose
    events all carry positive amplitude, an output cell is nonzero
    exactly when its window contains an event, so the output coordinate
    set is the (deduplicated, in-range) window index of every input
    event — no scan of the pooled plane needed.  With ``counts``,
    returns ``(coords, counts)``: also how many events each of those
    windows holds.  Overlapping windows or signed amplitudes return
    None (the caller falls back to a scan or drops the carried stream).
    """
    if kernel != stride or step.values is not None:
        return None
    _, c, oh, ow = out_shape
    # Column-wise: each op below runs over one contiguous event axis.
    sample, channel, row, col = np.ascontiguousarray(step.coords.T)
    row, col = row // stride, col // stride
    flat = ((sample * c + channel) * oh + row) * ow + col
    in_range = (row < oh) & (col < ow)
    if not in_range.all():
        flat = flat[in_range]
    size = math.prod(out_shape)
    if counts:
        windows, rank = distinct(flat, size, inverse=True)
    else:
        windows = distinct(flat, size)
    coords = np.empty((len(out_shape), windows.size), dtype=np.int64)
    rest = windows
    for axis in range(len(out_shape) - 1, 0, -1):
        quotient = rest // out_shape[axis]
        coords[axis] = rest - quotient * out_shape[axis]
        rest = quotient
    coords[0] = rest
    if not counts:
        return coords.T
    return coords.T, np.bincount(rank, minlength=windows.size)


#: Output elements (rows x C_out) a row-subset GEMM is padded up to.
#: A smaller product may take another BLAS kernel than the full GEMM,
#: summing in another order: with OpenBLAS 0.3.31 on an AVX-512 Xeon,
#: ``sub @ w.T`` differed from the same rows of the full product in the
#: last bit whenever rows x C_out <= 1200 (measured for C*K*K = 36..288
#: taps and 4..64 outputs), and matched at every larger row count and
#: row position.  Padding with zero rows costs a few small GEMMs.
MIN_GEMM_OUTPUTS = 4096


def conv_rows(
    block: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    rows: np.ndarray,
    windows: int,
) -> np.ndarray:
    """Bit-exact convolution output at the given im2col rows only.

    ``block`` is the ``(rows, C*K*K)`` slice of the im2col matrix at
    the sorted window ``rows`` (flattened ``n * OH * OW + oy * OW +
    ox``, out of ``windows = N*OH*OW``), as :func:`conv_event_rows`
    builds it from the input's events; the dense column matrix is never
    built.  Returns the ``(rows, C_out)`` block whose row ``i`` is the
    output vector of window ``rows[i]``.  A row-subset GEMM computes
    each output row with the same reduction the full GEMM would use
    once both are large enough to take the same BLAS kernel
    (:data:`MIN_GEMM_OUTPUTS`; a small subset is padded with zero rows,
    and when the full product is that small itself the rows are
    multiplied at their own positions in a full-size matrix), so every
    value — bias added last, as the dense kernel does — is bitwise
    identical to the dense convolution's at that window.  Every other
    window of the dense output is exactly ``0 + bias``.
    """
    c_out = weight.shape[0]
    w = weight.reshape(c_out, -1)
    floor = -(-MIN_GEMM_OUTPUTS // c_out)
    if 0 < block.shape[0] < floor:
        if windows <= floor:
            lhs = np.zeros((windows, block.shape[1]), dtype=block.dtype)
            lhs[rows] = block
            values = (lhs @ w.T)[rows]
        else:
            lhs = np.zeros((floor, block.shape[1]), dtype=block.dtype)
            lhs[: block.shape[0]] = block
            values = (lhs @ w.T)[: block.shape[0]]
    else:
        values = block @ w.T
    if bias is not None:
        values += bias
    return values
