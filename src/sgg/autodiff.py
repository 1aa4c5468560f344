"""Reverse-mode automatic differentiation on flat float64 numpy arrays.

Values live in :class:`Tensor` objects.  Every operation computes its result
eagerly and records a backward closure plus references to its inputs; the
resulting implicit tape is replayed by :func:`backward` in exact reverse
creation order, over the nodes that have a backward.  Only leaves own a
gradient buffer that grows in place: an interior node keeps the first
gradient handed to it, uncopied, so no op's backward writes into the
gradient it receives.  Backward frees each interior node as soon as its own
backward has run: it drops the node's closure (and with it the activations
the closure holds), its parents and its gradient, so the walk's peak is not
the whole tape plus every interior gradient.  A consumed graph cannot be
walked again: a second ``backward`` through any of its interior nodes raises
a ``RuntimeError``; build the loss again instead.  :class:`SgdMomentum`
keeps the parameters it trains, and their gradients, as views of one flat
buffer each.

The op zoo is only what the relation-graph pipeline needs: no general
broadcasting (bias addition is its own op), no view ops, no higher order
derivatives.  Every op's result is a plain C-contiguous array, so
``flatten`` is a reshape that copies nothing.

Embedding lookups are expressed as matmul of a distribution row with an
embedding matrix, so they need no dedicated op.

The ops: ``add``, ``add_bias``, ``matmul`` (matrix @ matrix or vector ·
vector), ``concat_cols``, ``relu`` (backward reads its output, so it keeps
no mask), ``gather_rows``, ``message_mean`` (one fused
target-tailored message direction: a two-layer MLP with a ReLU after each
layer over [target; source] rows, its first layer split, then the mean per
target; the rows run in blocks of about ``MESSAGE_BLOCK_BYTES`` of hidden
layer that each end on a target boundary, and backward recomputes a block's
hidden layer from the kept per-target and per-source projections, so memory
is O((targets + sources) x hidden + one block) and no rows x hidden array
stays on the tape), ``conv2d`` (lowered along the width only: per block of
instances, one copy of its kw-wide windows of about ``CONV_BLOCK_BYTES``
and kh GEMMs over column ranges of it, then the bias and, if asked, a 2x2
max pooling of the block; backward recomputes a block's windows instead of
storing them, so memory is the (pooled) output plus one block), ``flatten``
(the axes from a start axis on), ``softmax``, ``cross_entropy_with_softmax``
and ``binary_logistic_loss``.
"""

from __future__ import annotations

import itertools

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(ArithmeticError):
    """Non-finite values entered the computation."""


_SEQ = itertools.count()


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("tensor data must be finite")
    return arr


class Tensor:
    """A float64 array plus an optional gradient of identical shape.

    Leaves created with ``requires_grad=True`` get a zero gradient buffer up
    front, so parameters that never participate in a backward pass still
    report a (zero) gradient.  An interior node allocates none: its gradient
    is the first array that backward hands it, and a later one replaces it
    with a new sum, so it may share memory with another node's gradient.
    Once its backward has run, an interior node is freed: ``grad`` is
    ``None``, it has no parents, and its closure is the ``_consumed`` marker,
    so only its ``data`` is left.
    """

    __slots__ = ("data", "requires_grad", "grad", "_seq", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._seq = next(_SEQ)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @classmethod
    def _from_op(cls, data, parents, backward_fn) -> "Tensor":
        out = cls.__new__(cls)
        out.data = np.asarray(data, dtype=np.float64)
        out.grad = None
        out._seq = next(_SEQ)
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._backward = backward_fn
                return out
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        return out

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # The one in-place rule: only a leaf's own gradient buffer is ever added
    # to in place.  An interior node keeps the first ``g`` it is handed,
    # uncopied, and a later one replaces it with a new sum; ``g`` may be
    # another node's gradient or a view of one, so no backward may write into
    # the ``g`` it receives.
    if not t.requires_grad:
        return
    if t._backward is None:
        t.grad += g
    elif t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _consumed(g):
    """The closure of an interior node whose backward has run."""
    raise RuntimeError("backward: the graph was consumed by an earlier backward")


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(node) through every node reachable from ``loss``.

    The walk collects only the nodes that have a backward, keyed by their
    creation number, and runs them in reverse creation order, a valid
    reverse topological order because operands always predate their result.
    Leaf gradients accumulate; callers zero them between steps.

    Each interior node is freed once its backward has run (see
    :class:`Tensor`), so the graph is consumed: walking it again, from
    ``loss`` or from a new loss built on one of its interior nodes, raises a
    ``RuntimeError`` before any gradient moves.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    nodes: dict[int, Tensor] = {}
    stack = [loss] if loss._backward is not None else []
    while stack:
        t = stack.pop()
        if t._seq in nodes:
            continue
        if t._backward is _consumed:
            _consumed(None)  # raises before any gradient moves
        nodes[t._seq] = t
        for p in t._parents:
            if p._backward is not None:
                stack.append(p)
    _accumulate(loss, np.ones(()))
    for seq in sorted(nodes, reverse=True):
        t = nodes.pop(seq)
        if t.grad is not None:
            t._backward(t.grad)
        t._backward, t._parents, t.grad = _consumed, (), None


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def back(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor._from_op(a.data + b.data, (a, b), back)


def add_bias(m: Tensor, b: Tensor) -> Tensor:
    """Row-wise bias: (r, c) matrix plus a length-c vector."""
    if m.data.ndim != 2 or b.data.ndim != 1 or m.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"add_bias: {m.data.shape} + {b.data.shape}")

    def back(g):
        _accumulate(m, g)
        _accumulate(b, g.sum(axis=0))

    return Tensor._from_op(m.data + b.data, (m, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two matrices, or dot product of two vectors (no batching)."""
    if a.data.ndim != b.data.ndim or a.data.ndim not in (1, 2) \
            or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")

    def back(g):
        if a.data.ndim == 2:
            _accumulate(a, g @ b.data.T)
            _accumulate(b, a.data.T @ g)
        else:
            _accumulate(a, g * b.data)
            _accumulate(b, g * a.data)

    return Tensor._from_op(a.data @ b.data, (a, b), back)


def concat_cols(parts: list[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 1 (equal row counts)."""
    if not parts:
        raise ShapeError("concat_cols: empty input list")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise ShapeError("concat_cols: operands must be 2-D with equal row counts")
    widths = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, g[:, lo:hi])

    return Tensor._from_op(np.concatenate([p.data for p in parts], axis=1), tuple(parts), back)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def back(g):
        # out > 0 exactly where x > 0, so the tape keeps no mask; subgradient at 0 is 0
        _accumulate(x, g * (out > 0))

    return Tensor._from_op(out, (x,), back)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function that never exponentiates a positive number."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _segment_sum(values: np.ndarray, ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Sum the rows of ``values`` into ``num_segments`` rows by id.

    Rows are added in row order, as ``np.add.at`` adds them, so the result
    is the same bit for bit; ids that no row has give zero rows.  One
    ``bincount`` over the flattened (id, column) cells is several times
    faster than ``np.add.at``.
    """
    width = values.shape[1]
    cells = (ids[:, None] * width + np.arange(width)).ravel()
    return np.bincount(cells, weights=values.ravel(),
                       minlength=num_segments * width).reshape(num_segments, width)


def gather_rows(m: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; duplicate indices sum their gradients."""
    if m.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected matrix, got shape {m.data.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= m.data.shape[0]):
        raise ShapeError("gather_rows: index out of range")

    def back(g):
        if m.requires_grad:
            _accumulate(m, _segment_sum(g, idx, m.data.shape[0]))

    return Tensor._from_op(m.data.take(idx, axis=0), (m,), back)


# message_mean works through its rows in blocks whose hidden layer takes
# about this many bytes (float64), and conv2d through its instances in blocks
# whose kw-wide window copy does (kw floats per input cell and channel), so
# neither keeps more than one block of either.
# At a hidden width of 64 a message block is 2048 rows: the 1400 rr rows of
# an 8-proposal scene run as one block, so small scenes train as the
# unblocked op did, bit for bit.  Against 512-row blocks, scenes of about 17
# proposals trained faster (4.0-4.5 against 3.7-4.0 steps/s, 2-core VM) and
# peaked higher (317 against 295 MB).  A conv block of 1 MB keeps the
# windows, the block's output and its gradient within a 2 MB L2: on 287
# default-size masks (one BLAS thread) conv1 forward/backward took 17/17-18
# ms against 20-23/26-30 ms at 2 MB, and conv2 4.1-5.1/12.5-15 against
# 4.6-5.7/14.7-17 ms.
MESSAGE_BLOCK_BYTES = 1 << 20
CONV_BLOCK_BYTES = 1 << 20


def _row_blocks(t: np.ndarray, step: int) -> list[slice]:
    """Row ranges of about ``step`` rows over sorted target ids ``t``, each
    ending on a target boundary.

    A block opens at the first row of every target whose first row enters a
    new ``step``-row window, so a target with more rows than ``step`` fills a
    block alone.  A one-row block would multiply through gemv, whose bits
    differ from a GEMM row's, so it joins a neighbouring block; only a single
    row forms a one-row block.
    """
    if t.size <= step:
        return [slice(0, t.size)] if t.size else []
    first = np.flatnonzero(np.diff(t, prepend=-1))
    starts = first[np.diff(first // step, prepend=-1) > 0].tolist()
    blocks: list[slice] = []
    for lo, hi in zip(starts, starts[1:] + [t.size]):
        if blocks and (blocks[-1].stop - blocks[-1].start == 1 or hi - lo == 1):
            blocks[-1] = slice(blocks[-1].start, hi)
        else:
            blocks.append(slice(lo, hi))
    return blocks


def message_mean(x_t: Tensor, t_idx, x_s: Tensor, s_idx, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """Per-target mean of a two-layer MLP over [target; source] message rows.

    Row r reads target ``t_idx[r]`` of ``x_t`` and source ``s_idx[r]`` of
    ``x_s``; output row i is the mean over the rows with ``t_idx == i`` (a
    zero row when there are none).  ``t_idx`` must be sorted.  It equals
    the per-target mean of the MLP (a ReLU after each of the two layers) on
    ``concat_cols([gather_rows(x_t, t_idx), gather_rows(x_s, s_idx)])``,
    but the first layer is split,
    ``[x_t[t]; x_s[s]] w1 + b1 = (x_t w1[:d_t] + b1)[t] + (x_s w1[d_t:])[s]``,
    so each target and source is projected once instead of once per row.

    The rows run in blocks of about ``MESSAGE_BLOCK_BYTES`` of hidden layer
    that each end on a target boundary, so every target is summed inside one
    block in row order and the output does not depend on the block size.
    The op keeps the two projections and each block's bool mask of positive
    outputs; backward recomputes a block's hidden layer from the projections
    with two row gathers, and sums the row gradients onto targets and sources
    block by block before it multiplies by ``w1`` and the inputs.  Memory is
    O((targets + sources) x hidden + one block), plus one mask byte per row
    and output column.
    """
    if x_t.data.ndim != 2 or x_s.data.ndim != 2:
        raise ShapeError("message_mean: targets and sources must be matrices")
    t = np.asarray(t_idx, dtype=np.intp)
    s = np.asarray(s_idx, dtype=np.intp)
    if t.ndim != 1 or t.shape != s.shape:
        raise ShapeError("message_mean: index arrays must be 1-D and of equal length")
    (n_t, d_t), (n_s, d_s) = x_t.data.shape, x_s.data.shape
    if t.size and (t.min() < 0 or t.max() >= n_t or s.min() < 0 or s.max() >= n_s):
        raise ShapeError("message_mean: index out of range")
    if (t[1:] < t[:-1]).any():
        raise ShapeError("message_mean: target indices must be sorted")
    hidden = b1.data.shape[0] if b1.data.ndim == 1 else -1
    if (w1.data.shape != (d_t + d_s, hidden) or w2.data.ndim != 2
            or w2.data.shape[0] != hidden or b2.data.shape != (w2.data.shape[1],)):
        raise ShapeError(f"message_mean: weights {w1.data.shape}, {b1.data.shape}, "
                         f"{w2.data.shape}, {b2.data.shape} do not fit inputs of width "
                         f"{d_t} + {d_s}")
    w1_t, w1_s = w1.data[:d_t], w1.data[d_t:]
    p_t = x_t.data @ w1_t + b1.data
    p_s = x_s.data @ w1_s
    blocks = _row_blocks(t, max(1, MESSAGE_BLOCK_BYTES // (8 * hidden)))

    def hidden_layer(blk):
        h1 = p_t.take(t[blk], axis=0)
        h1 += p_s.take(s[blk], axis=0)
        return np.maximum(h1, 0.0, out=h1)

    def into_targets(out, rows, blk):
        """Write the per-target sums of a block's rows into ``out``."""
        lo, hi = t[blk.start], t[blk.stop - 1] + 1
        out[lo:hi] = _segment_sum(rows, t[blk] - lo, hi - lo)

    out = np.zeros((n_t, w2.data.shape[1]))
    masks = []
    for blk in blocks:
        z2 = hidden_layer(blk) @ w2.data
        z2 += b2.data
        masks.append(z2 > 0)
        np.maximum(z2, 0.0, out=z2)
        into_targets(out, z2, blk)
    denom = np.maximum(np.bincount(t, minlength=n_t), 1).astype(np.float64)[:, None]
    out /= denom

    def back(g):
        gd = g / denom
        g_t, g_s = np.zeros(p_t.shape), np.zeros(p_s.shape)
        for k, blk in enumerate(blocks):
            h1 = hidden_layer(blk)
            gz2 = gd.take(t[blk], axis=0)
            gz2 *= masks[k]
            _accumulate(w2, h1.T @ gz2)
            _accumulate(b2, gz2.sum(axis=0))
            gz1 = gz2 @ w2.data.T
            gz1 *= h1 > 0
            into_targets(g_t, gz1, blk)
            g_s += _segment_sum(gz1, s[blk], n_s)
        _accumulate(b1, g_t.sum(axis=0))
        if w1.requires_grad:
            _accumulate(w1, np.concatenate([x_t.data.T @ g_t, x_s.data.T @ g_s]))
        if x_t.requires_grad:
            _accumulate(x_t, g_t @ w1_t.T)
        if x_s.requires_grad:
            _accumulate(x_s, g_s @ w1_s.T)

    return Tensor._from_op(out, (x_t, x_s, w1, b1, w2, b2), back)


# ---------------------------------------------------------------------------
# spatial ops (stride-1 valid convolution, optionally 2x2 max pooled)


def _windows(xb: np.ndarray, kw: int) -> np.ndarray:
    """Width-only lowering of a block (m, Cin, H, W): (Cin*kw, H*m*ow).

    Row (c, q) holds the q-shifted width windows of channel c, input row
    major, then instance, then output column.  The (Cin, kw, H, m, ow)
    buffer is filled by kw slice copies, one per shift q, each of the
    block's columns q .. q+ow-1.  Input rows p .. p+oh-1 of every instance
    are then the contiguous columns p*m*ow .. (p+oh)*m*ow.
    """
    m, cin, h, wd = xb.shape
    ow = wd - kw + 1
    cols = np.empty((cin, kw, h, m, ow))
    xt = xb.transpose(1, 2, 0, 3)
    for q in range(kw):
        cols[:, q] = xt[..., q:q + ow]
    return cols.reshape(cin * kw, -1)


def conv2d(x: Tensor, w: Tensor, b: Tensor, pool: bool = False) -> Tensor:
    """Valid convolution of (N, Cin, H, W) with (Cout, Cin, kh, kw) plus bias,
    then with ``pool`` a 2x2 stride-2 max pooling.

    Lowered along the width only (MEC, Cho & Brand, arXiv:1706.06873): per
    block of instances (``CONV_BLOCK_BYTES`` of ``_windows``) the output is
    ``sum_p w[:, :, p, :] @ cols[:, p*m*ow:(p+oh)*m*ow]``, kh GEMMs on one
    kw-wide copy where an im2col copies each input kh*kw times, plus the
    bias.  A pooled block keeps only its pooled output and two bool masks
    that route each gradient to its window's first max, in the order (0,0),
    (0,1), (1,0), (1,1) an argmax takes (zeros of either sign tie).
    Backward routes a block's gradient, recomputes its windows, forms the
    weight gradient per row shift p the same way, and folds ``w_p.T @ g``
    back onto the input with kw strided adds.  The result is (N, Cout, oh,
    ow), oh and ow halved when pooled; each block's GEMM output, ordered
    (Cout, oh, m, ow), is transposed as it is written into it.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or b.data.ndim != 1:
        raise ShapeError("conv2d: expected x(N,C,H,W), w(Cout,Cin,kh,kw), b(Cout,)")
    n, cin, h, wd = x.data.shape
    cout, cin_w, kh, kw = w.data.shape
    if cin != cin_w or b.data.shape[0] != cout:
        raise ShapeError(f"conv2d: channel mismatch x={x.data.shape} w={w.data.shape}")
    if h < kh or wd < kw:
        raise ShapeError(f"conv2d: input {h}x{wd} smaller than kernel {kh}x{kw}")
    oh, ow = h - kh + 1, wd - kw + 1
    if pool and (oh % 2 or ow % 2):
        raise ShapeError(f"conv2d: pooling needs an even output, got {oh}x{ow}")
    step = max(1, CONV_BLOCK_BYTES // (8 * cin * kw * h * ow))
    blocks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
    wp = np.ascontiguousarray(w.data.transpose(2, 0, 1, 3)).reshape(kh, cout, cin * kw)
    out = np.empty((n, cout, oh // 2, ow // 2) if pool else (n, cout, oh, ow))
    routes = []  # per pooled block: is the max in the top row, in the left column
    for blk in blocks:
        cols = _windows(x.data[blk], kw)
        r = cols.shape[1] // h  # columns per input row: m * ow
        ob = wp[0] @ cols[:, :oh * r]
        for p in range(1, kh):
            ob += wp[p] @ cols[:, p * r:(p + oh) * r]
        ob += b.data[:, None]
        ob = ob.reshape(cout, oh, -1, ow)
        if pool:
            pairs = np.maximum(ob[..., 0::2], ob[..., 1::2])
            pooled = np.maximum(pairs[:, 0::2], pairs[:, 1::2])
            routes.append((pairs[:, 0::2] == pooled, ob[..., 0::2] == pairs))
            ob = pooled
        out[blk] = ob.transpose(2, 0, 1, 3)

    def back(g):
        gt = g.transpose(1, 2, 0, 3)
        _accumulate(b, gt.sum(axis=(1, 2, 3)))
        gw = np.zeros((kh, cout, cin * kw))
        gx = np.zeros((cin, h, n, wd)) if x.requires_grad else None
        for k, blk in enumerate(blocks):
            gc = gt[:, :, blk]
            if pool:  # each pooled gradient goes to its window's first max
                top, left = routes[k]
                rows = np.empty(left.shape)
                np.multiply(gc, top, out=rows[:, 0::2])
                np.multiply(gc, ~top, out=rows[:, 1::2])
                gc = np.empty(left.shape[:3] + (ow,))
                np.multiply(rows, left, out=gc[..., 0::2])
                np.multiply(rows, ~left, out=gc[..., 1::2])
            gc = gc.reshape(cout, -1)
            cols = _windows(x.data[blk], kw)
            r = cols.shape[1] // h
            for p in range(kh):
                gw[p] += gc @ cols[:, p * r:(p + oh) * r].T
            if gx is not None:
                gcols = np.zeros_like(cols)
                for p in range(kh):
                    gcols[:, p * r:(p + oh) * r] += wp[p].T @ gc
                gcols = gcols.reshape(cin, kw, h, -1, ow)
                gxb = gx[:, :, blk]
                for q in range(kw):
                    gxb[..., q:q + ow] += gcols[:, q]
        _accumulate(w, gw.reshape(kh, cout, cin, kw).transpose(1, 2, 0, 3))
        if gx is not None:
            _accumulate(x, gx.transpose(2, 0, 1, 3))

    return Tensor._from_op(out, (x, w, b), back)


def flatten(x: Tensor, start: int = 0) -> Tensor:
    """Row-major flatten of the axes from ``start`` on; ``flatten(x, 1)``
    keeps the leading (instance) axis."""
    shape = x.data.shape
    if start and x.data.ndim <= start:
        raise ShapeError(f"flatten: shape {shape} has no axes after axis {start}")

    def back(g):
        _accumulate(x, g.reshape(shape))

    return Tensor._from_op(x.data.reshape(*shape[:start], -1), (x,), back)


# ---------------------------------------------------------------------------
# normalization and loss ops (numerically stable, log-space where it counts)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis of a vector or matrix."""
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"softmax: expected vector or matrix, got shape {x.data.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    out = ez / ez.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accumulate(x, out * (g - dot))

    return Tensor._from_op(out, (x,), back)


def cross_entropy_with_softmax(logits: Tensor, targets) -> Tensor:
    """Mean softmax cross-entropy of (R, C) logits against R integer targets."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: expected (rows, classes), got {logits.data.shape}")
    t = np.asarray(targets, dtype=np.intp)
    r, c = logits.data.shape
    if t.shape != (r,):
        raise ShapeError(f"cross_entropy: {r} rows but {t.shape} targets")
    if r == 0:
        raise ShapeError("cross_entropy: no rows")
    if t.min() < 0 or t.max() >= c:
        raise ShapeError("cross_entropy: target class out of range")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    losses = lse - z[np.arange(r), t]

    def back(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(r), t] -= 1.0
        _accumulate(logits, p * (float(g) / r))

    return Tensor._from_op(losses.mean(), (logits,), back)


def binary_logistic_loss(logits: Tensor, labels) -> Tensor:
    """Mean logistic loss of a logit vector against {0,1} labels."""
    if logits.data.ndim != 1:
        raise ShapeError(f"binary_logistic_loss: expected vector, got {logits.data.shape}")
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != logits.data.shape:
        raise ShapeError("binary_logistic_loss: label/logit length mismatch")
    if logits.data.shape[0] == 0:
        raise ShapeError("binary_logistic_loss: no instances")
    z = logits.data
    losses = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))

    def back(g):
        _accumulate(logits, (_stable_sigmoid(z) - y) * (float(g) / z.shape[0]))

    return Tensor._from_op(losses.mean(), (logits,), back)


# ---------------------------------------------------------------------------
# initialization, optimization, gradient checking


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    """Trainable tensor drawn uniformly from [-s, s], s = sqrt(6/(fan_in+fan_out))."""
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-s, s, size=shape), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def schedule_lr(base_lr: float, epoch: int) -> float:
    """Flat learning rate for epochs 1-10, then times 0.9 every 3 epochs."""
    if epoch <= 10:
        return base_lr
    return base_lr * 0.9 ** ((epoch - 11) // 3 + 1)


class SgdMomentum:
    """SGD with classical momentum: v <- m*v + g; p <- p - lr*v.

    The optimizer owns three flat buffers, ``data``, ``grad`` and
    ``velocity``, one float per parameter entry in the order given.  On
    construction it copies each parameter's data and gradient into its
    range and rebinds ``p.data`` and ``p.grad`` as views of them, so a
    tensor follows the last optimizer built over it; ``step`` is four vector
    ops over all parameters.  The buffers are built tensor by tensor, each
    old array released as its tensor is rebound, and the velocity last: the
    build peaks at three floats per entry, what ``Dims`` budgets for
    parameters, gradients and momenta.  Gradients are zeroed after each
    step.  ``set_epoch`` applies the step decay schedule to the stored
    learning rate.
    """

    def __init__(self, params, lr: float = 5e-3, momentum: float = 0.9):
        self.params = list(params)
        for p in self.params:
            if not isinstance(p, Tensor) or not p.requires_grad or p.grad is None:
                raise ValueError("optimizer parameters must be trainable tensors with gradients")
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("optimizer parameters must be distinct tensors")
        size = sum(p.data.size for p in self.params)
        self.data = self._flatten("data", size)
        self.grad = self._flatten("grad", size)
        self.velocity = np.zeros(size)
        self.base_lr = float(lr)
        self.lr = float(lr)
        self.momentum = float(momentum)

    def _flatten(self, attr: str, size: int) -> np.ndarray:
        """Copy each parameter's ``attr`` array into one flat buffer and
        rebind it as a view of its range."""
        flat = np.empty(size)
        lo = 0
        for p in self.params:
            arr = getattr(p, attr)
            view = flat[lo:lo + arr.size].reshape(arr.shape)
            view[...] = arr
            setattr(p, attr, view)
            lo += arr.size
        return flat

    def set_epoch(self, epoch: int) -> None:
        self.lr = schedule_lr(self.base_lr, int(epoch))

    def step(self) -> None:
        self.velocity *= self.momentum
        self.velocity += self.grad
        self.data -= self.lr * self.velocity
        self.grad[...] = 0.0


def finite_difference_check(f, x, eps: float = 1e-5) -> float:
    """Compare analytic and central-difference gradients of a scalar function.

    ``f`` maps a Tensor leaf to a scalar Tensor.  Returns the max over
    coordinates of |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).
    """
    leaf = Tensor(np.array(x, dtype=np.float64), requires_grad=True)
    return finite_difference_check_params(lambda: f(leaf), [leaf], eps)


def finite_difference_check_params(loss_fn, tensors, eps: float = 1e-5) -> float:
    """Relative-error measure of :func:`finite_difference_check` for a loss
    closed over many parameter tensors.

    ``loss_fn`` takes no arguments and rebuilds the scalar loss from the
    current contents of ``tensors``; each tensor's data is nudged in place for
    the central differences and restored afterwards.
    """
    for t in tensors:
        t.grad[...] = 0.0
    backward(loss_fn())
    grads = [t.grad.copy() for t in tensors]
    worst = 0.0
    for t, g_ad in zip(tensors, grads):
        flat = t.data.reshape(-1)
        for k in range(flat.size):
            saved = flat[k]
            flat[k] = saved + eps
            hi = loss_fn().item()
            flat[k] = saved - eps
            lo = loss_fn().item()
            flat[k] = saved
            g_fd = (hi - lo) / (2.0 * eps)
            ga = g_ad.reshape(-1)[k]
            err = abs(ga - g_fd) / max(1.0, abs(ga), abs(g_fd))
            worst = max(worst, err)
    return worst
