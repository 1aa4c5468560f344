"""Reverse-mode automatic differentiation on flat float64 numpy arrays.

Values live in :class:`Tensor` objects.  Every operation computes its result
eagerly and records a backward closure plus references to its inputs; the
resulting implicit tape is replayed by :func:`backward` in exact reverse
creation order.  The op zoo is only what the relation-graph pipeline needs:
no general broadcasting (bias addition is its own op), no views, no higher
order derivatives.

Embedding lookups are expressed as matmul of a distribution row with an
embedding matrix, so they need no dedicated op.
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
    report a (zero) gradient.  Interior nodes allocate lazily during
    backward.
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
        out.requires_grad = any(p.requires_grad for p in parents)
        out.grad = None
        out._seq = next(_SEQ)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward_fn
        else:
            out._parents = ()
            out._backward = None
        return out

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(node) through every node reachable from ``loss``.

    Nodes are visited in exact reverse creation order, which is a valid
    reverse topological order because operands always predate their result.
    Gradients accumulate; callers zero them between steps.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    nodes: list[Tensor] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nodes.append(t)
        stack.extend(t._parents)
    nodes.sort(key=lambda t: t._seq, reverse=True)
    _accumulate(loss, np.ones(()))
    for t in nodes:
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


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
    """Matrix/vector product for 1-D and 2-D operands (no batching)."""
    an, bn = a.data.ndim, b.data.ndim
    if an not in (1, 2) or bn not in (1, 2):
        raise ShapeError(f"matmul: unsupported ranks {an} and {bn}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def back(g):
        if an == 2 and bn == 2:
            _accumulate(a, g @ b.data.T)
            _accumulate(b, a.data.T @ g)
        elif an == 1 and bn == 2:
            _accumulate(a, b.data @ g)
            _accumulate(b, np.outer(a.data, g))
        elif an == 2 and bn == 1:
            _accumulate(a, np.outer(g, b.data))
            _accumulate(b, a.data.T @ g)
        else:  # vector dot
            _accumulate(a, g * b.data)
            _accumulate(b, g * a.data)

    return Tensor._from_op(out, (a, b), back)


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
    mask = x.data > 0  # subgradient at 0 is 0

    def back(g):
        _accumulate(x, g * mask)

    return Tensor._from_op(np.where(mask, x.data, 0.0), (x,), back)


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function that never exponentiates a positive number."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    out = _stable_sigmoid(x.data)

    def back(g):
        _accumulate(x, g * out * (1.0 - out))

    return Tensor._from_op(out, (x,), back)


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
        if not m.requires_grad:
            return
        if m.grad is None:
            m.grad = np.zeros_like(m.data)
        np.add.at(m.grad, idx, g)

    return Tensor._from_op(m.data[idx], (m,), back)


def segment_mean(m: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Mean of rows grouped by segment id; empty segments yield zero rows."""
    if m.data.ndim != 2:
        raise ShapeError(f"segment_mean: expected matrix, got shape {m.data.shape}")
    seg = np.asarray(segment_ids, dtype=np.intp)
    if seg.shape != (m.data.shape[0],):
        raise ShapeError("segment_mean: one segment id per row required")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ShapeError("segment_mean: segment id out of range")
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)
    denom = np.maximum(counts, 1.0)
    sums = np.zeros((num_segments, m.data.shape[1]))
    np.add.at(sums, seg, m.data)

    def back(g):
        _accumulate(m, g[seg] / denom[seg, None])

    return Tensor._from_op(sums / denom[:, None], (m,), back)


# ---------------------------------------------------------------------------
# spatial ops (stride-1 valid convolution, 2x2 max pooling)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Valid convolution of (N, Cin, H, W) with (Cout, Cin, kh, kw) plus bias."""
    if x.data.ndim != 4 or w.data.ndim != 4 or b.data.ndim != 1:
        raise ShapeError("conv2d: expected x(N,C,H,W), w(Cout,Cin,kh,kw), b(Cout,)")
    n, cin, h, wd = x.data.shape
    cout, cin_w, kh, kw = w.data.shape
    if cin != cin_w or b.data.shape[0] != cout:
        raise ShapeError(f"conv2d: channel mismatch x={x.data.shape} w={w.data.shape}")
    if h < kh or wd < kw:
        raise ShapeError(f"conv2d: input {h}x{wd} smaller than kernel {kh}x{kw}")
    oh, ow = h - kh + 1, wd - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kh, kw), axis=(2, 3))
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, cin * kh * kw)
    wf = w.data.reshape(cout, -1)
    out_flat = cols @ wf.T + b.data
    out = out_flat.reshape(n, oh, ow, cout).transpose(0, 3, 1, 2)

    def back(g):
        gf = g.transpose(0, 2, 3, 1).reshape(n * oh * ow, cout)
        _accumulate(b, gf.sum(axis=0))
        _accumulate(w, (gf.T @ cols).reshape(w.data.shape))
        if x.requires_grad:
            gcols = (gf @ wf).reshape(n, oh, ow, cin, kh, kw)
            gx = np.zeros_like(x.data)
            for p in range(kh):
                for q in range(kw):
                    gx[:, :, p : p + oh, q : q + ow] += gcols[:, :, :, :, p, q].transpose(0, 3, 1, 2)
            _accumulate(x, gx)

    return Tensor._from_op(out, (x, w, b), back)


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties route the gradient to the first max."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d: expected (N,C,H,W), got {x.data.shape}")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d: spatial dims must be even, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    r = x.data.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
    idx = r.argmax(axis=-1)
    out = np.take_along_axis(r, idx[..., None], axis=-1)[..., 0]

    def back(g):
        gr = np.zeros((n, c, h2, w2, 4))
        np.put_along_axis(gr, idx[..., None], g[..., None], axis=-1)
        gx = gr.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        _accumulate(x, gx)

    return Tensor._from_op(out, (x,), back)


def flatten(x: Tensor) -> Tensor:
    """Row-major flatten to a vector."""
    shape = x.data.shape

    def back(g):
        _accumulate(x, g.reshape(shape))

    return Tensor._from_op(x.data.reshape(-1), (x,), back)


def flatten_rows(x: Tensor) -> Tensor:
    """Flatten every trailing axis, keeping the leading (instance) axis."""
    if x.data.ndim < 2:
        raise ShapeError(f"flatten_rows: need at least 2 axes, got shape {x.data.shape}")
    shape = x.data.shape

    def back(g):
        _accumulate(x, g.reshape(shape))

    return Tensor._from_op(x.data.reshape(shape[0], -1), (x,), back)


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

    Gradients are zeroed after each step.  ``set_epoch`` applies the step
    decay schedule to the stored learning rate.
    """

    def __init__(self, params, lr: float = 5e-3, momentum: float = 0.9):
        self.params = list(params)
        for p in self.params:
            if not isinstance(p, Tensor) or not p.requires_grad or p.grad is None:
                raise ValueError("optimizer parameters must be trainable tensors with gradients")
        self.velocity = [np.zeros_like(p.data) for p in self.params]
        self.base_lr = float(lr)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.epoch = 1

    def set_epoch(self, epoch: int) -> None:
        self.epoch = int(epoch)
        self.lr = schedule_lr(self.base_lr, self.epoch)

    def step(self) -> None:
        for p, v in zip(self.params, self.velocity):
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v
            p.grad[...] = 0.0


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
