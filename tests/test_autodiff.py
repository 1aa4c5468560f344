"""Unit and property tests for the reverse-mode engine and optimizer."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgg import autodiff
from sgg.autodiff import (NumericError, SgdMomentum, ShapeError, Tensor, _segment_sum,
                          _stable_sigmoid, _windows, add, add_bias, backward,
                          binary_logistic_loss, concat_cols, conv2d,
                          cross_entropy_with_softmax, finite_difference_check,
                          finite_difference_check_params, flatten, gather_rows,
                          glorot_uniform, matmul, message_mean, relu, schedule_lr,
                          softmax)
from sgg.config import Dims, ModelConfig
from sgg.filter import ordered_pairs
from sgg.gradcheck import _away_from_zero, check_all_ops
from sgg.model import init_model_params
from sgg.relation_features import expand_masks, init_relfeat_params, pair_geometry, \
    spatial_features
from sgg.synthetic import SynthConfig, generate_dataset


# ---------------------------------------------------------------------------
# forward oracles


def test_matmul_forward_and_grads():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((3, 1)), requires_grad=True)
    out = matmul(a, b)
    np.testing.assert_array_equal(out.data, [[3.0], [3.0]])
    backward(matmul(Tensor(np.ones(2)), flatten(out)))
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(b.grad, [[2.0], [2.0], [2.0]])


def test_add_bias_rows_and_column_sum_grad():
    m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    b = Tensor(np.array([10.0, 20.0]), requires_grad=True)
    out = add_bias(m, b)
    np.testing.assert_array_equal(out.data, [[11.0, 22.0], [13.0, 24.0]])
    backward(matmul(flatten(out), Tensor(np.ones(4))))
    np.testing.assert_array_equal(m.grad, np.ones((2, 2)))
    np.testing.assert_array_equal(b.grad, [2.0, 2.0])


def test_gather_rows_sums_duplicate_grads():
    m = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = gather_rows(m, [0, 0, 1])
    np.testing.assert_array_equal(out.data, [[0, 1], [0, 1], [2, 3]])
    backward(matmul(flatten(out), Tensor(np.ones(6))))
    np.testing.assert_array_equal(m.grad, [[2, 2], [1, 1], [0, 0]])


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 12),
       segments=st.integers(1, 6), width=st.integers(1, 4))
@example(seed=0, rows=0, segments=3, width=2)   # no rows at all
@example(seed=1, rows=8, segments=2, width=3)   # every id repeated
def test_segment_sums_match_add_at(seed, rows, segments, width):
    """``_segment_sum`` and the ``gather_rows`` gradient add rows in the
    order ``np.add.at`` does, so they match it bit for bit; segments no row
    names (likely with few rows) stay zero."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, segments, rows).astype(np.intp)
    values = rng.normal(size=(rows, width))
    expect = np.zeros((segments, width))
    np.add.at(expect, ids, values)
    np.testing.assert_array_equal(_segment_sum(values, ids, segments), expect)

    m = Tensor(rng.normal(size=(segments, width)), requires_grad=True)
    backward(matmul(flatten(gather_rows(m, ids)), Tensor(values.reshape(-1))))
    np.testing.assert_array_equal(m.grad, expect)


def test_conv2d_hand_computed():
    x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
    w = Tensor(np.ones((1, 1, 2, 2)))
    b = Tensor(np.zeros(1))
    out = conv2d(x, w, b)
    np.testing.assert_array_equal(out.data, [[[[12.0, 16.0], [24.0, 28.0]]]])


def _maxpool(x):
    """2x2 max pooling of ``x`` by the pooled ``conv2d``: a 1x1 identity
    kernel and a zero bias, so the conv's output is ``x + 0.0``."""
    c = x.data.shape[1]
    return conv2d(x, Tensor(np.eye(c)[:, :, None, None]), Tensor(np.zeros(c)), pool=True)


def test_maxpool_forward_and_tie_routing():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
    out = _maxpool(x)
    assert out.data.item() == 4.0
    # a fully tied window routes its whole gradient to the top-left entry
    t = Tensor(np.full((1, 1, 2, 2), 7.0), requires_grad=True)
    backward(matmul(flatten(_maxpool(t)), Tensor(np.ones(1))))
    np.testing.assert_array_equal(t.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


def _conv_reference(x, w, b, g=None):
    """Direct einsum convolution: output and the gradients of <output, g>,
    or the output alone without ``g``."""
    kh, kw = w.shape[2:]
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.einsum("ncijpq,ocpq->noij", windows, w) + b[:, None, None]
    if g is None:
        return out
    gw = np.einsum("noij,ncijpq->ocpq", g, windows)
    gx = np.zeros_like(x)
    oh, ow = out.shape[2:]
    for p in range(kh):
        for q in range(kw):
            gx[:, :, p:p + oh, q:q + ow] += np.einsum("noij,oc->ncij", g, w[:, :, p, q])
    return out, gx, gw, g.sum(axis=(0, 2, 3))


def _channel_major(a):
    """The same values as ``a`` (N, C, ...), stored channel by channel."""
    return np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)


def _conv_layout(a):
    """The same values as ``a`` (N, C, H, W), stored (C, H, N, W): the axis
    order in which ``_windows`` reads a block."""
    return np.ascontiguousarray(a.transpose(1, 2, 0, 3)).transpose(2, 0, 1, 3)


def _assert_close(actual, expected, rtol=1e-12):
    scale = max(np.abs(expected).max(), 1e-300)
    assert np.abs(actual - expected).max() <= rtol * scale


@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_conv2d_matches_einsum_across_ragged_blocks(monkeypatch, seed, x_grad):
    """Blocks of 3 instances (the last one ragged) give the direct
    convolution and its gradients, for contiguous, channel-major and
    (C, H, N, W)-stored inputs."""
    rng = np.random.default_rng(seed)
    n = 3 * int(rng.integers(1, 4)) + int(rng.integers(1, 3))
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    h, w = kh + int(rng.integers(0, 6)), kw + int(rng.integers(0, 6))
    oh, ow = h - kh + 1, w - kw + 1
    monkeypatch.setattr(autodiff, "CONV_BLOCK_BYTES", 3 * 8 * cin * kw * h * ow)
    x0 = rng.normal(size=(n, cin, h, w))
    w0, b0 = rng.normal(size=(cout, cin, kh, kw)), rng.normal(size=cout)
    g = rng.normal(size=(n, cout, oh, ow))
    out_ref, gx_ref, gw_ref, gb_ref = _conv_reference(x0, w0, b0, g)
    for data in (x0, _channel_major(x0), _conv_layout(x0)):
        x = Tensor(data, requires_grad=x_grad)
        wt, bt = Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)
        out = conv2d(x, wt, bt)
        _assert_close(out.data, out_ref)
        backward(matmul(flatten(out), Tensor(g.reshape(-1))))
        _assert_close(wt.grad, gw_ref)
        _assert_close(bt.grad, gb_ref)
        if x_grad:
            _assert_close(x.grad, gx_ref)
        else:
            assert x.grad is None


def _slice_copy_windows(xb, kw):
    """The width windows by kw slice copies into rows (c, q), columns (h, n, j)."""
    m, cin, h, w = xb.shape
    ow = w - kw + 1
    cols = np.empty((cin, kw, h, m, ow))
    xc = xb.transpose(1, 2, 0, 3)
    for q in range(kw):
        cols[:, q] = xc[..., q:q + ow]
    return cols.reshape(cin * kw, h * m * ow)


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), cin=st.integers(1, 4),
       k=st.sampled_from([3, 5]), extra=st.tuples(st.integers(0, 6), st.integers(0, 6)),
       layout=st.sampled_from([None, _channel_major, _conv_layout]))
def test_windows_equal_the_slice_copy_loop(seed, m, cin, k, extra, layout):
    """The width-only lowering gives the slice-copy loop's matrix exactly,
    and the same matrix as one copy of the sliding-window view, for
    contiguous, channel-major and (C, H, N, W)-stored blocks and both kernel
    sizes."""
    x0 = np.random.default_rng(seed).normal(size=(m, cin, k + extra[0], k + extra[1]))
    xb = layout(x0) if layout else x0
    cols = _windows(xb, k)
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, _slice_copy_windows(xb, k))
    win = np.lib.stride_tricks.sliding_window_view(xb, k, axis=3)
    assert np.array_equal(cols, win.transpose(1, 4, 2, 0, 3).reshape(cin * k, -1))


def test_conv2d_multi_block_finite_differences(monkeypatch):
    """Blocks of 2 instances (2, 2 and 1) of a 3x3 conv on 6x6 inputs."""
    rng = np.random.default_rng(7)
    monkeypatch.setattr(autodiff, "CONV_BLOCK_BYTES", 2 * 8 * 2 * 3 * 6 * 4)
    x0, w0, b0 = rng.normal(size=(5, 2, 6, 6)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3)
    v = Tensor(rng.normal(size=5 * 3 * 4 * 4))
    tensors = [Tensor(a, requires_grad=True) for a in (x0, w0, b0)]
    err = finite_difference_check_params(lambda: matmul(flatten(conv2d(*tensors)), v), tensors)
    assert err < 1e-6


def test_conv2d_memory_is_output_plus_one_block():
    """conv2d forward and backward on 256 default-size masks peak below half
    of the im2col matrix a one-shot im2col would build (80 MB)."""
    rng = np.random.default_rng(0)
    x = Tensor((rng.random((256, 2, 32, 32)) < 0.3).astype(np.float64))
    w = Tensor(rng.normal(size=(8, 2, 5, 5)), requires_grad=True)
    b = Tensor(np.zeros(8), requires_grad=True)
    g = rng.normal(size=(256, 8, 28, 28))
    im2col_bytes = 8 * 256 * 28 * 28 * 2 * 5 * 5
    tracemalloc.start()
    try:
        conv2d(x, w, b)._backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < im2col_bytes / 2


def test_message_mean_multi_block_finite_differences(monkeypatch):
    """Blocks of two rows: three blocks, for targets 0, 2 and 3 (target 1
    has no rows), with sources of another width."""
    rng = np.random.default_rng(8)
    monkeypatch.setattr(autodiff, "MESSAGE_BLOCK_BYTES", 2 * 8 * 3)
    t, s = np.array([0, 0, 2, 2, 3, 3]), np.array([1, 3, 0, 3, 3, 2])
    assert len(autodiff._row_blocks(t, 2)) == 3
    tensors = [Tensor(rng.normal(size=shape), requires_grad=True)
               for shape in ((4, 2), (4, 3), (5, 3), 3, (3, 2), 2)]
    v = Tensor(rng.normal(size=8))

    def loss():
        x_t, x_s, *weights = tensors
        return matmul(flatten(message_mean(x_t, t, x_s, s, *weights)), v)

    assert finite_difference_check_params(loss, tensors) < 1e-6


def test_message_mean_keeps_no_rows_by_hidden_array():
    """Forward and backward over 64k rows of a 64-wide hidden layer peak
    below half of one rows x hidden float array (32 MB): the op keeps the two
    projections and a bool mask per block, and recomputes the hidden layer."""
    rng = np.random.default_rng(0)
    n, rows, width = 256, 65536, 64
    t, s = np.repeat(np.arange(n), rows // n), rng.integers(0, n, rows)
    x = Tensor(rng.normal(size=(n, width)), requires_grad=True)
    w1, b1, w2, b2 = (Tensor(rng.normal(size=shape), requires_grad=True)
                      for shape in ((2 * width, width), width, (width, width), width))
    g = rng.normal(size=(n, width))
    tracemalloc.start()
    try:
        message_mean(x, t, x, s, w1, b1, w2, b2)._backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * rows * width / 2


def _pool_oracle(x, g=None):
    """Window-last reshape and argmax pooling: output and input gradient,
    or the output alone without ``g``."""
    n, c, h, w = x.shape
    r = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, h // 2, w // 2, 4)
    idx = r.argmax(axis=-1)[..., None]
    if g is None:
        return np.take_along_axis(r, idx, axis=-1)[..., 0]
    gr = np.zeros(r.shape)
    np.put_along_axis(gr, idx, g[..., None], axis=-1)
    gx = gr.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return np.take_along_axis(r, idx, axis=-1)[..., 0], gx


def _assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(np.ascontiguousarray(actual).view(np.int64),
                                  np.ascontiguousarray(expected).view(np.int64))


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(*[st.integers(1, 3)] * 2,
                                                          *[st.integers(1, 4)] * 2),
       kind=st.sampled_from(["relu", "small_int"]), channel_major=st.booleans(),
       per_block=st.sampled_from([None, 2]))
@example(seed=0, shape=(5, 2, 2, 3), kind="relu", channel_major=False, per_block=2)
def test_maxpool_matches_argmax_pooling_bit_for_bit(seed, shape, kind, channel_major,
                                                    per_block):
    """Max-pooling inside ``conv2d``'s blocks equals the argmax oracle bit for
    bit, ties included: ReLU'd values tie at zero, small integers tie
    everywhere.  With ``per_block`` the conv takes 2 instances per block, so
    3 or 5 instances span ragged blocks.  The identity conv turns -0.0 into
    0.0, so the oracle pools ``x + 0.0``."""
    rng = np.random.default_rng(seed)
    n, c, h2, w2 = shape
    if kind == "relu":
        x0 = relu(Tensor(np.round(rng.normal(size=(n, c, 2 * h2, 2 * w2)), 1))).data
    else:
        x0 = rng.integers(-2, 3, size=(n, c, 2 * h2, 2 * w2)).astype(np.float64)
    g = rng.normal(size=(n, c, h2, w2))
    out_ref, gx_ref = _pool_oracle(x0 + 0.0, g)
    x = Tensor(_channel_major(x0) if channel_major else x0, requires_grad=True)
    block_bytes = per_block * 8 * c * 4 * h2 * w2 if per_block else autodiff.CONV_BLOCK_BYTES
    with mock.patch.object(autodiff, "CONV_BLOCK_BYTES", block_bytes):
        out = _maxpool(x)
    _assert_same_bits(out.data, out_ref)
    backward(matmul(flatten(out), Tensor(g.reshape(-1))))
    _assert_same_bits(x.grad, np.zeros_like(x0) + gx_ref)


def test_spatial_stack_matches_einsum_on_a_dense_scene():
    """``spatial_features`` at default ``Dims`` on every ordered pair of a
    17-proposal scene, ragged across the blocks of both convs, matches
    einsum conv, ReLU, argmax pooling, conv, ReLU: the output and all four
    conv parameter gradients.  Both conv results are plain C-contiguous
    arrays, so the output is a view of the second ReLU's data."""
    dims = Dims(n_classes=7, n_predicates=6)
    scene = generate_dataset(SynthConfig(num_scenes=1, min_objects=14, max_objects=20))[0]
    masks = expand_masks(pair_geometry(scene, ordered_pairs(scene.n_proposals), dims)[0])
    n = len(masks)
    for cin, side, k in ((2, dims.mask_res, 5), (dims.conv1_channels, dims.pooled_res, 3)):
        step = autodiff.CONV_BLOCK_BYTES // (8 * cin * k * side * (side - k + 1))
        assert n > step and n % step  # the instances per block conv2d takes
    rng = np.random.default_rng(3)
    params = init_relfeat_params(dims, rng)
    for t in params.tensors():
        t.data += rng.normal(0.0, 0.05, t.data.shape)  # biases off zero
    g = rng.normal(size=(n, dims.spatial_len))
    out = spatial_features(masks, params)
    relu2 = out._parents[0]
    conv2 = relu2._parents[0]
    conv1 = conv2._parents[0]._parents[0]
    assert conv1.data.flags.c_contiguous and conv2.data.flags.c_contiguous
    assert np.shares_memory(out.data, relu2.data)
    backward(matmul(flatten(out), Tensor(g.reshape(-1))))

    w1, b1, w2, b2 = (t.data for t in (params.conv1_w, params.conv1_b,
                                       params.conv2_w, params.conv2_b))
    a1 = _conv_reference(masks, w1, b1)
    h1 = np.maximum(a1, 0.0)
    p1 = _pool_oracle(h1)
    a2 = _conv_reference(p1, w2, b2)
    _assert_close(out.data, np.maximum(a2, 0.0).reshape(n, -1))
    _, gp1, gw2, gb2 = _conv_reference(p1, w2, b2, g.reshape(a2.shape) * (a2 > 0))
    _, _, gw1, gb1 = _conv_reference(masks, w1, b1, _pool_oracle(h1, gp1)[1] * (a1 > 0))
    for t, expect in ((params.conv1_w, gw1), (params.conv1_b, gb1),
                      (params.conv2_w, gw2), (params.conv2_b, gb2)):
        _assert_close(t.grad, expect)


def test_relu_subgradient_zero_at_zero():
    """Backward reads the output, so -0.0 and the smallest subnormals must
    route as the input's sign would."""
    x = Tensor(np.array([-1.0, -5e-324, -0.0, 0.0, 5e-324, 2.0]), requires_grad=True)
    backward(matmul(relu(x), Tensor(np.ones(6))))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0])


def test_softmax_uniform_on_zeros():
    np.testing.assert_allclose(softmax(Tensor(np.zeros(4))).data, np.full(4, 0.25))


def test_cross_entropy_value_and_grad():
    logits = Tensor(np.zeros((1, 2)), requires_grad=True)
    loss = cross_entropy_with_softmax(logits, [0])
    assert loss.data.item() == pytest.approx(np.log(2.0))
    backward(loss)
    # gradient is (softmax - onehot) / rows
    np.testing.assert_allclose(logits.grad, [[-0.5, 0.5]])


def test_binary_logistic_loss_at_zero_logits():
    loss = binary_logistic_loss(Tensor(np.zeros(2)), [1.0, 0.0])
    assert loss.data.item() == pytest.approx(np.log(2.0))


def test_concat_cols_joins_columns():
    m = concat_cols([Tensor(np.ones((2, 1))), Tensor(np.zeros((2, 2)))])
    np.testing.assert_array_equal(m.data, [[1, 0, 0], [1, 0, 0]])


def test_flatten_from_axis_1_keeps_leading_axis():
    x = Tensor(np.arange(12.0).reshape(2, 3, 2))
    assert flatten(x, 1).data.shape == (2, 6)
    np.testing.assert_array_equal(flatten(x, 1).data[0], np.arange(6.0))
    assert flatten(x).data.shape == (12,)
    with pytest.raises(ShapeError):
        flatten(Tensor(np.ones(3)), 1)


def test_sigmoid_is_stable_at_extremes():
    out = _stable_sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)


# ---------------------------------------------------------------------------
# the tape


def test_backward_accumulates_through_shared_subtrees():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = add(x, x)  # dy/dx = 2
    backward(matmul(y, Tensor(np.ones(1))))
    np.testing.assert_array_equal(x.grad, [2.0])


def test_unreachable_leaf_keeps_zero_grad():
    x = Tensor(np.ones(2), requires_grad=True)
    y = Tensor(np.ones(2), requires_grad=True)
    backward(matmul(x, Tensor(np.ones(2))))
    np.testing.assert_array_equal(y.grad, np.zeros(2))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(relu(x))


def _leaf(rng, *shape):
    return Tensor(_away_from_zero(rng, shape), requires_grad=True)


def _message(rng):
    return message_mean(_leaf(rng, 3, 2), [0, 0, 2, 2, 2], _leaf(rng, 4, 3), [1, 3, 0, 3, 3],
                        _leaf(rng, 5, 4), _leaf(rng, 4), _leaf(rng, 4, 3), _leaf(rng, 3))


# every op once, on trainable operands: name -> rng -> result
EVERY_OP = {
    "add": lambda r: add(_leaf(r, 3, 4), _leaf(r, 3, 4)),
    "add_bias": lambda r: add_bias(_leaf(r, 3, 4), _leaf(r, 4)),
    "matmul": lambda r: matmul(_leaf(r, 3, 4), _leaf(r, 4, 2)),
    "matmul_vectors": lambda r: matmul(_leaf(r, 5), _leaf(r, 5)),
    "concat_cols": lambda r: concat_cols([_leaf(r, 3, 2), _leaf(r, 3, 4)]),
    "relu": lambda r: relu(_leaf(r, 3, 4)),
    "gather_rows": lambda r: gather_rows(_leaf(r, 4, 3), [0, 2, 2, 1, 0]),
    "message_mean": _message,
    "conv2d": lambda r: conv2d(_leaf(r, 2, 2, 6, 6), _leaf(r, 3, 2, 3, 3), _leaf(r, 3)),
    "conv2d_pool": lambda r: conv2d(_leaf(r, 2, 2, 6, 6), _leaf(r, 3, 2, 3, 3), _leaf(r, 3),
                                    pool=True),
    "flatten": lambda r: flatten(_leaf(r, 2, 3, 2), 1),
    "softmax": lambda r: softmax(_leaf(r, 3, 4)),
    "cross_entropy_with_softmax": lambda r: cross_entropy_with_softmax(_leaf(r, 4, 3),
                                                                       [0, 2, 1, 1]),
    "binary_logistic_loss": lambda r: binary_logistic_loss(_leaf(r, 6), [0, 1, 1, 0, 1, 0]),
}


@pytest.mark.parametrize("op", sorted(EVERY_OP))
def test_every_op_returns_c_contiguous_data(op):
    """No op hands out a transposed or strided view, so a consumer such as
    ``flatten`` reshapes without a copy."""
    assert EVERY_OP[op](np.random.default_rng(5)).data.flags.c_contiguous


@pytest.mark.parametrize("op", sorted(EVERY_OP))
def test_no_backward_writes_into_its_incoming_gradient(op):
    """An interior node keeps the first gradient it is handed, uncopied, so
    every op's backward must run on a read-only gradient."""
    rng = np.random.default_rng(5)
    out = EVERY_OP[op](rng)
    g = rng.normal(size=out.data.shape)
    g.setflags(write=False)
    out._backward(g)
    assert all(np.isfinite(p.grad).all() for p in out._parents)


def test_a_handed_over_gradient_survives_a_later_sum():
    """``add`` hands one array to the interior nodes ``a`` and ``b``; ``a``
    then receives a second gradient from an op created before the add.  The
    sum must not land in ``b``'s gradient, so the leaf gradient still
    matches finite differences.  Backward frees each node's gradient after
    the node has run, so the gradients are caught as the nodes' backwards
    are called; the finite-difference evaluations never call them."""
    rng = np.random.default_rng(6)
    c, v, u = rng.normal(size=4), rng.normal(size=12), rng.normal(size=12)
    seen = {}

    def catch(name, t):
        back = t._backward

        def caught(g):
            seen[name] = (g, g.copy())
            back(g)

        t._backward = caught

    def f(x):
        a, b = relu(x), add_bias(x, Tensor(c))
        t = softmax(a)  # created before the add, so its backward runs after it
        s = add(a, b)
        for name, node in (("a", a), ("b", b), ("s", s)):
            catch(name, node)
        return add(matmul(flatten(s), Tensor(v)), matmul(flatten(t), Tensor(u)))

    assert finite_difference_check(f, _away_from_zero(rng, (3, 4))) < 1e-6
    (ga, _), (gb, gb_bits), (gs, gs_bits) = seen["a"], seen["b"], seen["s"]
    assert gb is gs  # handed over, uncopied
    _assert_same_bits(gb, gs_bits)  # and left as ``s`` handed it over
    assert not np.shares_memory(ga, gs)  # the later sum is a new array


def _consumed_graph():
    """``flatten(relu(x @ w)) . 1`` after one backward, and ``w``'s gradient."""
    rng = np.random.default_rng(9)
    x, w = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    h = relu(matmul(x, w))
    loss = matmul(flatten(h), Tensor(np.ones(6)))
    backward(loss)
    return loss, h, w, w.grad.copy()


def test_a_second_backward_from_a_consumed_loss_fails():
    """Walking a graph again would add its interior gradients twice; it
    raises instead, before any gradient moves."""
    loss, _, w, grad = _consumed_graph()
    assert grad.any()
    with pytest.raises(RuntimeError, match="consumed by an earlier backward"):
        backward(loss)
    np.testing.assert_array_equal(w.grad, grad)


def test_a_new_graph_through_a_consumed_node_fails():
    """A new loss on a consumed interior node raises too, and its fresh
    branch from ``w`` adds nothing to ``w``'s gradient first."""
    _, h, w, grad = _consumed_graph()
    again = add(matmul(flatten(h), Tensor(np.full(6, 2.0))),
                matmul(flatten(relu(w)), Tensor(np.ones(8))))
    with pytest.raises(RuntimeError, match="consumed by an earlier backward"):
        backward(again)
    np.testing.assert_array_equal(w.grad, grad)


# ---------------------------------------------------------------------------
# error contracts


def test_shape_errors():
    with pytest.raises(ShapeError):
        add(Tensor(np.ones(2)), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    for a, b in (((2, 3), (3,)), ((3,), (3, 2)), ((1, 2, 3), (3, 2))):
        with pytest.raises(ShapeError):  # mixed or unsupported ranks
            matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))
    with pytest.raises(ShapeError, match="pooling needs an even output, got 3x4"):
        conv2d(Tensor(np.ones((1, 1, 4, 5))), Tensor(np.ones((1, 1, 2, 2))), Tensor(np.zeros(1)),
               pool=True)
    with pytest.raises(ShapeError):
        concat_cols([])
    with pytest.raises(ShapeError):
        cross_entropy_with_softmax(Tensor(np.zeros((2, 3))), [0])
    x, w1, b1, w2, b2 = (Tensor(np.ones(s)) for s in ((2, 3), (6, 4), (4,), (4, 2), (2,)))
    with pytest.raises(ShapeError, match="out of range"):
        message_mean(x, [0, 2], x, [1, 0], w1, b1, w2, b2)
    with pytest.raises(ShapeError, match="do not fit"):
        message_mean(x, [0, 1], x, [1, 0], w1, b1, b1, b2)
    with pytest.raises(ShapeError, match="sorted"):
        message_mean(x, [1, 0], x, [1, 0], w1, b1, w2, b2)


def test_nonfinite_leaf_rejected():
    with pytest.raises(NumericError):
        Tensor(np.array([1.0, np.nan]))
    with pytest.raises(NumericError):
        Tensor(np.array(np.inf), requires_grad=True)


def test_shape_error_is_value_error_and_numeric_is_arithmetic():
    assert issubclass(ShapeError, ValueError)
    assert issubclass(NumericError, ArithmeticError)


# ---------------------------------------------------------------------------
# optimizer and schedule


def test_momentum_two_steps_hand_computed():
    p = Tensor(np.zeros(1), requires_grad=True)
    opt = SgdMomentum([p], lr=1.0, momentum=0.9)
    for _ in range(2):
        p.grad[...] = 1.0
        opt.step()
    # v1 = 1, p1 = -1; v2 = 1.9, p2 = -2.9
    np.testing.assert_allclose(p.data, [-2.9])


def test_step_zeroes_grads():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = SgdMomentum([p], lr=0.1)
    p.grad[...] = 3.0
    opt.step()
    np.testing.assert_array_equal(p.grad, np.zeros(2))


def test_optimizer_rejects_non_trainable():
    with pytest.raises(ValueError):
        SgdMomentum([Tensor(np.zeros(2))])


def test_optimizer_rejects_a_tensor_listed_twice():
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError, match="distinct"):
        SgdMomentum([p, Tensor(np.zeros(3), requires_grad=True), p])


def _main_params():
    dims = Dims(n_classes=6, n_predicates=4)
    return dims, init_model_params(ModelConfig(dims=dims), seed=0).trainable()


def test_parameters_are_views_of_the_optimizer_buffers():
    """Building the optimizer keeps every value and rebinds each parameter's
    data and gradient onto the flat buffers, in order."""
    _, params = _main_params()
    rng = np.random.default_rng(0)
    for p in params:
        p.grad[...] = rng.normal(size=p.grad.shape)
    before = [(p.data.copy(), p.grad.copy()) for p in params]
    opt = SgdMomentum(params)
    lo = 0
    for p, (data, grad) in zip(params, before):
        hi = lo + data.size
        assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)
        assert np.array_equal(opt.data[lo:hi], data.ravel())
        assert np.array_equal(opt.grad[lo:hi], grad.ravel())
        assert p.data.shape == data.shape and p.grad.shape == grad.shape
        lo = hi
    assert lo == opt.data.size == opt.grad.size == opt.velocity.size


def test_flat_step_equals_the_per_tensor_loop_bit_for_bit():
    """Three steps, the last after a learning-rate decay, against the
    per-tensor update on separate arrays."""
    rng = np.random.default_rng(1)
    shapes = [(3, 4), (4,), (2, 3, 5), ()]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    ref = [p.data.copy() for p in params]
    ref_v = [np.zeros(s) for s in shapes]
    opt = SgdMomentum(params, lr=0.03, momentum=0.9)
    for epoch in (1, 2, 11):
        opt.set_epoch(epoch)
        for p, d, v in zip(params, ref, ref_v):
            g = rng.normal(size=d.shape)
            p.grad[...] = g
            v *= opt.momentum
            v += g
            d -= opt.lr * v
        opt.step()
        for p, d in zip(params, ref):
            _assert_same_bits(p.data, d)
            assert not p.grad.any()


def test_building_the_optimizer_stays_within_the_dims_budget():
    """``Dims`` budgets three floats per parameter entry for parameters,
    gradients and momenta.  The parameters and gradients already hold two,
    so building the optimizer may add only one more at its peak: the flat
    buffers are filled tensor by tensor and the velocity comes last."""
    tracemalloc.start()
    try:
        dims, params = _main_params()
        n = sum(p.data.size for p in params)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        SgdMomentum(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n <= dims.param_count
    assert 2 * 8 * n + (peak - held) <= 3 * 8 * n + 1024 * len(params)


def test_lr_schedule_decay_points():
    base = 0.005
    for epoch in range(1, 11):
        assert schedule_lr(base, epoch) == base
    assert schedule_lr(base, 11) == pytest.approx(base * 0.9)
    assert schedule_lr(base, 13) == pytest.approx(base * 0.9)
    assert schedule_lr(base, 14) == pytest.approx(base * 0.81)
    assert schedule_lr(base, 20) == pytest.approx(base * 0.9 ** 4)


def test_set_epoch_applies_schedule():
    p = Tensor(np.zeros(1), requires_grad=True)
    opt = SgdMomentum([p], lr=0.01)
    opt.set_epoch(12)
    assert opt.lr == pytest.approx(0.009)


def test_glorot_bound_and_determinism():
    rng = np.random.default_rng(3)
    w = glorot_uniform(rng, (50, 40), 50, 40)
    assert np.all(np.abs(w.data) <= np.sqrt(6.0 / 90.0))
    w2 = glorot_uniform(np.random.default_rng(3), (50, 40), 50, 40)
    np.testing.assert_array_equal(w.data, w2.data)


# ---------------------------------------------------------------------------
# finite differences


def test_every_op_passes_gradient_check():
    for seed in range(5):
        errs = check_all_ops(seed)
        assert max(errs.values()) < 1e-4, errs


def test_gradient_checks_are_deterministic():
    assert check_all_ops(11) == check_all_ops(11)


def test_gradient_checks_cover_every_op():
    """``check_all_ops`` and ``EVERY_OP`` name the same ops (``matmul_vectors``
    is ``matmul`` on two vectors), so an op added to or removed from one list
    fails here until the other list matches."""
    assert set(check_all_ops(0)) == {name.replace("matmul_vectors", "matmul")
                                     for name in EVERY_OP}


def test_finite_difference_check_flags_a_wrong_gradient():
    from sgg.autodiff import _accumulate

    def wrong_square(x):
        # forward of x**2 whose backward pretends d/dx = 1
        out = Tensor._from_op(x.data ** 2, (x,), lambda g: _accumulate(x, g))
        return matmul(out, Tensor(np.ones(3)))

    err = finite_difference_check(wrong_square, np.array([1.0, 2.0, 3.0]))
    assert err > 1e-2

