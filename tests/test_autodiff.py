"""Unit and property tests for the reverse-mode engine and optimizer."""

import numpy as np
import pytest

from sgg.autodiff import (NumericError, SgdMomentum, ShapeError, Tensor, add,
                          add_bias, backward, binary_logistic_loss, concat_cols,
                          conv2d, cross_entropy_with_softmax,
                          finite_difference_check, flatten, flatten_rows,
                          gather_rows, glorot_uniform, matmul, maxpool2d, relu,
                          schedule_lr, segment_mean, sigmoid, softmax)
from sgg.gradcheck import check_all_ops


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


def test_segment_mean_leaves_empty_segments_zero():
    m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    out = segment_mean(m, [0, 0, 2], 3)
    np.testing.assert_array_equal(out.data, [[2.0, 3.0], [0.0, 0.0], [5.0, 6.0]])


def test_conv2d_hand_computed():
    x = Tensor(np.arange(1.0, 10.0).reshape(1, 1, 3, 3))
    w = Tensor(np.ones((1, 1, 2, 2)))
    b = Tensor(np.zeros(1))
    out = conv2d(x, w, b)
    np.testing.assert_array_equal(out.data, [[[[12.0, 16.0], [24.0, 28.0]]]])


def test_maxpool_forward_and_tie_routing():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
    out = maxpool2d(x)
    assert out.data.item() == 4.0
    # a fully tied window routes its whole gradient to the top-left entry
    t = Tensor(np.full((1, 1, 2, 2), 7.0), requires_grad=True)
    backward(matmul(flatten(maxpool2d(t)), Tensor(np.ones(1))))
    np.testing.assert_array_equal(t.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


def test_relu_subgradient_zero_at_zero():
    x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
    backward(matmul(relu(x), Tensor(np.ones(3))))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


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


def test_flatten_rows_keeps_leading_axis():
    x = Tensor(np.arange(12.0).reshape(2, 3, 2))
    assert flatten_rows(x).data.shape == (2, 6)
    np.testing.assert_array_equal(flatten_rows(x).data[0], np.arange(6.0))


def test_sigmoid_is_stable_at_extremes():
    out = sigmoid(Tensor(np.array([-1000.0, 0.0, 1000.0])))
    np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)


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


# ---------------------------------------------------------------------------
# error contracts


def test_shape_errors():
    with pytest.raises(ShapeError):
        add(Tensor(np.ones(2)), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        maxpool2d(Tensor(np.ones((1, 1, 3, 4))))
    with pytest.raises(ShapeError):
        concat_cols([])
    with pytest.raises(ShapeError):
        cross_entropy_with_softmax(Tensor(np.zeros((2, 3))), [0])


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


def test_finite_difference_check_flags_a_wrong_gradient():
    from sgg.autodiff import _accumulate

    def wrong_square(x):
        # forward of x**2 whose backward pretends d/dx = 1
        out = Tensor._from_op(x.data ** 2, (x,), lambda g: _accumulate(x, g))
        return matmul(out, Tensor(np.ones(3)))

    err = finite_difference_check(wrong_square, np.array([1.0, 2.0, 3.0]))
    assert err > 1e-2

