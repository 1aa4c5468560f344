"""Finite-difference verification of the op set and of the assembled model.

``check_all_ops`` exercises every differentiable op against central
differences through a fixed random projection; ``pipeline_gradient_check``
differentiates the full scene loss (spatial conv features, message passing,
both classifier heads) with respect to every trainable parameter of a small
model and reports the worst relative error.  The loss runs ``model.forward``,
the same pass evaluation and prediction run.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (Tensor, add, add_bias, binary_logistic_loss, concat_cols, conv2d,
                       cross_entropy_with_softmax, finite_difference_check,
                       finite_difference_check_params, flatten, gather_rows, matmul,
                       message_mean, relu, softmax)
from .config import Dims, ModelConfig
from .model import init_model_params
from .scenes import IOU_THRESHOLD, Box, GtObject, ObjectProposal, SceneRecord, Triplet
from .training import prepare_scene, scene_loss


def _away_from_zero(rng, shape):
    """Random values with |x| >= 0.2 so relu kinks sit far from the probe."""
    return rng.uniform(0.2, 1.5, shape) * rng.choice([-1.0, 1.0], shape)


def check_all_ops(seed: int = 0, eps: float = 1e-5) -> dict[str, float]:
    """Max relative gradient error per op; every value should be < 1e-4."""
    rng = np.random.default_rng([seed, 0x0D5])
    results: dict[str, float] = {}

    def check(name, build, x0):
        out = build(Tensor(np.asarray(x0, dtype=np.float64)))
        if out.data.shape == ():
            f = build
        else:
            v = rng.normal(size=out.data.size)

            def f(leaf):
                return matmul(flatten(build(leaf)), Tensor(v))

        err = finite_difference_check(f, x0, eps)
        results[name] = max(results.get(name, 0.0), err)

    # constants are drawn up front: every closure must compute the same
    # function on each of the many finite-difference evaluations
    c34 = Tensor(rng.normal(size=(3, 4)))
    bias4 = Tensor(rng.normal(size=4))
    check("add", lambda x: add(x, c34), rng.normal(size=(3, 4)))
    check("add", lambda x: add(c34, x), rng.normal(size=(3, 4)))
    check("add_bias", lambda x: add_bias(x, bias4), rng.normal(size=(3, 4)))
    check("add_bias", lambda x: add_bias(c34, x), rng.normal(size=4))

    b42 = Tensor(rng.normal(size=(4, 2)))
    v5 = Tensor(rng.normal(size=5))
    check("matmul", lambda x: matmul(x, b42), rng.normal(size=(3, 4)))
    check("matmul", lambda x: matmul(c34, x), rng.normal(size=(4, 2)))
    check("matmul", lambda x: matmul(x, v5), rng.normal(size=5))

    c32 = Tensor(rng.normal(size=(3, 2)))
    check("concat_cols", lambda x: concat_cols([c32, x]), rng.normal(size=(3, 4)))

    check("relu", relu, _away_from_zero(rng, (3, 4)))
    check("gather_rows", lambda x: gather_rows(x, [0, 2, 2, 1, 0]),
          rng.normal(size=(4, 3)))

    # targets 0 and 2 (target 1 has no rows), sources of another width; the
    # check replaces one of the six inputs at a time with the probed leaf
    mm = [rng.normal(size=shape) for shape in ((3, 2), (4, 3), (5, 4), 4, (4, 3), 3)]
    for k, x0 in enumerate(mm):
        def build(x, k=k):
            a = [x if i == k else Tensor(v) for i, v in enumerate(mm)]
            return message_mean(a[0], [0, 0, 2, 2, 2], a[1], [1, 3, 0, 3, 3], *a[2:])

        check("message_mean", build, x0)

    cw = rng.normal(size=(3, 2, 3, 3))
    cb = rng.normal(size=3)
    cx = rng.normal(size=(2, 2, 6, 6))
    tw, tb, tx = Tensor(cw), Tensor(cb), Tensor(cx)
    check("conv2d", lambda x: conv2d(x, tw, tb), cx)
    check("conv2d", lambda w: conv2d(tx, w, tb), cw)
    check("conv2d", lambda b: conv2d(tx, tw, b), cb)

    def tie_gap(x):  # the least margin of a pooled window's max over the rest
        a = conv2d(x, tw, tb).data.reshape(2, 3, 2, 2, 2, 2).swapaxes(3, 4)
        return np.diff(np.sort(a.reshape(-1, 4))[:, 2:]).min()

    while tie_gap(tx) < 0.1:  # so that no probe moves a window's max
        tx = Tensor(rng.normal(size=cx.shape))
    check("conv2d_pool", lambda x: conv2d(x, tw, tb, pool=True), tx.data)
    check("conv2d_pool", lambda w: conv2d(tx, w, tb, pool=True), cw)
    check("conv2d_pool", lambda b: conv2d(tx, tw, b, pool=True), cb)

    check("flatten", flatten, rng.normal(size=(2, 3, 2)))
    check("softmax", softmax, rng.normal(size=(3, 4)))
    check("cross_entropy_with_softmax",
          lambda x: cross_entropy_with_softmax(x, [0, 2, 1, 1]),
          rng.normal(size=(4, 3)))
    check("binary_logistic_loss",
          lambda x: binary_logistic_loss(x, [0, 1, 1, 0, 1, 0]),
          rng.normal(size=6))
    return results


# ---------------------------------------------------------------------------
# whole-pipeline check


PIPELINE_DIMS = Dims(n_classes=4, n_predicates=3, d_obj=6, d_emb=3, d_union=6,
                     d_rel=6, d_pe=3, mask_res=12, conv1_channels=3, conv2_channels=3)


def _pipeline_scene(rng, dims: Dims) -> SceneRecord:
    boxes = [Box(4, 4, 20, 20), Box(16, 8, 20, 24), Box(36, 30, 22, 22),
             Box(8, 36, 18, 16)]
    classes = [1, 2, 3, 1]
    props = []
    for box, cls in zip(boxes, classes):
        z = rng.normal(size=dims.n_classes) + 2.0 * np.eye(dims.n_classes)[cls]
        dist = np.exp(z - z.max())
        props.append(ObjectProposal(box=box, feature=rng.normal(size=dims.d_obj),
                                    label_dist=dist / dist.sum()))
    return SceneRecord(
        id="gradcheck-0", proposals=tuple(props),
        gt_objects=tuple(GtObject(box=b, cls=c) for b, c in zip(boxes, classes)),
        gt_triplets=(Triplet(0, 0, 1), Triplet(1, 2, 2), Triplet(2, 1, 3)))


def pipeline_gradient_check(seed: int = 0, eps: float = 1e-5) -> float:
    """Worst relative error of d(loss)/d(theta) over all trainable tensors.

    The model is evaluated at a random offset from its initialisation so that
    no relu sits exactly on its kink (fresh conv biases are zero, which would
    put every empty mask window on one).  Like a training step, the check
    runs on every ordered pair of the scene (``prepare_scene``), so the
    edge set stays fixed while parameters are nudged.
    """
    config = ModelConfig(dims=PIPELINE_DIMS, iterations=2, use_srf=False)
    params = init_model_params(config, seed)
    rng = np.random.default_rng([seed, 0xD1F])
    for t in params.trainable():
        t.data += rng.normal(0.0, 0.05, t.data.shape)

    prep = prepare_scene(_pipeline_scene(rng, config.dims), params, config,
                         match_iou=IOU_THRESHOLD)
    rel_rows = np.arange(prep.rel_targets.size)

    def loss_fn():
        return scene_loss(prep, params, config, rel_rows)

    return finite_difference_check_params(loss_fn, params.trainable(), eps)
