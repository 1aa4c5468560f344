"""Spatial mask rasterization and the two-layer conv feature chain."""

import numpy as np
import pytest

from sgg.autodiff import Tensor, finite_difference_check_params
from sgg.config import Dims
from sgg.relation_features import (init_relfeat_params, pair_geometry, rasterize_mask,
                                   relation_features, spatial_features, union_visual)
from sgg.scenes import Box, ObjectProposal, SceneRecord

DIMS = Dims(n_classes=4, n_predicates=3, d_obj=6, d_union=6, d_rel=5,
            mask_res=12, conv1_channels=3, conv2_channels=3)


def test_mask_left_half_at_res_4():
    m = rasterize_mask(Box(0, 0, 2, 4), Box(2, 0, 2, 4), resolution=4)
    assert m.shape == (2, 4, 4)
    # subject covers the left half of the union: 2 columns x 4 rows
    np.testing.assert_array_equal(m[0], np.repeat([[1, 1, 0, 0]], 4, axis=0))
    np.testing.assert_array_equal(m[1], np.repeat([[0, 0, 1, 1]], 4, axis=0))


def test_mask_translation_covariance():
    a = rasterize_mask(Box(1, 2, 3, 4), Box(2, 4, 5, 3), 16)
    b = rasterize_mask(Box(11, 32, 3, 4), Box(12, 34, 5, 3), 16)
    np.testing.assert_array_equal(a, b)


def test_mask_channel_swap_on_reversed_pair():
    a = rasterize_mask(Box(0, 0, 3, 3), Box(4, 1, 2, 5), 8)
    b = rasterize_mask(Box(4, 1, 2, 5), Box(0, 0, 3, 3), 8)
    np.testing.assert_array_equal(a[0], b[1])
    np.testing.assert_array_equal(a[1], b[0])


def test_mask_tiny_box_keeps_center_cell():
    # the box is thinner than a grid cell: no center falls inside, so the
    # rasterizer marks the cell under the box center instead
    m = rasterize_mask(Box(0, 0, 10, 10), Box(5.58, 5.58, 0.05, 0.05), 32)
    assert m[1].sum() == 1.0
    assert m[0].sum() > 0


def test_mask_values_are_binary():
    rng = np.random.default_rng(2)
    for _ in range(25):
        bi = Box(*rng.uniform(0, 30, 2), *rng.uniform(1, 20, 2))
        bj = Box(*rng.uniform(0, 30, 2), *rng.uniform(1, 20, 2))
        m = rasterize_mask(bi, bj, 16)
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert m[0].sum() >= 1 and m[1].sum() >= 1


def test_spatial_len_matches_conv_chain():
    params = init_relfeat_params(DIMS, np.random.default_rng(0))
    masks = np.stack([rasterize_mask(Box(0, 0, 4, 4), Box(2, 2, 4, 4), DIMS.mask_res)
                      for _ in range(3)])
    out = spatial_features(masks, params)
    assert out.data.shape == (3, DIMS.spatial_len)
    # (12 - 4) // 2 = 4 pooled cells, minus 2 for the second conv, squared
    assert DIMS.spatial_len == DIMS.conv2_channels * (DIMS.pooled_res - 2) ** 2


def test_relation_features_shapes_and_empty():
    params = init_relfeat_params(DIMS, np.random.default_rng(1))
    props = tuple(ObjectProposal(box=Box(3 * k, 2 * k, 6, 5),
                                 feature=np.linspace(0, 1, DIMS.d_obj),
                                 label_dist=np.full(4, 0.25), gt_class=None)
                  for k in range(3))
    scene = SceneRecord(id="s", image_size=(32, 32), proposals=props,
                        gt_objects=(), gt_triplets=())
    masks, visual = pair_geometry(scene, [(0, 1), (2, 0)], DIMS)
    assert masks.shape == (2, 2, DIMS.mask_res, DIMS.mask_res)
    assert visual.shape == (2, DIMS.d_union)
    out = relation_features(masks, visual, params, DIMS)
    assert out.data.shape == (2, DIMS.d_rel)
    empty = relation_features(*pair_geometry(scene, [], DIMS), params, DIMS)
    assert empty.data.shape == (0, DIMS.d_rel)


def test_union_visual_truncates_and_pads():
    props = tuple(ObjectProposal(box=Box(4 * k, k, 5, 5),
                                 feature=np.arange(1.0, 7.0),
                                 label_dist=np.full(4, 0.25), gt_class=None)
                  for k in range(2))
    scene = SceneRecord(id="s", image_size=(32, 32), proposals=props,
                        gt_objects=(), gt_triplets=())
    v = union_visual(scene, 0, 1, d_union=6)
    assert v.shape == (6,)
    long = union_visual(scene, 0, 1, d_union=20)
    assert long.shape == (20,)
    # layout: both union-normalized boxes, then the feature mean, then padding
    np.testing.assert_allclose(long[:8], [0, 0, 5 / 9, 5 / 6, 4 / 9, 1 / 6, 5 / 9, 5 / 6])
    np.testing.assert_array_equal(long[8:14], np.arange(1.0, 7.0))
    np.testing.assert_array_equal(long[14:], np.zeros(6))
    np.testing.assert_array_equal(v, long[:6])  # truncation drops the tail


def test_pair_visual_passthrough():
    props = tuple(ObjectProposal(box=Box(4 * k, k, 5, 5), feature=np.zeros(6),
                                 label_dist=np.full(4, 0.25), gt_class=None)
                  for k in range(2))
    custom = np.arange(6.0)
    scene = SceneRecord(id="s", image_size=(32, 32), proposals=props,
                        gt_objects=(), gt_triplets=(),
                        pair_visual={(0, 1): custom})
    np.testing.assert_array_equal(union_visual(scene, 0, 1, 6), custom)
    with pytest.raises(ValueError):
        union_visual(scene, 0, 1, 7)


def test_conv_chain_gradients():
    params = init_relfeat_params(DIMS, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    for t in params.tensors():
        t.data += rng.normal(0.0, 0.05, t.data.shape)  # move relu off its kink
    masks = np.stack([rasterize_mask(Box(0, 0, 5, 7), Box(3, 2, 6, 4), DIMS.mask_res)])
    visual = rng.normal(size=(1, DIMS.d_union))

    def loss():
        fused = relation_features(masks, visual, params, DIMS)
        from sgg.autodiff import flatten, matmul
        return matmul(flatten(fused), Tensor(np.ones(DIMS.d_rel)))

    err = finite_difference_check_params(loss, params.tensors())
    assert err < 1e-4
