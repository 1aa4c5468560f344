"""Spatial mask rasterization and the two-layer conv feature chain."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgg.autodiff import (Tensor, _accumulate, backward, conv2d, finite_difference_check_params,
                          flatten, matmul, relu)
from sgg.config import Dims
from sgg.relation_features import (expand_masks, init_relfeat_params, pair_geometry,
                                   rasterize_mask, relation_features, spatial_features,
                                   union_visual)
from sgg.config import ModelConfig
from sgg.filter import ordered_pairs
from sgg.model import init_model_params
from sgg.scenes import Box, ObjectProposal, SceneRecord, pair_index
from sgg.synthetic import SynthConfig, generate_dataset
from sgg.training import prepare_scene

DIMS = Dims(n_classes=4, n_predicates=3, d_obj=6, d_union=6, d_rel=5,
            mask_res=12, conv1_channels=3, conv2_channels=3)


def pair_mask(box_i: Box, box_j: Box, resolution: int) -> np.ndarray:
    """The (2, R, R) mask of one pair."""
    return expand_masks(rasterize_mask([box_i.as_list()], [box_j.as_list()], resolution))[0]


def test_mask_left_half_at_res_4():
    m = pair_mask(Box(0, 0, 2, 4), Box(2, 0, 2, 4), resolution=4)
    assert m.shape == (2, 4, 4)
    # subject covers the left half of the union: 2 columns x 4 rows
    np.testing.assert_array_equal(m[0], np.repeat([[1, 1, 0, 0]], 4, axis=0))
    np.testing.assert_array_equal(m[1], np.repeat([[0, 0, 1, 1]], 4, axis=0))


def test_mask_translation_covariance():
    a = pair_mask(Box(1, 2, 3, 4), Box(2, 4, 5, 3), 16)
    b = pair_mask(Box(11, 32, 3, 4), Box(12, 34, 5, 3), 16)
    np.testing.assert_array_equal(a, b)


def test_mask_channel_swap_on_reversed_pair():
    a = pair_mask(Box(0, 0, 3, 3), Box(4, 1, 2, 5), 8)
    b = pair_mask(Box(4, 1, 2, 5), Box(0, 0, 3, 3), 8)
    np.testing.assert_array_equal(a[0], b[1])
    np.testing.assert_array_equal(a[1], b[0])


def test_mask_tiny_box_keeps_center_cell():
    # the box is thinner than a grid cell: no center falls inside, so the
    # rasterizer marks the cell under the box center instead
    m = pair_mask(Box(0, 0, 10, 10), Box(5.58, 5.58, 0.05, 0.05), 32)
    assert m[1].sum() == 1.0
    assert m[0].sum() > 0


def test_mask_values_are_binary():
    rng = np.random.default_rng(2)
    for _ in range(25):
        bi = Box(*rng.uniform(0, 30, 2), *rng.uniform(1, 20, 2))
        bj = Box(*rng.uniform(0, 30, 2), *rng.uniform(1, 20, 2))
        m = pair_mask(bi, bj, 16)
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert m[0].sum() >= 1 and m[1].sum() >= 1


def old_union_box(a: Box, b: Box) -> Box:
    """The scalar union box that ``scenes.union_frame`` replaced."""
    x = min(a.x, b.x)
    y = min(a.y, b.y)
    return Box(x, y, max(a.x2, b.x2) - x, max(a.y2, b.y2) - y)


def old_normalize_box(b: Box, u: Box) -> np.ndarray:
    """The scalar normalization that ``scenes.union_frame`` replaced."""
    return np.array([(b.x - u.x) / u.w, (b.y - u.y) / u.h, b.w / u.w, b.h / u.h])


def per_pair_mask(box_i: Box, box_j: Box, resolution: int) -> np.ndarray:
    """The per-pair rasterizer the batched one replaced, kept as its oracle."""
    u = old_union_box(box_i, box_j)
    mask = np.zeros((2, resolution, resolution))
    centers = (np.arange(resolution) + 0.5) / resolution
    for k, b in enumerate((box_i, box_j)):
        x, y, w, h = old_normalize_box(b, u)
        inside = (centers[:, None] >= y) & (centers[:, None] < y + h) \
            & (centers[None, :] >= x) & (centers[None, :] < x + w)
        if not inside.any():
            r = min(int((y + h / 2) * resolution), resolution - 1)
            c = min(int((x + w / 2) * resolution), resolution - 1)
            inside[max(r, 0), max(c, 0)] = True
        mask[k] = inside
    return mask


_coords = st.floats(0.0, 100.0)
_extents = st.one_of(st.floats(1e-3, 0.5), st.floats(0.5, 60.0))  # sub-cell or not


@st.composite
def box_pairs(draw):
    a = [draw(_coords), draw(_coords), draw(_extents), draw(_extents)]
    kind = draw(st.sampled_from(["free", "identical", "shared_x_edge", "shared_y_edge"]))
    if kind == "identical":
        return a, list(a)
    b = [draw(_coords), draw(_coords), draw(_extents), draw(_extents)]
    if kind == "shared_x_edge":
        b[0] = a[0] + a[2]
    elif kind == "shared_y_edge":
        b[1] = a[1] + a[3]
    return a, b


@settings(deadline=None, max_examples=300)
@given(pairs=st.lists(box_pairs(), min_size=1, max_size=6),
       resolution=st.sampled_from([12, 24, 32]))
@example(pairs=[([0, 0, 10, 10], [5.58, 5.58, 0.05, 0.05])], resolution=32)
@example(pairs=[([0, 0, 2, 4], [2, 0, 2, 4]), ([3, 3, 1, 1], [3, 3, 1, 1])], resolution=12)
@example(pairs=[([3, 3, 6, 6], [0, 0, 24, 24])], resolution=12)  # cell centers on both edges
def test_batched_masks_equal_the_per_pair_rasterizer(pairs, resolution):
    """Sub-cell boxes (the fallback cell), shared edges, identical boxes and
    edges through cell centers (closed below, open above) rasterize bit for
    bit as the per-pair code did."""
    sub, obj = np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])
    expect = np.stack([per_pair_mask(Box(*a), Box(*b), resolution) for a, b in pairs])
    np.testing.assert_array_equal(expand_masks(rasterize_mask(sub, obj, resolution)), expect)


def test_prepared_scene_keeps_indicators_that_expand_to_the_per_pair_masks():
    """A prepared training scene stores bool (P, 2, 2, R) indicators, 1/(4R)
    of the float64 masks' bytes, and their expansion is the per-pair
    rasterizer's masks bit for bit."""
    dims = Dims(n_classes=7, n_predicates=6)
    scene = generate_dataset(SynthConfig(num_scenes=1, min_objects=6, max_objects=6))[0]
    config = ModelConfig(dims=dims, use_srf=False)
    prep = prepare_scene(scene, init_model_params(config, seed=0), config, 0.5)
    assert prep.indicators.dtype == bool
    n = scene.n_proposals
    assert n > 3 and prep.indicators.shape == (n * (n - 1), 2, 2, dims.mask_res)
    expect = np.stack([per_pair_mask(scene.proposals[i].box, scene.proposals[j].box,
                                     dims.mask_res) for i, j in prep.edges])
    masks = expand_masks(prep.indicators)
    assert masks.dtype == np.float64 and masks.tobytes() == expect.tobytes()


def test_spatial_len_matches_conv_chain():
    params = init_relfeat_params(DIMS, np.random.default_rng(0))
    masks = np.stack([pair_mask(Box(0, 0, 4, 4), Box(2, 2, 4, 4), DIMS.mask_res)
                      for _ in range(3)])
    out = spatial_features(masks, params)
    assert out.data.shape == (3, DIMS.spatial_len)
    # (12 - 4) // 2 = 4 pooled cells, minus 2 for the second conv, squared
    assert DIMS.spatial_len == DIMS.conv2_channels * (DIMS.pooled_res - 2) ** 2


def test_relation_features_shapes_and_empty():
    params = init_relfeat_params(DIMS, np.random.default_rng(1))
    props = tuple(ObjectProposal(box=Box(3 * k, 2 * k, 6, 5),
                                 feature=np.linspace(0, 1, DIMS.d_obj),
                                 label_dist=np.full(4, 0.25))
                  for k in range(3))
    scene = SceneRecord(id="s", proposals=props,
                        gt_objects=(), gt_triplets=())
    indicators, visual = pair_geometry(scene, [(0, 1), (2, 0)], DIMS)
    assert indicators.shape == (2, 2, 2, DIMS.mask_res) and indicators.dtype == bool
    assert expand_masks(indicators).shape == (2, 2, DIMS.mask_res, DIMS.mask_res)
    assert visual.shape == (2, DIMS.d_union)
    out = relation_features(indicators, visual, params, DIMS)
    assert out.data.shape == (2, DIMS.d_rel)
    empty = relation_features(*pair_geometry(scene, [], DIMS), params, DIMS)
    assert empty.data.shape == (0, DIMS.d_rel)


def test_union_visual_truncates_and_pads():
    props = tuple(ObjectProposal(box=Box(4 * k, k, 5, 5),
                                 feature=np.arange(1.0, 7.0),
                                 label_dist=np.full(4, 0.25))
                  for k in range(2))
    scene = SceneRecord(id="s", proposals=props,
                        gt_objects=(), gt_triplets=())
    v = union_visual(scene, [(0, 1)], d_union=6)[0]
    assert v.shape == (6,)
    long = union_visual(scene, [(0, 1)], d_union=20)[0]
    assert long.shape == (20,)
    # layout: both union-normalized boxes, then the feature mean, then padding
    np.testing.assert_allclose(long[:8], [0, 0, 5 / 9, 5 / 6, 4 / 9, 1 / 6, 5 / 9, 5 / 6])
    np.testing.assert_array_equal(long[8:14], np.arange(1.0, 7.0))
    np.testing.assert_array_equal(long[14:], np.zeros(6))
    np.testing.assert_array_equal(v, long[:6])  # truncation drops the tail


def test_pair_visual_passthrough():
    props = tuple(ObjectProposal(box=Box(4 * k, k, 5, 5), feature=np.zeros(6),
                                 label_dist=np.full(4, 0.25))
                  for k in range(2))
    custom = np.arange(6.0)
    scene = SceneRecord(id="s", proposals=props,
                        gt_objects=(), gt_triplets=(),
                        pair_visual={(0, 1): custom})
    np.testing.assert_array_equal(union_visual(scene, [(0, 1)], 6)[0], custom)
    with pytest.raises(ValueError):
        union_visual(scene, [(0, 1)], 7)


def old_union_visual(scene: SceneRecord, i: int, j: int, d_union: int) -> np.ndarray:
    """The per-pair union visual the batched one replaced, kept as its oracle."""
    if scene.pair_visual is not None and (i, j) in scene.pair_visual:
        v = scene.pair_visual[(i, j)]
        if v.shape != (d_union,):
            raise ValueError(f"{scene.id}: pair_visual[{i},{j}] has length {v.shape[0]}, "
                             f"expected {d_union}")
        return v
    pi, pj = scene.proposals[i], scene.proposals[j]
    u = old_union_box(pi.box, pj.box)
    raw = np.concatenate([old_normalize_box(pi.box, u), old_normalize_box(pj.box, u),
                          (pi.feature + pj.feature) / 2.0])
    if raw.shape[0] >= d_union:
        return raw[:d_union]
    return np.concatenate([raw, np.zeros(d_union - raw.shape[0])])


D_OBJ = 5  # surrogate rows are 8 + D_OBJ long before truncation or padding
_d_unions = st.one_of(st.integers(1, 7), st.integers(8, 8 + D_OBJ),
                      st.integers(9 + D_OBJ, 30))


@st.composite
def visual_cases(draw):
    """A scene of 2-5 proposals, some of its ordered pairs (repeats allowed,
    maybe none), ``d_union`` and optional pooled pair features, a few of them
    of the wrong length."""
    n = draw(st.integers(2, 5))
    d_union = draw(_d_unions)
    props = tuple(ObjectProposal(
        box=Box(*(draw(_coords) for _ in range(2)), *(draw(_extents) for _ in range(2))),
        feature=np.array(draw(st.lists(st.floats(-50.0, 50.0), min_size=D_OBJ,
                                       max_size=D_OBJ))),
        label_dist=np.full(4, 0.25)) for _ in range(n))
    pooled = None
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(ordered_pairs(n)), unique=True, max_size=6))
        lengths = st.sampled_from([d_union] * 6 + [d_union + 1, max(d_union - 1, 0)])
        pooled = {k: np.arange(draw(lengths), dtype=np.float64) + 7 * k[0] + k[1]
                  for k in keys}
    scene = SceneRecord(id="v", proposals=props, gt_objects=(),
                        gt_triplets=(), pair_visual=pooled)
    return scene, draw(st.lists(st.sampled_from(ordered_pairs(n)), max_size=12)), d_union


def _outcome(fn):
    try:
        return fn(), None
    except ValueError as exc:
        return None, str(exc)


@settings(deadline=None, max_examples=300)
@given(case=visual_cases())
@example(case=(SceneRecord(id="w", proposals=tuple(
    ObjectProposal(box=Box(k, k, 2, 3), feature=np.ones(D_OBJ), label_dist=np.full(4, 0.25))
    for k in range(3)), gt_objects=(), gt_triplets=(),
    pair_visual={(0, 1): np.zeros(8), (2, 1): np.zeros(9)}), [(1, 2), (2, 1), (0, 1)], 8))
@example(case=(SceneRecord(id="w", proposals=tuple(
    ObjectProposal(box=Box(k, k, 2, 3), feature=np.ones(D_OBJ), label_dist=np.full(4, 0.25))
    for k in range(3)), gt_objects=(), gt_triplets=(),
    pair_visual={(0, 1): np.zeros(7), (2, 1): np.zeros(9)}), [(1, 2), (2, 1), (0, 1)], 8))
def test_union_visual_equals_the_per_pair_code(case):
    """Every ``d_union`` regime (below the 8 box columns, inside the feature
    mean, past it), scenes with and without pooled pair features, and pooled
    features of the wrong length: the batched rows equal the per-pair rows
    bit for bit, and a wrong-length row for a listed pair raises the same
    error, naming the first such pair."""
    scene, pairs, d_union = case
    got, got_err = _outcome(lambda: union_visual(scene, pairs, d_union))
    want, want_err = _outcome(lambda: np.array(
        [old_union_visual(scene, i, j, d_union) for i, j in pairs]).reshape(-1, d_union))
    assert got_err == want_err
    if want_err is None:
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_conv_chain_gradients():
    params = init_relfeat_params(DIMS, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    for t in params.tensors():
        t.data += rng.normal(0.0, 0.05, t.data.shape)  # move relu off its kink
    indicators = rasterize_mask([[0, 0, 5, 7]], [[3, 2, 6, 4]], DIMS.mask_res)
    visual = rng.normal(size=(1, DIMS.d_union))

    def loss():
        fused = relation_features(indicators, visual, params, DIMS)
        from sgg.autodiff import flatten, matmul
        return matmul(flatten(fused), Tensor(np.ones(DIMS.d_rel)))

    err = finite_difference_check_params(loss, params.tensors())
    assert err < 1e-4


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 as a tape op of its own; ties route the
    gradient to the first max of (0,0), (0,1), (1,0), (1,1).  The reference
    for the pooling ``conv2d`` does inside its blocks."""
    pairs = np.maximum(x.data[..., 0::2], x.data[..., 1::2])  # max of each column pair
    out = np.maximum(pairs[:, :, 0::2], pairs[:, :, 1::2])

    def back(g):
        top = pairs[:, :, 0::2] == out
        g_rows = np.empty_like(pairs)
        np.multiply(g, top, out=g_rows[:, :, 0::2])
        np.multiply(g, ~top, out=g_rows[:, :, 1::2])
        left = x.data[..., 0::2] == pairs
        gx = np.empty_like(x.data)
        np.multiply(g_rows, left, out=gx[..., 0::2])
        np.multiply(g_rows, ~left, out=gx[..., 1::2])
        _accumulate(x, gx)

    return Tensor._from_op(out, (x,), back)


def test_pooling_before_the_relu_is_exact():
    """``spatial_features`` pools conv1 before its ReLU, inside the conv.  On
    every pair of a dense scene, whose conv1 outputs hold negatives, zeros
    and windows that pool to at most zero, it equals the ReLU-then-pool stack
    of an unpooled conv and a separate pooling op exactly: the output and
    the ``conv1.w``, ``conv2.w`` and ``conv2.b`` gradients.  ``conv1.b``'s
    gradient now sums the pooled gradient, where the separate op summed the
    zero-filled full-resolution one: the same nonzero summands in another
    order, so it agrees to rounding."""
    dims = Dims(n_classes=7, n_predicates=6)
    scene = generate_dataset(SynthConfig(num_scenes=1, min_objects=14, max_objects=20))[0]
    masks = expand_masks(pair_geometry(scene, ordered_pairs(scene.n_proposals), dims)[0])
    params = init_relfeat_params(dims, np.random.default_rng(3))
    convs = (params.conv1_w, params.conv1_b, params.conv2_w, params.conv2_b)
    old = [Tensor(t.data.copy(), requires_grad=True) for t in convs]
    a1 = conv2d(Tensor(masks), *old[:2]).data
    pooled = a1.reshape(*a1.shape[:2], -1, 2, a1.shape[3] // 2, 2).max(axis=(3, 5))
    assert (a1 < 0).any() and (a1 == 0).any() and (pooled <= 0).any() and (pooled > 0).any()
    g = Tensor(np.random.default_rng(4).normal(size=len(masks) * dims.spatial_len))

    out = spatial_features(masks, params)
    backward(matmul(flatten(out), g))
    h = relu(conv2d(maxpool2d(relu(conv2d(Tensor(masks), *old[:2]))), *old[2:]))
    want = flatten(h, 1)
    backward(matmul(flatten(want), g))
    assert np.array_equal(out.data, want.data)
    for t, o in zip(convs, old):
        if t is params.conv1_b:
            np.testing.assert_allclose(t.grad, o.grad, rtol=1e-13, atol=0)
        else:
            assert np.array_equal(t.grad, o.grad)


def test_spatial_features_keeps_no_full_resolution_conv1_output():
    """Forward and backward over the 420 ordered pairs of a 21-proposal scene
    at default ``Dims`` peak below twice conv1's full-resolution output
    (420 x 8 x 28 x 28 floats, 21 MB): conv1 pools inside its blocks, so its
    tape keeps the pooled map and two bool masks."""
    dims = Dims(n_classes=7, n_predicates=6)
    rng = np.random.default_rng(0)
    boxes = np.concatenate([rng.uniform(0, 60, (21, 2)), rng.uniform(4, 40, (21, 2))], axis=1)
    ij = pair_index(ordered_pairs(21))
    masks = expand_masks(rasterize_mask(boxes[ij[:, 0]], boxes[ij[:, 1]], dims.mask_res))
    params = init_relfeat_params(dims, rng)
    g = Tensor(rng.normal(size=len(masks) * dims.spatial_len))
    conv1_bytes = 8 * len(masks) * dims.conv1_channels * (dims.mask_res - 4) ** 2
    tracemalloc.start()
    try:
        backward(matmul(flatten(spatial_features(masks, params)), g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(masks) == 420
    assert peak < 2 * conv1_bytes, peak / conv1_bytes
