"""Initial relation features for ordered proposal pairs.

The spatial configuration of a pair is rasterized as a two-channel binary
mask on the pair's union box (channel 0 = subject, channel 1 = object),
passed through a small conv stack, and fused with a visual feature of the
union region by one affine layer with ReLU.  When the scene carries no
pooled pair visual, a surrogate is built from the two proposal features and
their normalized boxes.

Masks and surrogate visuals read one union frame (``scenes.union_frame``),
and ``pair_geometry`` builds both for a whole pair list in one
``rasterize_mask`` and one ``union_visual`` call.  A mask channel is the
outer product of a row and a column interval indicator; ``rasterize_mask``
returns these bool indicators, all that a prepared training scene keeps,
and ``relation_features`` expands them into float64 masks
(``expand_masks``) just before the conv stack.  The conv stack runs on
``autodiff.conv2d``, which works in blocks of pairs and lowers each block
along the width only: one copy of its kw-wide windows (up to 5 copies of
each mask cell for conv1, where an im2col makes up to 25) and kh GEMMs
over it.  So its memory grows with the conv outputs, not with an im2col
matrix of every pair.  The first conv is pooled inside its blocks, before
its ReLU, so the tape holds no full-resolution conv1 output and the ReLU
runs on a quarter of the cells; the order is exact (see
``spatial_features``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, concat_cols, conv2d, flatten, glorot_uniform, relu, zeros_param
from .config import Dims
from .nn import Affine, ParamGroup, make_affine
from .scenes import SceneRecord, pair_index, union_frame


@dataclass
class RelFeatParams(ParamGroup):
    conv1_w: Tensor = field(metadata={"name": "conv1.w"})  # (c1, 2, 5, 5)
    conv1_b: Tensor = field(metadata={"name": "conv1.b"})
    conv2_w: Tensor = field(metadata={"name": "conv2.w"})  # (c2, c1, 3, 3)
    conv2_b: Tensor = field(metadata={"name": "conv2.b"})
    fuse: Affine  # (d_union + spatial_len) -> d_rel


def init_relfeat_params(dims: Dims, rng: np.random.Generator) -> RelFeatParams:
    c1, c2 = dims.conv1_channels, dims.conv2_channels
    return RelFeatParams(
        conv1_w=glorot_uniform(rng, (c1, 2, 5, 5), 2 * 25, c1 * 25),
        conv1_b=zeros_param((c1,)),
        conv2_w=glorot_uniform(rng, (c2, c1, 3, 3), c1 * 9, c2 * 9),
        conv2_b=zeros_param((c2,)),
        fuse=make_affine(rng, dims.d_union + dims.spatial_len, dims.d_rel),
    )


def rasterize_mask(sub_boxes, obj_boxes, resolution: int) -> np.ndarray:
    """Interval indicators of box pairs on their union boxes, from which
    ``expand_masks`` builds two-channel binary occupancy grids.

    ``sub_boxes`` and ``obj_boxes`` are (P, 4) arrays of [x, y, w, h]; the
    result is a (P, 2, 2, R) bool array: pair, box (0 the subject, 1 the
    object), axis (0 the columns, 1 the rows), cell.  An entry is set iff
    the cell's center, in coordinates normalized to the union box, falls
    inside that box's interval on that axis.  A box too thin to cover any
    cell center still covers its center cell, so no mask channel is all
    zero.
    """
    if resolution < 1:
        raise ValueError("mask resolution must be positive")
    frame = union_frame(sub_boxes, obj_boxes)
    start, extent = frame[..., :2], frame[..., 2:]  # (P, 2, [x, y]) and (P, 2, [w, h])
    centers = (np.arange(resolution) + 0.5) / resolution
    inside = (centers >= start[..., None]) & (centers < (start + extent)[..., None])
    empty = ~inside.any(axis=-1).all(axis=-1)  # (P, 2): no cell center is covered
    if empty.any():
        cell = ((start + extent / 2) * resolution).astype(np.intp)
        inside[empty] = np.arange(resolution) == np.clip(cell[empty], 0, resolution - 1)[..., None]
    return inside


def expand_masks(inside: np.ndarray) -> np.ndarray:
    """The (P, 2, R, R) float64 masks of ``rasterize_mask``'s indicators:
    cell (r, c) of a channel is set iff row r and column c are inside."""
    cols, rows = inside[:, :, 0], inside[:, :, 1]
    return (rows[..., :, None] & cols[..., None, :]).astype(np.float64)


def spatial_features(masks: np.ndarray, params: RelFeatParams) -> Tensor:
    """Conv stack over a batch of masks: 5x5 conv, 2x2 pool, ReLU, 3x3 conv,
    ReLU, flatten.  Accepts (n, 2, R, R) and returns (n, spatial_len).

    conv1 is pooled inside its blocks, after its bias and before its ReLU,
    so no full-resolution conv1 output stays on the tape.  That order gives
    ReLU-then-pool's values (``max(relu(a), ...) = relu(max(a, ...))``) and
    gradients: a window with a positive max routes to its first entry equal
    to that max either way, and one whose max is at most 0 passes zero.
    """
    x = Tensor(np.asarray(masks, dtype=np.float64))
    h = relu(conv2d(x, params.conv1_w, params.conv1_b, pool=True))
    h = relu(conv2d(h, params.conv2_w, params.conv2_b))
    return flatten(h, 1)


def union_visual(scene: SceneRecord, pairs: list[tuple[int, int]],
                 d_union: int) -> np.ndarray:
    """Visual features (len(pairs), d_union) of the pairs' union regions.

    A pair uses the scene's pooled pair feature when present; otherwise both
    union-normalized boxes followed by the mean of the two proposal features,
    truncated or zero-padded to ``d_union``.  The boxes come first so that
    truncation sheds appearance dimensions, never the exact geometry.
    """
    ij = pair_index(pairs)
    out = np.zeros((len(ij), d_union))
    if not len(ij):
        return out
    b, f = scene.boxes[ij], np.stack([p.feature for p in scene.proposals])[ij]
    raw = np.concatenate([union_frame(b[:, 0], b[:, 1]).reshape(-1, 8),
                          (f[:, 0] + f[:, 1]) / 2.0], axis=1)[:, :d_union]
    out[:, :raw.shape[1]] = raw
    key = np.array([scene.n_proposals, 1])  # pair (i, j) -> i * n + j
    given = pair_index(list(scene.pair_visual or ())) @ key
    for r in np.flatnonzero(np.isin(ij @ key, given)):  # rows with a pooled feature
        i, j = ij[r].tolist()
        v = scene.pair_visual[(i, j)]
        if v.shape != (d_union,):
            raise ValueError(f"{scene.id}: pair_visual[{i},{j}] has length {v.shape[0]}, "
                             f"expected {d_union}")
        out[r] = v
    return out


def pair_geometry(scene: SceneRecord, pairs: list[tuple[int, int]],
                  dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    """Mask indicators (len(pairs), 2, 2, R) and union visuals (len(pairs), d_union).

    Both depend on the scene alone, so callers build them once per pair list
    and reuse them across parameter updates.
    """
    b = scene.boxes[pair_index(pairs)]
    return (rasterize_mask(b[:, 0], b[:, 1], dims.mask_res),
            union_visual(scene, pairs, dims.d_union))


def relation_features(indicators: np.ndarray, visual: np.ndarray, params: RelFeatParams,
                      dims: Dims) -> Tensor:
    """Initial features, one row per pair: Affine + ReLU over [visual, conv(masks)],
    the masks expanded from their ``rasterize_mask`` indicators just before the conv."""
    if not len(indicators):
        return Tensor(np.zeros((0, dims.d_rel)))
    spatial = spatial_features(expand_masks(indicators), params)
    return relu(params.fuse(concat_cols([Tensor(visual), spatial])))
