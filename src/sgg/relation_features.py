"""Initial relation features for ordered proposal pairs.

The spatial configuration of a pair is rasterized as a two-channel binary
mask on the pair's union box (channel 0 = subject, channel 1 = object),
passed through a small conv stack, and fused with a visual feature of the
union region by one affine layer with ReLU.  When the scene carries no
pooled pair visual, a surrogate is built from the two proposal features and
their normalized boxes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat_cols, conv2d, flatten_rows, glorot_uniform, maxpool2d, \
    relu, zeros_param
from .config import Dims
from .nn import Affine, make_affine
from .scenes import Box, SceneRecord, normalize_box, union_box


@dataclass
class RelFeatParams:
    conv1_w: Tensor  # (c1, 2, 5, 5)
    conv1_b: Tensor
    conv2_w: Tensor  # (c2, c1, 3, 3)
    conv2_b: Tensor
    fuse: Affine     # (d_union + spatial_len) -> d_rel

    def tensors(self) -> list[Tensor]:
        return [self.conv1_w, self.conv1_b, self.conv2_w, self.conv2_b] + self.fuse.tensors()

    def named(self, prefix: str = "relfeat") -> dict[str, Tensor]:
        out = {f"{prefix}.conv1.w": self.conv1_w, f"{prefix}.conv1.b": self.conv1_b,
               f"{prefix}.conv2.w": self.conv2_w, f"{prefix}.conv2.b": self.conv2_b}
        out.update(self.fuse.named(f"{prefix}.fuse"))
        return out


def init_relfeat_params(dims: Dims, rng: np.random.Generator) -> RelFeatParams:
    c1, c2 = dims.conv1_channels, dims.conv2_channels
    return RelFeatParams(
        conv1_w=glorot_uniform(rng, (c1, 2, 5, 5), 2 * 25, c1 * 25),
        conv1_b=zeros_param((c1,)),
        conv2_w=glorot_uniform(rng, (c2, c1, 3, 3), c1 * 9, c2 * 9),
        conv2_b=zeros_param((c2,)),
        fuse=make_affine(rng, dims.d_union + dims.spatial_len, dims.d_rel),
    )


def rasterize_mask(box_i: Box, box_j: Box, resolution: int) -> np.ndarray:
    """Two-channel binary occupancy grid of the pair on its union box.

    Cell (r, c) of channel k is set iff the cell's center, in coordinates
    normalized to the union box, falls inside box k.  A box too thin to
    cover any cell center still contributes its center cell, so a channel is
    never all zero.
    """
    if resolution < 1:
        raise ValueError("mask resolution must be positive")
    u = union_box(box_i, box_j)
    mask = np.zeros((2, resolution, resolution))
    centers = (np.arange(resolution) + 0.5) / resolution
    for k, b in enumerate((box_i, box_j)):
        x, y, w, h = normalize_box(b, u)
        inside = (centers[:, None] >= y) & (centers[:, None] < y + h) \
            & (centers[None, :] >= x) & (centers[None, :] < x + w)
        if not inside.any():
            r = min(int((y + h / 2) * resolution), resolution - 1)
            c = min(int((x + w / 2) * resolution), resolution - 1)
            inside[max(r, 0), max(c, 0)] = True
        mask[k] = inside
    return mask


def spatial_features(masks: np.ndarray, params: RelFeatParams) -> Tensor:
    """Conv stack over a batch of masks: 5x5 conv, ReLU, 2x2 pool, 3x3 conv,
    ReLU, flatten.  Accepts (n, 2, R, R) and returns (n, spatial_len)."""
    x = Tensor(np.asarray(masks, dtype=np.float64))
    h = relu(conv2d(x, params.conv1_w, params.conv1_b))
    h = maxpool2d(h)
    h = relu(conv2d(h, params.conv2_w, params.conv2_b))
    return flatten_rows(h)


def union_visual(scene: SceneRecord, i: int, j: int, d_union: int) -> np.ndarray:
    """Visual feature of the pair's union region.

    Uses the scene's pooled pair feature when present; otherwise both
    union-normalized boxes followed by the mean of the two proposal features,
    truncated or zero-padded to ``d_union``.  The boxes come first so that
    truncation sheds appearance dimensions, never the exact geometry.
    """
    if scene.pair_visual is not None and (i, j) in scene.pair_visual:
        v = scene.pair_visual[(i, j)]
        if v.shape != (d_union,):
            raise ValueError(f"{scene.id}: pair_visual[{i},{j}] has length {v.shape[0]}, "
                             f"expected {d_union}")
        return v
    pi, pj = scene.proposals[i], scene.proposals[j]
    u = union_box(pi.box, pj.box)
    raw = np.concatenate([normalize_box(pi.box, u), normalize_box(pj.box, u),
                          (pi.feature + pj.feature) / 2.0])
    if raw.shape[0] >= d_union:
        return raw[:d_union]
    return np.concatenate([raw, np.zeros(d_union - raw.shape[0])])


def pair_geometry(scene: SceneRecord, pairs: list[tuple[int, int]],
                  dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    """Masks (len(pairs), 2, R, R) and union visuals (len(pairs), d_union).

    Both depend on the scene alone, so callers build them once per pair list
    and reuse them across parameter updates.
    """
    if not pairs:
        return np.zeros((0, 2, dims.mask_res, dims.mask_res)), np.zeros((0, dims.d_union))
    masks = np.stack([rasterize_mask(scene.proposals[i].box, scene.proposals[j].box,
                                     dims.mask_res) for i, j in pairs])
    visual = np.stack([union_visual(scene, i, j, dims.d_union) for i, j in pairs])
    return masks, visual


def relation_features(masks: np.ndarray, visual: np.ndarray, params: RelFeatParams,
                      dims: Dims) -> Tensor:
    """Initial features, one row per pair: Affine + ReLU over [visual, conv(masks)]."""
    if not len(masks):
        return Tensor(np.zeros((0, dims.d_rel)))
    return relu(params.fuse(concat_cols([Tensor(visual), spatial_features(masks, params)])))
