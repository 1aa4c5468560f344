"""Semantic relation filter: score ordered proposal pairs, keep a sparse graph.

A pair (i, j) is described by the class embeddings of both proposals plus
both boxes in the pair's union frame (``scenes.union_frame``), and scored by
a small MLP with a sigmoid output.  Scores below the threshold are dropped
and only the top-k survive.  Inputs, fallback scores and pruning are array
code over the (P, 2) index array of a whole pair list.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _stable_sigmoid, binary_logistic_loss, flatten
from .config import Dims
from .nn import TwoLayerMlp, make_mlp
from .scenes import IOU_THRESHOLD, EmbeddingTable, SceneRecord, iou, pair_index, union_frame


def init_srf_params(dims: Dims, rng: np.random.Generator) -> TwoLayerMlp:
    """The filter: a two-layer scoring MLP over [e_i, b~_i, b~_j, e_j]."""
    d_in = 2 * dims.d_emb + 8
    return make_mlp(rng, d_in, 2 * d_in, 1)


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def pair_inputs(scene: SceneRecord, table: EmbeddingTable,
                pairs: list[tuple[int, int]]) -> np.ndarray:
    """Stack filter inputs [e_i, b~_i, b~_j, e_j], one row per ordered pair."""
    ij = pair_index(pairs)
    dists = np.array([p.label_dist for p in scene.proposals] or np.zeros((0, table.n_classes)))
    if dists.shape[1] != table.n_classes:
        raise ValueError(f"{scene.id}: label_dist length {dists.shape[1]} != "
                         f"{table.n_classes} classes")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        emb = table.embed(dists)
    b = scene.boxes[ij]  # (P, 2, 4) subject and object boxes
    frame = union_frame(b[:, 0], b[:, 1]).reshape(-1, 8)
    rows = np.concatenate([emb[ij[:, 0]], frame, emb[ij[:, 1]]], axis=1)
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{scene.id}: relation filter inputs overflow float64")
    return rows


def pair_logits(inputs: np.ndarray, params: TwoLayerMlp) -> Tensor:
    """Raw scores for rows of filter inputs (training target space)."""
    return flatten(params(Tensor(np.atleast_2d(inputs))))


def score_pairs(inputs: np.ndarray, params: TwoLayerMlp) -> np.ndarray:
    return _stable_sigmoid(pair_logits(inputs, params).data)


def prune_graph(pairs: list[tuple[int, int]], scores: np.ndarray, top_k: int,
                threshold: float) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Keep at most ``top_k`` pairs scoring above ``threshold``.

    Ordering is score descending with (subject, object) index ascending as
    the tie break, so identical inputs always retain identical graphs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(pairs) != scores.shape[0]:
        raise ValueError("prune_graph: one score per pair required")
    sub, obj = pair_index(pairs).T
    order = np.lexsort((obj, sub, -scores))
    kept = order[scores[order] >= threshold][:top_k]
    return list(zip(sub[kept].tolist(), obj[kept].tolist())), scores[kept]


def gt_overlaps(scene: SceneRecord) -> np.ndarray:
    """IoU of every proposal (rows) with every gt object (columns)."""
    ious = [[iou(p.box, g.box) for g in scene.gt_objects] for p in scene.proposals]
    return np.array(ious).reshape(scene.n_proposals, len(scene.gt_objects))


def matched_triplets(scene: SceneRecord, pairs: list[tuple[int, int]],
                     overlap: np.ndarray) -> np.ndarray:
    """Index of the first gt triplet each ordered proposal pair localizes, else -1.

    ``overlap`` marks, proposals by gt objects, the matches above the IoU
    threshold (``gt_overlaps(scene) > threshold``).  Pair (i, j) localizes
    gt triplet (s, p, o) when proposal i overlaps gt object s and proposal j
    overlaps gt object o.
    """
    if not pairs or not scene.gt_triplets:
        return np.full(len(pairs), -1, dtype=np.intp)
    ij = pair_index(pairs)
    trip = np.array(scene.gt_triplets, dtype=np.intp)  # rows (sub, pred, obj)
    hit = overlap[ij[:, :1], trip[:, 0]] & overlap[ij[:, 1:], trip[:, 2]]
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)


def srf_training_labels(scene: SceneRecord, iou_threshold: float = IOU_THRESHOLD,
                        ) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Label every ordered proposal pair 1 iff it localizes some gt triplet."""
    pairs = ordered_pairs(scene.n_proposals)
    overlap = gt_overlaps(scene) > iou_threshold
    return pairs, (matched_triplets(scene, pairs, overlap) >= 0).astype(np.float64)


def srf_loss(inputs: np.ndarray, labels: np.ndarray, params: TwoLayerMlp) -> Tensor:
    return binary_logistic_loss(pair_logits(inputs, params), labels)


def confidence_fallback(label_dists: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Pair scores without the filter: product of the proposals' best
    non-background confidences."""
    dists = np.asarray(label_dists, dtype=np.float64)
    if dists.ndim != 2 or dists.shape[1] < 2:
        raise ValueError("confidence_fallback: need rows over >= 2 classes")
    best = dists[:, 1:].max(axis=1)
    sub, obj = pair_index(pairs).T
    return best[sub] * best[obj]
