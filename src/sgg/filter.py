"""Semantic relation filter: score ordered proposal pairs, keep a sparse graph.

A pair (i, j) is described by the class embeddings of both proposals plus
both boxes normalized to the pair's union box, and scored by a small MLP
with a sigmoid output.  Scores below the threshold are dropped and only the
top-k survive, which keeps the downstream relation graph sparse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, binary_logistic_loss, flatten, sigmoid
from .config import Dims
from .nn import TwoLayerMlp, make_mlp
from .scenes import EmbeddingTable, SceneRecord, iou, normalize_box, union_box


@dataclass
class SrfParams:
    """Two-layer scoring MLP over [e_i, b~_i, b~_j, e_j]."""

    mlp: TwoLayerMlp

    def tensors(self) -> list[Tensor]:
        return self.mlp.tensors()

    def named(self, prefix: str = "srf") -> dict[str, Tensor]:
        return self.mlp.named(prefix)


def init_srf_params(dims: Dims, rng: np.random.Generator) -> SrfParams:
    d_in = 2 * dims.d_emb + 8
    return SrfParams(mlp=make_mlp(rng, d_in, 2 * d_in, 1))


def ordered_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def pair_inputs(scene: SceneRecord, table: EmbeddingTable,
                pairs: list[tuple[int, int]]) -> np.ndarray:
    """Stack filter inputs for the given ordered pairs, one row per pair."""
    emb = table.embed(np.stack([p.label_dist for p in scene.proposals])) \
        if scene.proposals else np.zeros((0, table.dim))
    rows = np.zeros((len(pairs), 2 * table.dim + 8))
    for r, (i, j) in enumerate(pairs):
        bi, bj = scene.proposals[i].box, scene.proposals[j].box
        u = union_box(bi, bj)
        rows[r] = np.concatenate([emb[i], normalize_box(bi, u), normalize_box(bj, u), emb[j]])
    return rows


def pair_logits(inputs: np.ndarray, params: SrfParams) -> Tensor:
    """Raw scores for rows of filter inputs (training target space)."""
    return flatten(params.mlp(Tensor(np.atleast_2d(inputs))))


def score_pairs(inputs: np.ndarray, params: SrfParams) -> np.ndarray:
    return sigmoid(pair_logits(inputs, params)).data


def prune_graph(pairs: list[tuple[int, int]], scores: np.ndarray, top_k: int,
                threshold: float) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Keep at most ``top_k`` pairs scoring above ``threshold``.

    Ordering is score descending with (subject, object) index ascending as
    the tie break, so identical inputs always retain identical graphs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(pairs) != scores.shape[0]:
        raise ValueError("prune_graph: one score per pair required")
    order = sorted(range(len(pairs)), key=lambda r: (-scores[r], pairs[r][0], pairs[r][1]))
    kept = [r for r in order if scores[r] >= threshold][:top_k]
    return [pairs[r] for r in kept], scores[kept]


def gt_overlaps(scene: SceneRecord) -> np.ndarray:
    """IoU of every proposal (rows) with every gt object (columns)."""
    ious = [[iou(p.box, g.box) for g in scene.gt_objects] for p in scene.proposals]
    return np.array(ious).reshape(scene.n_proposals, len(scene.gt_objects))


def matched_triplets(scene: SceneRecord, pairs: list[tuple[int, int]],
                     iou_threshold: float) -> np.ndarray:
    """Index of the first gt triplet each ordered proposal pair localizes, else -1.

    Pair (i, j) localizes gt triplet (s, p, o) when proposal i overlaps gt
    object s and proposal j overlaps gt object o, both above the IoU
    threshold.
    """
    if not pairs or not scene.gt_triplets:
        return np.full(len(pairs), -1, dtype=np.intp)
    overlap = gt_overlaps(scene) > iou_threshold
    ij = np.array(pairs, dtype=np.intp)
    trip = np.array(scene.gt_triplets, dtype=np.intp)  # rows (sub, pred, obj)
    hit = overlap[ij[:, :1], trip[:, 0]] & overlap[ij[:, 1:], trip[:, 2]]
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)


def srf_training_labels(scene: SceneRecord, iou_threshold: float = 0.5,
                        ) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Label every ordered proposal pair 1 iff it localizes some gt triplet."""
    pairs = ordered_pairs(scene.n_proposals)
    return pairs, (matched_triplets(scene, pairs, iou_threshold) >= 0).astype(np.float64)


def srf_loss(inputs: np.ndarray, labels: np.ndarray, params: SrfParams) -> Tensor:
    return binary_logistic_loss(pair_logits(inputs, params), labels)


def confidence_fallback(label_dists: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Pair scores without the filter: product of the proposals' best
    non-background confidences."""
    dists = np.asarray(label_dists, dtype=np.float64)
    if dists.ndim != 2 or dists.shape[1] < 2:
        raise ValueError("confidence_fallback: need rows over >= 2 classes")
    best = dists[:, 1:].max(axis=1)
    return np.array([best[i] * best[j] for i, j in pairs])
