"""Graph labeling heads and triplet scoring.

Objects are classified from their refined features.  For relations, the
predicted label distributions of subject and object are mapped through two
separate trainable embedding matrices, concatenated around the refined
relation feature, and classified over the real predicates plus an explicit
no-relation class.  Pairs whose best class is no-relation are not emitted;
everything else is ranked by the product of subject confidence, predicate
confidence, and object confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, concat_cols, gather_rows, glorot_uniform, matmul
from .config import Dims, ModelConfig
from .nn import Affine, ParamGroup, TwoLayerMlp, make_affine, make_mlp
from .scenes import Box, pair_index


@dataclass
class HeadParams(ParamGroup):
    obj_cls: Affine          # d_obj -> n_classes
    sub_emb: Tensor          # (n_classes, d_pe)
    obj_emb: Tensor          # (n_classes, d_pe)
    rel_cls: TwoLayerMlp     # (2*d_pe + d_rel | d_rel) -> n_predicates + 1


def init_head_params(dims: Dims, rng: np.random.Generator,
                     use_prede: bool = True) -> HeadParams:
    d_in = 2 * dims.d_pe + dims.d_rel if use_prede else dims.d_rel
    return HeadParams(
        obj_cls=make_affine(rng, dims.d_obj, dims.n_classes),
        sub_emb=glorot_uniform(rng, (dims.n_classes, dims.d_pe), dims.n_classes, dims.d_pe),
        obj_emb=glorot_uniform(rng, (dims.n_classes, dims.d_pe), dims.n_classes, dims.d_pe),
        rel_cls=make_mlp(rng, d_in, 2 * d_in, dims.n_predicates + 1),
    )


def object_logits(x_obj: Tensor, params: HeadParams) -> Tensor:
    return params.obj_cls(x_obj)


def relation_logits(x_rel: Tensor, p_hat: Tensor, edges: list[tuple[int, int]],
                    params: HeadParams, config: ModelConfig) -> Tensor:
    """Logits over real predicates plus no-relation for each retained pair.

    With the predicted-label embeddings enabled the classifier input is
    [e_sub, x_rel, e_obj]; without them it sees the relation feature alone.
    """
    if not config.use_prede:
        return params.rel_cls(x_rel)
    idx = pair_index(edges)
    e_sub = matmul(gather_rows(p_hat, idx[:, 0]), params.sub_emb)
    e_obj = matmul(gather_rows(p_hat, idx[:, 1]), params.obj_emb)
    return params.rel_cls(concat_cols([e_sub, x_rel, e_obj]))


class ScoredTriplet(NamedTuple):
    sub: int    # proposal index
    pred: int   # predicate class
    obj: int    # proposal index
    score: float


@dataclass(eq=False)
class PredictedGraph:
    """Final per-scene prediction: labeled objects plus ranked triplets."""

    boxes: list[Box]
    labels: np.ndarray      # (n,) best non-background class per object
    label_conf: np.ndarray  # (n,)
    label_dist: np.ndarray  # (n, n_classes)
    edges: list[tuple[int, int]]
    rel_dist: np.ndarray    # (len(edges), n_predicates + 1)
    triplets: list[ScoredTriplet]


def score_triplets(boxes: list[Box], label_dist: np.ndarray,
                   edges: list[tuple[int, int]], rel_dist: np.ndarray) -> PredictedGraph:
    """Rank one triplet per surviving pair.

    A pair is dropped when its argmax class is no-relation; otherwise its
    predicate is the best real predicate and the triplet score is
    subject confidence * predicate confidence * object confidence.  Ties
    are broken by (subject, object, predicate) index.
    """
    label_dist = np.asarray(label_dist, dtype=np.float64)
    rel_dist = np.asarray(rel_dist, dtype=np.float64)
    labels = 1 + label_dist[:, 1:].argmax(axis=1)
    conf = label_dist[np.arange(len(labels)), labels]
    best = rel_dist.argmax(axis=1)
    r = np.flatnonzero(best != rel_dist.shape[1] - 1)  # no-relation is the last class
    sub, obj = pair_index(edges)[r].T
    best = best[r]
    score = conf[sub] * rel_dist[r, best] * conf[obj]
    order = np.lexsort((best, obj, sub, -score))
    triplets = list(map(ScoredTriplet, sub[order].tolist(), best[order].tolist(),
                        obj[order].tolist(), score[order].tolist()))
    return PredictedGraph(boxes=list(boxes), labels=labels, label_conf=conf,
                          label_dist=label_dist, edges=list(edges), rel_dist=rel_dist,
                          triplets=triplets)


def format_prediction(scene_id: str, g: PredictedGraph) -> str:
    """Human-readable block for the predict command."""
    lines = [f"scene {scene_id}"]
    for k, b in enumerate(g.boxes):
        lines.append(f"object {k} box {b.x:.2f} {b.y:.2f} {b.w:.2f} {b.h:.2f} "
                     f"label {int(g.labels[k])} conf {g.label_conf[k]:.4f}")
    for t in g.triplets:
        lines.append(f"triplet sub {t.sub} pred {t.pred} obj {t.obj} score {t.score:.6f}")
    return "\n".join(lines)
