"""Recall@K evaluation of predicted scene graphs plus detection mAP.

A predicted triplet matches an unclaimed gt triplet when subject label,
predicate, and object label all agree and both boxes overlap above the IoU
threshold.  Matching is greedy in prediction-rank order and each gt is
claimed at most once; per-scene recall is matched/|gt| and scenes without
gt triplets are excluded from the mean.

Protocols: ``sggen`` consumes proposals as they come; ``sgcls`` substitutes
gt boxes (features from the best-overlapping proposal, zeros if none) and
predicts labels; ``predcls`` additionally fixes one-hot gt label
distributions and grades predicates only.

``evaluate`` runs on a frozen copy of the parameters (``ParamGroup.frozen``:
the same arrays, no gradients), so no op keeps its inputs for a backward
that never runs, and the caller's parameters stay trainable.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ModelConfig
from .filter import gt_overlaps
from .inference import PredictedGraph
from .model import ModelParams, predict_scene
from .scenes import IOU_THRESHOLD, Box, ObjectProposal, SceneRecord, iou, one_hot

MODES = ("sggen", "sgcls", "predcls")


class EvalTriplet(NamedTuple):
    sub_label: int
    pred: int
    obj_label: int
    sub_box: Box
    obj_box: Box


def match_triplets(predictions: list[EvalTriplet], gts: list[EvalTriplet]) -> int:
    """Greedy match count; ``predictions`` must already be rank-ordered."""
    claimed = [False] * len(gts)
    hits = 0
    for p in predictions:
        for gi, g in enumerate(gts):
            if claimed[gi] or p.sub_label != g.sub_label or p.pred != g.pred \
                    or p.obj_label != g.obj_label:
                continue
            if iou(p.sub_box, g.sub_box) > IOU_THRESHOLD \
                    and iou(p.obj_box, g.obj_box) > IOU_THRESHOLD:
                claimed[gi] = True
                hits += 1
                break
    return hits


def recall_at_k(predictions: list[EvalTriplet], gts: list[EvalTriplet], k: int) -> float | None:
    """Matched fraction of gt within the top k; None when the scene has no gt."""
    if not gts:
        return None
    return match_triplets(predictions[:k], gts) / len(gts)


def gt_eval_triplets(scene: SceneRecord) -> list[EvalTriplet]:
    return [EvalTriplet(scene.gt_objects[t.sub].cls, t.pred, scene.gt_objects[t.obj].cls,
                        scene.gt_objects[t.sub].box, scene.gt_objects[t.obj].box)
            for t in scene.gt_triplets]


def predicted_eval_triplets(g: PredictedGraph) -> list[EvalTriplet]:
    return [EvalTriplet(int(g.labels[t.sub]), t.pred, int(g.labels[t.obj]),
                        g.boxes[t.sub], g.boxes[t.obj]) for t in g.triplets]


def substitute_gt_boxes(scene: SceneRecord, n_classes: int, d_obj: int,
                        one_hot_labels: bool) -> SceneRecord:
    """Replace proposals with the gt boxes, pulling each feature and label
    prior from the best-overlapping proposal (zeros/uniform when none)."""
    scene.check_gt_classes(n_classes)
    ious = gt_overlaps(scene)
    props = []
    for k, g in enumerate(scene.gt_objects):
        # argmax keeps the first of tied proposals
        best = scene.proposals[ious[:, k].argmax()] if np.any(ious[:, k] > 0) else None
        feature = best.feature if best is not None else np.zeros(d_obj)
        if one_hot_labels:
            dist = one_hot(g.cls, n_classes)
        else:
            dist = best.label_dist if best is not None else np.full(n_classes, 1.0 / n_classes)
        props.append(ObjectProposal(box=g.box, feature=feature, label_dist=dist))
    return SceneRecord(id=scene.id, proposals=tuple(props), gt_objects=scene.gt_objects,
                       gt_triplets=scene.gt_triplets)


def scene_for_mode(scene: SceneRecord, mode: str, config: ModelConfig) -> SceneRecord:
    if mode == "sggen":
        return scene
    if mode in ("sgcls", "predcls"):
        return substitute_gt_boxes(scene, config.dims.n_classes, config.dims.d_obj,
                                   one_hot_labels=(mode == "predcls"))
    raise ValueError(f"unknown evaluation mode '{mode}'")


# ---------------------------------------------------------------------------
# detection mAP@0.5 (11-point interpolation)


def _average_precision(records: list[tuple[float, bool]], n_gt: int) -> float:
    """records: (score, is_true_positive) in global rank order."""
    if n_gt == 0:
        return 0.0
    tp = np.cumsum([r[1] for r in records]) if records else np.zeros(0)
    fp = np.cumsum([not r[1] for r in records]) if records else np.zeros(0)
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1)
    ap = 0.0
    for t in np.linspace(0.0, 1.0, 11):
        mask = recall >= t - 1e-12
        ap += float(precision[mask].max()) if mask.any() else 0.0
    return ap / 11.0


def detection_map(per_scene: list[tuple[PredictedGraph, SceneRecord]]) -> float:
    """Mean AP over the gt classes, detections pooled across the corpus."""
    detections: list[tuple[float, int, int, int]] = []  # score, scene, prop, label
    for si, (pg, _) in enumerate(per_scene):
        for k in range(len(pg.boxes)):
            detections.append((float(pg.label_conf[k]), si, k, int(pg.labels[k])))
    detections.sort(key=lambda d: (-d[0], d[1], d[2]))

    n_gt = Counter(g.cls for _, scene in per_scene for g in scene.gt_objects)
    classes = sorted(n_gt)
    claimed = [[False] * len(scene.gt_objects) for _, scene in per_scene]
    records = {c: [] for c in classes}
    for score, si, k, label in detections:
        if label not in records:
            continue
        pg, scene = per_scene[si]
        best, best_iou = -1, IOU_THRESHOLD
        for gi, g in enumerate(scene.gt_objects):
            if g.cls != label or claimed[si][gi]:
                continue
            v = iou(pg.boxes[k], g.box)
            if v > best_iou:
                best, best_iou = gi, v
        if best >= 0:
            claimed[si][best] = True
        records[label].append((score, best >= 0))
    if not classes:
        return 0.0
    return float(np.mean([_average_precision(records[c], n_gt[c]) for c in classes]))


# ---------------------------------------------------------------------------
# corpus evaluation


@dataclass
class EvalResult:
    recalls: dict[str, dict[int, float]]
    map50: float
    n_scenes: int


def evaluate(scenes: list[SceneRecord], params: ModelParams, config: ModelConfig,
             modes: tuple[str, ...] = MODES, ks: tuple[int, ...] = (20, 50, 100),
             workers: int = 1) -> EvalResult:
    """Mean per-scene recall@K for each mode plus detection mAP.

    Scenes are independent, so they may be evaluated by a thread pool; the
    per-scene results are merged in scene order and the metrics do not
    depend on ``workers``.
    """
    for m in modes:
        if m not in MODES:
            raise ValueError(f"unknown evaluation mode '{m}'")
    params = params.frozen()

    def eval_one(scene: SceneRecord):
        out = {}
        sggen_pg = None
        gts = gt_eval_triplets(scene)
        for mode in modes:
            pg = predict_scene(scene_for_mode(scene, mode, config), params, config, mode)
            if mode == "sggen":
                sggen_pg = pg
            preds = predicted_eval_triplets(pg)
            out[mode] = {k: recall_at_k(preds, gts, k) for k in ks}
        if sggen_pg is None:
            sggen_pg = predict_scene(scene, params, config, "sggen")
        return out, (sggen_pg, scene)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(eval_one, scenes))
    else:
        results = [eval_one(s) for s in scenes]

    def mean_recall(mode: str, k: int) -> float:  # over the scenes with gt triplets
        v = [out[mode][k] for out, _ in results if out[mode][k] is not None]
        return float(np.mean(v)) if v else 0.0

    mean_recalls = {mode: {k: mean_recall(mode, k) for k in ks} for mode in modes}
    return EvalResult(recalls=mean_recalls,
                      map50=detection_map([pair for _, pair in results]),
                      n_scenes=len(scenes))


def format_metrics_table(result: EvalResult) -> str:
    lines = [f"{'mode':<8} {'K':>4} {'recall':>10}", "-" * 24]
    for mode, by_k in result.recalls.items():
        for k in sorted(by_k):
            lines.append(f"{mode:<8} {k:>4} {by_k[k]:>10.4f}")
    lines.append("-" * 24)
    lines.append(f"mAP@0.5 {result.map50:.4f}  ({result.n_scenes} scenes)")
    return "\n".join(lines)


def format_metrics_kv(result: EvalResult) -> str:
    lines = []
    for mode, by_k in result.recalls.items():
        for k in sorted(by_k):
            lines.append(f"{mode}.recall@{k} = {result.recalls[mode][k]!r}")
    lines.append(f"map@0.5 = {result.map50!r}")
    lines.append(f"scenes = {result.n_scenes}")
    return "\n".join(lines) + "\n"
