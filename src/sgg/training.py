"""Stage-wise training: the relation filter first, then the full model.

Both stages run SGD with momentum on one scene per step.  Object targets
come from IoU matching against gt boxes (best match above the threshold,
else background); pairs matching a gt triplet at both ends take its
predicate as target and the rest are trained toward no-relation, with
negatives subsampled to at most ``negative_ratio`` times the positives per
scene.  The main stage supervises every ordered pair, not only the ones the
(frozen) relation filter would retain, so the classifier stays calibrated
on whatever graph the filter or the confidence fallback keeps at inference;
each scene's pair set is fixed, so its ``model.scene_inputs`` are built once
and every step runs ``model.forward``, the same pass inference runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import SgdMomentum, Tensor, add, backward, cross_entropy_with_softmax, \
    gather_rows
from .config import Dims, ModelConfig
from .filter import SrfParams, gt_overlaps, init_srf_params, matched_triplets, ordered_pairs, \
    pair_inputs, srf_loss, srf_training_labels
from .model import ModelParams, SceneInputs, forward, init_model_params, scene_inputs
from .scenes import EmbeddingTable, SceneRecord

# Unused here: perfbench/tracer.py wraps these names in this module, so they must resolve.
from .inference import object_logits, relation_logits  # noqa: F401,E402
from .message_passing import build_message_graph  # noqa: F401,E402
from .relation_features import rasterize_mask, spatial_features, union_visual  # noqa: F401,E402
from .scenes import iou  # noqa: F401,E402


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    lr: float = 5e-3
    momentum: float = 0.9
    seed: int = 0
    negative_ratio: float = 3.0
    match_iou: float = 0.5

    def __post_init__(self):
        if self.epochs < 0 or self.lr <= 0 or not 0.0 <= self.momentum < 1.0:
            raise ValueError("bad optimizer settings")
        if self.negative_ratio < 0 or not 0.0 < self.match_iou < 1.0:
            raise ValueError("bad supervision settings")


# ---------------------------------------------------------------------------
# stage 1: relation filter


def train_srf(scenes: list[SceneRecord], embed: EmbeddingTable, dims: Dims,
              tcfg: TrainConfig) -> tuple[SrfParams, list[float]]:
    """Fit the pair filter with balanced logistic loss; returns loss history."""
    cache = []
    total_pos = 0
    for scene in scenes:
        pairs, labels = srf_training_labels(scene, tcfg.match_iou)
        if not pairs:
            continue
        inputs = pair_inputs(scene, embed, pairs)
        pos = np.flatnonzero(labels == 1.0)
        neg = np.flatnonzero(labels == 0.0)
        total_pos += pos.size
        cache.append((scene.id, inputs, labels, pos, neg))
    if total_pos == 0:
        raise ValueError("relation filter training found no positive pairs in the corpus")

    params = init_srf_params(dims, np.random.default_rng([tcfg.seed, 2]))
    opt = SgdMomentum(params.tensors(), lr=tcfg.lr, momentum=tcfg.momentum)
    history = []
    for epoch in range(1, tcfg.epochs + 1):
        opt.set_epoch(epoch)
        total, steps = 0.0, 0
        for idx, (scene_id, inputs, labels, pos, neg) in enumerate(cache):
            if pos.size == 0:
                continue
            rng = np.random.default_rng([tcfg.seed, 3, epoch, idx])
            take = min(neg.size, int(tcfg.negative_ratio * pos.size))
            sel = np.concatenate([pos, np.sort(rng.choice(neg, size=take, replace=False))]) \
                if take else pos
            loss = srf_loss(inputs[sel], labels[sel], params)
            total += _finite(loss, epoch, scene_id)
            backward(loss)
            opt.step()
            steps += 1
        history.append(total / max(steps, 1))
    return params, history


# ---------------------------------------------------------------------------
# stage 2: full model


def _finite(loss: Tensor, epoch: int, scene_id: str) -> float:
    """The loss value of one step; a non-finite one stops the run before the
    parameters take the step."""
    value = loss.item()
    if not np.isfinite(value):
        raise ValueError(f"epoch {epoch}, scene {scene_id}: training loss is {value}; "
                         f"try a lower learning rate")
    return value


def _object_targets(scene: SceneRecord, match_iou: float) -> np.ndarray:
    """Best-overlap gt class above the threshold, else background (exact ties
    keep the lowest gt index, which ``argmax`` returns first)."""
    if not scene.gt_objects:
        return np.zeros(scene.n_proposals, dtype=np.intp)
    ious = gt_overlaps(scene)
    best = ious.argmax(axis=1)
    classes = np.array([g.cls for g in scene.gt_objects], dtype=np.intp)
    return np.where(ious[np.arange(scene.n_proposals), best] > match_iou, classes[best], 0)


def _relation_targets(scene: SceneRecord, edges, dims: Dims,
                      match_iou: float) -> np.ndarray:
    """The predicate of the first gt triplet each edge localizes, else no-relation."""
    match = matched_triplets(scene, edges, match_iou)
    # index -1 (no match) picks the no-relation entry appended last
    targets = np.array([t.pred for t in scene.gt_triplets] + [dims.no_relation],
                       dtype=np.intp)[match]
    if np.any(targets[match >= 0] >= dims.n_predicates):
        raise ValueError(f"{scene.id}: predicate {targets.max()} out of range for "
                         f"{dims.n_predicates} predicates")
    return targets


def prepare_scene(scene: SceneRecord, params: ModelParams, config: ModelConfig,
                  match_iou: float) -> SceneInputs | None:
    """Forward inputs over every ordered pair of the scene, plus the targets."""
    if scene.n_proposals == 0:
        return None
    inputs = scene_inputs(scene, params, config, ordered_pairs(scene.n_proposals))
    inputs.rel_targets = _relation_targets(scene, inputs.edges, config.dims, match_iou)
    inputs.obj_targets = _object_targets(scene, match_iou)
    return inputs


def scene_loss(prep: SceneInputs, params: ModelParams, config: ModelConfig,
               rel_rows: np.ndarray) -> Tensor:
    """Object cross-entropy plus relation cross-entropy on the selected rows."""
    out = forward(prep, params, config)
    loss = cross_entropy_with_softmax(out.obj_logits, prep.obj_targets)
    if rel_rows.size:
        loss = add(loss, cross_entropy_with_softmax(gather_rows(out.rel_logits, rel_rows),
                                                    prep.rel_targets[rel_rows]))
    return loss


def train_main(scenes: list[SceneRecord], config: ModelConfig, tcfg: TrainConfig,
               srf: SrfParams | None = None, embed: EmbeddingTable | None = None,
               ) -> tuple[ModelParams, list[float]]:
    """Train everything except the (frozen) relation filter; returns per-epoch
    mean losses."""
    if config.use_srf and srf is None:
        raise ValueError("use_srf is enabled: pass the trained filter (or disable it)")
    params = init_model_params(config, tcfg.seed, srf=srf, embed=embed)
    prepared = [p for p in (prepare_scene(s, params, config, tcfg.match_iou)
                            for s in scenes) if p is not None]
    if not prepared:
        raise ValueError("no trainable scenes (all empty)")
    if not any(p.edges for p in prepared):
        raise ValueError("the filter retained no pairs in any scene; nothing to train on")

    opt = SgdMomentum(params.trainable(), lr=tcfg.lr, momentum=tcfg.momentum)
    history = []
    for epoch in range(1, tcfg.epochs + 1):
        opt.set_epoch(epoch)
        total = 0.0
        for idx, prep in enumerate(prepared):
            rng = np.random.default_rng([tcfg.seed, 4, epoch, idx])
            related = prep.rel_targets != config.dims.no_relation
            pos, neg = np.flatnonzero(related), np.flatnonzero(~related)
            take = min(neg.size, int(tcfg.negative_ratio * pos.size))
            rows = np.concatenate([pos, np.sort(rng.choice(neg, size=take, replace=False))]) \
                if take else pos
            loss = scene_loss(prep, params, config, rows)
            total += _finite(loss, epoch, prep.scene.id)
            backward(loss)
            opt.step()
        history.append(total / len(prepared))
    return params, history
