"""Stage-wise training: the relation filter first, then the full model.

Both stages run one loop, ``_fit``: SGD with momentum, one scene per step.
A stage hands it one step per scene, made of the scene's positive rows and
a loss of chosen rows; each epoch, ``_fit`` adds to the positives at most
``negative_ratio`` times as many negatives, drawn at random.  Object targets
come from IoU matching against gt boxes (best match above the threshold,
else background); pairs matching a gt triplet at both ends take its
predicate as target and the rest are trained toward no-relation.  The main
stage supervises every ordered pair, not only the ones the (frozen)
relation filter would retain, so the classifier stays calibrated on
whatever graph the filter or the confidence fallback keeps at inference;
each scene's pair set is fixed, so its ``model.scene_inputs`` are built once
and every step runs ``model.forward``, the same pass inference runs.  A
prepared scene keeps each pair's mask as its bool row and column indicators
(4R bytes a pair, where the float64 masks take 16R²), and ``forward``
expands them per step, so what training holds grows slowly with the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import SgdMomentum, Tensor, add, backward, cross_entropy_with_softmax, \
    gather_rows
from .config import Dims, ModelConfig, check_fields, ranged
from .filter import gt_overlaps, init_srf_params, matched_triplets, ordered_pairs, pair_inputs, \
    srf_loss, srf_training_labels
from .model import ModelParams, SceneInputs, forward, init_model_params, scene_inputs
from .nn import TwoLayerMlp
from .scenes import IOU_THRESHOLD, EmbeddingTable, SceneRecord

# Unused here: perfbench/tracer.py wraps these names in this module, so they must resolve.
from .inference import object_logits, relation_logits  # noqa: F401,E402
from .message_passing import build_message_graph  # noqa: F401,E402
from .relation_features import rasterize_mask, spatial_features, union_visual  # noqa: F401,E402
from .scenes import iou  # noqa: F401,E402


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = ranged("[0, inf)", 15)
    lr: float = ranged("(0, inf)", 5e-3)
    momentum: float = ranged("[0, 1)", 0.9)
    seed: int = ranged("[0, inf)", 0)
    negative_ratio: float = ranged("[0, inf)", 3.0)
    match_iou: float = ranged("(0, 1)", IOU_THRESHOLD)

    def __post_init__(self):
        check_fields(self)


# A diverging step overflows; ``_finite``'s loss check reports it, so numpy's
# floating-point warnings would only repeat it on stderr.
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")

# An epoch whose mean loss is this many times the first step's loss (taken at
# the initial parameters) is diverging, even while every loss is still finite.
DIVERGENCE_FACTOR = 1e3


# ---------------------------------------------------------------------------
# the SGD loop both stages run


def _fit(stage: str, tensors: list[Tensor], steps: list[tuple], tcfg: TrainConfig,
         stream: int) -> list[float]:
    """Run ``tcfg.epochs`` epochs over ``steps``; returns per-epoch mean losses.

    A step is (idx, scene id, bool mask of the positive rows, loss of chosen
    rows); ``idx`` seeds its negative draws, with ``stream`` and the epoch."""
    opt = SgdMomentum(tensors, lr=tcfg.lr, momentum=tcfg.momentum)
    history, first = [], None
    for epoch in range(1, tcfg.epochs + 1):
        opt.set_epoch(epoch)
        total, worst = 0.0, (-np.inf, "")  # the epoch's largest step loss and its scene
        for idx, scene_id, positive, rows_loss in steps:
            rng = np.random.default_rng([tcfg.seed, stream, epoch, idx])
            pos, neg = np.flatnonzero(positive), np.flatnonzero(~positive)
            take = int(min(neg.size, tcfg.negative_ratio * pos.size))
            rows = np.concatenate([pos, np.sort(rng.choice(neg, size=take, replace=False))]) \
                if take else pos
            with np.errstate(**_QUIET):
                loss = rows_loss(rows)
                value = _finite(loss, epoch, scene_id, initial=first is None)
                backward(loss)
                opt.step()
            if not np.all(np.isfinite(opt.data)):
                raise ValueError(f"epoch {epoch}, scene {scene_id}: the step made a parameter "
                                 f"non-finite; try a lower learning rate, or look for inputs "
                                 f"too large in the scenes trained so far")
            first = value if first is None else first
            total += value
            worst = max(worst, (value, scene_id))
        history.append(_converging(stage, epoch, total / len(steps), first, worst))
    return history


def _finite(loss: Tensor, epoch: int, scene_id: str, initial: bool) -> float:
    """The loss value of one step; a non-finite one stops the run before the
    parameters take the step.  At the ``initial`` parameters no step has been
    taken, so the learning rate is not to blame: the scene's inputs are."""
    value = loss.item()
    if not np.isfinite(value):
        cause = "the scene's inputs overflow at the initial parameters" if initial \
            else "try a lower learning rate"
        raise ValueError(f"epoch {epoch}, scene {scene_id}: training loss is {value}; {cause}")
    return value


def _converging(stage: str, epoch: int, mean: float, first: float,
                worst: tuple[float, str]) -> float:
    """An epoch's mean loss; one past ``DIVERGENCE_FACTOR`` times the first
    step's loss stops the run before any checkpoint is written, naming the
    scene of the epoch's largest step loss ``worst``."""
    if mean > DIVERGENCE_FACTOR * first:
        raise ValueError(f"{stage} training, epoch {epoch}: mean loss {mean:.4g} is over "
                         f"{DIVERGENCE_FACTOR:g} times the first step's {first:.4g} (the "
                         f"largest, {worst[0]:.4g}, at scene {worst[1]}); the run is "
                         f"diverging, try a lower learning rate")
    return mean


# ---------------------------------------------------------------------------
# stage 1: relation filter


def train_srf(scenes: list[SceneRecord], embed: EmbeddingTable, dims: Dims,
              tcfg: TrainConfig) -> tuple[TwoLayerMlp, list[float]]:
    """Fit the pair filter with balanced logistic loss; returns loss history.

    A step's ``idx`` counts the scenes with pairs; only those with a positive
    pair take a step."""
    params = init_srf_params(dims, np.random.default_rng([tcfg.seed, 2]))
    labeled = [(scene, *srf_training_labels(scene, tcfg.match_iou)) for scene in scenes]
    steps = []
    for idx, (scene, pairs, labels) in enumerate(item for item in labeled if item[1]):
        inputs = pair_inputs(scene, embed, pairs)
        if labels.any():
            steps.append((idx, scene.id, labels == 1.0, lambda rows, x=inputs, y=labels:
                          srf_loss(x[rows], y[rows], params)))
    if not steps:
        raise ValueError("relation filter training found no positive pairs in the corpus")
    return params, _fit("relation filter", params.tensors(), steps, tcfg, stream=3)


# ---------------------------------------------------------------------------
# stage 2: full model


def _object_targets(scene: SceneRecord, ious: np.ndarray, n_classes: int,
                    match_iou: float) -> np.ndarray:
    """Best-overlap gt class above the threshold, else background (exact ties
    keep the lowest gt index, which ``argmax`` returns first)."""
    scene.check_gt_classes(n_classes)
    if not scene.gt_objects:
        return np.zeros(scene.n_proposals, dtype=np.intp)
    best = ious.argmax(axis=1)
    classes = np.array([g.cls for g in scene.gt_objects], dtype=np.intp)
    return np.where(ious[np.arange(scene.n_proposals), best] > match_iou, classes[best], 0)


def _relation_targets(scene: SceneRecord, edges, overlap: np.ndarray,
                      dims: Dims) -> np.ndarray:
    """The predicate of the first gt triplet each edge localizes, else no-relation."""
    match = matched_triplets(scene, edges, overlap)
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
    ious = gt_overlaps(scene)
    inputs.rel_targets = _relation_targets(scene, inputs.edges, ious > match_iou, config.dims)
    inputs.obj_targets = _object_targets(scene, ious, config.dims.n_classes, match_iou)
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
               srf: TwoLayerMlp | None = None, embed: EmbeddingTable | None = None,
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
        raise ValueError("no scene has two proposals; nothing to train on")
    steps = [(idx, prep.scene_id, prep.rel_targets != config.dims.no_relation,
              partial(scene_loss, prep, params, config)) for idx, prep in enumerate(prepared)]
    return params, _fit("main model", params.trainable(), steps, tcfg, stream=4)
