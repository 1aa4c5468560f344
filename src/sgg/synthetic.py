"""Synthetic scene corpus with a learnable, fully deterministic relation rule.

Each class has a fixed feature prototype; objects are prototypes plus
Gaussian noise placed in a 512x512 canvas.  Scenes draw their classes from
one of a few overlapping themes, so context carries signal about object
identity; an optional ``confusable`` blend collapses consecutive class
pairs onto shared prototypes so that context becomes the *only* way to
tell the pair's members apart.  Ground-truth triplets are a pure function of the object classes
and boxes: a pair is related iff a fixed arithmetic rule of (subject class,
object class, spatial relation) fires and the centers are near enough, and
the predicate is another fixed arithmetic mix of the same three values.
Regenerating the triplets from a scene's objects therefore reproduces them
exactly.

Proposals are the gt objects with jittered boxes and softmaxed noisy class
scores; a dropout rate removes some and adds roughly as many distractors.
All randomness is drawn from per-scene generators seeded with
(seed, scene index + 1), with (seed, 0) reserved for the prototypes, so
generation is reproducible scene by scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_fields, ranged, refuse_beyond_memory
from .scenes import Box, GtObject, ObjectProposal, SceneRecord, Triplet

CANVAS = 512.0
N_THEMES = 3
SPATIAL_NAMES = ("above", "below", "left", "right", "overlap", "contains")

# proposal label scores: peak logit on the true class plus unit noise
_PEAK_SCORE = 4.0
_LABEL_NOISE = 1.0
_DISTRACTOR_NOISE = 1.0
# pairs further apart than this (center distance) are never related
_RELATED_GATE = 0.7 * CANVAS


@dataclass(frozen=True)
class SynthConfig:
    num_scenes: int = ranged("[1, inf)", 100)
    min_objects: int = ranged("[1, inf)", 3)
    max_objects: int = ranged("[1, inf)", 6)
    n_object_classes: int = ranged("[2, inf)", 6)  # real classes; background 0 is extra
    n_predicates: int = ranged("[1, inf)", 6)
    feature_noise: float = ranged("[0, inf)", 0.3)
    box_jitter: float = ranged("[0, inf)", 6.0)
    dropout: float = ranged("[0, 1]", 0.1)
    seed: int = ranged("[0, inf)", 0)
    d_obj: int = ranged("[1, inf)", 64)
    # Blend each consecutive class pair's feature prototypes toward each
    # other: at 1.0 the pair shares one prototype, so appearance alone cannot
    # separate its members — only scene context (the theme) can.  Consecutive
    # classes always sit in different themes, so the ambiguity stays
    # resolvable from the rest of the scene.
    confusable: float = ranged("[0, 1]", 0.0)

    def __post_init__(self):
        check_fields(self)
        if self.max_objects < self.min_objects:
            raise ValueError(f"max_objects must be at least min_objects = {self.min_objects}, "
                             f"got {self.max_objects}")
        largest = max(("n_object_classes", "d_obj"), key=lambda name: getattr(self, name))
        refuse_beyond_memory(self, largest, 8 * self.n_object_classes * (self.d_obj + N_THEMES),
                             "the class prototype and theme tables")
        # per object: gt and proposal features, a label distribution and a class
        # draw; per ordered pair: one slot the triplet rule may fill
        n = self.max_objects
        refuse_beyond_memory(self, "max_objects",
                             8 * n * (2 * self.d_obj + self.n_classes + 1 + n),
                             "one scene's objects and object pairs")

    @property
    def n_classes(self) -> int:
        return self.n_object_classes + 1


def spatial_relation(sub: Box, obj: Box) -> int:
    """Index into SPATIAL_NAMES for the subject's position relative to the object."""
    if obj.x >= sub.x and obj.y >= sub.y and obj.x2 <= sub.x2 and obj.y2 <= sub.y2:
        return SPATIAL_NAMES.index("contains")
    iw = min(sub.x2, obj.x2) - max(sub.x, obj.x)
    ih = min(sub.y2, obj.y2) - max(sub.y, obj.y)
    if iw > 0 and ih > 0:
        return SPATIAL_NAMES.index("overlap")
    (sx, sy), (ox, oy) = sub.center, obj.center
    dx, dy = sx - ox, sy - oy
    if abs(dx) > abs(dy):
        return SPATIAL_NAMES.index("right") if dx > 0 else SPATIAL_NAMES.index("left")
    return SPATIAL_NAMES.index("below") if dy > 0 else SPATIAL_NAMES.index("above")


def related_rule(sub_cls: int, obj_cls: int, spatial: int) -> bool:
    """Touching pairs are always related; separated pairs relate through a
    fixed class-pair table (spatial detail then only picks the predicate)."""
    if spatial >= SPATIAL_NAMES.index("overlap"):
        return True
    return (3 * sub_cls + 5 * obj_cls) % 8 < 4


def predicate_rule(sub_cls: int, obj_cls: int, spatial: int, n_predicates: int) -> int:
    """Spatial relation picks the predicate, shifted by a class-pair parity so
    the same geometry can mean different predicates for different classes."""
    shift = 3 * ((3 * sub_cls + 5 * obj_cls) % 2)
    return (spatial + shift) % n_predicates


def regenerate_triplets(gt_objects, n_predicates: int) -> list[Triplet]:
    """Apply the relation rule to labeled boxes; pure in classes and geometry."""
    out = []
    for i, a in enumerate(gt_objects):
        for j, b in enumerate(gt_objects):
            if i == j:
                continue
            (ax, ay), (bx, by) = a.box.center, b.box.center
            if np.hypot(ax - bx, ay - by) > _RELATED_GATE:
                continue
            sp = spatial_relation(a.box, b.box)
            if related_rule(a.cls, b.cls, sp):
                out.append(Triplet(i, predicate_rule(a.cls, b.cls, sp, n_predicates), j))
    return out


def class_prototypes(cfg: SynthConfig) -> np.ndarray:
    protos = np.random.default_rng([cfg.seed, 0]).normal(
        0.0, 1.0, size=(cfg.n_object_classes, cfg.d_obj))
    if cfg.confusable > 0.0:
        for m in range(cfg.n_object_classes // 2):
            protos[2 * m + 1] = ((1.0 - cfg.confusable) * protos[2 * m + 1]
                                 + cfg.confusable * protos[2 * m])
    return protos


def theme_weights(cfg: SynthConfig) -> np.ndarray:
    """Each theme prefers every third class; themes overlap through the tail mass."""
    w = np.full((N_THEMES, cfg.n_object_classes), 0.5)
    for t in range(N_THEMES):
        w[t, t::N_THEMES] = 4.0
    return w / w.sum(axis=1, keepdims=True)


def _softmax(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def _random_box(rng: np.random.Generator) -> Box:
    w = rng.uniform(40.0, 160.0)
    h = rng.uniform(40.0, 160.0)
    return Box(rng.uniform(0.0, CANVAS - w), rng.uniform(0.0, CANVAS - h), w, h)


def _jitter_box(b: Box, rng: np.random.Generator, sigma: float) -> Box:
    dx, dy, dw, dh = rng.normal(0.0, sigma, size=4)
    w = min(max(b.w + dw, 4.0), CANVAS)
    h = min(max(b.h + dh, 4.0), CANVAS)
    x = min(max(b.x + dx, 0.0), CANVAS - w)
    y = min(max(b.y + dy, 0.0), CANVAS - h)
    return Box(float(x), float(y), float(w), float(h))


def generate_scene(cfg: SynthConfig, index: int, prototypes: np.ndarray | None = None,
                   themes: np.ndarray | None = None) -> SceneRecord:
    if prototypes is None:
        prototypes = class_prototypes(cfg)
    if themes is None:
        themes = theme_weights(cfg)
    rng = np.random.default_rng([cfg.seed, index + 1])
    n = int(rng.integers(cfg.min_objects, cfg.max_objects + 1))
    theme = int(rng.integers(N_THEMES))
    classes = rng.choice(cfg.n_object_classes, size=n, p=themes[theme]) + 1

    gt = []
    feats = []
    for c in classes:
        box = _random_box(rng)
        gt.append(GtObject(box=box, cls=int(c)))
        feats.append(prototypes[c - 1] + rng.normal(0.0, cfg.feature_noise, cfg.d_obj))
    triplets = regenerate_triplets(gt, cfg.n_predicates)

    proposals = []
    for i, g in enumerate(gt):
        if rng.random() < cfg.dropout:
            continue
        scores = rng.normal(0.0, _LABEL_NOISE, cfg.n_classes)
        scores[g.cls] += _PEAK_SCORE
        proposals.append(ObjectProposal(
            box=_jitter_box(g.box, rng, cfg.box_jitter),
            feature=feats[i],
            label_dist=_softmax(scores),
        ))
    for _ in range(int(rng.binomial(n, cfg.dropout))):
        c = int(rng.integers(cfg.n_object_classes))
        feature = 0.5 * prototypes[c] + rng.normal(0.0, _DISTRACTOR_NOISE, cfg.d_obj)
        proposals.append(ObjectProposal(
            box=_random_box(rng),
            feature=feature,
            label_dist=_softmax(rng.normal(0.0, 1.5, cfg.n_classes)),
        ))

    return SceneRecord(id=f"scene-{index:04d}", proposals=tuple(proposals),
                       gt_objects=tuple(gt), gt_triplets=tuple(triplets))


def generate_dataset(cfg: SynthConfig) -> list[SceneRecord]:
    prototypes = class_prototypes(cfg)
    themes = theme_weights(cfg)
    return [generate_scene(cfg, i, prototypes, themes) for i in range(cfg.num_scenes)]
