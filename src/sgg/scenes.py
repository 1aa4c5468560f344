"""Scene records, box geometry, and class-embedding tables.

Scene files are line-delimited JSON, one record per line:

    {"id": "scene-0000",
     "proposals":   [{"box": [x, y, w, h], "feature": [...],
                      "label_dist": [...]}, ...],
     "gt_objects":  [{"box": [x, y, w, h], "class": 2}, ...],
     "gt_triplets": [{"sub": 0, "pred": 1, "obj": 2}, ...],
     "pair_visual": {"0,1": [...]}}

``pair_visual`` is optional, and keys outside this format are ignored.
Boxes are [x, y, w, h] with x < x + w, y < y + h and 0 < w * h, all finite
in float64, and a scene's boxes (proposals and gt) span a finite extent:
max(x + w) - min(x) and max(y + h) - min(y) are finite, so every union box
is too.  ``label_dist`` is a distribution over object classes where index
0 is the background class.  Scene ids are unique within a file.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with corner (x, y) and positive extent (w, h)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        x, y, w, h = self.x, self.y, self.w, self.h
        # also false for a nan or inf field
        if not (x < x + w < math.inf and y < y + h < math.inf and 0 < w * h < math.inf):
            raise ValueError(f"box needs x < x + w, y < y + h and 0 < w * h, all finite, "
                             f"got [x, y, w, h] = {[x, y, w, h]}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def as_list(self) -> list[float]:
        return [self.x, self.y, self.w, self.h]


# a box matches a gt box when their IoU exceeds this: in triplet recall and
# mAP, and for the training labels of the filter and the main model
IOU_THRESHOLD = 0.5


def iou(a: Box, b: Box) -> float:
    """Intersection over union of closed boxes; touching edges count as 0 area."""
    iw = min(a.x2, b.x2) - max(a.x, b.x)
    ih = min(a.y2, b.y2) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def pair_index(pairs) -> np.ndarray:
    """Ordered pairs as a (P, 2) array of (subject, object) proposal indices."""
    return np.asarray(pairs, dtype=np.intp).reshape(-1, 2)


def union_frame(sub_boxes, obj_boxes) -> np.ndarray:
    """(P, 4) subject and object [x, y, w, h] boxes in their union box u, as
    (P, 2, 4) rows [(x - ux) / uw, (y - uy) / uh, w / uw, h / uh], subject first."""
    boxes = np.stack([np.asarray(sub_boxes, dtype=np.float64).reshape(-1, 4),
                      np.asarray(obj_boxes, dtype=np.float64).reshape(-1, 4)], axis=1)
    lo = boxes[..., :2].min(axis=1, keepdims=True)
    size = (boxes[..., :2] + boxes[..., 2:]).max(axis=1, keepdims=True) - lo
    return np.concatenate([(boxes[..., :2] - lo) / size, boxes[..., 2:] / size], axis=-1)


def one_hot(index: int, n: int) -> np.ndarray:
    if not 0 <= index < n:
        raise ValueError(f"one_hot: index {index} out of range for {n} classes")
    v = np.zeros(n)
    v[index] = 1.0
    return v


class Triplet(NamedTuple):
    sub: int
    pred: int
    obj: int


@dataclass(frozen=True, eq=False)
class ObjectProposal:
    box: Box
    feature: np.ndarray
    label_dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "feature", np.asarray(self.feature, dtype=np.float64))
        object.__setattr__(self, "label_dist", np.asarray(self.label_dist, dtype=np.float64))
        if self.feature.ndim != 1 or not np.all(np.isfinite(self.feature)):
            raise ValueError("proposal feature must be a finite vector")
        d = self.label_dist
        if d.ndim != 1 or not np.all(np.isfinite(d)) or np.any(d < -1e-12) \
                or abs(d.sum() - 1.0) > 1e-6:
            raise ValueError("label_dist must be a distribution summing to 1 within 1e-6")


@dataclass(frozen=True)
class GtObject:
    box: Box
    cls: int

    def __post_init__(self):
        if self.cls < 0:
            raise ValueError("gt object class must be nonnegative")


@dataclass(frozen=True, eq=False)
class SceneRecord:
    """One annotated scene: proposals plus ground-truth objects and triplets."""

    id: str
    proposals: tuple[ObjectProposal, ...]
    gt_objects: tuple[GtObject, ...]
    gt_triplets: tuple[Triplet, ...]
    pair_visual: dict[tuple[int, int], np.ndarray] | None = None

    def __post_init__(self):
        n_gt = len(self.gt_objects)
        for k, t in enumerate(self.gt_triplets):
            for role in ("sub", "obj"):
                v = getattr(t, role)
                if not 0 <= v < n_gt:
                    raise ValueError(
                        f"{self.id}: gt_triplets[{k}].{role} = {v} out of range for "
                        f"{n_gt} gt objects")
            if t.sub == t.obj:
                raise ValueError(f"{self.id}: gt_triplets[{k}] relates an object to itself")
            if t.pred < 0:
                raise ValueError(f"{self.id}: gt_triplets[{k}].pred is negative")
        boxes = [o.box for o in (*self.proposals, *self.gt_objects)]
        if boxes and not (max(b.x2 for b in boxes) - min(b.x for b in boxes) < math.inf
                          and max(b.y2 for b in boxes) - min(b.y for b in boxes) < math.inf):
            raise ValueError(f"{self.id}: the boxes span more than float64 holds: "
                             f"max(x + w) - min(x) or max(y + h) - min(y) overflows")
        for name in ("feature", "label_dist"):
            lengths = sorted({getattr(p, name).shape[0] for p in self.proposals})
            if len(lengths) > 1:
                raise ValueError(f"{self.id}: proposals mix {name} lengths {lengths}")
        n_prop = len(self.proposals)
        if self.pair_visual is not None:
            for (i, j), v in self.pair_visual.items():
                if not (0 <= i < n_prop and 0 <= j < n_prop) or i == j:
                    raise ValueError(f"{self.id}: pair_visual key ({i},{j}) is invalid")
                if not np.all(np.isfinite(v)):
                    raise ValueError(f"{self.id}: pair_visual[{i},{j}] must be finite")

    @property
    def n_proposals(self) -> int:
        return len(self.proposals)

    @property
    def boxes(self) -> np.ndarray:
        """Proposal boxes as an (n, 4) array of [x, y, w, h]."""
        return np.array([p.box.as_list() for p in self.proposals]).reshape(-1, 4)

    def check_gt_classes(self, n_classes: int) -> None:
        """Reject a gt object class that a model over ``n_classes`` cannot represent."""
        for k, g in enumerate(self.gt_objects):
            if g.cls >= n_classes:
                raise ValueError(f"{self.id}: gt object class {g.cls} out of range for "
                                 f"{n_classes} classes (gt_objects[{k}].class)")


# ---------------------------------------------------------------------------
# class embeddings


@dataclass(eq=False)
class EmbeddingTable:
    """Fixed per-class embedding rows; row 0 (background) is the zero vector
    for tables built here, and soft label distributions embed as dist @ table."""

    matrix: np.ndarray  # (n_classes, dim)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ValueError("embedding table must be a matrix with one row per class")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("embedding table must be finite")

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def embed(self, dist: np.ndarray) -> np.ndarray:
        """Expected embedding of a label distribution (or rows of them)."""
        dist = np.asarray(dist, dtype=np.float64)
        if dist.shape[-1] != self.n_classes:
            raise ValueError(
                f"distribution length {dist.shape[-1]} != {self.n_classes} classes")
        return dist @ self.matrix

    @classmethod
    def seeded(cls, n_classes: int, dim: int, seed: int) -> "EmbeddingTable":
        """Random table for synthetic runs; background row stays zero."""
        rng = np.random.default_rng([int(seed), 0x5EED])
        m = rng.normal(0.0, 1.0, size=(n_classes, dim))
        m[0] = 0.0
        return cls(matrix=m)


# ---------------------------------------------------------------------------
# scene file i/o


# The record format, checked before a record is built: a dict names an
# object's fields, a list holds values of its one kind and a tuple is a list
# of that length; int is an index (a JSON integer) and float a finite number.
# ``_OPTIONAL`` fields may be absent or null; pair_visual's keys are "i,j".
_RECORD = {"proposals": [{"box": (float,) * 4, "feature": [float], "label_dist": [float]}],
           "gt_objects": [{"box": (float,) * 4, "class": int}],
           "gt_triplets": [{"sub": int, "pred": int, "obj": int}],
           "pair_visual": {"i,j": [float]}}
_OPTIONAL = ("pair_visual",)


def _shown(v) -> str:
    return "an object" if isinstance(v, dict) else f"a list of {len(v)}" \
        if isinstance(v, list) else json.dumps(v)


def _check(v, kind, path: str = "") -> None:
    """Raise a ValueError naming the field at ``path`` unless ``v`` is of ``kind``."""
    if isinstance(kind, dict):
        if not isinstance(v, dict):
            raise ValueError(f"{path}: expected an object, got {_shown(v)}")
        if "i,j" in kind:  # one entry per proposal pair, all of one kind
            for key in v:
                if not re.fullmatch(r"\d+,\d+", key):
                    raise ValueError(f'{path}.{key}: expected a key "i,j"')
            kind = dict.fromkeys(v, kind["i,j"])
        for key, sub in kind.items():
            if type(v.get(key)) is sub is int:  # the commonest field, checked inline
                continue
            at = f"{path}.{key}" if path else key
            if key in v and (v[key] is not None or key not in _OPTIONAL):
                _check(v[key], sub, at)
            elif key not in _OPTIONAL:
                raise ValueError(f"{at}: missing")
    elif isinstance(kind, (list, tuple)):
        if not isinstance(v, list) or isinstance(kind, tuple) and len(v) != len(kind):
            size = f" of {len(kind)} numbers" if isinstance(kind, tuple) else ""
            raise ValueError(f"{path}: expected a list{size}, got {_shown(v)}")
        # most lists are floats whose sum is finite: then each of them is
        if kind[0] is not float or not set(map(type, v)) <= {float} \
                or not math.isfinite(sum(v)):
            for k, item in enumerate(v):
                _check(item, kind[0], f"{path}[{k}]")
    elif isinstance(v, bool) or not isinstance(v, (int, kind)) \
            or kind is float and not abs(v) <= sys.float_info.max:
        raise ValueError(f"{path}: expected {'an integer' if kind is int else 'a finite number'}"
                         f", got {_shown(v)}")


def _built(cls, path: str, *args):
    """``cls(*args)``, its ValueError prefixed with ``path``."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _box(obj, path: str) -> Box:
    """The checked ``box`` field of the object at ``path``."""
    return _built(Box, f"{path}.box", *map(float, obj["box"]))


def _record_from_json(obj, where: str) -> SceneRecord:
    """One corpus record; an error names ``where`` and the path of the field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    if "id" not in obj:
        raise ValueError(f"{where}: missing field 'id'")
    rid = str(obj["id"])
    try:
        _check(obj, _RECORD)
        props = tuple(_built(ObjectProposal, f"proposals[{k}]", _box(p, f"proposals[{k}]"),
                             p["feature"], p["label_dist"])
                      for k, p in enumerate(obj["proposals"]))
        gts = tuple(_built(GtObject, f"gt_objects[{k}]", _box(g, f"gt_objects[{k}]"), g["class"])
                    for k, g in enumerate(obj["gt_objects"]))
    except ValueError as exc:
        raise ValueError(f"{where} ({rid}): {exc}") from None
    trips = tuple(Triplet(t["sub"], t["pred"], t["obj"]) for t in obj["gt_triplets"])
    pv = obj.get("pair_visual")
    if pv is not None:
        pv = {tuple(map(int, key.split(","))): np.array(vec, dtype=np.float64)
              for key, vec in pv.items()}
    try:
        return SceneRecord(id=rid, proposals=props, gt_objects=gts, gt_triplets=trips,
                           pair_visual=pv)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def load_scenes(path) -> list[SceneRecord]:
    """Read a line-delimited scene file; errors carry the line number and id."""
    out, used = [], {}  # scene id -> the line that used it
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # a decode error, or an integer of too many digits
                raise ValueError(f"{path}: line {ln}: malformed JSON: {exc}") from exc
            out.append(_record_from_json(obj, f"{path}: line {ln}"))
            if used.setdefault(out[-1].id, ln) != ln:
                raise ValueError(f"{path}: line {ln}: scene id '{out[-1].id}' is already "
                                 f"used on line {used[out[-1].id]}")
    return out


def _record_to_json(s: SceneRecord) -> dict:
    obj = {
        "id": s.id,
        "proposals": [
            {"box": p.box.as_list(), "feature": p.feature.tolist(),
             "label_dist": p.label_dist.tolist()}
            for p in s.proposals
        ],
        "gt_objects": [{"box": g.box.as_list(), "class": g.cls} for g in s.gt_objects],
        "gt_triplets": [{"sub": t.sub, "pred": t.pred, "obj": t.obj} for t in s.gt_triplets],
    }
    if s.pair_visual is not None:
        obj["pair_visual"] = {f"{i},{j}": v.tolist() for (i, j), v in s.pair_visual.items()}
    return obj


def save_scenes(path, scenes) -> None:
    with open(path, "w") as fh:
        for s in scenes:
            fh.write(json.dumps(_record_to_json(s)) + "\n")
