"""Scene records, box geometry, and class-embedding tables.

Scene files are line-delimited JSON, one record per line:

    {"id": "scene-0000", "image_size": [512, 512],
     "proposals":   [{"box": [x, y, w, h], "feature": [...],
                      "label_dist": [...], "gt_class": 3}, ...],
     "gt_objects":  [{"box": [x, y, w, h], "class": 2}, ...],
     "gt_triplets": [{"sub": 0, "pred": 1, "obj": 2}, ...],
     "pair_visual": {"0,1": [...]}}

``gt_class`` and ``pair_visual`` are optional (``gt_class`` may be null).
Boxes are [x, y, w, h] with positive width and height; ``label_dist`` is a
distribution over object classes where index 0 is the background class.
"""

from __future__ import annotations

import json
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
        vals = (self.x, self.y, self.w, self.h)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"box fields must be finite, got {vals}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extent must be positive, got w={self.w} h={self.h}")

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


def iou(a: Box, b: Box) -> float:
    """Intersection over union of closed boxes; touching edges count as 0 area."""
    iw = min(a.x2, b.x2) - max(a.x, b.x)
    ih = min(a.y2, b.y2) - max(a.y, b.y)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def union_box(a: Box, b: Box) -> Box:
    """Smallest box enclosing both inputs."""
    x = min(a.x, b.x)
    y = min(a.y, b.y)
    return Box(x, y, max(a.x2, b.x2) - x, max(a.y2, b.y2) - y)


def normalize_box(b: Box, u: Box) -> np.ndarray:
    """Box coordinates relative to a reference box: [(x-ux)/uw, (y-uy)/uh, w/uw, h/uh]."""
    if u.w <= 0 or u.h <= 0:
        raise ValueError("normalize_box: reference box is degenerate")
    return np.array([(b.x - u.x) / u.w, (b.y - u.y) / u.h, b.w / u.w, b.h / u.h])


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
    gt_class: int | None = None

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
    image_size: tuple[float, float]
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


def _box_from_json(v, where: str) -> Box:
    if not isinstance(v, list) or len(v) != 4:
        raise ValueError(f"{where}: box must be [x, y, w, h]")
    try:
        return Box(*[float(t) for t in v])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _record_from_json(obj, where: str) -> SceneRecord:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    try:
        rid = str(obj["id"])
    except KeyError:
        raise ValueError(f"{where}: missing field 'id'") from None
    where = f"{where} ({rid})"
    try:
        size = obj["image_size"]
        if not isinstance(size, list) or len(size) != 2:
            raise ValueError(f"{where}: image_size must be [width, height]")
        image_size = (float(size[0]), float(size[1]))
        props = []
        for k, p in enumerate(obj["proposals"]):
            props.append(ObjectProposal(
                box=_box_from_json(p["box"], f"{where}: proposals[{k}].box"),
                feature=np.array(p["feature"], dtype=np.float64),
                label_dist=np.array(p["label_dist"], dtype=np.float64),
                gt_class=None if p.get("gt_class") is None else int(p["gt_class"]),
            ))
        gts = [GtObject(_box_from_json(g["box"], f"{where}: gt_objects[{k}].box"),
                        int(g["class"]))
               for k, g in enumerate(obj["gt_objects"])]
        trips = [Triplet(int(t["sub"]), int(t["pred"]), int(t["obj"]))
                 for t in obj["gt_triplets"]]
        pv = None
        if obj.get("pair_visual") is not None:
            pv = {}
            for key, vec in obj["pair_visual"].items():
                i, j = (int(s) for s in key.split(","))
                pv[(i, j)] = np.array(vec, dtype=np.float64)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValueError) and str(exc).startswith(where):
            raise
        raise ValueError(f"{where}: {exc}") from exc
    try:
        return SceneRecord(id=rid, image_size=image_size,
                           proposals=tuple(props), gt_objects=tuple(gts),
                           gt_triplets=tuple(trips), pair_visual=pv)
    except ValueError as exc:
        raise ValueError(f"{where.split(' (')[0]}: {exc}") from exc


def load_scenes(path) -> list[SceneRecord]:
    """Read a line-delimited scene file; errors carry the line number and id."""
    out = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {ln}: malformed JSON: {exc}") from exc
            out.append(_record_from_json(obj, f"{path}: line {ln}"))
    return out


def _record_to_json(s: SceneRecord) -> dict:
    obj = {
        "id": s.id,
        "image_size": [s.image_size[0], s.image_size[1]],
        "proposals": [
            {"box": p.box.as_list(), "feature": p.feature.tolist(),
             "label_dist": p.label_dist.tolist(), "gt_class": p.gt_class}
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
