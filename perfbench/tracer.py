"""Span tracer and the wrappers that attach it to the ``sgg`` modules.

The tracer keeps spans on a stack in memory.  A span's self time is its
duration minus the part of it that its child spans cover; each span also
records how many autodiff tape nodes were created while it was open.

``Instrumentation`` wraps public functions of the ``sgg`` modules at the
names their callers look them up by (for example ``sgg.training.backward``
and ``sgg.relation_features.conv2d``), so nothing under ``src/`` changes.
``uninstall`` puts every original object back; a run that is not traced
never installs anything.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Tracer:
    """Nested spans with self time, inclusive time, call and tape-node counts.

    Each thread nests its own spans; the tallies are shared, so spans of
    threads that overlap in time can sum to more than the wall time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.span_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.nodes_in: dict[str, int] = defaultdict(int)
        self.sums: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.nodes = 0  # autodiff tape nodes created so far

    @property
    def stack(self) -> list[list]:
        """This thread's open spans: [name, start, child seconds, nodes at start]."""
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0, self.nodes])

    def end(self) -> None:
        stack = self.stack
        name, start, child, nodes = stack.pop()
        dur = self.clock() - start
        if stack:
            stack[-1][2] += dur
        with self._lock:
            self.self_s[name] += dur - child
            self.span_s[name] += dur
            self.calls[name] += 1
            self.nodes_in[name] += self.nodes - nodes

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.sums[name] += value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    def mean(self, total: str, per: str) -> float:
        """``sums[total]`` per call of span ``per`` (0 when it never ran)."""
        n = self.calls.get(per, 0)
        return self.sums.get(total, 0.0) / n if n else 0.0


# ---------------------------------------------------------------------------
# after-call hooks: counts taken from arguments and results


def _after_conv2d(instr, args, kwargs, out):
    x, w = args[0], args[1]
    n, cin, h, wd = x.data.shape
    _, _, kh, kw = w.data.shape
    # computed, not measured: the float64 im2col matrix conv2d builds
    instr.tracer.peak("autodiff.conv2d_im2col_bytes",
                      8 * n * (h - kh + 1) * (wd - kw + 1) * cin * kh * kw)
    back = out._backward
    if back is not None:
        def timed_backward(g):
            tracer = instr.tracer
            tracer.begin("autodiff.conv2d")
            try:
                back(g)
            finally:
                tracer.end()
        out._backward = timed_backward


def _after_spatial_features(instr, args, kwargs, out):
    instr.tracer.add("relation_features.pair_rows", out.data.shape[0])


def _after_prune_graph(instr, args, kwargs, out):
    instr.tracer.add("filter.pairs_scored", len(args[0]))
    instr.tracer.add("filter.pairs_kept", len(out[0]))


def _after_candidate_pairs(instr, args, kwargs, out):
    scene, config = args[0], args[2]
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "sggen")
    bypass = mode == "predcls" and not config.srf_in_predcls
    if config.use_srf and not bypass:
        # filter recall is computed after the run, outside every span
        instr.kept_pairs.append((scene, list(out[0])))


def _after_build_message_graph(instr, args, kwargs, out):
    for key, arr in (("oo", out.oo_tgt), ("ro", out.ro_node), ("or", out.or_edge),
                     ("rr", out.rr_tgt)):
        instr.tracer.add(f"message_passing.rows_{key}", arr.size)


def _after_score_triplets(instr, args, kwargs, out):
    instr.tracer.add("inference.triplets_emitted", len(out.triplets))


def _after_forward_scene(instr, args, kwargs, out):
    instr.tracer.add("model.edges_per_scene", len(out.edges))


def _predict_span(args, kwargs):
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "sggen")
    return f"evaluation.predict_{mode}"


# (module, attribute, span name or name function, after-call hook)
TARGETS = [
    ("sgg.training", "backward", "autodiff.backward", None),
    ("sgg.relation_features", "conv2d", "autodiff.conv2d", _after_conv2d),
    ("sgg.model", "pair_inputs", "filter.pair_inputs", None),
    ("sgg.training", "pair_inputs", "filter.pair_inputs", None),
    ("sgg.model", "score_pairs", "filter.score_pairs", None),
    ("sgg.model", "prune_graph", "filter.prune_graph", _after_prune_graph),
    ("sgg.relation_features", "rasterize_mask", "relation_features.rasterize_mask", None),
    ("sgg.training", "rasterize_mask", "relation_features.rasterize_mask", None),
    ("sgg.relation_features", "union_visual", "relation_features.union_visual", None),
    ("sgg.training", "union_visual", "relation_features.union_visual", None),
    ("sgg.relation_features", "spatial_features", "relation_features.spatial_features",
     _after_spatial_features),
    ("sgg.training", "spatial_features", "relation_features.spatial_features",
     _after_spatial_features),
    ("sgg.model", "build_message_graph", "message_passing.build_message_graph",
     _after_build_message_graph),
    ("sgg.training", "build_message_graph", "message_passing.build_message_graph",
     _after_build_message_graph),
    ("sgg.message_passing", "update_objects", "message_passing.update_objects", None),
    ("sgg.message_passing", "update_relations", "message_passing.update_relations", None),
    ("sgg.model", "object_logits", "inference.object_logits", None),
    ("sgg.training", "object_logits", "inference.object_logits", None),
    ("sgg.model", "relation_logits", "inference.relation_logits", None),
    ("sgg.training", "relation_logits", "inference.relation_logits", None),
    ("sgg.model", "score_triplets", "inference.score_triplets", _after_score_triplets),
    ("sgg.model", "candidate_pairs", "model.candidate_pairs", _after_candidate_pairs),
    ("sgg.model", "forward_scene", "model.forward_scene", _after_forward_scene),
    ("sgg.training", "prepare_scene", "training.prepare_scene", None),
    ("sgg.training", "scene_loss", "training.scene_loss", None),
    ("sgg.training", "train_srf", "training.train_srf", None),
    ("sgg.training", "train_main", "training.train_main", None),
    ("sgg.evaluation", "scene_for_mode", "evaluation.scene_for_mode", None),
    ("sgg.evaluation", "match_triplets", "evaluation.match_triplets", None),
    ("sgg.evaluation", "detection_map", "evaluation.detection_map", None),
    ("sgg.evaluation", "predict_scene", _predict_span, None),
    ("sgg.evaluation", "iou", "scenes.iou", None),
    ("sgg.training", "iou", "scenes.iou", None),
    ("sgg.filter", "iou", "scenes.iou", None),
    ("sgg.scenes", "load_scenes", "scenes.load_scenes", None),
    ("sgg.synthetic", "generate_dataset", "synthetic.generate_dataset", None),
    ("sgg.synthetic", "generate_scene", "synthetic.generate_dataset", None),
    ("sgg.checkpoint", "save_model", "checkpoint.save_model", None),
    ("sgg.checkpoint", "load_model", "checkpoint.load_model", None),
]


class Instrumentation:
    """Installs span wrappers on the ``sgg`` modules and removes them again.

    ``tracer`` may be swapped while installed, so set-up and measured work
    land in separate tallies.  ``kept_pairs`` collects (scene, kept edges)
    for every call that ran the learned filter.
    """

    def __init__(self, tracer: Tracer):
        import importlib

        self.tracer = tracer
        self.kept_pairs: list = []
        self._saved: list[tuple[object, str, object]] = []
        self._modules = {m: importlib.import_module(m) for m, _, _, _ in TARGETS}
        self._autodiff = importlib.import_module("sgg.autodiff")

    def _save(self, owner, attr: str) -> object:
        # read the class dict so a classmethod is restored as itself
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        return original

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        for module_name, attr, span, after in TARGETS:
            module = self._modules[module_name]
            setattr(module, attr, self._wrap(self._save(module, attr), span, after))

        opt = self._autodiff.SgdMomentum
        step = self._save(opt, "step")
        setattr(opt, "step", self._wrap(step, "autodiff.optimizer_step", None))

        tensor = self._autodiff.Tensor
        from_op = self._save(tensor, "_from_op").__func__
        instr = self

        def counting_from_op(cls, data, parents, backward_fn):
            instr.tracer.nodes += 1
            return from_op(cls, data, parents, backward_fn)

        tensor._from_op = classmethod(counting_from_op)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span, after):
        instr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = instr.tracer
            tracer.begin(span(args, kwargs) if callable(span) else span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(instr, args, kwargs, out)
            return out

        return wrapper


def filter_recall(kept_pairs, match_iou: float = 0.5) -> float:
    """Share of gt-related proposal pairs (``srf_training_labels`` positives)
    that the filter kept, pooled over every recorded call."""
    from sgg.filter import srf_training_labels

    related = kept = 0
    for scene, edges in kept_pairs:
        pairs, labels = srf_training_labels(scene, match_iou)
        positive = {p for p, y in zip(pairs, labels) if y == 1.0}
        related += len(positive)
        kept += len(positive.intersection(edges))
    return kept / related if related else 0.0

