"""The three benchmark workloads: inputs, set-up, one measured cycle, checks.

Inputs come from the ``sgg`` synthetic generator with generator seed 0 (the
criterion-7 class prototypes).  Two kinds of scene sets are used:

* fixed sets, the generator's first scenes, for everything a model predicts
  or is evaluated on, and for the corpora that train those models.  Recall
  is the quality guard, so it must move only when the code learns or
  predicts differently, never with the workload seed.  A prediction's cost
  depends on how many pairs the filter keeps, which the scene contents set:
  over five seeded sets of 34 dense scenes with the same shapes, the mean
  kept pairs per call ranged from 99 to 116, and the p50 latency of
  seeded sets moved by up to 27% between seeds.
* seeded sets, drawn from scene indices that start at
  ``SEED_STRIDE * (seed + 1)``, for ``dense_train``'s training scenes,
  where every pair is supervised and no filter runs.  Every seed gets the
  same list of (gt objects, proposals) shapes; only the contents change
  with the seed, so the work per cycle depends on the code and not on how
  many large scenes a seed happened to draw.

All ``sgg`` calls go through module attributes (``training.train_main``, not
a name imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from sgg import checkpoint, evaluation, model, scenes, synthetic, training
from sgg.config import Dims, ModelConfig
from sgg.scenes import EmbeddingTable
from sgg.synthetic import SynthConfig
from sgg.training import TrainConfig

KS = (20, 50, 100)
MODES = evaluation.MODES
# scene indices for seeded draws start here, far past the fixed corpora
SEED_STRIDE = 10_000_000
MAX_DRAWS = 10_000

# criterion-7 corpus and dims (the synthetic-learning acceptance test)
RECIPE_GEN = SynthConfig(num_scenes=1, min_objects=3, max_objects=6, n_object_classes=6,
                         n_predicates=6, feature_noise=0.3, box_jitter=6.0, dropout=0.1,
                         seed=0, d_obj=16)
RECIPE_DIMS = Dims(n_classes=7, n_predicates=6, d_obj=16, d_emb=8, d_union=8, d_rel=16,
                   d_pe=8, mask_res=24, conv1_channels=2, conv2_channels=2)
RECIPE_SRF = TrainConfig(epochs=20, lr=0.1, seed=0, negative_ratio=1.0)
RECIPE_MAIN = TrainConfig(epochs=6, lr=5e-3, seed=0, negative_ratio=0.5)

# dense scenes at default dims; the reference model trains on small scenes
# of the same generator config
DENSE_GEN = replace(RECIPE_GEN, min_objects=14, max_objects=20, d_obj=64)
SMALL_GEN = replace(RECIPE_GEN, d_obj=64)
DEFAULT_DIMS = Dims(n_classes=7, n_predicates=6)
DENSE_MAIN = TrainConfig(epochs=1, lr=5e-3, seed=0)
REF_SRF = TrainConfig(epochs=20, lr=0.1, seed=0, negative_ratio=1.0)
REF_MAIN = TrainConfig(epochs=2, lr=2e-2, seed=0, negative_ratio=1.0)
REF_TRAIN = 60  # small scenes 0-59 train the reference model
# dense_train's step shapes (gt objects, proposals): the scenes at the 1st,
# 3rd, 5th and 7th octile of proposals among DENSE_GEN's first 400 scenes
# (checked by test_perfbench.py), so a cycle's mix of pair and
# rr-row counts follows the generator's: 17.25 proposals, 287 ordered pairs
# and 18.7k rr rows per step on average
DENSE_TRAIN_SHAPES = ((15, 14), (20, 16), (18, 18), (19, 21))


def scene_shape(scene) -> tuple[int, int]:
    return len(scene.gt_objects), scene.n_proposals


def draw_scenes(gen: SynthConfig, shapes: list, seed: int) -> list:
    """One scene of ``gen`` per (gt objects, proposals) shape, in order;
    contents come from ``seed``.  Each scene is drawn with its gt count
    fixed, retrying scene indices until the proposal count matches too."""
    prototypes = synthetic.class_prototypes(gen)
    themes = synthetic.theme_weights(gen)
    out = []
    for slot, (n_gt, n_proposals) in enumerate(shapes):
        fixed = replace(gen, min_objects=n_gt, max_objects=n_gt)
        start = SEED_STRIDE * (seed + 1) + MAX_DRAWS * slot
        for index in range(start, start + MAX_DRAWS):
            scene = synthetic.generate_scene(fixed, index, prototypes, themes)
            if scene.n_proposals == n_proposals:
                out.append(scene)
                break
        else:
            raise RuntimeError(f"no scene with {n_gt} objects and {n_proposals} proposals "
                               f"in {MAX_DRAWS} draws")
    return out


def fixed_scenes(gen: SynthConfig, start: int, stop: int) -> list:
    """The generator's scenes ``start`` to ``stop - 1``."""
    return synthetic.generate_dataset(replace(gen, num_scenes=stop))[start:]


def jsonl_round_trip(items: list, tmpdir: str, name: str) -> list:
    path = os.path.join(tmpdir, f"{name}.jsonl")
    scenes.save_scenes(path, items)
    return scenes.load_scenes(path)


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name, arr in sorted(params.named_arrays().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def eval_digest(res) -> str:
    return hashlib.sha256(repr((res.recalls, res.map50, res.n_scenes)).encode()) \
        .hexdigest()[:16]


def finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


@dataclass
class Recorder:
    """Samples of one run plus operation counts and failure reasons."""

    cycle_s: list = field(default_factory=list)
    train_calls: list = field(default_factory=list)  # (steps, seconds) per call
    eval_calls: list = field(default_factory=list)   # (scenes, seconds) per call
    predict_ms: dict = field(default_factory=dict)   # (scene id, mode) -> [ms, ...]
    recalls: dict | None = None
    digests: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(why)

    def train(self, fn, steps: int):
        """Time one ``train_*`` call that makes ``steps`` main-stage steps;
        returns its result, or None when it raised or produced non-finite
        numbers."""
        self.attempted += steps
        t0 = time.perf_counter()
        try:
            params, history = fn()
        except (ValueError, ArithmeticError) as exc:
            self.fail(steps, f"training raised {exc!r}")
            return None
        seconds = time.perf_counter() - t0
        if not finite(history) or not all(finite(a) for a in params.named_arrays().values()):
            self.fail(steps, "training produced a non-finite loss or parameter")
            return None
        self.train_calls.append((steps, seconds))
        return params

    def evaluate(self, items: list, params, config: ModelConfig, workers: int) -> None:
        self.attempted += len(items)
        t0 = time.perf_counter()
        try:
            res = evaluation.evaluate(items, params, config, ks=KS, workers=workers)
        except (ValueError, ArithmeticError) as exc:
            self.fail(len(items), f"evaluate raised {exc!r}")
            return
        seconds = time.perf_counter() - t0
        why = check_eval(res)
        if why:
            self.fail(len(items), why)
            return
        digest = eval_digest(res)
        if self.digests and digest != self.digests[0]:
            self.fail(len(items), f"eval digest {digest} differs from {self.digests[0]}")
            return
        self.digests.append(digest)
        self.eval_calls.append((len(items), seconds))
        self.recalls = res.recalls

    def predict_all(self, items: list, params, config: ModelConfig) -> None:
        """One caller timing ``predict_scene`` for every (scene, mode)."""
        for scene in items:
            for mode in MODES:
                self.attempted += 1
                converted = evaluation.scene_for_mode(scene, mode, config)
                t0 = time.perf_counter()
                try:
                    pg = model.predict_scene(converted, params, config, mode)
                except (ValueError, ArithmeticError) as exc:
                    self.fail(1, f"predict_scene raised {exc!r}")
                    continue
                ms = (time.perf_counter() - t0) * 1e3
                why = check_prediction(pg, config)
                if why:
                    self.fail(1, f"{scene.id} {mode}: {why}")
                    continue
                self.predict_ms.setdefault((scene.id, mode), []).append(ms)

    def predict_calls_ms(self) -> list:
        """Every timed call of the run.  The repeats of an input are spread
        over the run, so percentiles over all calls average the machine's
        drift over the run; the fastest call of each input would instead
        follow the single fastest stretch of the run."""
        return [ms for calls in self.predict_ms.values() for ms in calls]


def check_eval(res) -> str | None:
    for mode, by_k in res.recalls.items():
        values = [by_k[k] for k in KS]
        if not finite(values) or not all(0.0 <= v <= 1.0 for v in values):
            return f"{mode} recall out of range: {values}"
        if any(a > b for a, b in zip(values, values[1:])):
            return f"{mode} recall not monotone in K: {values}"
    if not finite([res.map50]):
        return "non-finite mAP"
    return None


def check_prediction(pg, config: ModelConfig) -> str | None:
    if len(pg.edges) > config.srf_top_k:
        return f"{len(pg.edges)} edges kept, more than srf_top_k {config.srf_top_k}"
    if not (finite(pg.label_dist) and finite(pg.rel_dist)
            and finite([t.score for t in pg.triplets])):
        return "non-finite prediction"
    scores = [t.score for t in pg.triplets]
    if any(a < b for a, b in zip(scores, scores[1:])):
        return "triplets not ranked by score"
    return None


# ---------------------------------------------------------------------------
# workloads


def reference_model(rec: Recorder, tmpdir: str):
    """Filter plus main model trained briefly on fixed small scenes at
    default dims, then round-tripped through a checkpoint file."""
    train = jsonl_round_trip(fixed_scenes(SMALL_GEN, 0, REF_TRAIN), tmpdir, "reference")
    dims = DEFAULT_DIMS
    embed = EmbeddingTable.seeded(dims.n_classes, dims.d_emb, 0)
    srf, srf_history = training.train_srf(train, embed, dims, REF_SRF)
    if not finite(srf_history):
        raise ArithmeticError("reference filter training diverged")
    config = ModelConfig(dims=dims)
    steps = REF_MAIN.epochs * sum(1 for s in train if s.n_proposals)
    params = rec.train(lambda: training.train_main(train, config, REF_MAIN, srf=srf,
                                                   embed=embed), steps)
    if params is None:
        raise ArithmeticError("; ".join(rec.problems))
    path = os.path.join(tmpdir, "reference.ckpt")
    checkpoint.save_model(path, params, config)
    loaded, loaded_config = checkpoint.load_model(path)
    if loaded_config != config or params_digest(loaded) != params_digest(params):
        raise ValueError("checkpoint round trip changed the reference model")
    return loaded, loaded_config, os.path.getsize(path)


class Recipe:
    """train_srf -> train_main -> evaluate on the criterion-7 corpus and dims.
    After each cycle, a probe outside the cycle times predict_scene with the
    cycle's model on the test scenes.  Every input is fixed, so the workload
    seed changes nothing here."""

    name = "recipe"
    n_train, n_test = 80, 100
    n_predict = n_test

    def setup(self, seed: int, tmpdir: str, rec: Recorder) -> dict:
        corpus = jsonl_round_trip(fixed_scenes(RECIPE_GEN, 0, self.n_train + self.n_test),
                                  tmpdir, "corpus")
        embed = EmbeddingTable.seeded(RECIPE_DIMS.n_classes, RECIPE_DIMS.d_emb, 0)
        config = ModelConfig(dims=RECIPE_DIMS, iterations=2)
        train, test = corpus[:self.n_train], corpus[self.n_train:]
        # warm-up: one untimed pass of every stage on a few scenes
        srf, _ = training.train_srf(train[:8], embed, RECIPE_DIMS, replace(RECIPE_SRF, epochs=1))
        params, _ = training.train_main(train[:1], config, replace(RECIPE_MAIN, epochs=1),
                                        srf=srf, embed=embed)
        evaluation.evaluate(test[:1], params, config, ks=KS)
        return dict(train=train, test=test, embed=embed, config=config,
                    params=None, model_digest=None, checkpoint_bytes=0)

    def cycle(self, st: dict, rec: Recorder) -> None:
        train, config, embed = st["train"], st["config"], st["embed"]
        st["params"] = None
        srf, srf_history = training.train_srf(train, embed, RECIPE_DIMS, RECIPE_SRF)
        steps = RECIPE_MAIN.epochs * sum(1 for s in train if s.n_proposals)
        if not finite(srf_history):
            rec.attempted += steps
            rec.fail(steps, "filter training produced a non-finite loss")
            return
        params = rec.train(lambda: training.train_main(train, config, RECIPE_MAIN, srf=srf,
                                                       embed=embed), steps)
        if params is None:
            return
        rec.evaluate(st["test"], params, config, workers=1)
        st["params"] = params

    def probe(self, st: dict, rec: Recorder) -> None:
        if st["params"] is not None:
            rec.predict_all(st["test"], st["params"], st["config"])


class DenseTrain:
    """train_main on seeded dense scenes at default dims, every ordered pair,
    no filter.  The model it trains is not evaluated (after so few steps its
    recall@20 is about 0).  After each cycle, a probe outside the cycle
    evaluates the reference model on fixed small scenes for the recall, eval
    and predict figures.  The probe trains the reference once per run, at
    its first call; it is neither set-up nor traced."""

    name = "dense_train"
    n_predict = 40

    def __init__(self):
        self.reference = None  # (params, config, probe scenes)

    def setup(self, seed: int, tmpdir: str, rec: Recorder) -> dict:
        dense = jsonl_round_trip(draw_scenes(DENSE_GEN, DENSE_TRAIN_SHAPES, seed), tmpdir,
                                 "dense")
        config = ModelConfig(dims=DEFAULT_DIMS, use_srf=False)
        # warm-up: one untimed step on the largest dense scene
        largest = max(dense, key=lambda s: s.n_proposals)
        training.train_main([largest], config, DENSE_MAIN)
        return dict(dense=dense, config=config, tmpdir=tmpdir, model_digest=None,
                    checkpoint_bytes=0)

    def cycle(self, st: dict, rec: Recorder) -> None:
        dense, config = st["dense"], st["config"]
        steps = DENSE_MAIN.epochs * len(dense)
        rec.train(lambda: training.train_main(dense, config, DENSE_MAIN), steps)

    def probe(self, st: dict, rec: Recorder) -> None:
        if self.reference is None:
            ref, ref_config, _ = reference_model(Recorder(), st["tmpdir"])
            items = fixed_scenes(SMALL_GEN, REF_TRAIN, REF_TRAIN + self.n_predict)
            self.reference = ref, ref_config, items
        ref, ref_config, items = self.reference
        rec.evaluate(items, ref, ref_config, workers=1)
        rec.predict_all(items, ref, ref_config)


class DenseEval:
    """Forward only, with a reference model trained in set-up: evaluate (all
    modes, one worker per core) on fixed dense scenes, then one caller
    timing predict_scene for every (scene, mode) of the next fixed dense
    scenes.  Every input is fixed, so the workload seed changes nothing
    here."""

    name = "dense_eval"
    n_eval, n_predict = 8, 24

    def setup(self, seed: int, tmpdir: str, rec: Recorder) -> dict:
        dense = jsonl_round_trip(fixed_scenes(DENSE_GEN, 0, self.n_eval + self.n_predict),
                                 tmpdir, "dense")
        evaluated, predict = dense[:self.n_eval], dense[self.n_eval:]
        ref, ref_config, nbytes = reference_model(rec, tmpdir)
        # warm-up: one untimed prediction per mode
        for mode in MODES:
            model.predict_scene(evaluation.scene_for_mode(predict[0], mode, ref_config), ref,
                                ref_config, mode)
        return dict(evaluated=evaluated, predict=predict, ref=ref, ref_config=ref_config,
                    model_digest=params_digest(ref), checkpoint_bytes=nbytes)

    def cycle(self, st: dict, rec: Recorder) -> None:
        rec.evaluate(st["evaluated"], st["ref"], st["ref_config"],
                     workers=len(os.sched_getaffinity(0)))
        rec.predict_all(st["predict"], st["ref"], st["ref_config"])


WORKLOADS = {w.name: w for w in (Recipe, DenseTrain, DenseEval)}
