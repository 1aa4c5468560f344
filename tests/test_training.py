"""Training loops: filter stage, main stage, supervision targets."""

import numpy as np
import pytest

from sgg.config import Dims, ModelConfig
from sgg.filter import pair_inputs, score_pairs
from sgg.model import init_model_params
from sgg.scenes import Box, EmbeddingTable, GtObject, ObjectProposal, SceneRecord, Triplet
from sgg.synthetic import SynthConfig, generate_dataset
from sgg.training import TrainConfig, prepare_scene, train_main, train_srf

DIMS = Dims(n_classes=3, n_predicates=2, d_obj=4, d_emb=4, d_union=6, d_rel=6,
            d_pe=4, mask_res=12, conv1_channels=2, conv2_channels=2)


def dist(cls):
    d = np.full(3, 0.05)
    d[cls] = 0.9
    return d


def related_scene(sid, dx=0.0):
    """Subject left of object, plus an unrelated far-away distractor."""
    boxes = [Box(0 + dx, 0, 10, 10), Box(20 + dx, 0, 10, 10), Box(40, 40, 8, 8)]
    props = tuple(ObjectProposal(box=b, feature=np.zeros(4), label_dist=dist(c),
                                 gt_class=c)
                  for b, c in zip(boxes, (1, 2, 1)))
    return SceneRecord(id=sid, image_size=(64, 64), proposals=props,
                       gt_objects=(GtObject(box=boxes[0], cls=1),
                                   GtObject(box=boxes[1], cls=2)),
                       gt_triplets=(Triplet(0, 0, 1),))


def unrelated_scene(sid):
    s = related_scene(sid)
    return SceneRecord(id=sid, image_size=s.image_size, proposals=s.proposals,
                       gt_objects=s.gt_objects, gt_triplets=())


# ---------------------------------------------------------------------------
# stage 1


def test_srf_learns_separable_corpus():
    scenes = [related_scene(f"s{k}", dx=float(k)) for k in range(8)]
    embed = EmbeddingTable.seeded(3, 4, seed=9)
    params, history = train_srf(scenes, embed, DIMS,
                                TrainConfig(epochs=50, lr=0.2, seed=0))
    assert history[-1] < history[0]
    scores = score_pairs(pair_inputs(scenes[0], embed, [(0, 1), (1, 0), (0, 2)]), params)
    assert scores[0] > 0.9          # the labeled relation
    assert scores[1] < 0.5          # reversed direction was a negative
    assert scores[2] < 0.5


def test_srf_training_is_deterministic():
    scenes = [related_scene(f"s{k}", dx=float(k)) for k in range(4)]
    embed = EmbeddingTable.seeded(3, 4, seed=9)
    tcfg = TrainConfig(epochs=7, lr=0.05, seed=3)
    a, hist_a = train_srf(scenes, embed, DIMS, tcfg)
    b, hist_b = train_srf(scenes, embed, DIMS, tcfg)
    assert hist_a == hist_b
    for ta, tb in zip(a.tensors(), b.tensors()):
        np.testing.assert_array_equal(ta.data, tb.data)


def test_srf_rejects_corpus_without_positives():
    scenes = [unrelated_scene(f"u{k}") for k in range(3)]
    embed = EmbeddingTable.seeded(3, 4, seed=9)
    with pytest.raises(ValueError, match="no positive pairs"):
        train_srf(scenes, embed, DIMS, TrainConfig(epochs=1))


def test_srf_stops_on_a_non_finite_loss():
    scenes = [related_scene(f"s{k}", dx=float(k)) for k in range(4)]
    embed = EmbeddingTable.seeded(3, 4, seed=9)
    with pytest.raises(ValueError, match=r"epoch \d+, scene s\d: training loss is nan"):
        train_srf(scenes, embed, DIMS, TrainConfig(epochs=3, lr=1e300, seed=0))


def test_train_config_validation():
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError, match="supervision"):
        TrainConfig(match_iou=0.0)
    with pytest.raises(ValueError, match="supervision"):
        TrainConfig(negative_ratio=-1.0)


# ---------------------------------------------------------------------------
# stage 2


def synth_scenes():
    cfg = SynthConfig(num_scenes=6, min_objects=3, max_objects=4,
                      n_object_classes=4, n_predicates=3, feature_noise=0.2,
                      box_jitter=4.0, dropout=0.0, seed=3, d_obj=8)
    return generate_dataset(cfg)


def synth_model_config():
    dims = Dims(n_classes=5, n_predicates=3, d_obj=8, d_emb=4, d_union=8,
                d_rel=8, d_pe=4, mask_res=12, conv1_channels=2, conv2_channels=2)
    return ModelConfig(dims=dims, iterations=1, use_srf=False)


def test_main_loss_decreases():
    params, history = train_main(synth_scenes(), synth_model_config(),
                                 TrainConfig(epochs=10, lr=0.01, seed=1))
    assert history[-1] < history[0]


def test_main_training_is_deterministic():
    scenes = synth_scenes()
    config = synth_model_config()
    tcfg = TrainConfig(epochs=3, lr=0.01, seed=5)
    a, hist_a = train_main(scenes, config, tcfg)
    b, hist_b = train_main(scenes, config, tcfg)
    assert hist_a == hist_b
    for name, arr in a.named_arrays().items():
        np.testing.assert_array_equal(arr, b.named_arrays()[name], err_msg=name)


def test_main_requires_filter_when_enabled():
    config = ModelConfig(dims=synth_model_config().dims, use_srf=True)
    with pytest.raises(ValueError, match="use_srf"):
        train_main(synth_scenes(), config, TrainConfig(epochs=1))


def test_main_rejects_empty_corpus():
    empty = SceneRecord(id="e", image_size=(64, 64), proposals=(),
                        gt_objects=(), gt_triplets=())
    with pytest.raises(ValueError, match="no trainable scenes"):
        train_main([empty], synth_model_config(), TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# supervision targets (via prepare_scene)


def prepared_fixture():
    config = ModelConfig(dims=DIMS, iterations=1, use_srf=False)
    params = init_model_params(config, seed=0)
    return prepare_scene(related_scene("t"), params, config, match_iou=0.5), config


def test_object_targets_best_overlap_else_background():
    prep, _ = prepared_fixture()
    # proposals sit exactly on their gt boxes; the distractor matches nothing
    np.testing.assert_array_equal(prep.obj_targets, [1, 2, 0])


def test_relation_targets_no_relation_unless_matched():
    prep, config = prepared_fixture()
    targets = {e: t for e, t in zip(prep.edges, prep.rel_targets)}
    assert targets[(0, 1)] == 0  # the gt predicate
    no_rel = config.dims.no_relation
    assert all(t == no_rel for e, t in targets.items() if e != (0, 1))
    assert list(np.flatnonzero(prep.rel_targets != no_rel)) == [prep.edges.index((0, 1))]


def test_relation_target_out_of_range_predicate():
    bad = SceneRecord(id="b", image_size=(64, 64),
                      proposals=related_scene("x").proposals,
                      gt_objects=related_scene("x").gt_objects,
                      gt_triplets=(Triplet(0, DIMS.n_predicates, 1),))
    config = ModelConfig(dims=DIMS, iterations=1, use_srf=False)
    params = init_model_params(config, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        prepare_scene(bad, params, config, match_iou=0.5)
