"""Triplet matching, recall@K, mAP, and protocol scene conversion."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from sgg.config import Dims, ModelConfig
from sgg.evaluation import (EvalTriplet, detection_map, evaluate, format_metrics_kv,
                            format_metrics_table, EvalResult, gt_eval_triplets,
                            match_triplets, recall_at_k, scene_for_mode, substitute_gt_boxes)
from sgg.filter import ordered_pairs
from sgg.inference import PredictedGraph
from sgg.model import forward, init_model_params, scene_inputs
from sgg.scenes import Box, GtObject, ObjectProposal, SceneRecord, Triplet, iou


def exhaustive_match_count(preds, gts, thr=0.5):
    """Maximum-cardinality matching by exact search over claim assignments."""
    compat = [[p.sub_label == g.sub_label and p.pred == g.pred
               and p.obj_label == g.obj_label and iou(p.sub_box, g.sub_box) > thr
               and iou(p.obj_box, g.obj_box) > thr for g in gts] for p in preds]

    @lru_cache(maxsize=None)
    def best(i, mask):
        if i == len(preds):
            return 0
        out = best(i + 1, mask)
        for gi in range(len(gts)):
            if compat[i][gi] and not mask & (1 << gi):
                out = max(out, 1 + best(i + 1, mask | (1 << gi)))
        return out

    return best(0, 0)


def rand_box(rng):
    return Box(float(rng.choice([0, 4, 30]) + rng.choice([-1, 0, 1])),
               float(rng.choice([0, 4, 30]) + rng.choice([-1, 0, 1])), 10, 10)


def rand_triplet(rng):
    return EvalTriplet(int(rng.integers(1, 3)), int(rng.integers(0, 2)),
                       int(rng.integers(1, 3)), rand_box(rng), rand_box(rng))


def rand_instance(rng):
    gts = [rand_triplet(rng) for _ in range(rng.integers(0, 7))]
    preds = []
    for _ in range(rng.integers(0, 7)):
        if gts and rng.random() < 0.6:
            g = gts[rng.integers(len(gts))]
            preds.append(EvalTriplet(g.sub_label, g.pred, g.obj_label,
                                     rand_box(rng) if rng.random() < 0.3 else g.sub_box,
                                     rand_box(rng) if rng.random() < 0.3 else g.obj_box))
        else:
            preds.append(rand_triplet(rng))
    return preds, gts


# ---------------------------------------------------------------------------
# matching


def test_greedy_equals_exhaustive_on_random_instances():
    """Greedy claim-in-rank-order could trail the optimum when a prediction
    overlaps several same-labeled gts whose other suitors are pickier (a
    cross-overlap chain); the slot-plus-jitter distribution below does produce
    such multi-compatible predictions, and greedy stays optimal on all of
    them."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        preds, gts = rand_instance(rng)
        assert match_triplets(preds, gts) == exhaustive_match_count(preds, gts)


def test_match_requires_both_boxes_and_all_labels():
    g = EvalTriplet(1, 0, 2, Box(0, 0, 10, 10), Box(20, 0, 10, 10))
    hit = EvalTriplet(1, 0, 2, Box(1, 0, 10, 10), Box(20, 1, 10, 10))
    assert match_triplets([hit], [g]) == 1
    for miss in (EvalTriplet(2, 0, 2, g.sub_box, g.obj_box),
                 EvalTriplet(1, 1, 2, g.sub_box, g.obj_box),
                 EvalTriplet(1, 0, 1, g.sub_box, g.obj_box),
                 EvalTriplet(1, 0, 2, Box(40, 40, 10, 10), g.obj_box),
                 EvalTriplet(1, 0, 2, g.sub_box, Box(40, 40, 10, 10))):
        assert match_triplets([miss], [g]) == 0


def test_each_gt_claimed_once():
    g = EvalTriplet(1, 0, 1, Box(0, 0, 10, 10), Box(20, 0, 10, 10))
    assert match_triplets([g, g, g], [g]) == 1
    assert match_triplets([g, g], [g, g]) == 2


def test_recall_at_k_counts_prefix_only():
    g1 = EvalTriplet(1, 0, 1, Box(0, 0, 10, 10), Box(20, 0, 10, 10))
    g2 = EvalTriplet(2, 1, 2, Box(40, 0, 10, 10), Box(60, 0, 10, 10))
    decoy = EvalTriplet(1, 1, 1, Box(80, 0, 10, 10), Box(95, 0, 10, 10))
    preds = [decoy, g1, g2]
    assert recall_at_k(preds, [g1, g2], k=1) == 0.0
    assert recall_at_k(preds, [g1, g2], k=2) == 0.5
    assert recall_at_k(preds, [g1, g2], k=3) == 1.0


def test_recall_none_without_gt():
    assert recall_at_k([], [], k=20) is None


def test_recall_monotone_in_k():
    rng = np.random.default_rng(77)
    for _ in range(200):
        preds, gts = rand_instance(rng)
        if not gts:
            continue
        values = [recall_at_k(preds, gts, k) for k in (1, 2, 4, 6)]
        assert values == sorted(values)


def test_matching_is_scale_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        preds, gts = rand_instance(rng)

        def scale(t, s=7.0):
            return EvalTriplet(t.sub_label, t.pred, t.obj_label,
                               Box(t.sub_box.x * s, t.sub_box.y * s,
                                   t.sub_box.w * s, t.sub_box.h * s),
                               Box(t.obj_box.x * s, t.obj_box.y * s,
                                   t.obj_box.w * s, t.obj_box.h * s))

        assert match_triplets(preds, gts) == match_triplets(
            [scale(p) for p in preds], [scale(g) for g in gts])


# ---------------------------------------------------------------------------
# protocol conversion


def eval_scene():
    gt_boxes = [Box(0, 0, 10, 10), Box(30, 0, 10, 10)]
    props = (ObjectProposal(box=Box(1, 0, 10, 10), feature=np.arange(4.0),
                            label_dist=np.array([0.1, 0.6, 0.3])),)
    return SceneRecord(id="e", proposals=props,
                       gt_objects=(GtObject(box=gt_boxes[0], cls=1),
                                   GtObject(box=gt_boxes[1], cls=2)),
                       gt_triplets=(Triplet(0, 0, 1),))


def test_substitute_gt_boxes_sgcls():
    out = substitute_gt_boxes(eval_scene(), n_classes=3, d_obj=4, one_hot_labels=False)
    assert [p.box for p in out.proposals] == [g.box for g in out.gt_objects]
    np.testing.assert_array_equal(out.proposals[0].feature, np.arange(4.0))
    np.testing.assert_array_equal(out.proposals[0].label_dist, [0.1, 0.6, 0.3])
    # nothing overlaps the second gt: zero feature, uniform prior
    np.testing.assert_array_equal(out.proposals[1].feature, np.zeros(4))
    np.testing.assert_allclose(out.proposals[1].label_dist, np.full(3, 1 / 3))


def test_substitute_gt_boxes_predcls_one_hot():
    out = substitute_gt_boxes(eval_scene(), n_classes=3, d_obj=4, one_hot_labels=True)
    np.testing.assert_array_equal(out.proposals[0].label_dist, [0, 1, 0])
    np.testing.assert_array_equal(out.proposals[1].label_dist, [0, 0, 1])


def test_predcls_forward_reads_the_converted_one_hots_and_no_scene():
    dims = Dims(n_classes=3, n_predicates=2, d_obj=4, d_emb=2, d_union=4, d_rel=4, d_pe=2,
                mask_res=10, conv1_channels=2, conv2_channels=2)
    config = ModelConfig(dims=dims, iterations=1, use_srf=False)
    params = init_model_params(config, seed=0)
    scene = scene_for_mode(eval_scene(), "predcls", config)
    inputs = scene_inputs(scene, params, config, ordered_pairs(scene.n_proposals))
    out = forward(dataclasses.replace(inputs, scene_id=None), params, config, "predcls")
    dists = np.stack([p.label_dist for p in scene.proposals])
    np.testing.assert_array_equal(dists, [[0, 1, 0], [0, 0, 1]])  # the gt classes, one-hot
    assert out.p_hat.data.tobytes() == dists.tobytes()


def test_evaluate_leaves_the_callers_parameters_trainable():
    """``evaluate`` runs on a frozen copy: the caller's parameters keep
    ``requires_grad`` and their gradient buffers, values and all."""
    dims = Dims(n_classes=3, n_predicates=2, d_obj=4, d_emb=2, d_union=4, d_rel=4, d_pe=2,
                mask_res=10, conv1_channels=2, conv2_channels=2)
    config = ModelConfig(dims=dims, iterations=1, use_srf=False)
    params = init_model_params(config, seed=0)
    for k, t in enumerate(params.tensors()):
        t.grad += k + 0.5  # a gradient the caller has not applied yet
    grads = [(t.grad, t.grad.copy()) for t in params.tensors()]
    scene = eval_scene()
    scene = SceneRecord(id="e2", proposals=scene.proposals * 2, gt_objects=scene.gt_objects,
                        gt_triplets=scene.gt_triplets)
    evaluate([scene], params, config, ks=(20,))
    for t, (buffer, values) in zip(params.tensors(), grads):
        assert t.requires_grad and t.grad is buffer
        assert np.array_equal(t.grad, values)


def test_substitute_gt_boxes_rejects_a_class_the_model_lacks():
    for one_hot_labels in (False, True):
        with pytest.raises(ValueError, match="^e: gt object class 2 out of range for 2 classes"):
            substitute_gt_boxes(eval_scene(), n_classes=2, d_obj=4,
                                one_hot_labels=one_hot_labels)


def test_gt_eval_triplets_reads_classes_and_boxes():
    ts = gt_eval_triplets(eval_scene())
    assert len(ts) == 1
    assert (ts[0].sub_label, ts[0].pred, ts[0].obj_label) == (1, 0, 2)


# ---------------------------------------------------------------------------
# detection mAP


def perfect_graph(scene):
    boxes = [g.box for g in scene.gt_objects]
    labels = np.array([g.cls for g in scene.gt_objects])
    conf = np.full(len(boxes), 0.9)
    return PredictedGraph(boxes=boxes, labels=labels, label_conf=conf,
                          label_dist=np.zeros((len(boxes), 3)), edges=[],
                          rel_dist=np.zeros((0, 1)), triplets=[])


def test_map_is_one_for_perfect_detections():
    scene = eval_scene()
    assert detection_map([(perfect_graph(scene), scene)]) == pytest.approx(1.0)


def test_map_hand_computed_with_false_positive():
    scene = SceneRecord(
        id="m", proposals=(),
        gt_objects=(GtObject(box=Box(0, 0, 10, 10), cls=1),
                    GtObject(box=Box(30, 0, 10, 10), cls=1)),
        gt_triplets=())
    pg = PredictedGraph(
        boxes=[Box(0, 0, 10, 10), Box(45, 45, 10, 10)],
        labels=np.array([1, 1]), label_conf=np.array([0.9, 0.8]),
        label_dist=np.zeros((2, 2)), edges=[], rel_dist=np.zeros((0, 1)),
        triplets=[])
    # one TP then one FP: precision-recall steps (1.0, 0.5), (0.5, 0.5);
    # 11-point interpolation keeps 1.0 for the six thresholds <= 0.5
    assert detection_map([(pg, scene)]) == pytest.approx(6.0 / 11.0)


def test_map_zero_when_labels_wrong():
    scene = eval_scene()
    pg = perfect_graph(scene)
    wrong = PredictedGraph(boxes=pg.boxes, labels=np.array([2, 1]),
                           label_conf=pg.label_conf, label_dist=pg.label_dist,
                           edges=[], rel_dist=pg.rel_dist, triplets=[])
    assert detection_map([(wrong, scene)]) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# formatting


def result_fixture():
    return EvalResult(recalls={"sggen": {20: 0.25, 50: 0.5}}, map50=0.75, n_scenes=3)


def test_metrics_kv_lines():
    text = format_metrics_kv(result_fixture())
    assert "sggen.recall@20 = 0.25" in text.splitlines()
    assert "map@0.5 = 0.75" in text.splitlines()
    assert "scenes = 3" in text.splitlines()


def test_metrics_table_mentions_every_mode_and_k():
    table = format_metrics_table(result_fixture())
    assert "sggen" in table and "20" in table and "0.5000" in table
