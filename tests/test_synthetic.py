"""Synthetic corpus: determinism, the relation rule, and proposal corruption."""

import numpy as np
import pytest

from sgg.scenes import Box, GtObject
from sgg.synthetic import (CANVAS, SPATIAL_NAMES, SynthConfig, class_prototypes,
                           generate_dataset, generate_scene, regenerate_triplets,
                           related_rule, spatial_relation, theme_weights)

CFG = SynthConfig(num_scenes=12, min_objects=3, max_objects=5, n_object_classes=4,
                  n_predicates=3, feature_noise=0.3, box_jitter=5.0, dropout=0.2,
                  seed=7, d_obj=6)


def test_regeneration_is_bit_identical():
    a = generate_dataset(CFG)
    b = generate_dataset(CFG)
    assert [s.id for s in a] == [s.id for s in b]
    for sa, sb in zip(a, b):
        assert sa.gt_triplets == sb.gt_triplets
        assert [g.box for g in sa.gt_objects] == [g.box for g in sb.gt_objects]
        assert [p.box for p in sa.proposals] == [p.box for p in sb.proposals]
        for pa, pb in zip(sa.proposals, sb.proposals):
            np.testing.assert_array_equal(pa.feature, pb.feature)
            np.testing.assert_array_equal(pa.label_dist, pb.label_dist)


def test_scene_is_independent_of_batch():
    full = generate_dataset(CFG)
    alone = generate_scene(CFG, 5)
    assert full[5].gt_triplets == alone.gt_triplets
    np.testing.assert_array_equal(full[5].proposals[0].feature,
                                  alone.proposals[0].feature)


def test_triplets_regenerate_from_objects():
    for scene in generate_dataset(CFG):
        assert regenerate_triplets(scene.gt_objects, CFG.n_predicates) \
            == list(scene.gt_triplets)


def test_spatial_relation_cases():
    def name(sub, obj):
        return SPATIAL_NAMES[spatial_relation(sub, obj)]

    assert name(Box(0, 0, 100, 100), Box(20, 20, 10, 10)) == "contains"
    assert name(Box(0, 0, 50, 50), Box(25, 0, 50, 50)) == "overlap"
    assert name(Box(0, 0, 10, 10), Box(50, 0, 10, 10)) == "left"
    assert name(Box(50, 0, 10, 10), Box(0, 0, 10, 10)) == "right"
    assert name(Box(0, 0, 10, 10), Box(0, 50, 10, 10)) == "above"
    assert name(Box(0, 50, 10, 10), Box(0, 0, 10, 10)) == "below"
    # containment wins over plain overlap
    assert name(Box(20, 20, 10, 10), Box(0, 0, 100, 100)) == "overlap"


def test_distance_gate_blocks_far_pairs():
    near = [GtObject(box=Box(0, 0, 10, 10), cls=1),
            GtObject(box=Box(0, 40, 10, 10), cls=1)]
    far = [GtObject(box=Box(0, 0, 10, 10), cls=1),
           GtObject(box=Box(500, 500, 10, 10), cls=1)]
    assert related_rule(1, 1, spatial_relation(near[0].box, near[1].box))
    assert regenerate_triplets(near, 3)
    assert regenerate_triplets(far, 3) == []


def test_every_predicate_occurs():
    cfg = SynthConfig(num_scenes=200, n_object_classes=4, n_predicates=3,
                      dropout=0.0, seed=1, d_obj=4)
    seen = {t.pred for s in generate_dataset(cfg) for t in s.gt_triplets}
    assert seen == {0, 1, 2}


def test_classes_boxes_and_distributions_in_range():
    for scene in generate_dataset(CFG):
        for g in scene.gt_objects:
            assert 1 <= g.cls <= CFG.n_object_classes
            assert g.box.x >= 0 and g.box.y >= 0
            assert g.box.x2 <= CANVAS and g.box.y2 <= CANVAS
        for p in scene.proposals:
            assert p.label_dist.shape == (CFG.n_classes,)
            assert p.label_dist.min() >= 0
            np.testing.assert_allclose(p.label_dist.sum(), 1.0)
            assert p.feature.shape == (CFG.d_obj,)


def test_proposal_boxes_hold_python_floats():
    """As boxes read back from a corpus file do: scalar IoU on numpy scalars
    is slower."""
    for scene in generate_dataset(CFG):
        for p in scene.proposals:
            assert {type(v) for v in (p.box.x, p.box.y, p.box.w, p.box.h)} == {float}


def test_zero_dropout_keeps_every_object_in_order():
    cfg = SynthConfig(num_scenes=5, dropout=0.0, box_jitter=0.0, seed=2, d_obj=4,
                      n_object_classes=3, n_predicates=2)
    for scene in generate_dataset(cfg):
        assert [p.box for p in scene.proposals] == [g.box for g in scene.gt_objects]


def test_full_dropout_leaves_only_distractors():
    cfg = SynthConfig(num_scenes=5, dropout=1.0, seed=2, d_obj=4,
                      n_object_classes=3, n_predicates=2)
    for scene in generate_dataset(cfg):
        assert len(scene.proposals) == len(scene.gt_objects)  # binomial(n, 1) = n
        assert not {p.box for p in scene.proposals} & {g.box for g in scene.gt_objects}


def test_feature_noise_does_not_move_geometry():
    quiet = SynthConfig(num_scenes=6, feature_noise=0.0, seed=4, d_obj=4)
    loud = SynthConfig(num_scenes=6, feature_noise=2.0, seed=4, d_obj=4)
    for sq, sl in zip(generate_dataset(quiet), generate_dataset(loud)):
        assert sq.gt_triplets == sl.gt_triplets
        assert [g.box for g in sq.gt_objects] == [g.box for g in sl.gt_objects]
        assert [p.box for p in sq.proposals] == [p.box for p in sl.proposals]


def test_noiseless_features_equal_prototypes():
    cfg = SynthConfig(num_scenes=3, feature_noise=0.0, dropout=0.0, seed=4, d_obj=4)
    protos = class_prototypes(cfg)
    for scene in generate_dataset(cfg):
        assert len(scene.proposals) == len(scene.gt_objects)
        for p, g in zip(scene.proposals, scene.gt_objects):
            np.testing.assert_array_equal(p.feature, protos[g.cls - 1])


def test_confusable_collapses_consecutive_prototype_pairs():
    base = class_prototypes(SynthConfig(seed=4, d_obj=6))
    full = class_prototypes(SynthConfig(seed=4, d_obj=6, confusable=1.0))
    half = class_prototypes(SynthConfig(seed=4, d_obj=6, confusable=0.5))
    for m in range(3):
        a, b = 2 * m, 2 * m + 1
        np.testing.assert_array_equal(full[a], base[a])  # even rows untouched
        np.testing.assert_array_equal(full[b], full[a])
        np.testing.assert_allclose(half[b], 0.5 * base[b] + 0.5 * base[a])
        assert np.abs(base[b] - base[a]).max() > 0.1


def test_confusable_pairs_span_different_themes():
    # consecutive classes never share a theme stripe, so a collapsed pair
    # stays separable through scene context
    w = theme_weights(SynthConfig(seed=4, d_obj=6))
    for m in range(3):
        assert np.argmax(w[:, 2 * m]) != np.argmax(w[:, 2 * m + 1])


def test_theme_weights_are_distributions():
    w = theme_weights(CFG)
    np.testing.assert_allclose(w.sum(axis=1), 1.0)
    assert (w > 0).all()
    # each theme concentrates on its own class stripe
    assert w[0, 0] > w[1, 0]


def test_config_validation():
    with pytest.raises(ValueError, match="max_objects must be at least min_objects"):
        SynthConfig(min_objects=4, max_objects=3)
    with pytest.raises(ValueError, match=r"dropout must lie in \[0, 1\]"):
        SynthConfig(dropout=1.5)
    with pytest.raises(ValueError, match=r"feature_noise must lie in \[0, inf\)"):
        SynthConfig(feature_noise=-0.1)
    with pytest.raises(ValueError, match=r"n_predicates must lie in \[1, inf\)"):
        SynthConfig(n_predicates=0)
    with pytest.raises(ValueError, match=r"confusable must lie in \[0, 1\]"):
        SynthConfig(confusable=1.2)
