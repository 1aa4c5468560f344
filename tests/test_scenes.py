"""Geometry, record validation, embeddings, and scene file round trips."""

import numpy as np
import pytest

from sgg.scenes import (Box, EmbeddingTable, GtObject, ObjectProposal,
                        SceneRecord, Triplet, iou, load_scenes, normalize_box,
                        one_hot, save_scenes, union_box)


def make_scene(scene_id="s0", n=3):
    rng = np.random.default_rng(0)
    props, gts = [], []
    for k in range(n):
        box = Box(10.0 * k, 5.0 * k, 8.0, 6.0)
        dist = np.full(4, 0.1)
        dist[k % 4] = 0.7
        props.append(ObjectProposal(box=box, feature=rng.normal(size=5),
                                    label_dist=dist, gt_class=(k % 3) + 1))
        gts.append(GtObject(box=box, cls=(k % 3) + 1))
    triplets = (Triplet(0, 1, 1), Triplet(1, 0, 2)) if n >= 3 else ()
    return SceneRecord(id=scene_id, image_size=(64, 48), proposals=tuple(props),
                       gt_objects=tuple(gts), gt_triplets=triplets)


# ---------------------------------------------------------------------------
# geometry


def test_iou_hand_computed():
    assert iou(Box(0, 0, 2, 2), Box(1, 0, 2, 2)) == pytest.approx(1.0 / 3.0)
    assert iou(Box(0, 0, 2, 2), Box(0, 0, 2, 2)) == pytest.approx(1.0)


def test_iou_touching_boxes_is_zero():
    assert iou(Box(0, 0, 1, 1), Box(1, 0, 1, 1)) == 0.0
    assert iou(Box(0, 0, 1, 1), Box(5, 5, 1, 1)) == 0.0


def test_iou_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = Box(*rng.uniform(0, 10, 2), *rng.uniform(1, 5, 2))
        b = Box(*rng.uniform(0, 10, 2), *rng.uniform(1, 5, 2))
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def test_union_box_hand_computed():
    u = union_box(Box(1, 0, 2, 2), Box(2, 1, 3, 4))
    assert (u.x, u.y, u.w, u.h) == (1.0, 0.0, 4.0, 5.0)


def test_union_box_contains_both():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = Box(*rng.uniform(0, 20, 2), *rng.uniform(1, 9, 2))
        b = Box(*rng.uniform(0, 20, 2), *rng.uniform(1, 9, 2))
        u = union_box(a, b)
        for box in (a, b):
            assert u.x <= box.x and u.y <= box.y
            assert u.x + u.w >= box.x + box.w and u.y + u.h >= box.y + box.h


def test_normalize_box_centered_half():
    v = normalize_box(Box(2, 2, 2, 2), Box(0, 0, 4, 4))
    np.testing.assert_allclose(v, [0.5, 0.5, 0.5, 0.5])


def test_box_rejects_degenerate():
    with pytest.raises(ValueError):
        Box(0, 0, 0, 1)
    with pytest.raises(ValueError):
        Box(0, 0, 1, -2)
    with pytest.raises(ValueError):
        Box(np.nan, 0, 1, 1)


def test_one_hot():
    np.testing.assert_array_equal(one_hot(2, 4), [0, 0, 1, 0])
    with pytest.raises(ValueError):
        one_hot(4, 4)


# ---------------------------------------------------------------------------
# record validation


def test_scene_rejects_out_of_range_triplet():
    s = make_scene()
    with pytest.raises(ValueError, match=r"gt_triplets\[0\]"):
        SceneRecord(id="bad", image_size=s.image_size, proposals=s.proposals,
                    gt_objects=s.gt_objects, gt_triplets=(Triplet(0, 1, 9),))


def test_scene_rejects_self_relation():
    s = make_scene()
    with pytest.raises(ValueError, match="itself"):
        SceneRecord(id="bad", image_size=s.image_size, proposals=s.proposals,
                    gt_objects=s.gt_objects, gt_triplets=(Triplet(1, 0, 1),))


def test_proposal_rejects_non_distribution():
    with pytest.raises(ValueError):
        ObjectProposal(box=Box(0, 0, 1, 1), feature=np.zeros(3),
                       label_dist=np.array([0.9, 0.3]), gt_class=None)
    with pytest.raises(ValueError):
        ObjectProposal(box=Box(0, 0, 1, 1), feature=np.array([np.inf]),
                       label_dist=np.array([0.5, 0.5]), gt_class=None)


# ---------------------------------------------------------------------------
# scene file i/o


def test_scene_round_trip_is_value_exact(tmp_path):
    scenes = [make_scene("a"), make_scene("b", n=1)]
    path = tmp_path / "scenes.jsonl"
    save_scenes(path, scenes)
    back = load_scenes(path)
    assert [s.id for s in back] == ["a", "b"]
    for s, t in zip(scenes, back):
        assert s.image_size == t.image_size
        assert s.gt_triplets == t.gt_triplets
        for p, q in zip(s.proposals, t.proposals):
            assert p.box == q.box and p.gt_class == q.gt_class
            np.testing.assert_array_equal(p.feature, q.feature)
            np.testing.assert_array_equal(p.label_dist, q.label_dist)
        for g, h in zip(s.gt_objects, t.gt_objects):
            assert g.box == h.box and g.cls == h.cls


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "broken.jsonl"
    save_scenes(path, [make_scene()])
    path.write_text(path.read_text() + "not json\n")
    with pytest.raises(ValueError, match="line 2"):
        load_scenes(path)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"id": "x", "image_size": [4, 4]}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_scenes(path)


def test_empty_lines_are_skipped(tmp_path):
    path = tmp_path / "scenes.jsonl"
    save_scenes(path, [make_scene()])
    path.write_text(path.read_text() + "\n\n")
    assert len(load_scenes(path)) == 1


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_background_row_is_zero():
    table = EmbeddingTable.seeded(5, 8, seed=2)
    np.testing.assert_array_equal(table.matrix[0], np.zeros(8))


def test_embed_one_hot_selects_row():
    table = EmbeddingTable.seeded(4, 6, seed=0)
    np.testing.assert_array_equal(table.embed(one_hot(2, 4)), table.matrix[2])


def test_embed_is_convex_mix():
    table = EmbeddingTable.seeded(3, 4, seed=1)
    dist = np.array([0.2, 0.5, 0.3])
    np.testing.assert_allclose(table.embed(dist), dist @ table.matrix)


def test_embed_rejects_wrong_width():
    table = EmbeddingTable.seeded(4, 5, seed=0)
    with pytest.raises(ValueError):
        table.embed(np.ones(3) / 3)
