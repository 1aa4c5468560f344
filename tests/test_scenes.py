"""Geometry, record validation, embeddings, and scene file round trips."""

import json

import numpy as np
import pytest

from sgg.scenes import (_RECORD, Box, EmbeddingTable, GtObject, ObjectProposal,
                        SceneRecord, Triplet, _record_to_json, iou, load_scenes, one_hot,
                        save_scenes, union_frame)


def make_scene(scene_id="s0", n=3):
    rng = np.random.default_rng(0)
    props, gts = [], []
    for k in range(n):
        box = Box(10.0 * k, 5.0 * k, 8.0, 6.0)
        dist = np.full(4, 0.1)
        dist[k % 4] = 0.7
        props.append(ObjectProposal(box=box, feature=rng.normal(size=5),
                                    label_dist=dist))
        gts.append(GtObject(box=box, cls=(k % 3) + 1))
    triplets = (Triplet(0, 1, 1), Triplet(1, 0, 2)) if n >= 3 else ()
    return SceneRecord(id=scene_id, proposals=tuple(props),
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


def test_union_frame_hand_computed():
    # the union of (1, 0, 2, 2) and (2, 1, 3, 4) is (1, 0, 4, 5)
    frame = union_frame([[1, 0, 2, 2]], [[2, 1, 3, 4]])
    assert frame.shape == (1, 2, 4)
    np.testing.assert_array_equal(frame[0], [[0 / 4, 0 / 5, 2 / 4, 2 / 5],
                                             [1 / 4, 1 / 5, 3 / 4, 4 / 5]])


def test_union_frame_contains_both():
    rng = np.random.default_rng(3)
    subs, objs = [], []
    for _ in range(30):
        subs.append([*rng.uniform(0, 20, 2), *rng.uniform(1, 9, 2)])
        objs.append([*rng.uniform(0, 20, 2), *rng.uniform(1, 9, 2)])
    frame = union_frame(np.array(subs), np.array(objs))
    start, end = frame[..., :2], frame[..., :2] + frame[..., 2:]
    # both boxes lie inside the union, and the union is tight on every side
    assert np.all(start >= 0.0) and np.all(end <= 1.0 + 1e-12)
    assert np.all(start.min(axis=1) == 0.0)
    np.testing.assert_allclose(end.max(axis=1), 1.0, rtol=0, atol=1e-12)


def test_union_frame_centered_half():
    frame = union_frame([[2, 2, 2, 2]], [[0, 0, 4, 4]])
    np.testing.assert_allclose(frame[0, 0], [0.5, 0.5, 0.5, 0.5])
    np.testing.assert_allclose(frame[0, 1], [0.0, 0.0, 1.0, 1.0])


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
        SceneRecord(id="bad", proposals=s.proposals,
                    gt_objects=s.gt_objects, gt_triplets=(Triplet(0, 1, 9),))


def test_scene_rejects_self_relation():
    s = make_scene()
    with pytest.raises(ValueError, match="itself"):
        SceneRecord(id="bad", proposals=s.proposals,
                    gt_objects=s.gt_objects, gt_triplets=(Triplet(1, 0, 1),))


@pytest.mark.parametrize("near,far", [
    (Box(-1.7e308, 0, 1e300, 1), Box(1.7e308, 0, 1e300, 1)),
    (Box(0, -1.7e308, 1, 1e300), Box(0, 1.7e308, 1, 1e300))], ids=["x", "y"])
@pytest.mark.parametrize("role", ["proposal", "gt"])
def test_scene_rejects_boxes_spanning_more_than_float64(near, far, role):
    """Each box is finite, but their union box is not; a gt box counts too."""
    s = make_scene()

    def prop(box):
        return ObjectProposal(box=box, feature=np.zeros(5), label_dist=np.full(4, 0.25))
    props, gts = (prop(near), *s.proposals), s.gt_objects
    if role == "proposal":
        props += (prop(far),)
    else:
        gts += (GtObject(box=far, cls=1),)
    with pytest.raises(ValueError, match=r"^bad: the boxes span more than float64 holds"):
        SceneRecord(id="bad", proposals=props, gt_objects=gts, gt_triplets=s.gt_triplets)


def test_proposal_rejects_non_distribution():
    with pytest.raises(ValueError):
        ObjectProposal(box=Box(0, 0, 1, 1), feature=np.zeros(3),
                       label_dist=np.array([0.9, 0.3]))
    with pytest.raises(ValueError):
        ObjectProposal(box=Box(0, 0, 1, 1), feature=np.array([np.inf]),
                       label_dist=np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# scene file i/o


def test_scene_round_trip_is_value_exact(tmp_path):
    scenes = [make_scene("a"), make_scene("b", n=1)]
    path = tmp_path / "scenes.jsonl"
    save_scenes(path, scenes)
    back = load_scenes(path)
    assert [s.id for s in back] == ["a", "b"]
    for s, t in zip(scenes, back):
        assert s.gt_triplets == t.gt_triplets
        for p, q in zip(s.proposals, t.proposals):
            assert p.box == q.box
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


def test_load_reports_the_line_of_an_integer_too_long_to_parse(tmp_path):
    path = tmp_path / "long.jsonl"
    save_scenes(path, [make_scene()])
    path.write_text(path.read_text().replace('"pred": 1', '"pred": ' + "9" * 5000, 1))
    with pytest.raises(ValueError, match="line 1: malformed JSON: Exceeds the limit"):
        load_scenes(path)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"id": "x", "image_size": [4, 4]}\n')
    with pytest.raises(ValueError, match="line 1"):
        load_scenes(path)


@pytest.mark.parametrize("gt_class", [2.0, None])
def test_keys_outside_the_format_are_ignored(tmp_path, gt_class):
    """Older corpora carry a scene's image_size and each proposal's gt_class."""
    path = tmp_path / "scenes.jsonl"
    save_scenes(path, [make_scene()])
    rec = json.loads(path.read_text())
    old = dict(rec, image_size=5, proposals=[dict(p, gt_class=gt_class)
                                             for p in rec["proposals"]])
    path.write_text(json.dumps(old) + "\n")
    assert _record_to_json(load_scenes(path)[0]) == rec


def test_the_saver_writes_exactly_the_format_keys():
    """Nothing is written that the loader does not read."""
    s = make_scene()
    pooled = SceneRecord(id=s.id, proposals=s.proposals, gt_objects=s.gt_objects,
                         gt_triplets=s.gt_triplets, pair_visual={(0, 1): np.zeros(2)})
    assert set(_record_to_json(s)) == {"id", *_RECORD} - {"pair_visual"}
    obj = _record_to_json(pooled)
    assert set(obj) == {"id", *_RECORD}
    for name in ("proposals", "gt_objects", "gt_triplets"):
        assert all(set(item) == set(_RECORD[name][0]) for item in obj[name]), name


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
