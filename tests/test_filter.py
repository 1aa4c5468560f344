"""Pair scoring, pruning, and supervision labels for the relation filter."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgg.config import Dims
from sgg.filter import (confidence_fallback, init_srf_params, ordered_pairs,
                        pair_inputs, prune_graph, score_pairs,
                        srf_training_labels)
from sgg.scenes import Box, EmbeddingTable, GtObject, ObjectProposal, SceneRecord, Triplet

DIMS = Dims(n_classes=4, n_predicates=3, d_emb=6)


def tiny_scene():
    # boxes 0 and 1 overlap at IoU 0.25, so neither matches the other's gt
    boxes = [Box(0, 0, 10, 10), Box(6, 0, 10, 10), Box(40, 40, 8, 8)]
    props = tuple(ObjectProposal(box=b, feature=np.zeros(4),
                                 label_dist=np.full(4, 0.25))
                  for b in boxes)
    gts = (GtObject(box=boxes[0], cls=1), GtObject(box=boxes[1], cls=2),
           GtObject(box=boxes[2], cls=3))
    return SceneRecord(id="t", proposals=props,
                       gt_objects=gts, gt_triplets=(Triplet(0, 1, 1),))


def test_ordered_pairs_excludes_self():
    assert ordered_pairs(3) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert ordered_pairs(1) == []


def test_zero_weight_filter_scores_half():
    scene = tiny_scene()
    embed = EmbeddingTable.seeded(4, 6, seed=0)
    params = init_srf_params(DIMS, np.random.default_rng(0))
    for t in params.tensors():
        t.data[...] = 0.0
    pairs = ordered_pairs(3)
    scores = score_pairs(pair_inputs(scene, embed, pairs), params)
    np.testing.assert_allclose(scores, np.full(len(pairs), 0.5))


def test_prune_sorts_by_score_then_pair():
    pairs = [(0, 1), (1, 2), (2, 0), (1, 0)]
    scores = np.array([0.9, 0.3, 0.7, 0.9])
    kept, ks = prune_graph(pairs, scores, top_k=3, threshold=0.5)
    assert kept == [(0, 1), (1, 0), (2, 0)]
    np.testing.assert_array_equal(ks, [0.9, 0.9, 0.7])


def test_prune_keeps_boundary_scores():
    kept, ks = prune_graph([(0, 1), (1, 0)], np.array([0.55, 0.549]),
                           top_k=10, threshold=0.55)
    assert kept == [(0, 1)]


def test_prune_respects_top_k_and_threshold():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        pairs = ordered_pairs(n)
        scores = rng.uniform(size=len(pairs))
        thr = float(rng.uniform(0.2, 0.8))
        k = int(rng.integers(1, 10))
        kept, ks = prune_graph(pairs, scores, top_k=k, threshold=thr)
        assert len(kept) <= k
        assert np.all(ks >= thr)
        assert np.all(np.diff(ks) <= 0)


def test_threshold_monotonicity():
    """Raising the threshold can only shrink the kept set."""
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        pairs = ordered_pairs(n)
        scores = rng.uniform(size=len(pairs))
        lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))
        kept_lo, _ = prune_graph(pairs, scores, top_k=len(pairs), threshold=lo)
        kept_hi, _ = prune_graph(pairs, scores, top_k=len(pairs), threshold=hi)
        assert set(kept_hi) <= set(kept_lo)


def test_prune_is_deterministic_on_ties():
    pairs = [(2, 1), (0, 2), (0, 1)]
    scores = np.array([0.8, 0.8, 0.8])
    kept, _ = prune_graph(pairs, scores, top_k=2, threshold=0.0)
    assert kept == [(0, 1), (0, 2)]


def test_fallback_uniform_quarter():
    dists = np.full((3, 4), 0.25)
    scores = confidence_fallback(dists, [(0, 1), (1, 2)])
    np.testing.assert_allclose(scores, [0.0625, 0.0625])


def test_fallback_ignores_background_mass():
    dists = np.array([[0.9, 0.1, 0.0], [0.0, 0.5, 0.5]])
    scores = confidence_fallback(dists, [(0, 1)])
    np.testing.assert_allclose(scores, [0.05])


def test_training_labels_mark_overlapping_gt_pairs():
    scene = tiny_scene()
    pairs, labels = srf_training_labels(scene, iou_threshold=0.5)
    by_pair = dict(zip(pairs, labels))
    # proposals 0 and 1 sit on gt boxes 0 and 1, which hold the only triplet
    assert by_pair[(0, 1)] == 1.0
    assert by_pair[(1, 0)] == 0.0
    assert by_pair[(0, 2)] == 0.0


def test_training_labels_empty_scene():
    scene = tiny_scene()
    bare = SceneRecord(id="b", proposals=scene.proposals[:1], gt_objects=scene.gt_objects,
                       gt_triplets=scene.gt_triplets)
    pairs, labels = srf_training_labels(bare)
    assert pairs == [] and labels.size == 0


def test_score_pairs_empty():
    params = init_srf_params(DIMS, np.random.default_rng(0))
    scene = tiny_scene()
    embed = EmbeddingTable.seeded(4, 6, seed=0)
    scores = score_pairs(pair_inputs(scene, embed, []), params)
    assert scores.shape == (0,)


# ---------------------------------------------------------------------------
# the per-pair code the array code replaced, kept as oracles


def old_normalized_pair(bi: Box, bj: Box) -> np.ndarray:
    """Both boxes relative to their union box, as the scalar geometry did it."""
    ux, uy = min(bi.x, bj.x), min(bi.y, bj.y)
    uw, uh = max(bi.x2, bj.x2) - ux, max(bi.y2, bj.y2) - uy
    return np.array([[(b.x - ux) / uw, (b.y - uy) / uh, b.w / uw, b.h / uh]
                     for b in (bi, bj)]).ravel()


def old_pair_inputs(scene, table, pairs):
    emb = table.embed(np.stack([p.label_dist for p in scene.proposals])) \
        if scene.proposals else np.zeros((0, table.dim))
    rows = np.zeros((len(pairs), 2 * table.dim + 8))
    for r, (i, j) in enumerate(pairs):
        box = old_normalized_pair(scene.proposals[i].box, scene.proposals[j].box)
        rows[r] = np.concatenate([emb[i], box[:4], box[4:], emb[j]])
    return rows


def old_prune_graph(pairs, scores, top_k, threshold):
    scores = np.asarray(scores, dtype=np.float64)
    order = sorted(range(len(pairs)), key=lambda r: (-scores[r], pairs[r][0], pairs[r][1]))
    kept = [r for r in order if scores[r] >= threshold][:top_k]
    return [pairs[r] for r in kept], scores[kept]


def old_confidence_fallback(label_dists, pairs):
    best = np.asarray(label_dists, dtype=np.float64)[:, 1:].max(axis=1)
    return np.array([best[i] * best[j] for i, j in pairs])


_coord = st.floats(0.0, 100.0)
_extent = st.one_of(st.floats(1e-3, 0.5), st.floats(0.5, 60.0))


@st.composite
def scenes_and_pairs(draw, min_n=0):
    """A scene of 0-6 proposals and a list of its ordered pairs (repeats allowed)."""
    n = draw(st.integers(min_n, 6))
    props = []
    for _ in range(n):
        box = Box(draw(_coord), draw(_coord), draw(_extent), draw(_extent))
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4)))
        props.append(ObjectProposal(box=box, feature=np.zeros(2), label_dist=w / w.sum()))
    scene = SceneRecord(id="h", proposals=tuple(props),
                        gt_objects=(), gt_triplets=())
    pairs = draw(st.lists(st.sampled_from(ordered_pairs(n)), max_size=15)) if n > 1 else []
    return scene, pairs


@settings(deadline=None, max_examples=200)
@given(case=scenes_and_pairs())
def test_pair_inputs_equal_the_per_pair_code(case):
    """Sub-cell and large boxes, repeated pairs, scenes without proposals and
    the empty pair list give the per-pair rows bit for bit."""
    scene, pairs = case
    embed = EmbeddingTable.seeded(4, 6, seed=1)
    got, want = pair_inputs(scene, embed, pairs), old_pair_inputs(scene, embed, pairs)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=200)
@given(case=scenes_and_pairs(min_n=1))
def test_confidence_fallback_equals_the_per_pair_code(case):
    scene, pairs = case
    dists = np.stack([p.label_dist for p in scene.proposals])
    got, want = confidence_fallback(dists, pairs), old_confidence_fallback(dists, pairs)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


_levels = [0.0, 0.25, 0.5, 0.55, 0.75, 1.0]  # few values: ties and exact thresholds


@st.composite
def prune_cases(draw):
    n = draw(st.integers(2, 6))
    pairs = draw(st.permutations(ordered_pairs(n)))
    pairs = pairs[:draw(st.integers(0, len(pairs)))]
    scores = np.array(draw(st.lists(st.sampled_from(_levels), min_size=len(pairs),
                                    max_size=len(pairs))))
    top_k = draw(st.integers(1, len(pairs) + 3))
    return pairs, scores, top_k, draw(st.sampled_from(_levels))


@settings(deadline=None, max_examples=300)
@given(case=prune_cases())
@example(case=([(2, 1), (0, 2), (0, 1)], np.array([0.8, 0.8, 0.8]), 2, 0.0))
@example(case=([(1, 0), (0, 1)], np.array([0.55, 0.55]), 5, 0.55))
@example(case=([], np.zeros(0), 1, 0.5))
def test_prune_graph_equals_the_sorted_key_code(case):
    """Tied scores, scores exactly at the threshold, and ``top_k`` below and
    above the number of pairs keep the same pairs in the same order."""
    pairs, scores, top_k, threshold = case
    kept, ks = prune_graph(pairs, scores, top_k, threshold)
    want, want_ks = old_prune_graph(pairs, scores, top_k, threshold)
    assert kept == want
    assert all(type(i) is int and type(j) is int for i, j in kept)
    assert ks.tobytes() == want_ks.tobytes()
