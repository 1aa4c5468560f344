"""Classifier heads, triplet ranking, and the prediction text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgg.autodiff import Tensor, softmax
from sgg.config import Dims, ModelConfig
from sgg.filter import ordered_pairs
from sgg.inference import (ScoredTriplet, format_prediction, init_head_params, object_logits,
                           relation_logits, score_triplets)
from sgg.scenes import Box, one_hot

DIMS = Dims(n_classes=4, n_predicates=3, d_obj=5, d_emb=3, d_union=6, d_rel=4,
            d_pe=3, mask_res=12, conv1_channels=2, conv2_channels=2)


def boxes(n):
    return [Box(10.0 * k, 0.0, 5.0, 5.0) for k in range(n)]


def test_one_hot_distribution_selects_embedding_row():
    params = init_head_params(DIMS, np.random.default_rng(0))
    p_hat = Tensor(np.stack([one_hot(2, 4), one_hot(1, 4)]))
    logits = relation_logits(Tensor(np.zeros((1, DIMS.d_rel))), p_hat, [(0, 1)],
                             params, ModelConfig(dims=DIMS))
    # the first d_pe inputs are row 2 of the subject table, the last row 1 of
    # the object table; with zero relation features the logits decompose
    sub_row = params.sub_emb.data[2]
    obj_row = params.obj_emb.data[1]
    manual = np.concatenate([sub_row, np.zeros(DIMS.d_rel), obj_row])
    h = np.maximum(manual @ params.rel_cls.l1.w.data + params.rel_cls.l1.b.data, 0)
    expect = h @ params.rel_cls.l2.w.data + params.rel_cls.l2.b.data
    np.testing.assert_allclose(logits.data[0], expect, atol=1e-12)


def test_object_logits_shape():
    params = init_head_params(DIMS, np.random.default_rng(1))
    out = object_logits(Tensor(np.zeros((3, DIMS.d_obj))), params)
    assert out.data.shape == (3, DIMS.n_classes)


def test_no_prede_ignores_label_distributions():
    cfg = ModelConfig(dims=DIMS, use_prede=False)
    params = init_head_params(DIMS, np.random.default_rng(2), use_prede=False)
    x_rel = Tensor(np.ones((2, DIMS.d_rel)))
    a = relation_logits(x_rel, Tensor(np.full((3, 4), 0.25)), [(0, 1), (2, 0)],
                        params, cfg)
    b = relation_logits(x_rel, Tensor(np.eye(4)[:3]), [(0, 1), (2, 0)], params, cfg)
    assert a.data.shape == (2, DIMS.n_predicates + 1)
    np.testing.assert_array_equal(a.data, b.data)


def test_score_is_product_of_confidences():
    label_dist = np.array([[0.1, 0.6, 0.2, 0.1],
                           [0.0, 0.1, 0.1, 0.8]])
    rel_dist = np.array([[0.7, 0.2, 0.1, 0.0]])  # predicate 0 wins, not no-rel
    g = score_triplets(boxes(2), label_dist, [(0, 1)], rel_dist)
    assert len(g.triplets) == 1
    t = g.triplets[0]
    assert (t.sub, t.pred, t.obj) == (0, 0, 1)
    assert t.score == pytest.approx(0.6 * 0.7 * 0.8)


def test_labels_are_argmax_over_real_classes():
    # background mass dominates but labels still come from classes 1..C-1
    label_dist = np.array([[0.9, 0.02, 0.05, 0.03]])
    g = score_triplets(boxes(1), label_dist, [], np.zeros((0, 4)))
    assert g.labels[0] == 2
    assert g.label_conf[0] == pytest.approx(0.05)


def test_no_relation_argmax_drops_pair():
    label_dist = np.full((2, 4), 0.25)
    rel_dist = np.array([[0.2, 0.2, 0.1, 0.5],   # no-relation wins: dropped
                         [0.5, 0.2, 0.1, 0.2]])
    g = score_triplets(boxes(2), label_dist, [(0, 1), (1, 0)], rel_dist)
    assert [(t.sub, t.obj) for t in g.triplets] == [(1, 0)]


def test_ranking_is_sorted_with_deterministic_ties():
    label_dist = np.full((3, 4), 0.25)
    rel_dist = np.array([[0.5, 0.3, 0.1, 0.1],
                         [0.5, 0.3, 0.1, 0.1],
                         [0.9, 0.05, 0.03, 0.02]])
    g = score_triplets(boxes(3), label_dist, [(1, 2), (0, 1), (0, 2)], rel_dist)
    scores = [t.score for t in g.triplets]
    assert scores == sorted(scores, reverse=True)
    # the two tied pairs order by (sub, obj)
    assert [(t.sub, t.obj) for t in g.triplets] == [(0, 2), (0, 1), (1, 2)]


def test_rank_monotone_in_predicate_confidence():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = 4
        label_dist = rng.dirichlet(np.ones(4), size=n)
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        rel = rng.dirichlet(np.ones(4), size=len(edges))
        g = score_triplets(boxes(n), label_dist, edges, rel)
        scores = [t.score for t in g.triplets]
        assert scores == sorted(scores, reverse=True)


def old_score_triplets(label_dist, edges, rel_dist):
    """The per-edge ranking the array code replaced, kept as its oracle."""
    n = label_dist.shape[0]
    labels = 1 + label_dist[:, 1:].argmax(axis=1) if n else np.zeros(0, dtype=np.intp)
    conf = label_dist[np.arange(n), labels] if n else np.zeros(0)
    no_rel = rel_dist.shape[1] - 1 if rel_dist.size else 0
    triplets = []
    for k, (i, j) in enumerate(edges):
        best = int(rel_dist[k].argmax())
        if best == no_rel:
            continue
        triplets.append(ScoredTriplet(i, best, j,
                                      float(conf[i] * rel_dist[k, best] * conf[j])))
    triplets.sort(key=lambda t: (-t.score, t.sub, t.obj, t.pred))
    return labels, conf, triplets


_probs = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0])  # few values: ties


@st.composite
def ranking_cases(draw):
    n = draw(st.integers(0, 5))
    label_dist = np.array(draw(st.lists(st.lists(_probs, min_size=4, max_size=4),
                                        min_size=n, max_size=n))).reshape(n, 4)
    edges = draw(st.permutations(ordered_pairs(n)))
    edges = edges[:draw(st.integers(0, len(edges)))]
    rel_dist = np.array(draw(st.lists(st.lists(_probs, min_size=4, max_size=4),
                                      min_size=len(edges), max_size=len(edges))))
    return label_dist, edges, rel_dist.reshape(len(edges), 4)


@settings(deadline=None, max_examples=300)
@given(case=ranking_cases())
def test_score_triplets_equals_the_per_edge_code(case):
    """Ties in labels, predicates and scores, no-relation wins and scenes
    without edges rank exactly as the per-edge loop did."""
    label_dist, edges, rel_dist = case
    g = score_triplets(boxes(len(label_dist)), label_dist, edges, rel_dist)
    labels, conf, triplets = old_score_triplets(label_dist, edges, rel_dist)
    assert g.labels.tobytes() == labels.tobytes() and g.labels.dtype == labels.dtype
    assert g.label_conf.tobytes() == conf.tobytes()
    assert g.triplets == triplets
    assert all(type(v) is int for t in g.triplets for v in t[:3])
    assert all(type(t.score) is float for t in g.triplets)


def test_format_prediction_golden():
    label_dist = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.25, 0.75]])
    rel_dist = np.array([[0.0, 0.5, 0.25, 0.25]])
    g = score_triplets([Box(1, 2, 3, 4), Box(5, 6, 7, 8)], label_dist,
                       [(0, 1)], rel_dist)
    text = format_prediction("demo", g)
    assert text.splitlines() == [
        "scene demo",
        "object 0 box 1.00 2.00 3.00 4.00 label 1 conf 1.0000",
        "object 1 box 5.00 6.00 7.00 8.00 label 3 conf 0.7500",
        "triplet sub 0 pred 1 obj 1 score 0.375000",
    ]


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(3)
    out = softmax(Tensor(rng.normal(size=(5, 7)))).data
    np.testing.assert_allclose(out.sum(axis=1), np.ones(5))
    assert np.all(out > 0)
