"""Training loops: filter stage, main stage, supervision targets."""

import re
import tracemalloc

import numpy as np
import pytest

from sgg import autodiff
from sgg.autodiff import SgdMomentum, Tensor, backward
from sgg.config import Dims, ModelConfig
from sgg.filter import init_srf_params, pair_inputs, score_pairs, srf_loss, srf_training_labels
from sgg.model import forward, init_model_params
from sgg.scenes import Box, EmbeddingTable, GtObject, ObjectProposal, SceneRecord, Triplet
from sgg.synthetic import SynthConfig, generate_dataset, generate_scene
from sgg.training import TrainConfig, prepare_scene, scene_loss, train_main, train_srf

DIMS = Dims(n_classes=3, n_predicates=2, d_obj=4, d_emb=4, d_union=6, d_rel=6,
            d_pe=4, mask_res=12, conv1_channels=2, conv2_channels=2)


def dist(cls):
    d = np.full(3, 0.05)
    d[cls] = 0.9
    return d


def related_scene(sid, dx=0.0):
    """Subject left of object, plus an unrelated far-away distractor."""
    boxes = [Box(0 + dx, 0, 10, 10), Box(20 + dx, 0, 10, 10), Box(40, 40, 8, 8)]
    props = tuple(ObjectProposal(box=b, feature=np.zeros(4), label_dist=dist(c))
                  for b, c in zip(boxes, (1, 2, 1)))
    return SceneRecord(id=sid, proposals=props,
                       gt_objects=(GtObject(box=boxes[0], cls=1),
                                   GtObject(box=boxes[1], cls=2)),
                       gt_triplets=(Triplet(0, 0, 1),))


def unrelated_scene(sid):
    s = related_scene(sid)
    return SceneRecord(id=sid, proposals=s.proposals,
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
    with pytest.raises(ValueError, match=r"lr must lie in \(0, inf\)"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match=r"momentum must lie in \[0, 1\)"):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError, match=r"match_iou must lie in \(0, 1\)"):
        TrainConfig(match_iou=0.0)
    with pytest.raises(ValueError, match=r"negative_ratio must lie in \[0, inf\)"):
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


def test_a_step_that_overflows_a_parameter_stops_at_that_step():
    """The first loss is finite but its update overflows a parameter: the
    run stops at that step, naming its scene, not at the next scene's loss."""
    with pytest.raises(ValueError, match=r"^epoch 1, scene scene-0000: the step made a "
                                         r"parameter non-finite; try a lower learning rate"):
        train_main(synth_scenes(), synth_model_config(), TrainConfig(epochs=1, lr=1.7e308))


def test_a_diverging_run_names_the_scene_of_its_largest_step_loss():
    scenes = synth_scenes()
    embed = EmbeddingTable.seeded(5, 4, seed=0)
    with pytest.raises(ValueError, match=r"the run is diverging") as err:
        train_srf(scenes, embed, synth_model_config().dims, TrainConfig(epochs=1, lr=1e3))
    mean, largest, scene_id = re.search(r"mean loss (\S+) is over .* \(the largest, (\S+), at "
                                        r"scene (\S+)\);", str(err.value)).groups()
    assert float(largest) >= float(mean) and scene_id in {s.id for s in scenes}


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
    empty = SceneRecord(id="e", proposals=(),
                        gt_objects=(), gt_triplets=())
    with pytest.raises(ValueError, match="no trainable scenes"):
        train_main([empty], synth_model_config(), TrainConfig(epochs=1))


def test_main_rejects_corpus_without_pairs():
    """The main stage supervises every ordered pair and runs no filter, so a
    corpus of one-proposal scenes is refused for having no pairs."""
    scenes = [SceneRecord(id=f"s{k}", proposals=related_scene("r").proposals[:1],
                          gt_objects=related_scene("r").gt_objects[:1], gt_triplets=())
              for k in range(3)]
    with pytest.raises(ValueError, match="^no scene has two proposals; nothing to train on$"):
        train_main(scenes, ModelConfig(dims=DIMS, use_srf=False), TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# both stages against their former loops


def _negatives(rng, positive, ratio):
    pos, neg = np.flatnonzero(positive), np.flatnonzero(~positive)
    take = int(min(neg.size, ratio * pos.size))
    return np.concatenate([pos, np.sort(rng.choice(neg, size=take, replace=False))]) \
        if take else pos


def oracle_train_srf(scenes, embed, dims, tcfg):
    """The filter stage's own epoch loop, as it was before the stages shared one."""
    cache = []
    for scene in scenes:
        pairs, labels = srf_training_labels(scene, tcfg.match_iou)
        if pairs:
            cache.append((pair_inputs(scene, embed, pairs), labels))
    params = init_srf_params(dims, np.random.default_rng([tcfg.seed, 2]))
    opt = SgdMomentum(params.tensors(), lr=tcfg.lr, momentum=tcfg.momentum)
    history = []
    for epoch in range(1, tcfg.epochs + 1):
        opt.set_epoch(epoch)
        total, steps = 0.0, 0
        for idx, (inputs, labels) in enumerate(cache):
            if not labels.any():
                continue
            rng = np.random.default_rng([tcfg.seed, 3, epoch, idx])
            sel = _negatives(rng, labels == 1.0, tcfg.negative_ratio)
            loss = srf_loss(inputs[sel], labels[sel], params)
            total += loss.item()
            steps += 1
            backward(loss)
            opt.step()
        history.append(total / steps)
    return params, history


def oracle_train_main(scenes, config, tcfg, srf, embed):
    """The main stage's own epoch loop, as it was before the stages shared one."""
    params = init_model_params(config, tcfg.seed, srf=srf, embed=embed)
    prepared = [p for p in (prepare_scene(s, params, config, tcfg.match_iou)
                            for s in scenes) if p is not None]
    opt = SgdMomentum(params.trainable(), lr=tcfg.lr, momentum=tcfg.momentum)
    history = []
    for epoch in range(1, tcfg.epochs + 1):
        opt.set_epoch(epoch)
        total = 0.0
        for idx, prep in enumerate(prepared):
            rng = np.random.default_rng([tcfg.seed, 4, epoch, idx])
            rows = _negatives(rng, prep.rel_targets != config.dims.no_relation,
                              tcfg.negative_ratio)
            loss = scene_loss(prep, params, config, rows)
            total += loss.item()
            backward(loss)
            opt.step()
        history.append(total / len(prepared))
    return params, history


def mixed_corpus():
    """Ordinary scenes around a 1-proposal scene (no pairs) and a scene whose
    pairs are all negatives, so a miscounted step index shifts later draws."""
    scenes = synth_scenes()
    s = scenes[0]
    one = SceneRecord(id="one", proposals=s.proposals[:1],
                      gt_objects=s.gt_objects, gt_triplets=s.gt_triplets)
    bare = SceneRecord(id="bare", proposals=s.proposals,
                       gt_objects=s.gt_objects, gt_triplets=())
    return [scenes[1], one, scenes[2], bare, *scenes[3:]]


def test_both_stages_match_their_former_loops_bit_for_bit():
    scenes = mixed_corpus()
    dims = synth_model_config().dims
    embed = EmbeddingTable.seeded(dims.n_classes, dims.d_emb, seed=2)
    # positives outnumber negatives here; a low ratio leaves some undrawn, so
    # every draw depends on its seed
    tcfg = TrainConfig(epochs=3, lr=0.02, seed=6, negative_ratio=0.25)
    srf, history = train_srf(scenes, embed, dims, tcfg)
    srf_ref, history_ref = oracle_train_srf(scenes, embed, dims, tcfg)
    assert history == history_ref
    for t, t_ref in zip(srf.tensors(), srf_ref.tensors(), strict=True):
        np.testing.assert_array_equal(t.data, t_ref.data)

    config = ModelConfig(dims=dims, iterations=1, use_srf=True)
    params, history = train_main(scenes, config, tcfg, srf=srf, embed=embed)
    ref, history_ref = oracle_train_main(scenes, config, tcfg, srf, embed)
    assert history == history_ref
    arrays, arrays_ref = params.named_arrays(), ref.named_arrays()
    assert list(arrays) == list(arrays_ref)
    for name, arr in arrays.items():
        np.testing.assert_array_equal(arr, arrays_ref[name], err_msg=name)


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
    bad = SceneRecord(id="b", proposals=related_scene("x").proposals,
                      gt_objects=related_scene("x").gt_objects,
                      gt_triplets=(Triplet(0, DIMS.n_predicates, 1),))
    config = ModelConfig(dims=DIMS, iterations=1, use_srf=False)
    params = init_model_params(config, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        prepare_scene(bad, params, config, match_iou=0.5)


def test_object_target_out_of_range_class():
    scene = related_scene("x")
    bad = SceneRecord(id="b", proposals=scene.proposals,
                      gt_objects=(scene.gt_objects[0], GtObject(box=scene.gt_objects[1].box,
                                                                cls=DIMS.n_classes)),
                      gt_triplets=scene.gt_triplets)
    config = ModelConfig(dims=DIMS, iterations=1, use_srf=False)
    params = init_model_params(config, seed=0)
    with pytest.raises(ValueError, match="^b: gt object class 3 out of range for 3 classes"):
        prepare_scene(bad, params, config, match_iou=0.5)


# ---------------------------------------------------------------------------
# backward frees the tape


def _interior_nodes(loss):
    """Every node of ``loss``'s graph that has a backward."""
    seen, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if t._backward is not None and t._seq not in seen:
            seen[t._seq] = t
            stack.extend(t._parents)
    return list(seen.values())


def test_backward_frees_interior_nodes_and_keeps_leaf_gradients():
    """After a training step's backward no interior node holds a closure,
    parents or a gradient, and the parameters' gradients are still the
    optimizer's views, filled."""
    config = synth_model_config()
    params = init_model_params(config, seed=0)
    opt = SgdMomentum(params.trainable())
    prep = prepare_scene(synth_scenes()[0], params, config, 0.5)
    loss = scene_loss(prep, params, config, np.arange(len(prep.edges)))
    interior = _interior_nodes(loss)
    assert len(interior) > 30
    backward(loss)
    for t in interior:
        assert t._backward is autodiff._consumed and t._parents == () and t.grad is None
    lo = 0
    for p in params.trainable():
        hi = lo + p.data.size
        assert p._backward is None and np.shares_memory(p.grad, opt.grad)
        assert np.array_equal(p.grad.ravel(), opt.grad[lo:hi])
        lo = hi
    assert lo == opt.grad.size and opt.grad.any()


def test_backward_peak_stays_near_the_tape_it_walks():
    """One all-pairs step at default ``Dims`` on a 14-proposal scene: the
    traced peak during backward is at most 1.35 times the bytes the tape
    holds when backward starts.  A walk that keeps every activation and
    interior gradient until it ends peaks at 1.77 times."""
    gen = SynthConfig(min_objects=14, max_objects=14, dropout=0.0, d_obj=64, seed=0)
    config = ModelConfig(dims=Dims(n_classes=gen.n_classes, n_predicates=gen.n_predicates),
                         use_srf=False)
    params = init_model_params(config, 0)
    prep = prepare_scene(generate_scene(gen, 0), params, config, 0.5)
    assert len(prep.edges) == 14 * 13
    tracemalloc.start()
    try:
        loss = scene_loss(prep, params, config, np.arange(len(prep.edges)))
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * held


def test_forward_on_frozen_params_builds_no_tape(monkeypatch):
    """Frozen parameters are the same arrays with no gradient, so no op of a
    forward pass on them keeps parents or a backward, and its outputs are the
    trainable parameters' outputs bit for bit."""
    config = synth_model_config()
    params = init_model_params(config, seed=0)
    frozen = params.frozen()
    for t, f in zip(params.tensors(), frozen.tensors()):
        assert f.data is t.data and not f.requires_grad and f.grad is None
    prep = prepare_scene(synth_scenes()[0], params, config, 0.5)
    made, from_op = [], Tensor._from_op.__func__

    def recorded(cls, *args):
        made.append(from_op(cls, *args))
        return made[-1]

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recorded))
    out = forward(prep, frozen, config)
    assert len(made) > 30
    assert all(t._parents == () and t._backward is None for t in made)
    made.clear()
    want = forward(prep, params, config)
    assert any(t._parents for t in made)
    for name in ("obj_logits", "p_hat", "rel_logits"):
        assert getattr(out, name).data.tobytes() == getattr(want, name).data.tobytes(), name
