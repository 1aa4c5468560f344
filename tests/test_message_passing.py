"""Message passing: residual identity, equivariance, and target-tailoring."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgg import autodiff
from sgg.autodiff import (Tensor, backward, concat_cols, flatten, gather_rows, glorot_uniform,
                          matmul, message_mean, relu)
from sgg.config import ALL_DIRECTIONS, Dims, ModelConfig
from sgg.message_passing import (build_message_graph, init_ttst_params, run_message_passing,
                                 update_objects)
from sgg.nn import make_mlp

DIMS = Dims(n_classes=4, n_predicates=3, d_obj=5, d_emb=3, d_union=6, d_rel=4,
            mask_res=12, conv1_channels=2, conv2_channels=2)


def config(**kw):
    kw.setdefault("dims", DIMS)
    return ModelConfig(**kw)


def random_graph(rng, n=None, language=True):
    n = n if n is not None else int(rng.integers(2, 9))
    pool = [(i, j) for i in range(n) for j in range(n) if i != j]
    k = int(rng.integers(1, len(pool) + 1))
    idx = rng.choice(len(pool), size=k, replace=False)
    edges = [pool[i] for i in sorted(idx)]
    x_obj = Tensor(rng.normal(size=(n, DIMS.d_obj)))
    e_lang = Tensor(rng.normal(size=(n, DIMS.d_emb)) if language
                    else np.zeros((n, DIMS.d_emb)))
    x_rel = Tensor(rng.normal(size=(len(edges), DIMS.d_rel)))
    return build_message_graph(x_obj, e_lang, x_rel, edges, n)


def mlp_np(mlp, x):
    h = np.maximum(x @ mlp.l1.w.data + mlp.l1.b.data, 0.0)
    return np.maximum(h @ mlp.l2.w.data + mlp.l2.b.data, 0.0)


# ---------------------------------------------------------------------------
# graph construction


def test_triangle_neighbor_indices():
    g = build_message_graph(Tensor(np.zeros((3, DIMS.d_obj))), Tensor(np.zeros((3, DIMS.d_emb))),
                            Tensor(np.zeros((3, DIMS.d_rel))),
                            [(0, 1), (1, 2), (0, 2)], 3)
    np.testing.assert_array_equal(g.oo_tgt, [0, 0, 1, 1, 2, 2])
    np.testing.assert_array_equal(g.oo_src, [1, 2, 0, 2, 0, 1])
    np.testing.assert_array_equal(g.or_edge, [0, 0, 1, 1, 2, 2])
    np.testing.assert_array_equal(g.or_node, [0, 1, 1, 2, 0, 2])
    np.testing.assert_array_equal(g.rr_tgt, [0, 0, 1, 1, 2, 2])
    np.testing.assert_array_equal(g.rr_src, [1, 2, 0, 2, 0, 1])


def test_rejects_bad_edges():
    x = np.zeros((2, DIMS.d_obj))
    e = np.zeros((2, DIMS.d_emb))
    with pytest.raises(ValueError):
        build_message_graph(x, e, Tensor(np.zeros((1, 4))), [(0, 0)], 2)
    with pytest.raises(ValueError):
        build_message_graph(x, e, Tensor(np.zeros((1, 4))), [(0, 2)], 2)


INDEX_FIELDS = ("oo_tgt", "oo_src", "ro_node", "ro_edge", "or_edge", "or_node",
                "rr_tgt", "rr_src")


def set_loop_indices(edges, n):
    """The index arrays as the builder made them with Python sets before it
    was vectorized; kept as the oracle of the current builder."""
    neighbors = [set() for _ in range(n)]
    incident = [[] for _ in range(n)]
    for k, (i, j) in enumerate(edges):
        neighbors[i].add(j)
        neighbors[j].add(i)
        incident[i].append(k)
        incident[j].append(k)
    oo = [(i, j) for i in range(n) for j in sorted(neighbors[i])]
    ro = [(i, k) for i in range(n) for k in incident[i]]
    orr = [(k, m) for k, (i, j) in enumerate(edges) for m in (i, j)]
    rr = [(k, k2) for k, (i, j) in enumerate(edges)
          for k2 in sorted((set(incident[i]) | set(incident[j])) - {k})]
    out = {}
    for names, pairs in zip(np.reshape(INDEX_FIELDS, (4, 2)), (oo, ro, orr, rr)):
        arr = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        out[names[0]], out[names[1]] = arr[:, 0], arr[:, 1]
    return out


@st.composite
def edge_lists(draw):
    """A node count and a valid edge list over it, repeats allowed."""
    n = draw(st.integers(1, 7))
    pool = [(i, j) for i in range(n) for j in range(n) if i != j]
    return n, draw(st.lists(st.sampled_from(pool), max_size=30)) if pool else []


@settings(deadline=None, max_examples=200)
@given(edge_lists())
@example((1, []))
@example((4, []))
@example((3, [(0, 1), (0, 1), (1, 0)]))
@example((21, [(i, j) for i in range(21) for j in range(21) if i != j]))  # largest dense_train
@example((32, [(i, j) for i in range(32) for j in range(32) if i != j]))  # perfbench/sweep.py
@example((6, [(4, 1), (0, 2), (4, 1), (2, 0), (1, 0), (0, 2), (3, 4)]))  # node 5 isolated
def test_vectorized_builder_matches_set_loops(case):
    n, edges = case
    g = build_message_graph(Tensor(np.zeros((n, 1))), Tensor(np.zeros((n, 1))),
                            Tensor(np.zeros((len(edges), 1))), edges, n)
    for name, expect in set_loop_indices(edges, n).items():
        got = getattr(g, name)
        assert got.dtype == np.intp and np.array_equal(got, expect), name


# ---------------------------------------------------------------------------
# the fused message op against the composition it replaced


def fused_message_mean(mlp, x_t, t_idx, x_s, s_idx):
    return message_mean(x_t, t_idx, x_s, s_idx, mlp.l1.w, mlp.l1.b, mlp.l2.w, mlp.l2.b)


def composed_message_mean(mlp, x_t, t_idx, x_s, s_idx):
    """Gather both ends, concatenate, run the MLP and a ReLU on every row,
    mean per target: a constant (targets x rows) averaging matrix times the
    rows, its rows for targets without messages zero."""
    inp = concat_cols([gather_rows(x_t, t_idx), gather_rows(x_s, s_idx)])
    avg = np.zeros((x_t.data.shape[0], len(t_idx)))
    avg[t_idx, np.arange(len(t_idx))] = 1.0
    avg /= np.maximum(avg.sum(axis=1, keepdims=True), 1.0)
    return matmul(Tensor(avg), relu(mlp(inp)))


def direction_inputs(g):
    """(target rows, target ids, source rows or None for "same as target",
    source ids) of the four directions of ``g``."""
    obj = np.concatenate([g.x_obj.data, g.e_lang.data], axis=1)
    return [(obj, g.oo_tgt, None, g.oo_src),
            (g.x_obj.data, g.ro_node, g.x_rel.data, g.ro_edge),
            (g.x_rel.data, g.or_edge, g.x_obj.data, g.or_node),
            (g.x_rel.data, g.rr_tgt, None, g.rr_src)]


def output_and_grads(op, mlp, x_t, t_idx, x_s, s_idx, probe):
    """The op's output and the gradients of <output, probe> for every input."""
    for p in mlp.tensors():
        p.grad[...] = 0.0
    leaves = [Tensor(x, requires_grad=True) for x in ([x_t] if x_s is None else [x_t, x_s])]
    out = op(mlp, leaves[0], t_idx, leaves[-1], s_idx)
    backward(matmul(flatten(out), Tensor(probe.reshape(-1))))
    return [out.data] + [t.grad.copy() for t in leaves] + [p.grad.copy() for p in mlp.tensors()]


def oracle_graphs():
    rng = np.random.default_rng(61)
    yield from (random_graph(rng) for _ in range(8))
    n = 8
    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    yield build_message_graph(Tensor(rng.normal(size=(n, DIMS.d_obj))),
                              Tensor(rng.normal(size=(n, DIMS.d_emb))),
                              Tensor(rng.normal(size=(len(edges), DIMS.d_rel))), edges, n)
    edges = [(0, 1), (1, 2), (2, 0), (3, 1)]  # node 4 has no neighbours
    yield build_message_graph(Tensor(rng.normal(size=(5, DIMS.d_obj))),
                              Tensor(rng.normal(size=(5, DIMS.d_emb))),
                              Tensor(rng.normal(size=(len(edges), DIMS.d_rel))), edges, 5)


def test_message_mean_matches_the_composition():
    rng = np.random.default_rng(62)
    for g in oracle_graphs():
        for x_t, t_idx, x_s, s_idx in direction_inputs(g):
            d_s = (x_t if x_s is None else x_s).shape[1]
            mlp = make_mlp(rng, x_t.shape[1] + d_s, 6, 5)
            probe = rng.normal(size=(x_t.shape[0], 5))
            fused = output_and_grads(fused_message_mean, mlp, x_t, t_idx, x_s, s_idx, probe)
            composed = output_and_grads(composed_message_mean, mlp, x_t, t_idx, x_s, s_idx,
                                        probe)
            for a, b in zip(fused, composed):
                err, scale = np.abs(a - b).max(initial=0.0), np.abs(b).max(initial=0.0)
                assert err <= 1e-12 * scale, (err, scale)


def test_row_blocks_end_on_target_boundaries():
    t = np.array([0, 0, 0, 0, 0, 2, 2, 3, 5, 5, 5], dtype=np.intp)
    # target 0 outgrows a block and fills one alone, target 2 fills the next
    assert autodiff._row_blocks(t, 3) == [slice(0, 5), slice(5, 7), slice(7, 11)]
    assert autodiff._row_blocks(t, 11) == [slice(0, 11)]
    # a one-row block joins its neighbour: after, or before when it is last
    t = np.array([0, 0, 0, 0, 0, 1, 2, 2, 2, 2], dtype=np.intp)
    assert autodiff._row_blocks(t, 3) == [slice(0, 6), slice(6, 10)]
    assert autodiff._row_blocks(np.array([0, 1, 1, 1]), 1) == [slice(0, 4)]
    assert autodiff._row_blocks(np.array([0, 0, 0, 1]), 1) == [slice(0, 4)]
    assert autodiff._row_blocks(np.array([4]), 1) == [slice(0, 1)]
    assert autodiff._row_blocks(np.array([], dtype=np.intp), 1) == []


def blocked_cases():
    """Every direction of the oracle graphs, then a direction whose targets
    1 and 4 have no rows and whose target 0 fills a three-row block alone."""
    for g in oracle_graphs():
        yield from direction_inputs(g)
    rng = np.random.default_rng(63)
    t = np.array([0, 0, 0, 0, 0, 2, 2, 3, 5, 5, 5], dtype=np.intp)
    yield rng.normal(size=(6, 4)), t, rng.normal(size=(3, 2)), rng.integers(0, 3, t.size)


def test_blocked_message_mean_matches_one_block(monkeypatch):
    """Blocks of three rows give the one-block output bit for bit, because
    each target is summed inside one block in row order, and the gradients
    of the composition."""
    rng = np.random.default_rng(64)
    hidden, multi = 6, 0
    for x_t, t_idx, x_s, s_idx in blocked_cases():
        d_s = (x_t if x_s is None else x_s).shape[1]
        mlp = make_mlp(rng, x_t.shape[1] + d_s, hidden, 5)
        probe = rng.normal(size=(x_t.shape[0], 5))
        args = (mlp, x_t, t_idx, x_s, s_idx, probe)
        monkeypatch.setattr(autodiff, "MESSAGE_BLOCK_BYTES", 8 * hidden * t_idx.size)
        one = output_and_grads(fused_message_mean, *args)
        monkeypatch.setattr(autodiff, "MESSAGE_BLOCK_BYTES", 8 * hidden * 3)
        blocked = output_and_grads(fused_message_mean, *args)
        composed = output_and_grads(composed_message_mean, *args)
        assert np.array_equal(blocked[0].view(np.int64), one[0].view(np.int64))
        for a, b in zip(blocked, composed):
            err, scale = np.abs(a - b).max(initial=0.0), np.abs(b).max(initial=0.0)
            assert err <= 1e-12 * scale, (err, scale)
        multi += len(autodiff._row_blocks(t_idx, 3)) > 1
    assert multi >= 30


def test_a_two_layer_mlp_called_directly_has_a_linear_output():
    """The filter and the relation head call their MLPs and read linear
    outputs; only ``message_mean`` puts a ReLU after the second layer."""
    rng = np.random.default_rng(65)
    mlp = make_mlp(rng, 4, 6, 3)
    for t in mlp.tensors():
        t.data += rng.normal(0.0, 0.5, t.data.shape)
    x = rng.normal(size=(20, 4))
    h = np.maximum(x @ mlp.l1.w.data + mlp.l1.b.data, 0.0)
    expect = h @ mlp.l2.w.data + mlp.l2.b.data
    out = mlp(Tensor(x)).data
    np.testing.assert_allclose(out, expect, rtol=1e-12, atol=1e-12)
    assert (out < 0).any()


def tape_nodes_of_update_objects(g, params, cfg):
    """The ``autodiff._SEQ`` numbers one ``update_objects`` call consumes."""
    before = next(autodiff._SEQ)
    out = update_objects(g, params, cfg)
    return next(autodiff._SEQ) - before - 1, out


def test_a_skipped_direction_creates_no_tape_node():
    """With language on, a skipped ``oo`` builds no concatenation either:
    ``ro`` alone is one message_mean, one add and the residual relu."""
    g = random_graph(np.random.default_rng(66), n=5)
    params = init_ttst_params(DIMS, np.random.default_rng(67))
    assert g.oo_tgt.size and g.ro_node.size
    count, out = tape_nodes_of_update_objects(
        g, params, config(use_language=True, directions=frozenset({"ro"})))
    assert count == 3
    (total,) = out._parents
    assert total._parents[0] is g.x_obj
    assert total._parents[1]._parents[:2] == (g.x_obj, g.x_rel)
    count, out = tape_nodes_of_update_objects(
        g, params, config(use_language=True, directions=frozenset()))
    assert count == 1
    np.testing.assert_array_equal(out.data, np.maximum(g.x_obj.data, 0.0))


# ---------------------------------------------------------------------------
# residual identity (zeroed weights)


def test_zero_weights_leave_relu_of_input():
    rng = np.random.default_rng(0)
    params = init_ttst_params(DIMS, rng)
    for t in params.tensors():
        t.data[...] = 0.0
    for iters in (1, 2, 3):
        g = random_graph(np.random.default_rng(42))
        out = run_message_passing(g, params, config(iterations=iters))
        np.testing.assert_array_equal(out.x_obj.data, np.maximum(g.x_obj.data, 0.0))
        np.testing.assert_array_equal(out.x_rel.data, np.maximum(g.x_rel.data, 0.0))


def test_zero_weights_identity_on_nonnegative_inputs():
    rng = np.random.default_rng(1)
    params = init_ttst_params(DIMS, rng)
    for t in params.tensors():
        t.data[...] = 0.0
    n = 4
    edges = [(0, 1), (2, 3), (1, 2)]
    x_obj = Tensor(rng.uniform(0.0, 2.0, (n, DIMS.d_obj)))
    x_rel = Tensor(rng.uniform(0.0, 2.0, (len(edges), DIMS.d_rel)))
    g = build_message_graph(x_obj, Tensor(rng.normal(size=(n, DIMS.d_emb))),
                            x_rel, edges, n)
    out = run_message_passing(g, params, config(iterations=3))
    np.testing.assert_array_equal(out.x_obj.data, x_obj.data)
    np.testing.assert_array_equal(out.x_rel.data, x_rel.data)


def test_zero_iterations_is_identity():
    g = random_graph(np.random.default_rng(2))
    params = init_ttst_params(DIMS, np.random.default_rng(3))
    out = run_message_passing(g, params, config(iterations=0))
    assert out.x_obj is g.x_obj and out.x_rel is g.x_rel


# ---------------------------------------------------------------------------
# a two-node sweep against a direct transcription


def test_two_node_sweep_matches_numpy_oracle():
    rng = np.random.default_rng(7)
    params = init_ttst_params(DIMS, rng)
    x = rng.normal(size=(2, DIMS.d_obj))
    e = rng.normal(size=(2, DIMS.d_emb))
    r = rng.normal(size=(1, DIMS.d_rel))
    g = build_message_graph(Tensor(x), Tensor(e), Tensor(r), [(0, 1)], 2)
    out = run_message_passing(g, params, config(iterations=1))

    m_oo0 = mlp_np(params.obj_to_obj, np.concatenate([x[0], e[0], x[1], e[1]]))
    m_oo1 = mlp_np(params.obj_to_obj, np.concatenate([x[1], e[1], x[0], e[0]]))
    m_ro0 = mlp_np(params.rel_to_obj, np.concatenate([x[0], r[0]]))
    m_ro1 = mlp_np(params.rel_to_obj, np.concatenate([x[1], r[0]]))
    x0 = np.maximum(x[0] + m_oo0 + m_ro0, 0.0)
    x1 = np.maximum(x[1] + m_oo1 + m_ro1, 0.0)
    np.testing.assert_allclose(out.x_obj.data, [x0, x1], atol=1e-12)

    m_or = 0.5 * (mlp_np(params.obj_to_rel, np.concatenate([r[0], x0]))
                  + mlp_np(params.obj_to_rel, np.concatenate([r[0], x1])))
    np.testing.assert_allclose(out.x_rel.data, [np.maximum(r[0] + m_or, 0.0)],
                               atol=1e-12)


def test_iterations_share_weights():
    rng = np.random.default_rng(11)
    params = init_ttst_params(DIMS, rng)
    g = random_graph(np.random.default_rng(12))
    once = run_message_passing(g, params, config(iterations=1))
    twice_manual = run_message_passing(once, params, config(iterations=1))
    twice = run_message_passing(g, params, config(iterations=2))
    np.testing.assert_array_equal(twice.x_obj.data, twice_manual.x_obj.data)
    np.testing.assert_array_equal(twice.x_rel.data, twice_manual.x_rel.data)


# ---------------------------------------------------------------------------
# permutation equivariance


def permute_graph(g, perm):
    """Relabel objects by ``perm`` keeping the edge listing order."""
    inv = np.argsort(perm)
    edges = [(int(perm[i]), int(perm[j])) for i, j in g.edges]
    return build_message_graph(Tensor(g.x_obj.data[inv]), Tensor(g.e_lang.data[inv]),
                               Tensor(g.x_rel.data.copy()), edges, g.n)


def test_permutation_equivariance():
    rng = np.random.default_rng(23)
    params = init_ttst_params(DIMS, rng)
    cfg = config(iterations=2)
    for _ in range(50):
        g = random_graph(rng)
        perm = rng.permutation(g.n)
        out = run_message_passing(g, params, cfg)
        out_p = run_message_passing(permute_graph(g, perm), params, cfg)
        # row sigma(i) of the permuted run is row i of the original
        np.testing.assert_allclose(out_p.x_obj.data[perm], out.x_obj.data,
                                   atol=1e-12)
        np.testing.assert_allclose(out_p.x_rel.data, out.x_rel.data, atol=1e-12)


# ---------------------------------------------------------------------------
# direction gating


def test_disabled_direction_equals_zeroed_transform():
    rng = np.random.default_rng(31)
    for dropped, mlp_name in (("ro", "rel_to_obj"), ("rr", "rel_to_rel"),
                              ("or", "obj_to_rel"), ("oo", "obj_to_obj")):
        params = init_ttst_params(DIMS, np.random.default_rng(31))
        g = random_graph(np.random.default_rng(32), n=5)
        gated = run_message_passing(
            g, params, config(directions=frozenset(ALL_DIRECTIONS) - {dropped}))
        for t in getattr(params, mlp_name).tensors():
            t.data[...] = 0.0
        zeroed = run_message_passing(g, params, config())
        np.testing.assert_array_equal(gated.x_obj.data, zeroed.x_obj.data)
        np.testing.assert_array_equal(gated.x_rel.data, zeroed.x_rel.data)


def test_no_directions_still_applies_residual_relu():
    g = random_graph(np.random.default_rng(41))
    params = init_ttst_params(DIMS, np.random.default_rng(40))
    out = run_message_passing(g, params, config(directions=frozenset()))
    np.testing.assert_array_equal(out.x_obj.data, np.maximum(g.x_obj.data, 0.0))
    np.testing.assert_array_equal(out.x_rel.data, np.maximum(g.x_rel.data, 0.0))


# ---------------------------------------------------------------------------
# target-tailored messages vs one shared matrix


def test_same_source_different_targets():
    """The tailored transform sends distinct messages to distinct targets;
    one shared matrix sends the identical vector."""
    for seed in range(20):
        rng = np.random.default_rng([91, seed])
        params = init_ttst_params(DIMS, rng, use_language=False)
        x = rng.normal(size=(4, DIMS.d_obj))
        x[3] = x[2]  # two sources in identical states
        pair = np.stack([np.concatenate([x[0], x[2]]),   # message 2 -> 0
                         np.concatenate([x[1], x[3]])])  # message 3 -> 1
        tailored = np.stack([mlp_np(params.obj_to_obj, row) for row in pair])
        assert np.max(np.abs(tailored[0] - tailored[1])) > 1e-8

        w = glorot_uniform(rng, (DIMS.d_obj, DIMS.d_obj), DIMS.d_obj, DIMS.d_obj)
        shared = x[[2, 3]] @ w.data
        np.testing.assert_array_equal(shared[0], shared[1])
