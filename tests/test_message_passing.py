"""Message passing: residual identity, equivariance, and target-tailoring."""

import numpy as np
import pytest

from sgg.autodiff import Tensor
from sgg.config import ALL_DIRECTIONS, Dims, ModelConfig
from sgg.message_passing import (BaselineParams, baseline_shared_update,
                                 build_message_graph, init_baseline_params,
                                 init_ttst_params, run_message_passing)

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
# target-tailored messages vs the shared-transform baseline


def test_same_source_different_targets():
    """The tailored transform sends distinct messages to distinct targets;
    the shared-matrix baseline sends the identical vector."""
    for seed in range(20):
        rng = np.random.default_rng([91, seed])
        params = init_ttst_params(DIMS, rng, use_language=False)
        x = rng.normal(size=(4, DIMS.d_obj))
        x[3] = x[2]  # two sources in identical states
        pair = np.stack([np.concatenate([x[0], x[2]]),   # message 2 -> 0
                         np.concatenate([x[1], x[3]])])  # message 3 -> 1
        tailored = np.stack([mlp_np(params.obj_to_obj, row) for row in pair])
        assert np.max(np.abs(tailored[0] - tailored[1])) > 1e-8

        base = init_baseline_params(DIMS, rng)
        shared = x[[2, 3]] @ base.w.data
        np.testing.assert_array_equal(shared[0], shared[1])


def test_baseline_update_formula():
    rng = np.random.default_rng(55)
    base = BaselineParams(w=Tensor(rng.normal(size=(DIMS.d_obj, DIMS.d_obj)),
                                   requires_grad=True))
    x = rng.normal(size=(3, DIMS.d_obj))
    g = build_message_graph(Tensor(x), Tensor(np.zeros((3, DIMS.d_emb))),
                            Tensor(np.zeros((2, DIMS.d_rel))), [(0, 1), (0, 2)], 3)
    out = baseline_shared_update(g, base)
    w = base.w.data
    expect = np.stack([
        np.maximum(x[0] + 0.5 * (x[1] @ w + x[2] @ w), 0.0),
        np.maximum(x[1] + x[0] @ w, 0.0),
        np.maximum(x[2] + x[0] @ w, 0.0),
    ])
    np.testing.assert_allclose(out.data, expect, atol=1e-12)
