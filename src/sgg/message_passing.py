"""Bidirectional message passing between object and relation features.

Every message is produced by a transformation conditioned on the target as
well as the source: the source features are concatenated with the target's
and pushed through a per-direction two-layer MLP (ReLU after each layer),
one ``autodiff.message_mean`` op per direction.  The four directions are
object-to-object, relation-to-object, object-to-relation, and
relation-to-relation.  Updates are residual with a ReLU on top,
aggregations are plain means over the neighbor sets, and empty neighbor
sets contribute nothing.  The ``oo`` direction reads the language channels
as part of each object's row, ``[x_obj, e_lang]``.

Within one iteration objects update first and the relation sweep reads the
refreshed object features; relation-to-relation messages still read the
iteration-start relation features.  Transform weights are shared across
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tensor, add, concat_cols, message_mean, relu
from .config import Dims, ModelConfig
from .nn import ParamGroup, TwoLayerMlp, make_mlp
from .scenes import pair_index


@dataclass
class TtstParams(ParamGroup):
    """One transformation MLP per message direction, applied only by
    ``message_mean`` (a ReLU after both layers); called directly, one gives
    the linear output of ``TwoLayerMlp``."""

    obj_to_obj: TwoLayerMlp = field(metadata={"name": "oo"})
    rel_to_obj: TwoLayerMlp = field(metadata={"name": "ro"})
    obj_to_rel: TwoLayerMlp = field(metadata={"name": "or"})
    rel_to_rel: TwoLayerMlp = field(metadata={"name": "rr"})


def init_ttst_params(dims: Dims, rng: np.random.Generator,
                     use_language: bool = True) -> TtstParams:
    d_pair = 2 * (dims.d_obj + dims.d_emb) if use_language else 2 * dims.d_obj
    return TtstParams(
        obj_to_obj=make_mlp(rng, d_pair, dims.d_obj, dims.d_obj),
        rel_to_obj=make_mlp(rng, dims.d_obj + dims.d_rel, dims.d_obj, dims.d_obj),
        obj_to_rel=make_mlp(rng, dims.d_rel + dims.d_obj, dims.d_rel, dims.d_rel),
        rel_to_rel=make_mlp(rng, 2 * dims.d_rel, dims.d_rel, dims.d_rel),
    )


@dataclass
class MessageGraph:
    """Object and relation features plus precomputed neighbor index arrays.

    ``edges`` lists the retained ordered pairs; ``x_rel`` holds one feature
    row per edge in the same order.
    """

    n: int
    edges: list[tuple[int, int]]
    x_obj: Tensor   # (n, d_obj)
    e_lang: Tensor  # (n, d_emb)
    x_rel: Tensor   # (len(edges), d_rel)
    oo_tgt: np.ndarray
    oo_src: np.ndarray
    ro_node: np.ndarray
    ro_edge: np.ndarray
    or_edge: np.ndarray
    or_node: np.ndarray
    rr_tgt: np.ndarray
    rr_src: np.ndarray


def build_message_graph(x_obj: Tensor, e_lang: Tensor, x_rel: Tensor,
                        edges: list[tuple[int, int]], n: int) -> MessageGraph:
    """Index arrays of the four message directions, each sorted by (target,
    source): ``oo`` joins every object to its distinct neighbors in either
    edge direction, ``ro`` every object to its incident edges, ``or`` every
    edge to its two endpoints, and ``rr`` every edge to the other edges that
    share an endpoint with it.

    ``oo``, ``ro`` and ``rr`` are the nonzeros of boolean (target × source)
    matrices, which ``np.nonzero`` lists in row-major order: sorted by
    target, then source, each pair once however often an edge repeats.
    ``shares`` takes m² bytes, about n⁴ with all pairs, while each of rr's
    about 4n³ pairs keeps 16 index bytes and a ``d_rel``-byte mask in
    ``message_mean``: 0.98 against 9.6 MB at n = 32, ``d_rel`` = 64."""
    e = pair_index(edges)
    bad = ((e < 0) | (e >= n)).any(axis=1) | (e[:, 0] == e[:, 1])
    if bad.any():
        i, j = edges[int(np.argmax(bad))]
        raise ValueError(f"edge ({i},{j}) invalid for {n} objects")
    m = len(e)
    k = np.arange(m, dtype=np.intp)
    adjacent = np.zeros((n, n), dtype=bool)
    adjacent[e[:, 0], e[:, 1]] = adjacent[e[:, 1], e[:, 0]] = True
    incident = np.zeros((n, m), dtype=bool)
    incident[e[:, 0], k] = incident[e[:, 1], k] = True
    shares = incident[e[:, 0]] | incident[e[:, 1]]
    shares[k, k] = False
    return MessageGraph(n, list(edges), x_obj, e_lang, x_rel, *np.nonzero(adjacent),
                        *np.nonzero(incident), np.repeat(k, 2), e.ravel(), *np.nonzero(shares))


def _residual_update(x: Tensor, directions: list[tuple], config: ModelConfig) -> Tensor:
    """ReLU(x + the mean message of each enabled direction that has rows).

    A direction is ``(name, mlp, x_t, t_idx, x_s, s_idx)``.  A list ``x_t``
    is concatenated by column only if its direction runs, and is then read
    as the sources too.
    """
    total = x
    for name, mlp, x_t, t_idx, x_s, s_idx in directions:
        if name in config.directions and t_idx.size:
            if isinstance(x_t, list):
                x_t = x_s = concat_cols(x_t)
            total = add(total, message_mean(x_t, t_idx, x_s, s_idx,
                                            mlp.l1.w, mlp.l1.b, mlp.l2.w, mlp.l2.b))
    return relu(total)


def update_objects(g: MessageGraph, params: TtstParams, config: ModelConfig) -> Tensor:
    """One object sweep: x_i <- ReLU(x_i + mean oo messages + mean ro messages)."""
    x_oo = [g.x_obj, g.e_lang] if config.use_language else g.x_obj
    return _residual_update(g.x_obj, [
        ("oo", params.obj_to_obj, x_oo, g.oo_tgt, x_oo, g.oo_src),
        ("ro", params.rel_to_obj, g.x_obj, g.ro_node, g.x_rel, g.ro_edge)], config)


def update_relations(g: MessageGraph, x_obj_new: Tensor, params: TtstParams,
                     config: ModelConfig) -> Tensor:
    """One relation sweep reading the refreshed object features."""
    return _residual_update(g.x_rel, [
        ("or", params.obj_to_rel, g.x_rel, g.or_edge, x_obj_new, g.or_node),
        ("rr", params.rel_to_rel, g.x_rel, g.rr_tgt, g.x_rel, g.rr_src)], config)


def run_message_passing(g: MessageGraph, params: TtstParams,
                        config: ModelConfig) -> MessageGraph:
    """Apply ``config.iterations`` synchronous sweeps; 0 iterations is identity."""
    for _ in range(config.iterations):
        x_new = update_objects(g, params, config)
        r_new = update_relations(g, x_new, params, config)
        g = replace(g, x_obj=x_new, x_rel=r_new)
    return g

