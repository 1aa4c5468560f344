"""Bidirectional message passing between object and relation features.

Every message is produced by a transformation conditioned on the target as
well as the source: the source features are concatenated with the target's
and pushed through a per-direction two-layer MLP (ReLU after each layer).
The four directions are object-to-object, relation-to-object,
object-to-relation, and relation-to-relation.  Updates are residual with a
ReLU on top, aggregations are plain means over the neighbor sets, and empty
neighbor sets contribute nothing.

Within one iteration objects update first and the relation sweep reads the
refreshed object features; relation-to-relation messages still read the
iteration-start relation features.  Transform weights are shared across
iterations.

A shared-transformation baseline (one square matrix, uniform attention,
target-independent messages) is provided for ablation contrasts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, add, concat_cols, gather_rows, matmul, relu, segment_mean
from .config import Dims, ModelConfig
from .nn import TwoLayerMlp, make_mlp


@dataclass
class TtstParams:
    """One transformation MLP per message direction."""

    obj_to_obj: TwoLayerMlp
    rel_to_obj: TwoLayerMlp
    obj_to_rel: TwoLayerMlp
    rel_to_rel: TwoLayerMlp

    def tensors(self) -> list[Tensor]:
        return (self.obj_to_obj.tensors() + self.rel_to_obj.tensors()
                + self.obj_to_rel.tensors() + self.rel_to_rel.tensors())

    def named(self, prefix: str = "mp") -> dict[str, Tensor]:
        out = self.obj_to_obj.named(f"{prefix}.oo")
        out.update(self.rel_to_obj.named(f"{prefix}.ro"))
        out.update(self.obj_to_rel.named(f"{prefix}.or"))
        out.update(self.rel_to_rel.named(f"{prefix}.rr"))
        return out


def init_ttst_params(dims: Dims, rng: np.random.Generator,
                     use_language: bool = True) -> TtstParams:
    d_pair = 2 * (dims.d_obj + dims.d_emb) if use_language else 2 * dims.d_obj
    return TtstParams(
        obj_to_obj=make_mlp(rng, d_pair, dims.d_obj, dims.d_obj, relu_out=True),
        rel_to_obj=make_mlp(rng, dims.d_obj + dims.d_rel, dims.d_obj, dims.d_obj,
                            relu_out=True),
        obj_to_rel=make_mlp(rng, dims.d_rel + dims.d_obj, dims.d_rel, dims.d_rel,
                            relu_out=True),
        rel_to_rel=make_mlp(rng, 2 * dims.d_rel, dims.d_rel, dims.d_rel, relu_out=True),
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

    def with_features(self, x_obj: Tensor, x_rel: Tensor) -> "MessageGraph":
        return replace(self, x_obj=x_obj, x_rel=x_rel)


def build_message_graph(x_obj: Tensor, e_lang: Tensor, x_rel: Tensor,
                        edges: list[tuple[int, int]], n: int) -> MessageGraph:
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"edge ({i},{j}) invalid for {n} objects")

    neighbors: list[set[int]] = [set() for _ in range(n)]
    incident: list[list[int]] = [[] for _ in range(n)]
    for k, (i, j) in enumerate(edges):
        neighbors[i].add(j)
        neighbors[j].add(i)
        incident[i].append(k)
        incident[j].append(k)

    oo = [(i, j) for i in range(n) for j in sorted(neighbors[i])]
    ro = [(i, k) for i in range(n) for k in incident[i]]
    orr = [(k, m) for k, (i, j) in enumerate(edges) for m in (i, j)]
    rr = []
    for k, (i, j) in enumerate(edges):
        rr.extend((k, k2) for k2 in sorted((set(incident[i]) | set(incident[j])) - {k}))

    def cols(pairs):
        if not pairs:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        arr = np.array(pairs, dtype=np.intp)
        return arr[:, 0], arr[:, 1]

    oo_tgt, oo_src = cols(oo)
    ro_node, ro_edge = cols(ro)
    or_edge, or_node = cols(orr)
    rr_tgt, rr_src = cols(rr)
    return MessageGraph(n=n, edges=list(edges), x_obj=x_obj, e_lang=e_lang, x_rel=x_rel,
                        oo_tgt=oo_tgt, oo_src=oo_src, ro_node=ro_node, ro_edge=ro_edge,
                        or_edge=or_edge, or_node=or_node, rr_tgt=rr_tgt, rr_src=rr_src)


def update_objects(g: MessageGraph, params: TtstParams, config: ModelConfig) -> Tensor:
    """One object sweep: x_i <- ReLU(x_i + mean oo messages + mean ro messages)."""
    total = g.x_obj
    if "oo" in config.directions and g.oo_tgt.size:
        if config.use_language:
            inp = concat_cols([gather_rows(g.x_obj, g.oo_tgt),
                               gather_rows(g.e_lang, g.oo_tgt),
                               gather_rows(g.x_obj, g.oo_src),
                               gather_rows(g.e_lang, g.oo_src)])
        else:
            inp = concat_cols([gather_rows(g.x_obj, g.oo_tgt),
                               gather_rows(g.x_obj, g.oo_src)])
        total = add(total, segment_mean(params.obj_to_obj(inp), g.oo_tgt, g.n))
    if "ro" in config.directions and g.ro_node.size:
        inp = concat_cols([gather_rows(g.x_obj, g.ro_node),
                           gather_rows(g.x_rel, g.ro_edge)])
        total = add(total, segment_mean(params.rel_to_obj(inp), g.ro_node, g.n))
    return relu(total)


def update_relations(g: MessageGraph, x_obj_new: Tensor, params: TtstParams,
                     config: ModelConfig) -> Tensor:
    """One relation sweep reading the refreshed object features."""
    n_edges = len(g.edges)
    total = g.x_rel
    if "or" in config.directions and g.or_edge.size:
        inp = concat_cols([gather_rows(g.x_rel, g.or_edge),
                           gather_rows(x_obj_new, g.or_node)])
        # every edge has exactly two endpoints, so the mean is the half-sum
        total = add(total, segment_mean(params.obj_to_rel(inp), g.or_edge, n_edges))
    if "rr" in config.directions and g.rr_tgt.size:
        inp = concat_cols([gather_rows(g.x_rel, g.rr_tgt),
                           gather_rows(g.x_rel, g.rr_src)])
        total = add(total, segment_mean(params.rel_to_rel(inp), g.rr_tgt, n_edges))
    return relu(total)


def run_message_passing(g: MessageGraph, params: TtstParams,
                        config: ModelConfig) -> MessageGraph:
    """Apply ``config.iterations`` synchronous sweeps; 0 iterations is identity."""
    for _ in range(config.iterations):
        x_new = update_objects(g, params, config)
        r_new = update_relations(g, x_new, params, config)
        g = g.with_features(x_new, r_new)
    return g


# ---------------------------------------------------------------------------
# shared-transformation baseline (ablation only)


@dataclass
class BaselineParams:
    """Single square transform shared by every message, uniform attention."""

    w: Tensor  # (d_obj, d_obj)

    def tensors(self) -> list[Tensor]:
        return [self.w]


def init_baseline_params(dims: Dims, rng: np.random.Generator) -> BaselineParams:
    from .autodiff import glorot_uniform

    return BaselineParams(w=glorot_uniform(rng, (dims.d_obj, dims.d_obj),
                                           dims.d_obj, dims.d_obj))


def baseline_shared_update(g: MessageGraph, params: BaselineParams) -> Tensor:
    """z_i <- ReLU(z_i + mean_{j in N(i)} W z_j): the message to every target
    from a given source is identical."""
    if not g.oo_tgt.size:
        return relu(g.x_obj)
    msgs = matmul(gather_rows(g.x_obj, g.oo_src), params.w)
    return relu(add(g.x_obj, segment_mean(msgs, g.oo_tgt, g.n)))
