"""Full pipeline assembly: parameters, candidate pairs, one forward path.

Every caller runs one scene through the same two functions.
``scene_inputs`` checks the scene against ``Dims`` and builds what depends
only on the scene and its pair list: object features, the language prior
(the expected class embedding of each proposal), the pairs' bool mask
indicators, which ``forward`` expands into masks, and union visuals.
``forward`` turns those inputs into object logits, the label distributions
the relation head reads, and relation logits: initial relation features,
then target-tailored message passing, then the heads.
Inference (``forward_scene``, ``predict_scene``), training
(``training.prepare_scene`` and ``training.scene_loss``) and the
finite-difference gradcheck all go through them, so the gradients that are
checked are those of the code that eval and predict run.

Modes differ only in what the caller substitutes into the scene (gt boxes,
one-hot labels), in whether the relation filter is bypassed (``predcls``
bypasses it by default), and in ``predcls`` feeding the converted scene's
one-hot label distributions to the relation head instead of the predicted
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, softmax
from .config import ModelConfig
from .filter import confidence_fallback, ordered_pairs, pair_inputs, prune_graph, score_pairs
from .inference import HeadParams, PredictedGraph, init_head_params, object_logits, \
    relation_logits, score_triplets
from .message_passing import TtstParams, build_message_graph, init_ttst_params, \
    run_message_passing
from .nn import ParamGroup, TwoLayerMlp
from .relation_features import RelFeatParams, init_relfeat_params, pair_geometry, \
    relation_features
from .scenes import EmbeddingTable, SceneRecord


@dataclass
class ModelParams(ParamGroup):
    """Every weight group of one model instance; the embedding table and the
    (separately trained) relation filter ride along for checkpointing."""

    relfeat: RelFeatParams
    ttst: TtstParams = field(metadata={"name": "mp"})
    head: HeadParams
    embed: EmbeddingTable
    srf: TwoLayerMlp | None = None

    def trainable(self) -> list[Tensor]:
        """Main-stage parameters; the relation filter stays frozen here."""
        return self.relfeat.tensors() + self.ttst.tensors() + self.head.tensors()

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {**{name: t.data for name, t in self.named().items()},
                "embed.table": self.embed.matrix}


def init_model_params(config: ModelConfig, seed: int,
                      srf: TwoLayerMlp | None = None,
                      embed: EmbeddingTable | None = None) -> ModelParams:
    """Seeded initialization; draw order is fixed so identical seeds give
    identical parameters."""
    dims = config.dims
    rng = np.random.default_rng([int(seed), 0xA11])
    params = ModelParams(
        relfeat=init_relfeat_params(dims, rng),
        ttst=init_ttst_params(dims, rng, use_language=config.use_language),
        head=init_head_params(dims, rng, use_prede=config.use_prede),
        embed=embed if embed is not None
        else EmbeddingTable.seeded(dims.n_classes, dims.d_emb, seed),
        srf=srf,
    )
    if params.embed.matrix.shape != (dims.n_classes, dims.d_emb):
        raise ValueError(
            f"embedding table shape {params.embed.matrix.shape} does not match dims "
            f"({dims.n_classes}, {dims.d_emb})")
    return params


def candidate_pairs(scene: SceneRecord, params: ModelParams, config: ModelConfig,
                    mode: str = "sggen") -> tuple[list[tuple[int, int]], np.ndarray]:
    """Retained ordered pairs plus their selection scores."""
    pairs = ordered_pairs(scene.n_proposals)
    if not pairs:
        return [], np.zeros(0)
    bypass = mode == "predcls" and not config.srf_in_predcls
    if config.use_srf and not bypass:
        if params.srf is None:
            raise ValueError("use_srf is enabled but the model has no filter parameters")
        scores = score_pairs(pair_inputs(scene, params.embed, pairs), params.srf)
        return prune_graph(pairs, scores, config.srf_top_k, config.srf_threshold)
    dists = np.stack([p.label_dist for p in scene.proposals])
    scores = confidence_fallback(dists, pairs)
    return prune_graph(pairs, scores, config.srf_top_k, 0.0)


@dataclass(eq=False)
class SceneInputs:
    """The arrays ``forward`` reads for one scene and its ordered pairs, with the
    scene id for training's messages; only ``training.prepare_scene`` sets the targets."""

    scene_id: str
    edges: list[tuple[int, int]]
    feats: np.ndarray       # (n, d_obj)
    dists: np.ndarray       # (n, n_classes), the proposals' label distributions
    e_lang: np.ndarray      # (n, d_emb)
    indicators: np.ndarray  # (len(edges), 2, 2, mask_res) bool: pair, box, axis, cell
    visual: np.ndarray      # (len(edges), d_union)
    obj_targets: np.ndarray | None = None  # (n,) object classes
    rel_targets: np.ndarray | None = None  # (len(edges),) predicates, no-relation last


def scene_inputs(scene: SceneRecord, params: ModelParams, config: ModelConfig,
                 edges: list[tuple[int, int]]) -> SceneInputs:
    """Check the scene against ``Dims`` and build the inputs of ``forward``."""
    dims = config.dims
    n = scene.n_proposals
    feats = np.stack([p.feature for p in scene.proposals]) if n else np.zeros((0, dims.d_obj))
    dists = np.stack([p.label_dist for p in scene.proposals]) if n \
        else np.zeros((0, dims.n_classes))
    if feats.shape[1] != dims.d_obj:
        raise ValueError(f"{scene.id}: feature length {feats.shape[1]} != d_obj {dims.d_obj}")
    if dists.shape[1] != dims.n_classes:
        raise ValueError(f"{scene.id}: label_dist length {dists.shape[1]} != "
                         f"{dims.n_classes} classes")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        indicators, visual = pair_geometry(scene, edges, dims)
        e_lang = params.embed.embed(dists)
    if not np.all(np.isfinite(visual)):
        raise ValueError(f"{scene.id}: union visual features overflow float64")
    if not np.all(np.isfinite(e_lang)):
        raise ValueError(f"{scene.id}: language prior (label_dist @ embedding) overflows float64")
    return SceneInputs(scene_id=scene.id, edges=list(edges), feats=feats, dists=dists,
                       e_lang=e_lang, indicators=indicators, visual=visual)


@dataclass(eq=False)
class PipelineOutput:
    edges: list[tuple[int, int]]
    obj_logits: Tensor  # (n, n_classes)
    p_hat: Tensor       # (n, n_classes), the distributions the relation head reads
    rel_logits: Tensor  # (len(edges), n_predicates + 1)


def forward(inputs: SceneInputs, params: ModelParams, config: ModelConfig,
            mode: str = "sggen") -> PipelineOutput:
    """Relation features, message passing and both heads on prepared inputs.

    In ``predcls`` mode the relation head reads the proposals' label
    distributions instead of the predicted ones; on a scene that
    ``evaluation.scene_for_mode`` converted, these are the one-hot gt classes.
    Only the arrays of ``inputs`` are read, never its scene id.
    """
    edges = inputs.edges
    x_rel = relation_features(inputs.indicators, inputs.visual, params.relfeat, config.dims)
    g = build_message_graph(Tensor(inputs.feats), Tensor(inputs.e_lang), x_rel, edges,
                            len(inputs.feats))
    g = run_message_passing(g, params.ttst, config)
    logits = object_logits(g.x_obj, params.head)
    p_hat = Tensor(inputs.dists) if mode == "predcls" else softmax(logits)
    rel_logits = relation_logits(g.x_rel, p_hat, edges, params.head, config)
    return PipelineOutput(edges=edges, obj_logits=logits, p_hat=p_hat, rel_logits=rel_logits)


def forward_scene(scene: SceneRecord, params: ModelParams, config: ModelConfig,
                  mode: str = "sggen") -> PipelineOutput:
    """Run the pipeline on one scene (already converted for gt-box modes) over
    the pairs that ``candidate_pairs`` keeps.  In ``predcls`` the relation
    head reads the scene's ``label_dist``s, so an unconverted scene feeds it
    its detector distributions, not gt classes."""
    edges, _ = candidate_pairs(scene, params, config, mode)
    return forward(scene_inputs(scene, params, config, edges), params, config, mode)


def predict_scene(scene: SceneRecord, params: ModelParams, config: ModelConfig,
                  mode: str = "sggen") -> PredictedGraph:
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        out = forward_scene(scene, params, config, mode)
    if not (np.all(np.isfinite(out.p_hat.data)) and np.all(np.isfinite(out.rel_logits.data))):
        raise ValueError(f"{scene.id}: {mode} predictions are not finite")
    return score_triplets([p.box for p in scene.proposals], out.p_hat.data, out.edges,
                          softmax(out.rel_logits).data)
