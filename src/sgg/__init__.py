"""Scene graph generation on region proposals.

The pipeline scores object pairs with a learned relation filter, refines
object and relation states by iterative message passing over the graph
(optionally mixing label-embedding priors into the messages), and reads out
object labels and predicates from the refined states.  Everything runs on a
small reverse-mode autodiff engine over numpy arrays; training data comes
from a deterministic synthetic scene generator.
"""

from .autodiff import (NumericError, SgdMomentum, ShapeError, Tensor, backward,
                       finite_difference_check, finite_difference_check_params,
                       schedule_lr)
from .config import ALL_DIRECTIONS, Dims, ModelConfig
from .evaluation import EvalResult, EvalTriplet, evaluate, recall_at_k
from .filter import confidence_fallback, prune_graph, score_pairs
from .gradcheck import check_all_ops, pipeline_gradient_check
from .model import (ModelParams, candidate_pairs, forward_scene,
                    init_model_params, predict_scene)
from .scenes import (Box, EmbeddingTable, GtObject, ObjectProposal, SceneRecord,
                     Triplet, iou, load_scenes, save_scenes, union_frame)
from .synthetic import SynthConfig, generate_dataset, generate_scene
from .training import TrainConfig, train_main, train_srf

__all__ = [
    "ALL_DIRECTIONS", "Box", "Dims", "EmbeddingTable", "EvalResult",
    "EvalTriplet", "GtObject", "ModelConfig", "ModelParams", "NumericError",
    "ObjectProposal", "SceneRecord", "SgdMomentum", "ShapeError", "SynthConfig",
    "Tensor", "TrainConfig", "Triplet", "backward", "candidate_pairs",
    "check_all_ops", "confidence_fallback", "evaluate", "finite_difference_check",
    "finite_difference_check_params", "forward_scene", "generate_dataset",
    "generate_scene", "init_model_params", "iou", "load_scenes",
    "pipeline_gradient_check", "predict_scene", "prune_graph", "recall_at_k",
    "save_scenes", "schedule_lr", "score_pairs", "train_main", "train_srf",
    "union_frame",
]
