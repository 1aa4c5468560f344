"""Training, inference and gradcheck share one forward path; its outputs are
pinned to ``data/forward_reference.npz``, recorded from the code before the
message-passing directions became one fused op.

The fused op sums in a different order, so floats are compared at relative
tolerance 1e-10; kept edges and the (sub, pred, obj) order of the ranked
triplets must match exactly.

Run ``PYTHONPATH=src python tests/test_forward_equivalence.py`` to rewrite
the fixture from the code on ``PYTHONPATH``.
"""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from sgg import gradcheck
from sgg.autodiff import backward
from sgg.config import Dims, ModelConfig
from sgg.evaluation import MODES, scene_for_mode
from sgg.model import predict_scene
from sgg.scenes import EmbeddingTable
from sgg.synthetic import SynthConfig, generate_dataset
from sgg.training import TrainConfig, train_main, train_srf

REFERENCE = Path(__file__).parent / "data" / "forward_reference.npz"
RTOL = 1e-10
EXACT = (".edges", ".triplets")
GROUPS = ("train.srf", "train.plain", "predict.srf", "predict.plain", "gradcheck")

DIMS = Dims(n_classes=5, n_predicates=3, d_obj=8, d_emb=4, d_union=8, d_rel=8,
            d_pe=4, mask_res=12, conv1_channels=2, conv2_channels=2)
CONFIGS = {
    "srf": ModelConfig(dims=DIMS, iterations=2, srf_top_k=6, srf_threshold=0.3),
    "plain": ModelConfig(dims=DIMS, iterations=1, use_srf=False, use_language=False,
                         use_prede=False, directions=frozenset({"oo", "or", "rr"})),
}


def _corpus():
    return generate_dataset(SynthConfig(num_scenes=8, min_objects=3, max_objects=5,
                                        n_object_classes=4, n_predicates=3,
                                        feature_noise=0.3, box_jitter=4.0, dropout=0.1,
                                        seed=7, d_obj=8))


def _gradcheck_gradients() -> list[np.ndarray]:
    """The analytic gradients at the point ``pipeline_gradient_check(0)`` probes."""
    grads = []

    def analytic(loss_fn, tensors, eps):
        for t in tensors:
            t.grad[...] = 0.0
        backward(loss_fn())
        grads.extend(t.grad.copy() for t in tensors)
        return 0.0

    with mock.patch.object(gradcheck, "finite_difference_check_params", analytic):
        gradcheck.pipeline_gradient_check(0)
    return grads


def reference() -> dict[str, np.ndarray]:
    scenes = _corpus()
    train, test = scenes[:6], scenes[6:]
    embed = EmbeddingTable.seeded(DIMS.n_classes, DIMS.d_emb, 3)
    srf, _ = train_srf(train, embed, DIMS, TrainConfig(epochs=3, lr=0.1, seed=1))
    out = {}
    for name, config in CONFIGS.items():
        params, history = train_main(train, config,
                                     TrainConfig(epochs=3, lr=0.02, seed=2),
                                     srf=srf if config.use_srf else None, embed=embed)
        out[f"train.{name}.history"] = np.array(history)
        for key, arr in params.named_arrays().items():
            out[f"train.{name}.{key}"] = arr
        for s, scene in enumerate(test):
            for mode in MODES:
                g = predict_scene(scene_for_mode(scene, mode, config), params, config, mode)
                key = f"predict.{name}.{s}.{mode}"
                out[key + ".label_dist"] = g.label_dist
                out[key + ".rel_dist"] = g.rel_dist
                out[key + ".edges"] = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
                out[key + ".triplets"] = np.array([(t.sub, t.pred, t.obj) for t in g.triplets],
                                                  dtype=np.int64).reshape(-1, 3)
                out[key + ".scores"] = np.array([t.score for t in g.triplets])
    for k, grad in enumerate(_gradcheck_gradients()):
        out[f"gradcheck.{k:02d}"] = grad
    return out


@pytest.fixture(scope="module")
def actual():
    return reference()


@pytest.fixture(scope="module")
def expected():
    with np.load(REFERENCE) as f:
        return dict(f)


@pytest.mark.parametrize("group", GROUPS)
def test_matches_the_reference(actual, expected, group):
    keys = sorted(k for k in expected if k.startswith(group + "."))
    assert keys and keys == sorted(k for k in actual if k.startswith(group + "."))
    for key in keys:
        if key.endswith(EXACT):
            np.testing.assert_array_equal(actual[key], expected[key], err_msg=key)
        else:
            np.testing.assert_allclose(actual[key], expected[key], rtol=RTOL, atol=0,
                                       err_msg=key)


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE, **reference())
    print(f"wrote {REFERENCE}")
