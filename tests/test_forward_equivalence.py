"""Training, inference and gradcheck share one forward path; its outputs are
pinned bit for bit to digests recorded before the paths were merged.

Run ``python tests/test_forward_equivalence.py`` to print the digests of the
code on ``PYTHONPATH``.
"""

import hashlib

import numpy as np
import pytest

from sgg.config import Dims, ModelConfig
from sgg.evaluation import MODES, scene_for_mode
from sgg.gradcheck import pipeline_gradient_check
from sgg.model import predict_scene
from sgg.scenes import EmbeddingTable
from sgg.synthetic import SynthConfig, generate_dataset
from sgg.training import TrainConfig, train_main, train_srf

DIMS = Dims(n_classes=5, n_predicates=3, d_obj=8, d_emb=4, d_union=8, d_rel=8,
            d_pe=4, mask_res=12, conv1_channels=2, conv2_channels=2)
CONFIGS = {
    "srf": ModelConfig(dims=DIMS, iterations=2, srf_top_k=6, srf_threshold=0.3),
    "plain": ModelConfig(dims=DIMS, iterations=1, use_srf=False, use_language=False,
                         use_prede=False, directions=frozenset({"oo", "or", "rr"})),
}

EXPECTED = {
    "train.srf": "571a463be361f4d7c91b42c2b71b80d5",
    "train.plain": "63f17260567845a9356d79ad44c8a518",
    "predict.srf": "88ba5933226b9c8e3e238debba5d9b9b",
    "predict.plain": "8ad98ff28eb9cd357633431a39f670a6",
    "gradcheck": "0x1.2dac440000000p-34",
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes()
                 if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()[:32]


def _corpus():
    return generate_dataset(SynthConfig(num_scenes=8, min_objects=3, max_objects=5,
                                        n_object_classes=4, n_predicates=3,
                                        feature_noise=0.3, box_jitter=4.0, dropout=0.1,
                                        seed=7, d_obj=8))


def digests() -> dict[str, str]:
    scenes = _corpus()
    train, test = scenes[:6], scenes[6:]
    embed = EmbeddingTable.seeded(DIMS.n_classes, DIMS.d_emb, 3)
    srf, _ = train_srf(train, embed, DIMS, TrainConfig(epochs=3, lr=0.1, seed=1))
    out = {}
    for name, config in CONFIGS.items():
        params, history = train_main(train, config,
                                     TrainConfig(epochs=3, lr=0.02, seed=2),
                                     srf=srf if config.use_srf else None, embed=embed)
        out[f"train.{name}"] = _sha(np.array(history),
                                    *params.named_arrays().values())
        parts = []
        for scene in test:
            for mode in MODES:
                g = predict_scene(scene_for_mode(scene, mode, config), params, config, mode)
                parts += [g.label_dist, g.rel_dist, g.edges,
                          [(t.sub, t.pred, t.obj, t.score.hex()) for t in g.triplets]]
        out[f"predict.{name}"] = _sha(*parts)
    out["gradcheck"] = pipeline_gradient_check(0).hex()
    return out


@pytest.fixture(scope="module")
def actual():
    return digests()


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_matches_the_pre_merge_digest(actual, key):
    assert actual[key] == EXPECTED[key]


if __name__ == "__main__":
    for key, value in digests().items():
        print(f'    "{key}": "{value}",')
