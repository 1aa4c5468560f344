"""Release gate: one check per shipped guarantee, one printed verdict each.

Every test exercises a guarantee end to end, prints
``criterion N (name): PASS/FAIL - detail`` and then asserts, so a plain
``pytest tests/test_acceptance.py -v -s`` reads as a checklist.  Criteria 7
and 8 train real models; together they take several minutes on one core.
"""

import time
from dataclasses import replace
from functools import lru_cache

import numpy as np

from sgg.autodiff import Tensor, glorot_uniform
from sgg.cli import run
from sgg.config import Dims, ModelConfig
from sgg.evaluation import (EvalTriplet, evaluate, match_triplets, recall_at_k,
                            substitute_gt_boxes)
from sgg.filter import ordered_pairs, prune_graph
from sgg.gradcheck import check_all_ops, pipeline_gradient_check
from sgg.message_passing import build_message_graph, init_ttst_params, run_message_passing
from sgg.scenes import Box, EmbeddingTable, iou
from sgg.synthetic import SynthConfig, generate_dataset
from sgg.training import TrainConfig, train_main, train_srf

SMALL_DIMS = Dims(n_classes=4, n_predicates=3, d_obj=5, d_emb=3, d_union=6,
                  d_rel=4, mask_res=12, conv1_channels=2, conv2_channels=2)


def verdict(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def random_graph(rng, n=None):
    n = n if n is not None else int(rng.integers(2, 9))
    pool = [(i, j) for i in range(n) for j in range(n) if i != j]
    idx = rng.choice(len(pool), size=int(rng.integers(1, len(pool) + 1)),
                     replace=False)
    edges = [pool[i] for i in sorted(idx)]
    return build_message_graph(Tensor(rng.normal(size=(n, SMALL_DIMS.d_obj))),
                               Tensor(rng.normal(size=(n, SMALL_DIMS.d_emb))),
                               Tensor(rng.normal(size=(len(edges), SMALL_DIMS.d_rel))),
                               edges, n)


def permute_graph(g, perm):
    inv = np.argsort(perm)
    edges = [(int(perm[i]), int(perm[j])) for i, j in g.edges]
    return build_message_graph(Tensor(g.x_obj.data[inv]),
                               Tensor(g.e_lang.data[inv]),
                               Tensor(g.x_rel.data.copy()), edges, g.n)


def mlp_np(mlp, x):
    h = np.maximum(x @ mlp.l1.w.data + mlp.l1.b.data, 0.0)
    return np.maximum(h @ mlp.l2.w.data + mlp.l2.b.data, 0.0)


# ---------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradients():
    t0 = time.perf_counter()
    per_op = check_all_ops(seed=0)
    pipeline = pipeline_gradient_check(seed=0)
    elapsed = time.perf_counter() - t0
    worst_op = max(per_op, key=per_op.get)
    worst = max(max(per_op.values()), pipeline)
    ok = worst < 1e-4 and elapsed < 60.0
    verdict(1, "gradients", ok,
            f"finite differences: worst op '{worst_op}' rel err "
            f"{per_op[worst_op]:.2e}, full pipeline {pipeline:.2e} "
            f"(bound 1e-4), {elapsed:.1f}s (bound 60s)")


# ---------------------------------------------------------------------------
# 2. residual identity with zeroed weights


def test_criterion_2_residual_identity():
    params = init_ttst_params(SMALL_DIMS, np.random.default_rng(0))
    for t in params.tensors():
        t.data[...] = 0.0
    ok = True
    for iters in (1, 2, 3):
        cfg = ModelConfig(dims=SMALL_DIMS, iterations=iters)
        g = random_graph(np.random.default_rng(42 + iters))
        out = run_message_passing(g, params, cfg)
        ok &= np.array_equal(out.x_obj.data, np.maximum(g.x_obj.data, 0.0))
        ok &= np.array_equal(out.x_rel.data, np.maximum(g.x_rel.data, 0.0))
        rng = np.random.default_rng(7 + iters)
        edges = [(0, 1), (2, 3), (1, 2), (3, 4)]
        x_obj = Tensor(rng.uniform(0.0, 2.0, (5, SMALL_DIMS.d_obj)))
        x_rel = Tensor(rng.uniform(0.0, 2.0, (len(edges), SMALL_DIMS.d_rel)))
        g = build_message_graph(x_obj, Tensor(rng.normal(size=(5, SMALL_DIMS.d_emb))),
                                x_rel, edges, 5)
        out = run_message_passing(g, params, cfg)
        ok &= np.array_equal(out.x_obj.data, x_obj.data)   # bit-exact passthrough
        ok &= np.array_equal(out.x_rel.data, x_rel.data)
    verdict(2, "residual identity", ok,
            "zeroed transforms leave ReLU(input) bit-exactly for 1-3 "
            "iterations; nonnegative inputs unchanged")


# ---------------------------------------------------------------------------
# 3. permutation equivariance


def test_criterion_3_permutation_equivariance():
    rng = np.random.default_rng(23)
    params = init_ttst_params(SMALL_DIMS, rng)
    cfg = ModelConfig(dims=SMALL_DIMS, iterations=2)
    worst = 0.0
    for _ in range(50):
        g = random_graph(rng)
        perm = rng.permutation(g.n)
        out = run_message_passing(g, params, cfg)
        out_p = run_message_passing(permute_graph(g, perm), params, cfg)
        worst = max(worst,
                    float(np.max(np.abs(out_p.x_obj.data[perm] - out.x_obj.data))),
                    float(np.max(np.abs(out_p.x_rel.data - out.x_rel.data))))
    verdict(3, "permutation equivariance", worst <= 1e-12,
            f"50 random graphs (<= 8 nodes): max elementwise drift {worst:.1e} "
            f"(bound 1e-12)")


# ---------------------------------------------------------------------------
# 4. target-tailored messages vs shared-matrix baseline


def test_criterion_4_tailored_messages():
    tailored_min = np.inf
    baseline_max = 0.0
    for seed in range(20):
        rng = np.random.default_rng([91, seed])
        params = init_ttst_params(SMALL_DIMS, rng, use_language=False)
        x = rng.normal(size=(4, SMALL_DIMS.d_obj))
        x[3] = x[2]  # two sources in identical states
        pair = np.stack([np.concatenate([x[0], x[2]]),   # message 2 -> 0
                         np.concatenate([x[1], x[3]])])  # message 3 -> 1
        tailored = np.stack([mlp_np(params.obj_to_obj, row) for row in pair])
        tailored_min = min(tailored_min,
                           float(np.max(np.abs(tailored[0] - tailored[1]))))
        d = SMALL_DIMS.d_obj
        shared = x[[2, 3]] @ glorot_uniform(rng, (d, d), d, d).data
        baseline_max = max(baseline_max,
                           float(np.max(np.abs(shared[0] - shared[1]))))
    ok = tailored_min > 1e-8 and baseline_max == 0.0
    verdict(4, "tailored messages", ok,
            f"20 seeds: pair-conditioned messages to two targets differ by "
            f">= {tailored_min:.3f}; shared-matrix baseline differs by "
            f"{baseline_max:.1f} (identical)")


# ---------------------------------------------------------------------------
# 5. relation-filter pruning contract


def test_criterion_5_filter_contract():
    defaults = ModelConfig(dims=SMALL_DIMS)
    top_k, thr = defaults.srf_top_k, defaults.srf_threshold
    rng = np.random.default_rng(512)
    cap_ok = thr_ok = det_ok = mono_ok = True
    cap_hit = 0
    for _ in range(100):
        n = int(rng.integers(8, 26))
        pairs = ordered_pairs(n)
        scores = np.round(rng.random(len(pairs)), 1)  # coarse grid forces ties
        kept, ks = prune_graph(pairs, scores, top_k, thr)
        cap_ok &= len(kept) <= top_k
        thr_ok &= bool(np.all(ks >= thr))
        cap_hit += len(kept) == top_k
        sh = rng.permutation(len(pairs))
        kept_sh, ks_sh = prune_graph([pairs[i] for i in sh], scores[sh],
                                     top_k, thr)
        det_ok &= kept_sh == kept and np.array_equal(ks_sh, ks)
        lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
        keep_lo, _ = prune_graph(pairs, scores, top_k, lo)
        keep_hi, _ = prune_graph(pairs, scores, top_k, hi)
        mono_ok &= set(keep_hi) <= set(keep_lo)
    ok = cap_ok and thr_ok and det_ok and mono_ok and cap_hit > 0
    verdict(5, "filter contract", ok,
            f"100 scored pair sets: <= {top_k} edges kept ({cap_ok}), all "
            f"scores >= {thr} ({thr_ok}), shuffle-invariant ties ({det_ok}), "
            f"threshold monotone ({mono_ok}), cap reached {cap_hit}x")


# ---------------------------------------------------------------------------
# 6. greedy matcher equals exhaustive matching; recall monotone in K


def exhaustive_match_count(preds, gts, thr=0.5):
    compat = [[p.sub_label == g.sub_label and p.pred == g.pred
               and p.obj_label == g.obj_label and iou(p.sub_box, g.sub_box) > thr
               and iou(p.obj_box, g.obj_box) > thr for g in gts] for p in preds]

    @lru_cache(maxsize=None)
    def best(i, mask):
        if i == len(preds):
            return 0
        out = best(i + 1, mask)
        for gi in range(len(gts)):
            if compat[i][gi] and not mask & (1 << gi):
                out = max(out, 1 + best(i + 1, mask | (1 << gi)))
        return out

    return best(0, 0)


def rand_box(rng):
    return Box(float(rng.choice([0, 4, 30]) + rng.choice([-1, 0, 1])),
               float(rng.choice([0, 4, 30]) + rng.choice([-1, 0, 1])), 10, 10)


def rand_triplet(rng):
    return EvalTriplet(int(rng.integers(1, 3)), int(rng.integers(0, 2)),
                       int(rng.integers(1, 3)), rand_box(rng), rand_box(rng))


def jittered(rng, gts):
    if gts and rng.random() < 0.6:
        g = gts[rng.integers(len(gts))]
        return EvalTriplet(g.sub_label, g.pred, g.obj_label,
                           rand_box(rng) if rng.random() < 0.3 else g.sub_box,
                           rand_box(rng) if rng.random() < 0.3 else g.obj_box)
    return rand_triplet(rng)


def test_criterion_6_matcher_oracle():
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(1000):
        gts = [rand_triplet(rng) for _ in range(rng.integers(0, 7))]
        preds = [jittered(rng, gts) for _ in range(rng.integers(0, 7))]
        agree += match_triplets(preds, gts) == exhaustive_match_count(preds, gts)
    mono = True
    for _ in range(300):
        gts = [rand_triplet(rng) for _ in range(rng.integers(1, 7))]
        preds = [jittered(rng, gts) for _ in range(rng.integers(0, 121))]
        r = [recall_at_k(preds, gts, k) for k in (20, 50, 100)]
        mono &= r[0] <= r[1] <= r[2]
    ok = agree == 1000 and mono
    verdict(6, "matcher oracle", ok,
            f"greedy == exhaustive on {agree}/1000 instances (<= 6 "
            f"predictions / <= 6 gt); recall@20 <= @50 <= @100 on 300 "
            f"long-ranked instances ({mono})")


# ---------------------------------------------------------------------------
# 7. learning on the synthetic corpus (frozen recipe)


def test_criterion_7_synthetic_learning():
    t0 = time.perf_counter()
    corpus = SynthConfig(num_scenes=400, min_objects=3, max_objects=6,
                         n_object_classes=6, n_predicates=6, feature_noise=0.3,
                         box_jitter=6.0, dropout=0.1, seed=0, d_obj=16)
    scenes = generate_dataset(corpus)
    train, test = scenes[:300], scenes[300:]
    dims = Dims(n_classes=7, n_predicates=6, d_obj=16, d_emb=8, d_union=8,
                d_rel=16, d_pe=8, mask_res=24, conv1_channels=2,
                conv2_channels=2)
    embed = EmbeddingTable.seeded(dims.n_classes, dims.d_emb, 0)
    srf, _ = train_srf(train, embed, dims,
                       TrainConfig(epochs=60, lr=0.1, seed=0,
                                   negative_ratio=1.0))
    cfg = ModelConfig(dims=dims, iterations=2)
    params, _ = train_main(train, cfg,
                           TrainConfig(epochs=50, lr=5e-3, seed=0,
                                       negative_ratio=0.5),
                           srf=srf, embed=embed)
    res = evaluate(test, params, cfg, ks=(20, 50, 100))
    elapsed = time.perf_counter() - t0
    predcls = res.recalls["predcls"][20]
    sgcls = res.recalls["sgcls"][20]
    mono = all(res.recalls[m][20] <= res.recalls[m][50] <= res.recalls[m][100]
               for m in res.recalls)
    ok = predcls >= 0.90 and sgcls >= 0.60 and elapsed <= 300.0 and mono
    verdict(7, "synthetic learning", ok,
            f"300 train / 100 test: PredCls R@20 {predcls:.4f} (>= 0.90), "
            f"SGCls R@20 {sgcls:.4f} (>= 0.60), recall monotone in K ({mono}), "
            f"{elapsed:.0f}s (bound 300s, one core)")


# ---------------------------------------------------------------------------
# 9. end-to-end determinism


GEN_CFG = """\
num_scenes = 16
min_objects = 3
max_objects = 4
n_object_classes = 4
n_predicates = 3
feature_noise = 0.4
dropout = 0.1
d_obj = 8
seed = 0
"""

SRF_CFG = """\
epochs = 3
lr = 0.05
d_emb = 4
d_union = 8
d_rel = 8
d_pe = 4
mask_res = 12
conv1_channels = 2
conv2_channels = 2
"""

TRAIN_CFG = """\
epochs = 3
lr = 0.02
"""


def _pipeline(root):
    root.mkdir()
    cfg = root / "gen.cfg"
    cfg.write_text(GEN_CFG)
    (root / "srf.cfg").write_text(SRF_CFG)
    (root / "train.cfg").write_text(TRAIN_CFG)
    data = str(root / "scenes.jsonl")
    srf = str(root / "filter.ckpt")
    model = str(root / "model.ckpt")
    metrics = str(root / "metrics")
    assert run(["gen", "--out", data, "--config", str(cfg)]) == 0
    assert run(["train-srf", "--data", data, "--out", srf,
                "--config", str(root / "srf.cfg")]) == 0
    assert run(["train", "--data", data, "--srf-model", srf, "--out", model,
                "--config", str(root / "train.cfg")]) == 0
    assert run(["eval", "--data", data, "--model", model, "--out", metrics,
                "--k", "5,20", "--workers", "1"]) == 0
    return data, model, metrics


def test_criterion_9_determinism(tmp_path, capsys):
    data, model, m1 = _pipeline(tmp_path / "a")
    _, _, m2 = _pipeline(tmp_path / "b")
    with open(m1, "rb") as f1, open(m2, "rb") as f2:
        bytes1, bytes2 = f1.read(), f2.read()
    m4 = str(tmp_path / "a" / "metrics4")
    assert run(["eval", "--data", data, "--model", model, "--out", m4,
                "--k", "5,20", "--workers", "4"]) == 0
    with open(m4, "rb") as f4:
        bytes4 = f4.read()
    capsys.readouterr()
    ok = bytes1 == bytes2 and bytes1 == bytes4
    verdict(9, "determinism", ok,
            f"two seeded gen->train->eval runs wrote identical metric files "
            f"({bytes1 == bytes2}); 1 vs 4 eval workers identical "
            f"({bytes1 == bytes4})")
