"""Command line behavior: settings precedence, exit codes, file outputs."""

import json
import os
import re
import warnings

import numpy as np
import pytest

from sgg.checkpoint import load_params, save_model, save_params, save_srf_checkpoint
from sgg.cli import format_directions, parse_directions, run
from sgg.config import Dims, ModelConfig
from sgg.filter import init_srf_params
from sgg.model import init_model_params
from sgg.scenes import EmbeddingTable, load_scenes

GEN_CFG = """\
# tiny corpus for fast end-to-end runs
num_scenes = 12
min_objects = 3
max_objects = 4
n_object_classes = 3
n_predicates = 3
feature_noise = 0.3
dropout = 0.1
d_obj = 8
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
epochs = 2
lr = 0.02
"""


def write(path, text):
    path.write_text(text)
    return str(path)


def gen_corpus(tmp_path, name="scenes.jsonl", **edits):
    """A corpus drawn from ``GEN_CFG``, with ``edits`` in place of its settings."""
    lines = [ln for ln in GEN_CFG.splitlines() if ln.split(" = ")[0] not in edits]
    cfg = write(tmp_path / f"{name}.cfg",
                "\n".join(lines + [f"{k} = {v}" for k, v in edits.items()]) + "\n")
    out = str(tmp_path / name)
    assert run(["gen", "--out", out, "--config", cfg, "--seed", "0"]) == 0
    return out


# ---------------------------------------------------------------------------
# gen


def test_gen_is_deterministic_and_echoes_settings(tmp_path, capsys):
    a = gen_corpus(tmp_path, "a.jsonl")
    b = gen_corpus(tmp_path, "b.jsonl")
    out = capsys.readouterr().out
    assert "config num_scenes = 12" in out
    assert "config seed = 0" in out
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()
    assert len(load_scenes(a)) == 12


def test_gen_flag_overrides_config(tmp_path, capsys):
    cfg = write(tmp_path / "gen.cfg", GEN_CFG + "seed = 5\n")
    out = str(tmp_path / "c.jsonl")
    assert run(["gen", "--out", out, "--config", cfg, "--seed", "9"]) == 0
    assert "config seed = 9" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# pipeline


def test_full_pipeline_tiny(tmp_path, capsys):
    data = gen_corpus(tmp_path)
    srf_cfg = write(tmp_path / "srf.cfg", SRF_CFG)
    train_cfg = write(tmp_path / "train.cfg", TRAIN_CFG)
    srf_ckpt = str(tmp_path / "filter.ckpt")
    model_ckpt = str(tmp_path / "model.ckpt")
    metrics = str(tmp_path / "metrics")
    preds = str(tmp_path / "preds.txt")

    assert run(["train-srf", "--data", data, "--out", srf_ckpt,
                "--config", srf_cfg]) == 0
    assert run(["train", "--data", data, "--srf-model", srf_ckpt,
                "--out", model_ckpt, "--config", train_cfg]) == 0
    assert run(["eval", "--data", data, "--model", model_ckpt, "--out", metrics,
                "--k", "1,5", "--workers", "2"]) == 0
    assert run(["predict", "--data", data, "--model", model_ckpt,
                "--mode", "predcls", "--out", preds]) == 0
    capsys.readouterr()

    with open(metrics) as fh:
        lines = fh.read().splitlines()
    pat = re.compile(r"^(sggen|sgcls|predcls)\.recall@(1|5) = "
                     r"[0-9.e+-]+$")
    recall_lines = [ln for ln in lines if pat.match(ln)]
    assert len(recall_lines) == 6  # three modes x two cutoffs
    assert any(ln.startswith("map@0.5 = ") for ln in lines)
    assert "scenes = 12" in lines
    for ln in recall_lines:  # values parse back exactly
        assert 0.0 <= float(ln.split(" = ")[1]) <= 1.0

    with open(metrics + ".txt") as fh:
        assert "mode" in fh.read()
    with open(preds) as fh:
        first = fh.readline()
    assert first.startswith("scene ")


def test_eval_metrics_independent_of_worker_count(tmp_path, capsys):
    data = gen_corpus(tmp_path)
    srf_cfg = write(tmp_path / "srf.cfg", SRF_CFG)
    srf_ckpt = str(tmp_path / "filter.ckpt")
    model_ckpt = str(tmp_path / "model.ckpt")
    assert run(["train-srf", "--data", data, "--out", srf_ckpt,
                "--config", srf_cfg]) == 0
    assert run(["train", "--data", data, "--srf-model", srf_ckpt,
                "--out", model_ckpt, "--config",
                write(tmp_path / "t.cfg", TRAIN_CFG)]) == 0
    m1 = str(tmp_path / "m1")
    m4 = str(tmp_path / "m4")
    assert run(["eval", "--data", data, "--model", model_ckpt, "--out", m1,
                "--k", "5", "--workers", "1"]) == 0
    assert run(["eval", "--data", data, "--model", model_ckpt, "--out", m4,
                "--k", "5", "--workers", "4"]) == 0
    capsys.readouterr()
    with open(m1) as f1, open(m4) as f4:
        assert f1.read() == f4.read()


def test_train_without_filter_requires_explicit_no_srf(tmp_path, capsys):
    data = gen_corpus(tmp_path)
    code = run(["train", "--data", data, "--out", str(tmp_path / "m.ckpt")])
    err = capsys.readouterr().err
    assert code == 1
    assert "--no-srf" in err


def test_train_no_srf_echoes_directions(tmp_path, capsys):
    data = gen_corpus(tmp_path)
    cfg = write(tmp_path / "t.cfg", TRAIN_CFG + SRF_CFG.replace("epochs = 3\nlr = 0.05\n", ""))
    assert run(["train", "--data", data, "--no-srf", "--out",
                str(tmp_path / "m.ckpt"), "--config", cfg,
                "--directions", "ro,oo", "--iters", "1"]) == 0
    out = capsys.readouterr().out
    assert "config directions = oo,ro" in out  # canonical order
    assert "config iterations = 1" in out
    assert "config use_srf = false" in out


SETTINGS = {
    "gen": "num_scenes min_objects max_objects n_object_classes n_predicates feature_noise "
           "box_jitter dropout seed d_obj confusable",
    "train-srf": "epochs lr momentum seed negative_ratio match_iou n_classes n_predicates d_obj "
                 "d_emb d_union d_rel d_pe mask_res conv1_channels conv2_channels",
    "train": "epochs lr momentum seed negative_ratio match_iou n_classes n_predicates d_obj "
             "d_emb d_union d_rel d_pe mask_res conv1_channels conv2_channels iterations "
             "directions use_language use_prede use_srf srf_top_k srf_threshold srf_in_predcls",
    "eval": "iterations directions use_language use_prede use_srf mode k workers",
    "predict": "mode directions",
}


def _echoed(out):
    return dict(line[len("config "):].split(" = ", 1) for line in out.splitlines()
                if line.startswith("config "))


def test_each_subcommand_echoes_its_settings_and_takes_them_back(tmp_path, capsys):
    """The echo lists each setting once; every one of them except use_srf is
    also a config key, and feeding the echo back as a config file changes nothing."""
    data = gen_corpus(tmp_path)
    ckpt = str(tmp_path / "m.ckpt")
    runs = {"gen": (["gen", "--out", str(tmp_path / "g.jsonl")], []),
            "train-srf": (["train-srf", "--data", data, "--out", str(tmp_path / "f.ckpt")],
                          ["--config", write(tmp_path / "s.cfg", SRF_CFG)]),
            "train": (["train", "--data", data, "--no-srf", "--out", ckpt],
                      ["--iters", "1", "--no-language", "--config",
                       write(tmp_path / "t.cfg", NO_SRF_CFG)]),
            "eval": (["eval", "--data", data, "--model", ckpt, "--out", str(tmp_path / "e")], []),
            "predict": (["predict", "--data", data, "--model", ckpt], [])}
    for command, (args, settings) in runs.items():
        capsys.readouterr()
        assert run(args + settings) == 0, command
        echoed = _echoed(capsys.readouterr().out)
        assert sorted(echoed) == sorted(SETTINGS[command].split()), command
        if command in ("gen", "train-srf", "train"):
            again = write(tmp_path / "again.cfg", "".join(
                f"{key} = {value}\n" for key, value in echoed.items() if key != "use_srf"))
            assert run(args + ["--config", again]) == 0, command
            assert _echoed(capsys.readouterr().out) == echoed, command


# ---------------------------------------------------------------------------
# errors


def test_unknown_flag_exits_1(tmp_path, capsys):
    assert run(["gen", "--out", str(tmp_path / "x"), "--bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "no_such_setting = 3\n")
    assert run(["gen", "--out", str(tmp_path / "x"), "--config", cfg]) == 1
    assert "unknown key 'no_such_setting'" in capsys.readouterr().err


def test_malformed_config_line_exits_1(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", "seed 3\n")
    assert run(["gen", "--out", str(tmp_path / "x"), "--config", cfg]) == 1
    assert "line 1" in capsys.readouterr().err


def test_missing_data_file_exits_1(tmp_path, capsys):
    code = run(["train-srf", "--data", str(tmp_path / "absent.jsonl"),
                "--out", str(tmp_path / "f.ckpt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_k_list_exits_1(tmp_path, capsys):
    data = gen_corpus(tmp_path)
    capsys.readouterr()
    # model flag is checked by argparse before --k parsing, so reuse the data
    code = run(["eval", "--data", data, "--model", data, "--out",
                str(tmp_path / "m"), "--k", "20,zero"])
    assert code == 1


def _break_to_list(rec):
    return [rec["id"]]


def _break_nan_label_dist(rec):
    rec["proposals"][0]["label_dist"] = [float("nan")] * len(rec["proposals"][0]["label_dist"])


def _break_feature_lengths(rec):
    rec["proposals"][1]["feature"] = rec["proposals"][1]["feature"][:-1]


def _break_label_dist_lengths(rec):
    rec["proposals"][1]["label_dist"] = [0.5, 0.5]


@pytest.mark.parametrize("breaker", [
    _break_to_list, _break_nan_label_dist, _break_feature_lengths, _break_label_dist_lengths,
])
def test_malformed_corpus_line_exits_1_naming_the_line(tmp_path, capsys, breaker):
    lines = open(gen_corpus(tmp_path)).read().splitlines()
    rec = json.loads(lines[1])
    broken = breaker(rec)
    path = write(tmp_path / "broken.jsonl",
                 "\n".join([lines[0], json.dumps(rec if broken is None else broken)]) + "\n")
    capsys.readouterr()
    assert run(["train-srf", "--data", path, "--out", str(tmp_path / "f.ckpt")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "line 2" in err, err


def _set_field(*path_and_value):
    """A corpus edit setting the value at a JSON path of the record."""
    *path, value = path_and_value

    def edit(rec):
        for key in path[:-1]:
            rec = rec[key]
        rec[path[-1]] = value
    return edit


def _both(first, second):
    """A corpus edit making ``first`` and then ``second``."""
    def edit(rec):
        first(rec)
        second(rec)
    return edit


NOT_AN_INTEGER = [("3", '"3"'), (True, "true"), (1.5, "1.5"), (1e308, "1e+308")]
BOX_RULE = "box needs x < x + w, y < y + h and 0 < w * h, all finite, got [x, y, w, h] = "


@pytest.mark.parametrize("edit,message", [
    (lambda rec: rec["gt_triplets"][0].pop("sub"), "gt_triplets[0].sub: missing"),
    (_set_field("proposals", 0, 3), "proposals[0]: expected an object, got 3"),
    *[(_set_field("gt_triplets", 0, "pred", value),
       f"gt_triplets[0].pred: expected an integer, got {shown}")
      for value, shown in NOT_AN_INTEGER],
    *[(_set_field("gt_objects", 0, "class", value),
       f"gt_objects[0].class: expected an integer, got {shown}")
      for value, shown in NOT_AN_INTEGER],
    (_set_field("proposals", 1, "feature", 0, "1"),
     'proposals[1].feature[0]: expected a finite number, got "1"'),
    (_set_field("proposals", 1, "feature", 0, 10**400),
     f"proposals[1].feature[0]: expected a finite number, got {10**400}"),
    # both areas underflow to 0, so their IoU divided by 0
    (_both(_set_field("proposals", 0, "box", [0, 0, 1e-170, 1e-170]),
           _set_field("gt_objects", 0, "box", [0, 0, 1e-170, 1e-170])),
     f"proposals[0].box: {BOX_RULE}[0.0, 0.0, 1e-170, 1e-170]"),
    # x + w == x, so the two boxes' union frame divided 0 by 0
    (_both(_set_field("proposals", 0, "box", [1, 1, 1e-170, 1e-170]),
           _set_field("proposals", 1, "box", [1, 1, 1e-170, 1e-170])),
     f"proposals[0].box: {BOX_RULE}[1.0, 1.0, 1e-170, 1e-170]"),
    # the far corner and the area are inf
    (_set_field("proposals", 0, "box", [1e308] * 4),
     f"proposals[0].box: {BOX_RULE}[1e+308, 1e+308, 1e+308, 1e+308]"),
], ids=["no-sub", "proposal-3", *[f"pred-{v!r}" for v, _ in NOT_AN_INTEGER],
        *[f"class-{v!r}" for v, _ in NOT_AN_INTEGER], "feature-str",
        "feature-1e400", "box-area-underflows", "box-corner-equals-origin",
        "box-corner-overflows"])
@pytest.mark.parametrize("command", [["train-srf"], ["train", "--no-srf"]],
                         ids=["train-srf", "train"])
def test_corpus_field_error_exits_1_naming_file_line_and_field(tmp_path, capsys, edit,
                                                               message, command):
    lines = open(gen_corpus(tmp_path)).read().splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec)
    path = write(tmp_path / "broken.jsonl", "\n".join(lines) + "\n")
    capsys.readouterr()
    assert run([*command, "--data", path, "--out", str(tmp_path / "x.ckpt")]) == 1
    assert capsys.readouterr().err == f"error: {path}: line 2 ({rec['id']}): {message}\n"


def _edited_line_2(tmp_path, data, edit):
    """A copy of the corpus whose second record went through ``edit``."""
    lines = open(data).read().splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec)
    return write(tmp_path / "edited.jsonl", "\n".join(lines) + "\n"), rec["id"]


def _wide_features(rec):
    for p in rec["proposals"]:
        p["feature"] = [1.5e308] * len(p["feature"])


def test_union_visual_that_overflows_exits_1_naming_the_scene(tmp_path, capsys):
    """The mean of two proposal features overflows although each is finite."""
    path, scene_id = _edited_line_2(tmp_path, gen_corpus(tmp_path), _wide_features)
    dims = Dims(n_classes=4, n_predicates=3, d_obj=8, d_emb=3, d_union=16, d_rel=6,
                d_pe=3, mask_res=12, conv1_channels=2, conv2_channels=2)
    config = ModelConfig(dims=dims, use_srf=False)
    model = str(tmp_path / "m.ckpt")
    save_model(model, init_model_params(config, seed=0), config)
    message = f"error: {scene_id}: union visual features overflow float64\n"
    for command in (["predict", "--model", model], ["train", "--no-srf", "--config",
                                                    write(tmp_path / "t.cfg", "d_union = 16\n")]):
        capsys.readouterr()
        assert run([*command, "--data", path, "--out", str(tmp_path / "out")]) == 1, command
        assert capsys.readouterr().err == message, command


def _wide_pair_visuals(rec):
    n = len(rec["proposals"])
    rec["pair_visual"] = {f"{i},{j}": [1e308] * 6 for i in range(n) for j in range(n) if i != j}


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_predictions_that_overflow_exit_1_naming_scene_and_mode(tmp_path, capsys, command):
    path, scene_id = _edited_line_2(tmp_path, gen_corpus(tmp_path), _wide_pair_visuals)
    model = _checkpoint_with(tmp_path / "m.ckpt", "meta.dims", lambda v: v)
    capsys.readouterr()
    assert run([command, "--data", path, "--model", model, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {scene_id}: sggen predictions are not finite\n"
    assert not (tmp_path / "out").exists()


def _filter_model(path, dims):
    """A small model checkpoint with the relation filter on."""
    config = ModelConfig(dims=dims)
    save_model(path, init_model_params(config, seed=0,
                                       srf=init_srf_params(dims, np.random.default_rng(0))),
               config)
    return str(path)


def _boxes_spanning_past_float64(rec):
    rec["proposals"][0]["box"] = [-1.7e308, 0, 1e300, 1]
    rec["proposals"][1]["box"] = [1.7e308, 0, 1e300, 1]


@pytest.mark.parametrize("command", [["eval"], ["predict", "--mode", "sggen"],
                                     ["train-srf"], ["train", "--no-srf"]],
                         ids=["eval", "predict", "train-srf", "train"])
def test_boxes_spanning_more_than_float64_exit_1_naming_file_line_and_scene(tmp_path, capsys,
                                                                           command):
    """Each box is valid, but together they span an infinite union box."""
    path, scene_id = _edited_line_2(tmp_path, gen_corpus(tmp_path),
                                    _boxes_spanning_past_float64)
    dims = Dims(n_classes=4, n_predicates=3, d_obj=8, d_emb=3, d_union=6, d_rel=6,
                d_pe=3, mask_res=12, conv1_channels=2, conv2_channels=2)
    model = ["--model", _filter_model(tmp_path / "m.ckpt", dims)] if command[0] in (
        "eval", "predict") else []
    capsys.readouterr()
    assert run([*command, *model, "--data", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 2: {scene_id}: the boxes span more than float64 holds: "
        f"max(x + w) - min(x) or max(y + h) - min(y) overflows\n")


@pytest.mark.parametrize("no_srf", [[], ["--no-srf"]], ids=["filter", "no-filter"])
def test_embeddings_that_overflow_exit_1_naming_the_scene(tmp_path, capsys, no_srf):
    """Each table entry is finite, but a label distribution summing to just
    over 1 carries the expected embedding past float64."""
    lines = open(gen_corpus(tmp_path)).read().splitlines()
    rec = json.loads(lines[0])  # the first scene, before any prediction can overflow
    rec["proposals"][0]["label_dist"][0] += 9e-7
    path = write(tmp_path / "heavy.jsonl", "\n".join([json.dumps(rec), *lines[1:]]) + "\n")
    dims = Dims(n_classes=4, n_predicates=3, d_obj=8, d_emb=3, d_union=6, d_rel=6,
                d_pe=3, mask_res=12, conv1_channels=2, conv2_channels=2)
    model = _filter_model(tmp_path / "m.ckpt", dims)
    arrays = load_params(model)
    arrays["embed.table"][:] = np.finfo(float).max
    save_params(model, arrays)
    capsys.readouterr()
    assert run(["eval", *no_srf, "--data", path, "--model", model,
                "--out", str(tmp_path / "out")]) == 1
    what = "language prior (label_dist @ embedding) overflows" if no_srf \
        else "relation filter inputs overflow"
    assert capsys.readouterr().err == f"error: {rec['id']}: {what} float64\n"


def test_first_step_non_finite_loss_blames_the_scene_not_the_learning_rate(tmp_path, capsys):
    """No update precedes the first step, so no learning rate can help."""
    lines = open(gen_corpus(tmp_path)).read().splitlines()
    rec = json.loads(lines[0])  # the first step's scene
    n = len(rec["proposals"])
    rec["pair_visual"] = {f"{i},{j}": [1e308] * 8 for i in range(n) for j in range(n) if i != j}
    path = write(tmp_path / "wide.jsonl", "\n".join([json.dumps(rec), *lines[1:]]) + "\n")
    cfg = write(tmp_path / "t.cfg", SRF_CFG)
    capsys.readouterr()
    assert run(["train", "--no-srf", "--data", path, "--out", str(tmp_path / "m.ckpt"),
                "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        f"error: epoch 1, scene {rec['id']}: training loss is nan; the scene's inputs "
        f"overflow at the initial parameters\n")
    assert not (tmp_path / "m.ckpt").exists()


def test_a_scene_id_used_twice_exits_1_naming_both_lines(tmp_path, capsys):
    text = open(gen_corpus(tmp_path)).read()
    path = write(tmp_path / "twice.jsonl", text + text)
    model = _checkpoint_with(tmp_path / "m.ckpt", "meta.dims", lambda v: v)
    capsys.readouterr()
    assert run(["eval", "--data", path, "--model", model, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"error: {path}: line 13: scene id 'scene-0000' is "
                                       f"already used on line 1\n")


@pytest.mark.parametrize("command,setting,field", [
    (["gen"], "d_obj = 1000000000000", "d_obj = 1000000000000"),
    (["train-srf"], "d_emb = 1000000000000", "d_emb = 1000000000000"),
    (["train", "--no-srf"], "d_rel = 1000000000000", "d_rel = 1000000000000"),
    (["train-srf"], "", "n_predicates = 1000000000000000000000000000001"),
    (["gen"], "num_scenes = 1\nmax_objects = 1000000000000", "max_objects = 1000000000000"),
], ids=["gen-d_obj", "train-srf-d_emb", "train-d_rel", "corpus-pred", "gen-max_objects"])
def test_sizes_beyond_memory_exit_1_naming_the_field(tmp_path, capsys, command, setting,
                                                     field):
    """Refused before anything is allocated."""
    lines = open(gen_corpus(tmp_path)).read().splitlines()
    if not setting:  # the predicate count is the corpus's largest pred plus one
        rec = json.loads(lines[1])
        rec["gt_triplets"][0]["pred"] = 10**30
        lines[1] = json.dumps(rec)
    data = write(tmp_path / "big.jsonl", "\n".join(lines) + "\n")
    cfg = write(tmp_path / "big.cfg", setting + "\n")
    args = [] if command == ["gen"] else ["--data", data]
    capsys.readouterr()
    assert run([*command, *args, "--out", str(tmp_path / "out"), "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} is too large: "), err
    assert "of physical memory" in err


def test_diverging_training_exits_1_and_writes_no_checkpoint(tmp_path, capsys):
    data = gen_corpus(tmp_path)
    cfg = write(tmp_path / "t.cfg", SRF_CFG.replace("lr = 0.05", "lr = 100"))
    out = tmp_path / "m.ckpt"
    assert run(["train", "--data", data, "--no-srf", "--out", str(out),
                "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert re.search(r"epoch \d+, scene scene-\d+: training loss is", err), err
    assert not os.path.exists(out)


def test_diverging_training_reports_without_numpy_warnings(tmp_path):
    """The loss check reports a diverging run on its own: no overflow warning
    escapes a training step before it."""
    data = gen_corpus(tmp_path)
    cfg = write(tmp_path / "t.cfg", SRF_CFG.replace("lr = 0.05", "lr = 100"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["train", "--data", data, "--no-srf", "--out", str(tmp_path / "m.ckpt"),
                    "--config", cfg]) == 1


def test_diverging_filter_training_with_finite_losses_exits_1(tmp_path, capsys):
    """Every loss stays finite, but the epoch mean grows far past the first
    step's loss: the run stops before a checkpoint is written."""
    data = str(tmp_path / "s.jsonl")
    assert run(["gen", "--out", data, "--config",
                write(tmp_path / "g.cfg", "num_scenes = 12\n")]) == 0
    out = tmp_path / "f.ckpt"
    assert run(["train-srf", "--data", data, "--out", str(out), "--config",
                write(tmp_path / "s.cfg", "lr = 1e3\n")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: relation filter training, epoch 1: mean loss"), err
    assert "diverging" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("key,command", [
    ("negative_ratio", ["train-srf"]), ("lr", ["train-srf"]),
    ("srf_threshold", ["train", "--no-srf"])])
def test_non_finite_float_setting_exits_1_naming_the_key(tmp_path, capsys, key, command, value):
    data = gen_corpus(tmp_path)
    cfg = write(tmp_path / "t.cfg", f"{key} = {value}\n")
    capsys.readouterr()
    assert run([*command, "--data", data, "--out", str(tmp_path / "x.ckpt"),
                "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == f"error: config {key}: expected a finite number, got '{value}'\n"


def _checkpoint_with(path, key, edit):
    """A small model checkpoint whose ``key`` vector is replaced by ``edit(vector)``."""
    dims = Dims(n_classes=4, n_predicates=3, d_obj=8, d_emb=3, d_union=6, d_rel=6,
                d_pe=3, mask_res=12, conv1_channels=2, conv2_channels=2)
    config = ModelConfig(dims=dims, use_srf=False)
    save_model(path, init_model_params(config, seed=0), config)
    arrays = load_params(path)
    arrays[key] = edit(arrays[key])
    save_params(path, arrays)
    return str(path)


def _n_classes_1(v):
    return np.concatenate([[1.0], v[1:]])


@pytest.mark.parametrize("key,edit,message", [
    ("meta.flags", lambda v: v[:5], r"'meta\.flags' has shape \(5,\), expected \(11,\)"),
    ("meta.dims", lambda v: v[:3], r"'meta\.dims' has shape \(3,\), expected \(10,\)"),
    ("meta.dims", _n_classes_1, r"'meta\.dims': n_classes must lie in \[2, inf\), got 1\n"),
    ("meta.dims", lambda v: np.concatenate([v[:5], [1e12], v[6:]]),
     r"'meta\.dims': d_rel = 1000000000000 is too large: "),
    ("meta.flags", lambda v: np.concatenate([v[:7], [1.0], v[8:]]),
     r"checkpoint is missing parameter 'srf\.l1\.w'\n"),
], ids=["short-flags", "short-dims", "one-class", "huge-d_rel", "use_srf-without-filter"])
def test_malformed_checkpoint_meta_exits_1_naming_file_and_key(tmp_path, capsys, key, edit,
                                                                message):
    data = gen_corpus(tmp_path)
    model = _checkpoint_with(tmp_path / "m.ckpt", key, edit)
    capsys.readouterr()
    assert run(["eval", "--data", data, "--model", model, "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert re.match(f"error: {re.escape(model)}: {message}", err), err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_listing_a_parameter_twice_exits_1(tmp_path, capsys, command):
    """A second copy of a parameter's block would silently replace the first."""
    data = gen_corpus(tmp_path)
    model = _checkpoint_with(tmp_path / "m.ckpt", "meta.dims", lambda v: v)
    lines = open(model).read().splitlines()
    start = next(k for k, ln in enumerate(lines) if ln.startswith("param relfeat.conv1.b "))
    end = next(k for k in range(start + 1, len(lines)) if lines[k].startswith("param "))
    with open(model, "a") as fh:
        fh.write("\n".join(lines[start:end]) + "\n")
    capsys.readouterr()
    assert run([command, "--data", data, "--model", model, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {model}: line {len(lines) + 1}: parameter 'relfeat.conv1.b' "
                   f"is listed twice\n"), err


def _with_gt_class(tmp_path, data, cls):
    """A copy of the corpus whose second scene has a gt object of class ``cls``."""
    lines = open(data).read().splitlines()
    rec = json.loads(lines[1])
    rec["gt_objects"][0]["class"] = cls
    lines[1] = json.dumps(rec)
    return write(tmp_path / "bad_class.jsonl", "\n".join(lines) + "\n"), rec["id"]


NO_SRF_CFG = TRAIN_CFG + SRF_CFG.replace("epochs = 3\nlr = 0.05\n", "")


def test_train_gt_class_out_of_range_names_the_scene(tmp_path, capsys):
    data, scene_id = _with_gt_class(tmp_path, gen_corpus(tmp_path), 9)
    capsys.readouterr()
    assert run(["train", "--data", data, "--no-srf", "--out", str(tmp_path / "m.ckpt"),
                "--config", write(tmp_path / "t.cfg", NO_SRF_CFG)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scene_id}: gt object class 9 out of range for 4 "
                          f"classes"), err


@pytest.mark.parametrize("command", [["eval", "--k", "5"], ["predict", "--mode", "predcls"]],
                         ids=["eval", "predict"])
def test_eval_gt_class_out_of_range_names_the_scene(tmp_path, capsys, command):
    good = gen_corpus(tmp_path)
    model = str(tmp_path / "m.ckpt")
    assert run(["train", "--data", good, "--no-srf", "--out", model,
                "--config", write(tmp_path / "t.cfg", NO_SRF_CFG)]) == 0
    data, scene_id = _with_gt_class(tmp_path, good, 9)
    capsys.readouterr()
    assert run([command[0], "--data", data, "--model", model, "--out",
                str(tmp_path / "out"), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scene_id}: gt object class 9 out of range for 4 "
                          f"classes"), err


# corpora whose label distributions are shorter than a 7-class model's: 7
# proposals of 5 classes fill 5 rows of 7, and 3-4 proposals of 4 classes fill
# no whole number of rows
OTHER_CLASSES = [{"n_object_classes": 4, "min_objects": 7, "max_objects": 7, "dropout": 0},
                 {}]


@pytest.mark.parametrize("edits", OTHER_CLASSES, ids=["7-of-5-classes", "4-classes"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_eval_with_the_filter_on_other_classes_names_the_scene(tmp_path, capsys, command,
                                                               edits):
    data = gen_corpus(tmp_path, "other.jsonl", **edits)
    dims = Dims(n_classes=7, n_predicates=3, d_obj=8, d_emb=3, d_union=6, d_rel=6,
                d_pe=3, mask_res=12, conv1_channels=2, conv2_channels=2)
    config = ModelConfig(dims=dims, use_srf=True)
    model = str(tmp_path / "m.ckpt")
    save_model(model, init_model_params(
        config, seed=0, srf=init_srf_params(dims, np.random.default_rng(0))), config)
    capsys.readouterr()
    assert run([command, "--data", data, "--model", model, "--out", str(tmp_path / "o")]) == 1
    length = 1 + edits.get("n_object_classes", 3)
    assert capsys.readouterr().err == (f"error: scene-0000: label_dist length {length} != "
                                       f"7 classes\n")


@pytest.mark.parametrize("edits", OTHER_CLASSES, ids=["7-of-5-classes", "4-classes"])
def test_train_srf_on_mixed_class_counts_names_the_scene(tmp_path, capsys, edits):
    """The filter takes its class count from the first scene, so the first
    scene of the other corpus is refused."""
    seven = open(gen_corpus(tmp_path, "seven.jsonl", n_object_classes=6)).read()
    other = open(gen_corpus(tmp_path, "other.jsonl", **edits)).read().replace(
        '"id": "scene-', '"id": "other-')
    data = write(tmp_path / "mixed.jsonl", seven + other)
    capsys.readouterr()
    assert run(["train-srf", "--data", data, "--out", str(tmp_path / "f.ckpt"),
                "--config", write(tmp_path / "srf.cfg", SRF_CFG)]) == 1
    length = 1 + edits.get("n_object_classes", 3)
    assert capsys.readouterr().err == (f"error: other-0000: label_dist length {length} != "
                                       f"7 classes\n")


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_eval_and_predict_take_no_config_or_seed(tmp_path, capsys, command):
    """Neither reads settings or draws anything, so both flags are usage errors."""
    data = gen_corpus(tmp_path)
    model = _checkpoint_with(tmp_path / "m.ckpt", "meta.dims", lambda v: v)
    for flag in (["--config", str(tmp_path / "none.cfg")], ["--seed", "9"]):
        capsys.readouterr()
        assert run([command, "--data", data, "--model", model, "--out",
                    str(tmp_path / "out"), *flag]) == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(flag)}" in err, err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_eval_workers_below_1_is_a_usage_error(tmp_path, capsys, workers):
    data = gen_corpus(tmp_path)
    model = _checkpoint_with(tmp_path / "m.ckpt", "meta.dims", lambda v: v)
    capsys.readouterr()
    out = tmp_path / "m"
    assert run(["eval", "--data", data, "--model", model, "--out", str(out),
                "--workers", workers]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --workers must be at least 1, got {workers}\n"
    assert "config workers" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("n_classes", 6), ("d_emb", 5)])
def test_train_settings_against_the_filter_dims_exit_1(tmp_path, capsys, key, value):
    data = gen_corpus(tmp_path)
    dims = Dims(n_classes=4, n_predicates=3, d_emb=4)
    srf = str(tmp_path / "filter.ckpt")
    save_srf_checkpoint(srf, init_srf_params(dims, np.random.default_rng(0)),
                        EmbeddingTable.seeded(4, 4, 0), dims)
    capsys.readouterr()
    assert run(["train", "--data", data, "--srf-model", srf, "--out", str(tmp_path / "m.ckpt"),
                "--config", write(tmp_path / "t.cfg", f"{key} = {value}\n")]) == 1
    assert capsys.readouterr().err == (f"error: {srf}: the filter has {key} = "
                                       f"{getattr(dims, key)}, the settings ask for {value}\n")


# ---------------------------------------------------------------------------
# direction strings


def test_parse_directions():
    assert parse_directions("all") == frozenset({"oo", "ro", "or", "rr"})
    assert parse_directions("none") == frozenset()
    assert parse_directions(" rr , oo ") == frozenset({"rr", "oo"})
    with pytest.raises(ValueError, match="unknown message direction"):
        parse_directions("oo,xx")


def test_format_directions_canonical_order():
    assert format_directions(frozenset({"rr", "oo"})) == "oo,rr"
    assert format_directions(frozenset()) == "none"
    rng = np.random.default_rng(0)
    for _ in range(20):
        sub = frozenset(d for d in ("oo", "ro", "or", "rr") if rng.random() < 0.5)
        assert parse_directions(format_directions(sub)) == sub


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_command_passes(capsys):
    assert run(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "gradient check passed" in out
    assert "pipeline max_rel_err" in out


def test_gradcheck_negative_seed_is_a_usage_error(capsys):
    assert run(["gradcheck", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be at least 0, got -1\n"
    assert captured.out == ""
