"""Command line behavior: settings precedence, exit codes, file outputs."""

import json
import os
import re

import numpy as np
import pytest

from sgg.cli import format_directions, parse_directions, run
from sgg.scenes import load_scenes

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


def gen_corpus(tmp_path, name="scenes.jsonl"):
    cfg = write(tmp_path / "gen.cfg", GEN_CFG)
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


def _break_image_size_scalar(rec):
    rec["image_size"] = 5


def _break_image_size_short(rec):
    rec["image_size"] = [1]


def _break_to_list(rec):
    return [rec["id"]]


def _break_nan_label_dist(rec):
    rec["proposals"][0]["label_dist"] = [float("nan")] * len(rec["proposals"][0]["label_dist"])


def _break_feature_lengths(rec):
    rec["proposals"][1]["feature"] = rec["proposals"][1]["feature"][:-1]


def _break_label_dist_lengths(rec):
    rec["proposals"][1]["label_dist"] = [0.5, 0.5]


@pytest.mark.parametrize("breaker", [
    _break_image_size_scalar, _break_image_size_short, _break_to_list,
    _break_nan_label_dist, _break_feature_lengths, _break_label_dist_lengths,
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


def test_diverging_training_exits_1_and_writes_no_checkpoint(tmp_path, capsys):
    data = gen_corpus(tmp_path)
    cfg = write(tmp_path / "t.cfg", SRF_CFG.replace("lr = 0.05", "lr = 100"))
    out = tmp_path / "m.ckpt"
    assert run(["train", "--data", data, "--no-srf", "--out", str(out),
                "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert re.search(r"epoch \d+, scene scene-\d+: training loss is", err), err
    assert not os.path.exists(out)


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
