"""Random settings, corpus lines and damaged checkpoints: a bad input is a
ValueError that names the key or the file, never another exception.

The settings fuzz drives each subcommand's settings path (config file ->
merged settings -> config dataclasses) through ``cli.run`` with the work the
settings would start (generation, training, saving) replaced by stubs, so
any value the dataclasses accept costs nothing.  Integer values stay small:
a valid size that fits in memory would be allocated for real.  The corpus
fuzz replaces one JSON value of a valid corpus and trains both stages on it
for real; a bad corpus exits 1 with a message naming the file, the line and
the field.  The fuzz at the edges of float64 puts huge, tiny and subnormal
finite values into one record and runs both trainings, eval and predict:
each finishes with finite outputs or exits 1 naming the file and line or a
scene.  The checkpoint fuzz edits the tokens of small valid checkpoints.
"""

import json
import re
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sgg import cli
from sgg.checkpoint import load_model, load_params, load_srf_checkpoint, save_model, \
    save_srf_checkpoint
from sgg.config import Dims, ModelConfig
from sgg.filter import init_srf_params
from sgg.model import init_model_params
from sgg.scenes import EmbeddingTable, save_scenes
from sgg.synthetic import SynthConfig, generate_dataset
from sgg.training import TrainConfig

DIMS = Dims(n_classes=3, n_predicates=2, d_obj=2, d_emb=2, d_union=2, d_rel=2, d_pe=2,
            mask_res=10, conv1_channels=1, conv2_channels=1)

# each command's keys, plus keys it rejects (train's include use_srf)
KEYS = {"gen": [*cli.render_settings(SynthConfig()), "no_such_key"],
        "train-srf": [*cli.render_settings(TrainConfig()), *cli.render_settings(DIMS), "srf_top_k"],
        "train": [*cli.render_settings(TrainConfig()), *cli.render_settings(ModelConfig(DIMS)),
                  "num_scenes"]}

VALUES = st.one_of(
    st.sampled_from(["-1", "0", "1", "2", "3", "12", "40", "0.5", "-0.5", "1.5", "inf", "-inf",
                     "nan", "1e400", "true", "No", "all", "none", "rr,oo", "oo,xx", "0x10"]),
    st.floats().map(repr),
    # at most three characters, so no digit run reaches a costly size
    st.text(string.ascii_letters + string.digits + ".,-+_ ", min_size=1, max_size=3),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "scenes.jsonl"
    save_scenes(corpus, generate_dataset(SynthConfig(num_scenes=3, d_obj=DIMS.d_obj)))
    srf = root / "filter.ckpt"
    save_srf_checkpoint(srf, init_srf_params(DIMS, np.random.default_rng(0)),
                        EmbeddingTable.seeded(DIMS.n_classes, DIMS.d_emb, 0), DIMS)
    return root, str(corpus), str(srf)


def _stub_work(mp):
    mp.setattr(cli, "generate_dataset", lambda cfg: [])
    mp.setattr(cli, "train_srf", lambda *args: (None, []))
    mp.setattr(cli, "train_main", lambda *args, **kw: (None, []))
    mp.setattr(cli, "save_srf_checkpoint", lambda *args: None)
    mp.setattr(cli, "save_model", lambda *args: None)


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["gen", "train-srf", "train --no-srf", "train --srf-model"]),
       data=st.data())
def test_random_settings_exit_0_or_1_naming_key_or_file(inputs, capsys, command, data):
    root, corpus, srf = inputs
    keys = KEYS[command.split()[0]]
    entries = data.draw(st.lists(st.tuples(st.sampled_from(keys), VALUES), min_size=1,
                                 max_size=6))
    cfg = root / "fuzz.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in entries))
    argv = {"gen": ["gen"],
            "train-srf": ["train-srf", "--data", corpus],
            "train --no-srf": ["train", "--data", corpus, "--no-srf"],
            "train --srf-model": ["train", "--data", corpus, "--srf-model", srf]}[command]
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as mp:
        _stub_work(mp)
        code = cli.run([*argv, "--out", str(root / "out"), "--config", str(cfg)])
    out, err = capsys.readouterr()
    if code == 0:
        for key, _ in entries:
            assert f"config {key} = " in out
    else:
        assert code == 1, err
        assert str(cfg) in err or any(key in err for key, _ in entries), err


# tiny sizes and one epoch; the corpus fixes n_classes, n_predicates and d_obj
TRAIN_TINY = "".join(f"{key} = {value}\n" for key, value in {
    **{k: v for k, v in cli.render_settings(DIMS).items()
       if k not in ("n_classes", "n_predicates", "d_obj")},
    "epochs": 1}.items())

# small values only: a valid but huge class, predicate or size would allocate it
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                    st.floats(-3, 12, allow_nan=False),
                    st.text(string.ascii_letters + string.digits + ",.-", max_size=3))
JSON_VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=5),
                        st.dictionaries(st.sampled_from(["sub", "obj", "box", "0,1", "x"]),
                                        SCALARS, max_size=3))


def _json_paths(value, path=()):
    """The path of ``value`` and of every value nested in it."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, (*path, key))


def _value_at(value, path):
    for key in path:
        value = value[key]
    return value


def _replaced(value, path, new):
    if not path:
        return new
    value[path[0]] = _replaced(value[path[0]], path[1:], new)
    return value


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corpus_with_one_value_replaced_trains_or_exits_1(inputs, capsys, data):
    root, corpus, _ = inputs
    with open(corpus) as fh:
        lines = fh.read().splitlines()
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    record = json.loads(lines[at])
    path = data.draw(st.sampled_from(list(_json_paths(record))), label="path")
    lines[at] = json.dumps(_replaced(record, path, data.draw(JSON_VALUES, label="value")))
    bad = root / "fuzz.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    cfg = root / "tiny.cfg"
    cfg.write_text(TRAIN_TINY)
    for command in (["train-srf"], ["train", "--no-srf"]):
        capsys.readouterr()
        code = cli.run([*command, "--data", str(bad), "--out", str(root / "fuzz.ckpt"),
                        "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 0 or (code == 1 and err.startswith("error: ")), err
        if code == 1:
            _assert_names_the_field(err, str(bad), at + 1, record, path)


# the path of a record field in an error message, such as gt_triplets[0].sub
FIELD_PATH = re.compile(r"\b(id|proposals|gt_objects|gt_triplets|pair_visual)\b"
                        r"(\[\d+\]|\.\w+)*")


def _assert_names_the_field(err, corpus, line, record, path):
    """A corpus error names the file and the line (checks made when training
    reads a scene name its id instead) and, unless the whole record was
    replaced, a field path."""
    scene_id = record.get("id") if isinstance(record, dict) else None
    located = corpus in err and re.search(rf"line {line}\b", err)
    assert located or err.startswith(f"error: {scene_id}: "), err
    if path:
        assert FIELD_PATH.search(err), err


# finite values at the edges of float64: near its largest, and tiny or subnormal
EXTREMES = st.sampled_from([sign * v for v in (1e308, 1.7e308, 1e-170, 5e-324)
                            for sign in (1, -1)])


@pytest.fixture(scope="module")
def trained_model(inputs):
    """A model with the filter on, trained for one epoch on the intact corpus."""
    root, corpus, _ = inputs
    cfg = root / "tiny.cfg"
    cfg.write_text(TRAIN_TINY)
    srf, model = str(root / "extreme-filter.ckpt"), str(root / "extreme-model.ckpt")
    assert cli.run(["train-srf", "--data", corpus, "--out", srf, "--config", str(cfg)]) == 0
    assert cli.run(["train", "--data", corpus, "--srf-model", srf, "--out", model,
                    "--config", str(cfg)]) == 0
    return model


def _finite_floats_in(path):
    """Every number token of a written output file is finite."""
    for token in re.findall(r"[-+\w.]+", open(path).read()):
        try:
            value = float(token)
        except ValueError:
            continue
        assert np.isfinite(value), (path, token)


# (boxes only?, index into those floats, value): up to six floats of a record
EDITS_AT_EDGES = st.lists(st.tuples(st.booleans(), st.integers(0, 10**4), EXTREMES),
                          min_size=1, max_size=6)


@settings(deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(at=st.integers(0, 10), edits=EDITS_AT_EDGES)
# proposals 0 and 1 become [-1.7e308, 0, 1e300, 1] and [1.7e308, 0, 1e300, 1]:
# each box is valid, but together they span past float64
@example(at=0, edits=[(True, k, v) for k, v in enumerate([-1.7e308, 0.0, 1e300, 1.0,
                                                          1.7e308, 0.0, 1e300, 1.0])])
def test_corpus_with_extreme_floats_runs_or_exits_1(inputs, trained_model, capsys, at, edits):
    """Floats of one record become extreme finite values; every command runs
    to finite outputs or exits 1 naming the file and line or the scene."""
    root, corpus, _ = inputs
    with open(corpus) as fh:
        lines = fh.read().splitlines()
    at %= len(lines)
    ids = [json.loads(line)["id"] for line in lines]
    record = json.loads(lines[at])
    floats = [p for p in _json_paths(record) if isinstance(_value_at(record, p), float)]
    boxes = [p for p in floats if "box" in p]
    for boxes_only, k, value in edits:
        paths = boxes if boxes_only else floats
        record = _replaced(record, paths[k % len(paths)], value)
    lines[at] = json.dumps(record)
    bad = root / "extreme.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = root / "extreme.out"
    for command in (["train-srf", "--config", str(root / "tiny.cfg")],
                    ["train", "--no-srf", "--config", str(root / "tiny.cfg")],
                    ["eval", "--model", trained_model],
                    ["predict", "--model", trained_model]):
        if out.exists():
            out.unlink()
        capsys.readouterr()
        code = cli.run([*command, "--data", str(bad), "--out", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            _finite_floats_in(out)
            continue
        assert code == 1 and err.startswith("error: "), (command, err)
        located = str(bad) in err and re.search(rf"line {at + 1}\b", err)
        # training names the scene whose step failed, which may come after the
        # scene whose huge input made the parameters huge
        assert located or any(re.search(rf"\b{sid}\b", err) for sid in ids), (command, err)


@pytest.fixture(scope="module")
def checkpoints(inputs):
    """The text of a small valid model checkpoint and of the filter checkpoint."""
    root, _, srf = inputs
    config = ModelConfig(dims=DIMS, iterations=1, directions=frozenset({"oo", "rr"}))
    params = init_model_params(config, seed=0, srf=init_srf_params(DIMS, np.random.default_rng(1)))
    save_model(root / "model.ckpt", params, config)
    return {"model": (root / "model.ckpt").read_text(), "filter": open(srf).read()}


def _mutate(text, edits):
    """Apply token edits to the lines of a checkpoint text."""
    lines = text.split("\n")
    for op, line, token, new in edits:
        row = lines[line % len(lines)].split(" ")
        at = token % len(row)
        if op == "drop line":
            del lines[line % len(lines)]
            continue
        if op == "copy line":
            lines.insert(line % len(lines), lines[token % len(lines)])
            continue
        row[at:at + (op != "insert")] = [] if op == "delete" else [new]
        lines[line % len(lines)] = " ".join(row)
    return "\n".join(lines)


EDITS = st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete", "drop line",
                                            "copy line"]),
                           st.integers(0, 200), st.integers(0, 20),
                           st.sampled_from(["0", "1", "2", "3", "5", "11", "-1", "0.5", "1e3",
                                            "2.7", "nan", "x", "", "param", "meta.dims",
                                            "meta.flags", "embed.table", "srf.l1.w"])),
                 min_size=1, max_size=4)


@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["model", "filter"]), edits=EDITS)
def test_damaged_checkpoint_raises_value_error_naming_the_file(tmp_path, checkpoints, kind,
                                                                edits):
    path = tmp_path / "bad.ckpt"
    path.write_text(_mutate(checkpoints[kind], edits))
    try:
        dims = load_params(path).get("meta.dims")
    except ValueError as e:
        assert str(path) in str(e)
        return
    # a valid meta.dims naming sizes that fit in memory would allocate them for
    # real (not tested here)
    assume(dims is None or np.abs(dims).max(initial=0) <= 32)
    try:
        (load_model if kind == "model" else load_srf_checkpoint)(path)
    except ValueError as e:
        assert str(path) in str(e)
