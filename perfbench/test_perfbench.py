"""Tests of the benchmark's own code: tracer arithmetic, wrapper removal,
seeded inputs, output checks and the BENCHMARK.json metric lists.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sgg import EvalResult, ModelConfig, TrainConfig, evaluation, model, scenes, training  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_covered_child_spans():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    t = tracer.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    t.begin("outer")
    t.begin("a")
    t.end()
    t.begin("b")
    t.begin("c")
    t.end()
    t.end()
    t.end()
    assert t.span_s == {"outer": 10, "a": 3, "b": 4, "c": 1}
    assert t.self_s == {"outer": 3, "a": 3, "b": 3, "c": 1}
    assert sum(t.self_s.values()) == t.span_s["outer"]
    assert dict(t.calls) == {"outer": 1, "a": 1, "b": 1, "c": 1}


def test_repeated_span_names_sum_and_count():
    t = tracer.Tracer(clock=FakeClock([0, 2, 3, 7]))
    for _ in range(2):
        t.begin("x")
        t.end()
    assert t.self_s["x"] == 6 and t.calls["x"] == 2


def test_span_counts_tape_nodes_created_inside_it():
    t = tracer.Tracer(clock=FakeClock(range(10)))
    t.begin("outer")
    t.nodes += 2
    t.begin("inner")
    t.nodes += 5
    t.end()
    t.end()
    assert t.nodes_in == {"inner": 5, "outer": 7}


def _attribute_snapshot():
    instr = tracer.Instrumentation(tracer.Tracer())
    owners = [(instr._modules[m], attr) for m, attr, _, _ in tracer.TARGETS]
    owners += [(instr._autodiff.SgdMomentum, "step"), (instr._autodiff.Tensor, "_from_op")]
    return {(id(o), a): (vars(o)[a] if isinstance(o, type) else getattr(o, a))
            for o, a in owners}


def test_traced_pipeline_records_spans_and_leaves_no_wrappers():
    before = _attribute_snapshot()
    gen = workloads.RECIPE_GEN
    items = workloads.fixed_scenes(gen, 0, 4)
    config = ModelConfig(dims=workloads.RECIPE_DIMS, use_srf=False)
    t = tracer.Tracer()
    instr = tracer.Instrumentation(t)
    instr.install()
    try:
        params, _ = training.train_main(items, config, TrainConfig(epochs=1, seed=0))
        evaluation.evaluate(items[:2], params, config, ks=(20,))
        model.predict_scene(items[0], params, config, "sggen")
    finally:
        instr.uninstall()
    assert _attribute_snapshot() == before
    for span in ("training.train_main", "training.scene_loss", "autodiff.backward",
                 "autodiff.conv2d", "autodiff.optimizer_step", "model.forward_scene",
                 "evaluation.predict_sgcls", "scenes.iou"):
        assert t.calls[span] > 0, span
    # conv2d runs forward and backward once per training step
    assert t.calls["autodiff.conv2d"] >= 2 * 2 * t.calls["training.scene_loss"]
    assert t.nodes_in["training.scene_loss"] > 0
    assert t.stack == []


class TinyWorkload:
    """A workload small enough for a unit test."""

    name = "tiny"

    def setup(self, seed, tmpdir, rec):
        items = workloads.jsonl_round_trip(workloads.fixed_scenes(workloads.RECIPE_GEN, 0, 3),
                                           tmpdir, "tiny")
        config = ModelConfig(dims=workloads.RECIPE_DIMS, use_srf=False)
        return dict(items=items, config=config, model_digest=None, checkpoint_bytes=0)

    def cycle(self, st, rec):
        items, config = st["items"], st["config"]
        params = rec.train(lambda: training.train_main(items[:1], config,
                                                       TrainConfig(epochs=1)), 1)
        rec.evaluate(items, params, config, workers=1)
        rec.predict_all(items, params, config)


@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_its_metric_set_and_leaves_no_wrappers(trace, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TinyWorkload)
    monkeypatch.chdir(tmp_path)
    before = _attribute_snapshot()
    result = run.run("tiny", seed=0, seconds=0.01, trace=trace)
    assert _attribute_snapshot() == before
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.per_layer_units() if trace else dict(run.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert os.listdir(tmp_path) == []


def first_shapes(gen, count):
    return [workloads.scene_shape(s) for s in workloads.fixed_scenes(gen, 0, count)]


def test_seeded_draws_are_deterministic_and_keep_the_shapes():
    gen = workloads.RECIPE_GEN
    shapes = first_shapes(gen, 12)
    a = workloads.draw_scenes(gen, shapes, seed=3)
    b = workloads.draw_scenes(gen, shapes, seed=3)
    c = workloads.draw_scenes(gen, shapes, seed=4)
    dump = [json.dumps(scenes._record_to_json(s), sort_keys=True) for s in a]
    assert dump == [json.dumps(scenes._record_to_json(s), sort_keys=True) for s in b]
    assert dump != [json.dumps(scenes._record_to_json(s), sort_keys=True) for s in c]
    assert [workloads.scene_shape(s) for s in a] == shapes
    assert [workloads.scene_shape(s) for s in c] == shapes


def test_dense_train_shapes_are_the_generator_octiles():
    # the middle scene of each quarter of the first 400, ordered by proposals
    ordered = sorted(first_shapes(workloads.DENSE_GEN, 400),
                     key=lambda s: (s[1], s[0]))
    shapes = [ordered[50 + 100 * k] for k in range(4)]
    assert tuple(shapes) == workloads.DENSE_TRAIN_SHAPES
    n = np.array([p for _, p in shapes])
    assert n.mean() == 17.25 and (n * (n - 1)).mean() == 287


def test_output_checks_flag_bad_results():
    good = EvalResult(recalls={"sggen": {20: 0.2, 50: 0.3, 100: 0.3}}, map50=0.5, n_scenes=1)
    assert workloads.check_eval(good) is None
    bad = EvalResult(recalls={"sggen": {20: 0.4, 50: 0.3, 100: 0.3}}, map50=0.5, n_scenes=1)
    assert "monotone" in workloads.check_eval(bad)
    nan = EvalResult(recalls={"sggen": {20: 0.2, 50: 0.3, 100: 0.3}}, map50=np.nan, n_scenes=1)
    assert workloads.check_eval(nan)

    item = workloads.fixed_scenes(workloads.RECIPE_GEN, 0, 1)[0]
    config = ModelConfig(dims=workloads.RECIPE_DIMS, use_srf=False, srf_top_k=2)
    params = model.init_model_params(config, 0)
    pg = model.predict_scene(item, params, config, "sggen")
    assert len(pg.edges) == 2
    assert workloads.check_prediction(pg, config) is None
    pg.edges.append((0, 1))
    assert "srf_top_k" in workloads.check_prediction(pg, config)


def test_recorder_counts_a_raising_operation_as_failed():
    rec = workloads.Recorder()

    def boom():
        raise ValueError("no trainable scenes")

    assert rec.train(boom, steps=5) is None
    assert (rec.attempted, rec.failed) == (5, 5) and not rec.train_calls


def test_every_workload_predicts_enough_calls_for_p90():
    # at least 10 of a run's predict_scene calls lie beyond p90: every
    # (scene, mode) is predicted once per cycle, in at least MIN_CYCLES cycles
    for w in workloads.WORKLOADS.values():
        assert 3 * w.n_predict * run.MIN_CYCLES >= 100, w.name


def test_benchmark_json_lists_the_metrics_the_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "recipe", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["--workload", "nope", "--seed", "1", "--seconds", "1"],
                                  ["--workload", "recipe", "--seed", "1", "--seconds", "0"]])
def test_rejects_bad_arguments(argv, monkeypatch, capsys):
    monkeypatch.chdir(os.path.dirname(HERE))
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""
