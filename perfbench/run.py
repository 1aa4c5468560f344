"""Benchmark of the ``sgg`` pipeline: one workload, one seed, one process.

    python3 perfbench/run.py --workload recipe --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``.  Set-up
runs ``SETUP_REPS`` times (``setup_s`` is their median), alternating with the
first cycles; whole cycles of the workload run in a closed loop with one
caller until they have taken ``--seconds`` and at least ``MIN_CYCLES`` ran.
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics and nothing is wrapped; with ``--trace 1``
they are the per-layer metrics of a traced run (see ``README.md``).  Earlier
lines carry the provenance record, sample counts and the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

SETUP_REPS = 3
# every cycle repeats the same work
MIN_CYCLES = 3
TMP_ROOT = ".perfbench_tmp"  # under the working directory, removed at exit

END_TO_END = [
    ("setup_s", "s"), ("cycle_s", "s"), ("train_steps_per_s", "steps/s"),
    ("eval_scenes_per_s", "scenes/s"), ("predict_ms_p50", "ms"), ("predict_ms_p90", "ms"),
    ("peak_rss_mb", "MB"), ("sggen_r20", "recall"), ("sgcls_r20", "recall"),
    ("predcls_r20", "recall"),
]

# self seconds per measured cycle, one metric per span
SELF_TIMED = [
    "autodiff.backward", "autodiff.optimizer_step", "autodiff.conv2d",
    "filter.pair_inputs", "filter.score_pairs", "filter.prune_graph",
    "relation_features.rasterize_mask", "relation_features.union_visual",
    "relation_features.spatial_features",
    "message_passing.build_message_graph", "message_passing.update_objects",
    "message_passing.update_relations",
    "inference.object_logits", "inference.relation_logits", "inference.score_triplets",
    "model.candidate_pairs", "model.forward_scene",
    "training.prepare_scene", "training.scene_loss", "training.train_srf",
    "training.train_main",
    "evaluation.scene_for_mode", "evaluation.match_triplets", "evaluation.detection_map",
    "scenes.iou",
]
# inclusive seconds per measured cycle: a thin wrapper's self time says nothing
INCLUSIVE_TIMED = ["evaluation.predict_sggen", "evaluation.predict_sgcls",
                   "evaluation.predict_predcls"]
# self seconds per set-up
SETUP_TIMED = ["scenes.load_scenes", "synthetic.generate_dataset", "checkpoint.save_model",
               "checkpoint.load_model"]
# name -> (unit, function of the traced run's tallies)
COUNTS = {
    "autodiff.tape_nodes_per_step": (
        "count", lambda r: r.m.nodes_in["training.scene_loss"]
        / max(r.m.calls["training.scene_loss"], 1)),
    "autodiff.conv2d_im2col_bytes": ("B", lambda r: r.m.maxima["autodiff.conv2d_im2col_bytes"]),
    "filter.pairs_scored": ("count", lambda r: r.m.mean("filter.pairs_scored",
                                                        "filter.prune_graph")),
    "filter.pairs_kept": ("count", lambda r: r.m.mean("filter.pairs_kept",
                                                      "filter.prune_graph")),
    "filter.keep_ratio": ("ratio", lambda r: r.m.sums["filter.pairs_kept"]
                          / max(r.m.sums["filter.pairs_scored"], 1)),
    "filter.recall": ("ratio", lambda r: r.filter_recall),
    "relation_features.rasterize_mask_calls": (
        "count", lambda r: r.m.calls["relation_features.rasterize_mask"] / r.cycles),
    "relation_features.pair_rows": (
        "count", lambda r: r.m.mean("relation_features.pair_rows",
                                    "relation_features.spatial_features")),
    **{f"message_passing.rows_{d}": (
        "count", lambda r, d=d: r.m.mean(f"message_passing.rows_{d}",
                                         "message_passing.build_message_graph"))
       for d in ("oo", "ro", "or", "rr")},
    "inference.triplets_emitted": ("count", lambda r: r.m.mean("inference.triplets_emitted",
                                                               "inference.score_triplets")),
    "model.edges_per_scene": ("count", lambda r: r.m.mean("model.edges_per_scene",
                                                          "model.forward_scene")),
    "scenes.iou_calls": ("count", lambda r: r.m.calls["scenes.iou"] / r.cycles),
    "checkpoint.bytes": ("B", lambda r: r.checkpoint_bytes),
    "trace.overhead_s": ("s", lambda r: r.traced_cycle_s - r.untraced_cycle_s),
    "trace.overhead_share": ("ratio", lambda r: r.traced_cycle_s / r.untraced_cycle_s - 1.0),
}


def per_layer_units() -> dict[str, str]:
    units = {f"{n}_s": "s" for n in SELF_TIMED + INCLUSIVE_TIMED + SETUP_TIMED}
    units.update({name: unit for name, (unit, _) in COUNTS.items()})
    return units


def provenance(seed: int) -> dict:
    import numpy as np

    head = "unknown"
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(".git", ref[5:])) as f:
                ref = f.read().strip()
        head = ref
    except OSError:
        pass
    lines = 0
    for name in sorted(os.listdir(os.path.join("src", "sgg"))):
        if name.endswith(".py"):
            with open(os.path.join("src", "sgg", name)) as f:
                lines += sum(1 for _ in f)
    return {"nproc": len(os.sched_getaffinity(0)),
            "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2 ** 20,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": head, "seed": seed, "src_sgg_lines": lines}


class TracedRun:
    """Tallies of a traced run, for the COUNTS functions."""

    def __init__(self, measured, setup, cycles, setups, filter_recall, checkpoint_bytes,
                 traced_cycle_s, untraced_cycle_s):
        self.m, self.s, self.cycles, self.setups = measured, setup, cycles, setups
        self.filter_recall = filter_recall
        self.checkpoint_bytes = checkpoint_bytes
        self.traced_cycle_s = traced_cycle_s
        self.untraced_cycle_s = untraced_cycle_s


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import Instrumentation, Tracer, filter_recall
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[workload_name]()
    probe = getattr(workload, "probe", None)
    rec = Recorder()
    # set-up and measured cycles are tallied apart; nothing is installed
    # outside a traced phase
    setup_instr = Instrumentation(Tracer()) if trace else None
    cycle_instr = Instrumentation(Tracer()) if trace else None
    setup_times, digests, untraced_cycle_s = [], set(), []
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP_ROOT)

    def phase(instr, fn):
        if instr:
            instr.install()
        try:
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0
        finally:
            if instr:
                instr.uninstall()

    try:
        # Set-ups alternate with the first cycles, so the measured cycles are
        # spread over the whole run and not bunched into one stretch of it.
        while len(setup_times) < SETUP_REPS or sum(rec.cycle_s) < seconds \
                or len(rec.cycle_s) < MIN_CYCLES:
            if len(setup_times) < SETUP_REPS:
                state, seconds_taken = phase(setup_instr, lambda: workload.setup(seed, tmpdir, rec))
                setup_times.append(seconds_taken)
                digests.add(state["model_digest"])
            if trace:
                # an untraced cycle next to each traced one gives the tracing
                # overhead under the same machine load
                untraced_cycle_s.append(phase(None, lambda: workload.cycle(state, rec))[1])
            rec.cycle_s.append(phase(cycle_instr, lambda: workload.cycle(state, rec))[1])
            if probe:
                probe(state, rec)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run still uses it
    if len(digests) != 1:
        rec.fail(1, f"set-ups trained different models: {sorted(map(str, digests))}")

    info = {"cycles": len(rec.cycle_s), "setups": SETUP_REPS,
            "predict_inputs": len(rec.predict_ms),
            "predict_calls": sum(map(len, rec.predict_ms.values())),
            "train_calls": len(rec.train_calls), "eval_calls": len(rec.eval_calls),
            "eval_digest": rec.digests[:1], "model_digest": state["model_digest"],
            "problems": rec.problems}

    if trace:
        measured = cycle_instr.tracer
        traced = TracedRun(measured, setup_instr.tracer, len(rec.cycle_s), SETUP_REPS,
                           filter_recall(cycle_instr.kept_pairs), state["checkpoint_bytes"],
                           statistics.median(rec.cycle_s),
                           statistics.median(untraced_cycle_s))
        metrics = per_layer_metrics(traced)
        wall = sum(rec.cycle_s)
        info["layers"] = {name: {"calls": measured.calls[name],
                                 "self_s": round(measured.self_s[name], 6),
                                 "share": round(measured.self_s[name] / wall, 4)}
                          for name in sorted(measured.calls)}
    else:
        metrics = end_to_end_metrics(rec, setup_times)
    print(json.dumps(info, sort_keys=True))
    correct = rec.failed == 0 and rec.recalls is not None and bool(rec.predict_ms) \
        and bool(rec.train_calls)
    return {"correct": correct, "attempted": rec.attempted, "failed": rec.failed,
            "metrics": metrics}


def rate(calls: list) -> float:
    """Work per second over all calls of a run (NaN when none ran)."""
    import numpy as np

    work, seconds = np.sum(calls, axis=0) if calls else (np.nan, np.nan)
    return float(work / seconds)


def end_to_end_metrics(rec, setup_times: list) -> dict:
    import numpy as np

    r = rec.recalls or {m: {20: float("nan")} for m in ("sggen", "sgcls", "predcls")}
    predict_ms = rec.predict_calls_ms() or [np.nan]
    # Rates and cycle time are totals over the run, not medians of calls: on
    # a shared machine speed drifts over tens of seconds, and the total
    # averages that drift out better than a median of few calls.
    values = {
        "setup_s": statistics.median(setup_times),
        "cycle_s": statistics.fmean(rec.cycle_s),
        "train_steps_per_s": rate(rec.train_calls),
        "eval_scenes_per_s": rate(rec.eval_calls),
        "predict_ms_p50": float(np.percentile(predict_ms, 50)),
        "predict_ms_p90": float(np.percentile(predict_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sggen_r20": r["sggen"][20], "sgcls_r20": r["sgcls"][20],
        "predcls_r20": r["predcls"][20],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(t: TracedRun) -> dict:
    units = per_layer_units()
    values = {f"{n}_s": t.m.self_s[n] / t.cycles for n in SELF_TIMED}
    values.update({f"{n}_s": t.m.span_s[n] / t.cycles for n in INCLUSIVE_TIMED})
    values.update({f"{n}_s": t.s.self_s[n] / t.setups for n in SETUP_TIMED})
    values.update({name: fn(t) for name, (_, fn) in COUNTS.items()})
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def limit_blas_threads() -> None:
    """One compute thread per caller: the BLAS pool would otherwise add its
    own threads to every caller (dense_eval runs one eval worker per core).
    Takes effect only in a process that has not loaded numpy yet."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sgg", "__init__.py")):
        print("perfbench: src/sgg not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance(args.seed), "workload": args.workload}))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    limit_blas_threads()
    sys.exit(main())
