"""Size sweep: one all-pairs training step at default Dims per proposal count.

    python3 perfbench/sweep.py

Each n runs in its own subprocess, one at a time, so peak RSS is that of a
single step.  A scene with exactly n objects and no dropout gives n
proposals and n(n-1) ordered pairs; every pair is supervised.  The step
runs once untraced as a warm-up, then once traced.  Prints a table and, as
the last line, the rows as JSON.  Not a gated workload: n = 32 peaks near
3.3 GB.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SIZES = (4, 8, 16, 32)


def one_step(n: int) -> dict:
    from run import limit_blas_threads

    limit_blas_threads()
    import numpy as np

    from sgg import SgdMomentum, training
    from sgg.config import Dims, ModelConfig
    from sgg.model import init_model_params
    from sgg.synthetic import SynthConfig, generate_scene
    from tracer import Instrumentation, Tracer

    gen = SynthConfig(min_objects=n, max_objects=n, dropout=0.0, d_obj=64, seed=0)
    scene = generate_scene(gen, 0)
    config = ModelConfig(dims=Dims(n_classes=gen.n_classes, n_predicates=gen.n_predicates),
                         use_srf=False)
    params = init_model_params(config, 0)
    opt = SgdMomentum(params.trainable())

    def step():
        prep = training.prepare_scene(scene, params, config, 0.5)
        loss = training.scene_loss(prep, params, config, np.arange(len(prep.edges)))
        training.backward(loss)
        opt.step()

    step()
    tracer = Tracer()
    instr = Instrumentation(tracer)
    instr.install()
    try:
        t0 = time.perf_counter()
        step()
        total = time.perf_counter() - t0
    finally:
        instr.uninstall()
    ms = {name: round(1e3 * s, 3) for name, s in sorted(tracer.self_s.items())}
    mp = ("message_passing.build_message_graph", "message_passing.update_objects",
          "message_passing.update_relations")
    return {"n": n, "edges": n * (n - 1),
            "rr_rows": int(tracer.sums["message_passing.rows_rr"]),
            "step_ms": round(1e3 * total, 3),
            "conv_ms": ms.get("autodiff.conv2d", 0.0),
            "message_passing_ms": round(sum(ms.get(k, 0.0) for k in mp), 3),
            "backward_ms": round(1e3 * tracer.span_s["autodiff.backward"], 3),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "self_ms": ms}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sgg", "__init__.py")):
        print("sweep: src/sgg not found; run from the repository root", file=sys.stderr)
        return 2
    if args.one is not None:
        sys.path[:0] = [HERE, os.path.abspath("src")]
        print(json.dumps(one_step(args.one)))
        return 0
    rows = []
    print(f"{'n':>4} {'edges':>6} {'rr rows':>8} {'conv ms':>9} {'mp ms':>9} "
          f"{'backward ms':>12} {'step ms':>9} {'peak MB':>8}")
    for n in SIZES:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--one", str(n)],
                             capture_output=True, text=True, timeout=900)
        if out.returncode:
            print(f"sweep: n = {n} failed:\n{out.stderr}", file=sys.stderr)
            return 1
        row = json.loads(out.stdout.strip().splitlines()[-1])
        rows.append(row)
        print(f"{n:>4} {row['edges']:>6} {row['rr_rows']:>8} {row['conv_ms']:>9.1f} "
              f"{row['message_passing_ms']:>9.1f} {row['backward_ms']:>12.1f} "
              f"{row['step_ms']:>9.1f} {row['peak_rss_mb']:>8.1f}")
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
