"""Command line front end.

Subcommands::

    sgg gen        --out scenes.jsonl [--seed N] [--config FILE]
    sgg train-srf  --data scenes.jsonl --out filter.ckpt [--seed N] [--config FILE]
    sgg train      --data scenes.jsonl --srf-model filter.ckpt --out model.ckpt
                   [--seed N] [--iters N] [--directions LIST] [--no-language]
                   [--no-srf] [--no-prede] [--config FILE]
    sgg eval       --data scenes.jsonl --model model.ckpt --out metrics
                   [--mode sggen|sgcls|predcls|all] [--k 20,50,100]
                   [--iters N] [--directions LIST] [--no-srf] [--workers N]
    sgg predict    --data scenes.jsonl --model model.ckpt [--out FILE]
                   [--mode sggen|sgcls|predcls]
    sgg gradcheck  [--seed N]

The settings of ``gen``, ``train-srf`` and ``train`` are the fields of the
config dataclasses they build (``SynthConfig``; ``TrainConfig`` and ``Dims``;
plus ``ModelConfig``), with the dataclass defaults.  ``use_srf`` is the one
field no config key sets: ``--srf-model`` turns it on and ``--no-srf`` off;
the filter fixes ``n_classes`` and ``d_emb``.  These three and ``gradcheck``
take ``--seed``; only these three take ``--config``, a file of flat
``key = value`` lines ('#' starts a comment) that command line flags
override.  Every run echoes its effective settings as ``config key = value``
lines.  Exit codes: 0 success, 1 usage or data errors, 2 internal failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .checkpoint import (load_model, load_srf_checkpoint, save_model,
                         save_srf_checkpoint)
from .config import ALL_DIRECTIONS, Dims, ModelConfig
from .evaluation import (MODES, evaluate, format_metrics_kv, format_metrics_table,
                         scene_for_mode)
from .gradcheck import check_all_ops, pipeline_gradient_check
from .inference import format_prediction
from .model import predict_scene
from .scenes import EmbeddingTable, load_scenes, save_scenes
from .synthetic import SynthConfig, generate_dataset
from .training import TrainConfig, train_main, train_srf

GRADCHECK_TOL = 1e-4


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# settings: dataclass defaults <- config file <- command line


def read_config_file(path) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {ln}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ValueError(f"{path}: line {ln}: expected 'key = value'")
            out[key] = value
    return out


def merge_settings(defaults: dict[str, str], args) -> dict[str, str]:
    """Layer the config file and flag overrides over per-command defaults;
    a flag overrides the setting named by its argparse ``dest``."""
    settings = dict(defaults)
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            if key not in settings:
                raise ValueError(f"{args.config}: unknown key '{key}'")
            settings[key] = value
    for key in settings:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag if isinstance(flag, str) else repr(flag)
    return settings


def parse_directions(text: str) -> frozenset[str]:
    text = text.strip().lower()
    if text == "all":
        return frozenset(ALL_DIRECTIONS)
    if text in ("none", ""):
        return frozenset()
    parts = [p.strip() for p in text.split(",")]
    for p in parts:
        if p not in ALL_DIRECTIONS:
            raise ValueError(f"unknown message direction '{p}' "
                             f"(choose from {', '.join(ALL_DIRECTIONS)})")
    return frozenset(parts)


def format_directions(directions: frozenset[str]) -> str:
    kept = [d for d in ALL_DIRECTIONS if d in directions]
    return ",".join(kept) if kept else "none"


def render_settings(config) -> dict[str, str]:
    """A config's fields as settings strings, nested configs flattened in."""
    out = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            out.update(render_settings(value))
        elif isinstance(value, bool):
            out[field.name] = "true" if value else "false"
        elif isinstance(value, frozenset):
            out[field.name] = format_directions(value)
        else:
            out[field.name] = repr(value)
    return out


def parse_setting(key: str, kind: str, text: str):
    """A settings string as a value of ``kind``, a field's annotation as
    written: int, float, bool or frozenset (message directions)."""
    if kind == "frozenset":
        try:
            return parse_directions(text)
        except ValueError as e:
            raise ValueError(f"config {key}: {e}") from None
    if kind == "bool":
        if text.lower() in ("true", "1", "yes", "false", "0", "no"):
            return text.lower() in ("true", "1", "yes")
        raise ValueError(f"config {key}: expected true/false, got '{text}'")
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"config {key}: expected an integer, got '{text}'") from None
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):  # no float setting has a meaning at inf or nan
        raise ValueError(f"config {key}: expected a finite number, got '{text}'")
    return value


def config_from_settings(cls, settings: dict[str, str], **given):
    """Build ``cls`` from settings strings, each field parsed by its type;
    fields passed in ``given`` are taken as they are."""
    return cls(**given, **{f.name: parse_setting(f.name, f.type, settings[f.name])
                           for f in dataclasses.fields(cls) if f.name not in given})


def echo_settings(settings: dict[str, str]) -> None:
    for key, value in settings.items():
        print(f"config {key} = {value}")


# ---------------------------------------------------------------------------
# shared pieces

# Dims has no default class counts; this one stands in where only the other
# fields' defaults are read.
_ANY_DIMS = Dims(n_classes=2, n_predicates=1)


def _corpus_dims(scenes) -> dict[str, str]:
    """Dims settings with the sizes read off the corpus ('' where it has none)."""
    out = {**render_settings(_ANY_DIMS), "n_classes": "", "n_predicates": ""}
    for s in scenes:
        if s.proposals:
            out["n_classes"] = str(len(s.proposals[0].label_dist))
            out["d_obj"] = str(len(s.proposals[0].feature))
            break
    preds = [t.pred for s in scenes for t in s.gt_triplets]
    if preds:
        out["n_predicates"] = str(max(preds) + 1)
    return out


def _dims(settings, data) -> Dims:
    for key in ("n_classes", "n_predicates"):
        if not settings[key]:
            raise ValueError(f"cannot infer {key} from {data}; set it in the config")
    return config_from_settings(Dims, settings)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    settings = merge_settings(render_settings(SynthConfig()), args)
    echo_settings(settings)
    scenes = generate_dataset(config_from_settings(SynthConfig, settings))
    save_scenes(args.out, scenes)
    print(f"wrote {len(scenes)} scenes to {args.out}")
    return 0


def cmd_train_srf(args) -> int:
    scenes = load_scenes(args.data)
    settings = merge_settings({**render_settings(TrainConfig()), **_corpus_dims(scenes)}, args)
    dims = _dims(settings, args.data)
    echo_settings(settings)
    tcfg = config_from_settings(TrainConfig, settings)
    embed = EmbeddingTable.seeded(dims.n_classes, dims.d_emb, tcfg.seed)
    srf, history = train_srf(scenes, embed, dims, tcfg)
    for epoch, loss in enumerate(history, start=1):
        print(f"epoch {epoch} filter loss {loss:.6f}")
    save_srf_checkpoint(args.out, srf, embed, dims)
    print(f"wrote filter checkpoint to {args.out}")
    return 0


def cmd_train(args) -> int:
    scenes = load_scenes(args.data)
    srf = embed = None
    if args.srf_model:
        srf, embed, dims = load_srf_checkpoint(args.srf_model)
    elif not args.no_srf:
        raise ValueError("train: pass --srf-model, or --no-srf to skip pair filtering")
    defaults = {**render_settings(TrainConfig()), **render_settings(ModelConfig(_ANY_DIMS)),
                **(render_settings(dims) if srf is not None else _corpus_dims(scenes))}
    del defaults["use_srf"]  # --srf-model / --no-srf set it, no config key
    settings = merge_settings(defaults, args)
    config = config_from_settings(ModelConfig, settings, dims=_dims(settings, args.data),
                                  use_srf=srf is not None and not args.no_srf)
    for key in ("n_classes", "d_emb"):
        if srf is not None and getattr(config.dims, key) != getattr(dims, key):
            raise ValueError(f"{args.srf_model}: the filter has {key} = {getattr(dims, key)}, "
                             f"the settings ask for {getattr(config.dims, key)}")
    shown = render_settings(config)
    echo_settings({**settings, "directions": shown["directions"], "use_srf": shown["use_srf"]})
    tcfg = config_from_settings(TrainConfig, settings)
    if embed is None:
        embed = EmbeddingTable.seeded(config.dims.n_classes, config.dims.d_emb, tcfg.seed)
    params, history = train_main(scenes, config, tcfg, srf=srf, embed=embed)
    for epoch, loss in enumerate(history, start=1):
        print(f"epoch {epoch} loss {loss:.6f}")
    save_model(args.out, params, config)
    print(f"wrote model checkpoint to {args.out}")
    return 0


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--k: expected comma-separated integers, got '{text}'") from None
    if not ks or any(k < 1 for k in ks):
        raise ValueError("--k: cutoffs must be positive")
    return ks


def cmd_eval(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    scenes = load_scenes(args.data)
    params, config = load_model(args.model)
    config = dataclasses.replace(
        config, use_srf=config.use_srf and not args.no_srf,
        iterations=config.iterations if args.iterations is None else args.iterations,
        directions=config.directions if args.directions is None
        else parse_directions(args.directions))
    modes = MODES if args.mode == "all" else (args.mode,)
    ks = _parse_ks(args.k)
    shown = render_settings(config)
    echo_settings({**{key: shown[key] for key in ("iterations", "directions", "use_language",
                                                  "use_prede", "use_srf")},
                   "mode": args.mode, "k": ",".join(str(k) for k in ks),
                   "workers": str(args.workers)})
    result = evaluate(scenes, params, config, modes=modes, ks=ks, workers=args.workers)
    with open(args.out, "w") as fh:
        fh.write(format_metrics_kv(result))
    table = format_metrics_table(result)
    with open(args.out + ".txt", "w") as fh:
        fh.write(table + "\n")
    print(table)
    print(f"wrote metrics to {args.out}")
    return 0


def cmd_predict(args) -> int:
    scenes = load_scenes(args.data)
    params, config = load_model(args.model)
    echo_settings({"mode": args.mode,
                   "directions": format_directions(config.directions)})
    chunks = []
    for scene in scenes:
        graph = predict_scene(scene_for_mode(scene, args.mode, config), params,
                              config, args.mode)
        chunks.append(format_prediction(scene.id, graph))
    text = "\n".join(chunks) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote predictions for {len(scenes)} scenes to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    if seed < 0:
        raise UsageError(f"--seed must be at least 0, got {seed}")
    errs = check_all_ops(seed)
    for name in sorted(errs):
        print(f"op {name} max_rel_err = {errs[name]:.3e}")
    pipeline_err = pipeline_gradient_check(seed)
    print(f"pipeline max_rel_err = {pipeline_err:.3e}")
    if all(v < GRADCHECK_TOL for v in errs.values()) and pipeline_err < GRADCHECK_TOL:
        print("gradient check passed")
        return 0
    print("gradient check FAILED")
    return 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="sgg", description="scene graph generation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, model=False, srf_model=False, out=False, settings=True):
        if data:
            p.add_argument("--data", required=True, help="scene corpus (JSONL)")
        if model:
            p.add_argument("--model", required=True, help="model checkpoint")
        if srf_model:
            p.add_argument("--srf-model", help="relation filter checkpoint")
        if out:
            p.add_argument("--out", required=True, help="output path")
        if settings:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--config", help="flat 'key = value' settings file")

    p = sub.add_parser("gen", help="synthesize a scene corpus")
    common(p, out=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train-srf", help="fit the relation filter")
    common(p, data=True, out=True)
    p.set_defaults(func=cmd_train_srf)

    p = sub.add_parser("train", help="fit the full model")
    common(p, data=True, srf_model=True, out=True)
    p.add_argument("--iters", dest="iterations", type=int, default=None,
                   help="message passing iterations")
    p.add_argument("--directions", default=None,
                   help="message directions: 'all', 'none', or a comma list of "
                        "oo,ro,or,rr")
    p.add_argument("--no-language", dest="use_language", action="store_const",
                   const="false",
                   help="drop label embeddings from object-to-object messages")
    p.add_argument("--no-srf", action="store_true",
                   help="keep all confident pairs instead of the learned filter")
    p.add_argument("--no-prede", dest="use_prede", action="store_const", const="false",
                   help="classify relations without subject/object label embeddings")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="recall@K and mAP metrics")
    common(p, data=True, model=True, out=True, settings=False)
    p.add_argument("--mode", choices=MODES + ("all",), default="all")
    p.add_argument("--k", default="20,50,100", help="comma list of recall cutoffs")
    p.add_argument("--iters", dest="iterations", type=int, default=None)
    p.add_argument("--directions", default=None)
    p.add_argument("--no-srf", action="store_true")
    p.add_argument("--workers", type=int, default=1, help="evaluation threads")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write formatted scene graphs")
    common(p, data=True, model=True, settings=False)
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--mode", choices=MODES, default="sggen")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 -- boundary: map anything else to exit 2
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console_entry()
