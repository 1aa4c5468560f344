"""Checkpoint files: named parameter groups in a plain text container.

Format (whitespace-delimited, one header line):

    sgg-checkpoint 1
    param <name> <dim0> <dim1> ...
    <row-major values, shortest round-trip float repr, 8 per line>
    param <next-name> ...

A scalar entry has no dims and exactly one value.  Values are written with
``repr`` so loading reproduces every float bit-exactly.  Model checkpoints
additionally carry two ``meta.*`` vectors encoding the dimension and
behavior configuration, and ``embed.table`` holds the class-embedding rows.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .config import ALL_DIRECTIONS, Dims, ModelConfig
from .filter import init_srf_params
from .model import ModelParams, init_model_params
from .nn import TwoLayerMlp
from .scenes import EmbeddingTable

_MAGIC = "sgg-checkpoint 1"


def save_params(path, arrays: dict[str, np.ndarray]) -> None:
    """Write the arrays; a non-finite value anywhere refuses the whole file."""
    arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()}
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: parameter '{name}' holds a non-finite value; "
                             f"nothing written")
    with open(path, "w") as fh:
        fh.write(_MAGIC + "\n")
        for name, arr in arrays.items():
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"param {name}{' ' + dims if dims else ''}\n")
            flat = arr.reshape(-1)
            for lo in range(0, flat.size, 8):
                fh.write(" ".join(repr(float(v)) for v in flat[lo : lo + 8]) + "\n")


def load_params(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0].strip() != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (missing '{_MAGIC}' header)")
    out: dict[str, np.ndarray] = {}
    ln = 1
    while ln < len(lines):
        row = lines[ln].split()
        ln += 1
        if not row:
            continue
        if row[0] != "param" or len(row) < 2:
            raise ValueError(f"{path}: line {ln}: expected a 'param <name> <dims...>' line")
        name = row[1]
        try:
            shape = tuple(int(d) for d in row[2:])
            if min(shape, default=0) < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: line {ln}: bad dimension in '{lines[ln - 1]}'") from None
        need = int(np.prod(shape)) if shape else 1
        vals: list[float] = []
        while len(vals) < need and ln < len(lines):
            for tok in lines[ln].split():
                try:
                    vals.append(float(tok))
                except ValueError:
                    raise ValueError(f"{path}: line {ln + 1}: bad float '{tok}'") from None
            ln += 1
        if len(vals) != need:
            raise ValueError(f"{path}: parameter '{name}' has {len(vals)} values, needs {need}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{path}: parameter '{name}' holds a non-finite value")
        out[name] = np.array(vals).reshape(shape)
    return out


# ---------------------------------------------------------------------------
# model and filter checkpoints


def _dims_vector(d: Dims) -> np.ndarray:
    return np.array([d.n_classes, d.n_predicates, d.d_obj, d.d_emb, d.d_union, d.d_rel,
                     d.d_pe, d.mask_res, d.conv1_channels, d.conv2_channels], dtype=float)


def _from_meta(arrays, key: str, size: int, path, build):
    """``build`` applied to the stored ``meta.*`` vector ``key``; its errors
    name the file and the key."""
    if key not in arrays:
        raise ValueError(f"{path}: checkpoint is missing '{key}'")
    v = arrays[key]
    if v.shape != (size,):
        raise ValueError(f"{path}: '{key}' has shape {v.shape}, expected ({size},)")
    try:
        return build([float(x) for x in v])
    except ValueError as e:
        raise ValueError(f"{path}: '{key}': {e}") from None


def _dims_from_vector(v: list[float]) -> Dims:
    f = [int(round(x)) for x in v]
    return Dims(n_classes=f[0], n_predicates=f[1], d_obj=f[2], d_emb=f[3], d_union=f[4],
                d_rel=f[5], d_pe=f[6], mask_res=f[7], conv1_channels=f[8],
                conv2_channels=f[9])


def _flags_vector(c: ModelConfig) -> np.ndarray:
    dirs = [1.0 if d in c.directions else 0.0 for d in ALL_DIRECTIONS]
    return np.array([c.iterations, *dirs, float(c.use_language), float(c.use_prede),
                     float(c.use_srf), c.srf_top_k, c.srf_threshold,
                     float(c.srf_in_predcls)])


def _config_from_flags(dims: Dims, flags: list[float]) -> ModelConfig:
    dirs = frozenset(d for d, on in zip(ALL_DIRECTIONS, flags[1:5]) if on > 0.5)
    return ModelConfig(dims=dims, iterations=int(round(flags[0])),
                       directions=dirs, use_language=flags[5] > 0.5,
                       use_prede=flags[6] > 0.5, use_srf=flags[7] > 0.5,
                       srf_top_k=int(round(flags[8])), srf_threshold=flags[9],
                       srf_in_predcls=flags[10] > 0.5)


def save_model(path, params: ModelParams, config: ModelConfig) -> None:
    save_params(path, {"meta.dims": _dims_vector(config.dims),
                       "meta.flags": _flags_vector(config), **params.named_arrays()})


def _fill(named_arrays, arrays, path) -> None:
    """Copy each stored array into the initialized one of the same name."""
    for name, target in named_arrays.items():
        if name not in arrays:
            raise ValueError(f"{path}: checkpoint is missing parameter '{name}'")
        if arrays[name].shape != target.shape:
            raise ValueError(f"{path}: parameter '{name}' has shape {arrays[name].shape}, "
                             f"expected {target.shape}")
        target[...] = arrays[name]


def load_model(path) -> tuple[ModelParams, ModelConfig]:
    arrays = load_params(path)
    dims = _from_meta(arrays, "meta.dims", 10, path, _dims_from_vector)
    config = _from_meta(arrays, "meta.flags", 11, path, partial(_config_from_flags, dims))
    srf = init_srf_params(dims, np.random.default_rng(0)) if "srf.l1.w" in arrays else None
    params = init_model_params(config, seed=0, srf=srf)
    _fill(params.named_arrays(), arrays, path)
    return params, config


def _srf_arrays(srf: TwoLayerMlp, embed: EmbeddingTable) -> dict[str, np.ndarray]:
    """The arrays of a filter checkpoint besides ``meta.dims``, by name."""
    return {**{name: t.data for name, t in srf.named("srf").items()},
            "embed.table": embed.matrix}


def save_srf_checkpoint(path, srf: TwoLayerMlp, embed: EmbeddingTable, dims: Dims) -> None:
    save_params(path, {"meta.dims": _dims_vector(dims), **_srf_arrays(srf, embed)})


def load_srf_checkpoint(path) -> tuple[TwoLayerMlp, EmbeddingTable, Dims]:
    arrays = load_params(path)
    dims = _from_meta(arrays, "meta.dims", 10, path, _dims_from_vector)
    srf = init_srf_params(dims, np.random.default_rng(0))
    embed = EmbeddingTable.seeded(dims.n_classes, dims.d_emb, 0)
    _fill(_srf_arrays(srf, embed), arrays, path)
    return srf, embed, dims
