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

import numpy as np

from .config import ALL_DIRECTIONS, Dims, ModelConfig
from .filter import SrfParams, init_srf_params
from .model import ModelParams, init_model_params
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


def _dims_from_vector(v: np.ndarray) -> Dims:
    f = [int(round(x)) for x in v]
    return Dims(n_classes=f[0], n_predicates=f[1], d_obj=f[2], d_emb=f[3], d_union=f[4],
                d_rel=f[5], d_pe=f[6], mask_res=f[7], conv1_channels=f[8],
                conv2_channels=f[9])


def _flags_vector(c: ModelConfig) -> np.ndarray:
    dirs = [1.0 if d in c.directions else 0.0 for d in ALL_DIRECTIONS]
    return np.array([c.iterations, *dirs, float(c.use_language), float(c.use_prede),
                     float(c.use_srf), c.srf_top_k, c.srf_threshold,
                     float(c.srf_in_predcls)])


def _config_from_meta(dims_vec: np.ndarray, flags: np.ndarray) -> ModelConfig:
    dirs = frozenset(d for d, on in zip(ALL_DIRECTIONS, flags[1:5]) if on > 0.5)
    return ModelConfig(dims=_dims_from_vector(dims_vec), iterations=int(round(flags[0])),
                       directions=dirs, use_language=flags[5] > 0.5,
                       use_prede=flags[6] > 0.5, use_srf=flags[7] > 0.5,
                       srf_top_k=int(round(flags[8])), srf_threshold=float(flags[9]),
                       srf_in_predcls=flags[10] > 0.5)


def save_model(path, params: ModelParams, config: ModelConfig) -> None:
    arrays = {"meta.dims": _dims_vector(config.dims), "meta.flags": _flags_vector(config)}
    arrays.update(params.named_arrays())
    save_params(path, arrays)


def _fill(named_tensors, arrays, path) -> None:
    for name, t in named_tensors.items():
        if name not in arrays:
            raise ValueError(f"{path}: checkpoint is missing parameter '{name}'")
        if arrays[name].shape != t.data.shape:
            raise ValueError(f"{path}: parameter '{name}' has shape {arrays[name].shape}, "
                             f"expected {t.data.shape}")
        t.data[...] = arrays[name]


def load_model(path) -> tuple[ModelParams, ModelConfig]:
    arrays = load_params(path)
    for key in ("meta.dims", "meta.flags", "embed.table"):
        if key not in arrays:
            raise ValueError(f"{path}: checkpoint is missing '{key}'")
    config = _config_from_meta(arrays["meta.dims"], arrays["meta.flags"])
    dims = config.dims
    embed = EmbeddingTable(matrix=arrays["embed.table"])
    srf = init_srf_params(dims, np.random.default_rng(0)) if "srf.l1.w" in arrays else None
    params = init_model_params(config, seed=0, srf=srf, embed=embed)
    _fill(params.named_tensors(), arrays, path)
    return params, config


def save_srf_checkpoint(path, srf: SrfParams, embed: EmbeddingTable, dims: Dims) -> None:
    arrays: dict[str, np.ndarray] = {"meta.dims": _dims_vector(dims)}
    arrays.update({name: t.data for name, t in srf.named("srf").items()})
    arrays["embed.table"] = embed.matrix
    save_params(path, arrays)


def load_srf_checkpoint(path) -> tuple[SrfParams, EmbeddingTable, Dims]:
    arrays = load_params(path)
    for key in ("meta.dims", "embed.table", "srf.l1.w"):
        if key not in arrays:
            raise ValueError(f"{path}: filter checkpoint is missing '{key}'")
    dims = _dims_from_vector(arrays["meta.dims"])
    srf = init_srf_params(dims, np.random.default_rng(0))
    _fill(srf.named("srf"), arrays, path)
    embed = EmbeddingTable(matrix=arrays["embed.table"])
    return srf, embed, dims
