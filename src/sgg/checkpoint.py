"""Checkpoint files: named parameter groups in a plain text container.

Format (whitespace-delimited, one header line):

    sgg-checkpoint 1
    param <name> <dim0> <dim1> ...
    <row-major values, shortest round-trip float repr, 8 per line>
    param <next-name> ...

A scalar entry has no dims and one value; ``repr`` loads every float back
bit-exactly.  Parameter names are ``ParamGroup.named``'s, plus ``embed.table``;
``meta.dims`` / ``meta.flags`` hold the ``Dims`` / ``ModelConfig`` fields in
field order, each by its annotation (bool 0/1, directions one slot each).

``load_model`` serves eval and predict, which never train, so it returns
frozen parameters (``ParamGroup.frozen``): their ops build no tape.
"""

from __future__ import annotations

import dataclasses
import math

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
        if name in out:
            raise ValueError(f"{path}: line {ln}: parameter '{name}' is listed twice")
        try:
            shape = tuple(int(d) for d in row[2:])
            if min(shape, default=0) < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}: line {ln}: bad dimension in '{lines[ln - 1]}'") from None
        need = math.prod(shape)
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


# meta.* slots per field annotation; a nested config has a vector of its own
_SLOTS = {"int": 1, "bool": 1, "float": 1, "frozenset": len(ALL_DIRECTIONS)}


def _meta_vector(config) -> np.ndarray:
    """A config's fields as floats in field order: a number as it is, a bool as
    0/1, the directions as one 0/1 slot per ``ALL_DIRECTIONS`` entry."""
    out = []
    for f in dataclasses.fields(config):
        if f.type == "frozenset":
            out += [d in getattr(config, f.name) for d in ALL_DIRECTIONS]
        elif f.type in _SLOTS:
            out.append(getattr(config, f.name))
    return np.array(out, dtype=float)


def _slot(x: float, kind: str, name: str):
    """A stored slot as an int (a whole number), a bool (0 or 1) or a float."""
    if kind != "float" and not (x.is_integer() and (kind == "int" or x in (0, 1))):
        raise ValueError(f"{name} must be {'a whole number' if kind == 'int' else '0 or 1'}, "
                         f"got {x!r}")
    return {"int": int, "bool": bool, "float": float}[kind](x)


def _from_meta_vector(cls, v: list[float], **given):
    """``cls`` from a ``_meta_vector`` and ``given``."""
    values, at = {}, 0
    for f in dataclasses.fields(cls):
        if f.type == "frozenset":
            values[f.name] = frozenset(d for d, x in zip(ALL_DIRECTIONS, v[at:])
                                       if _slot(x, "bool", f"{f.name} slot '{d}'"))
        elif f.type in _SLOTS:
            values[f.name] = _slot(v[at], f.type, f.name)
        at += _SLOTS.get(f.type, 0)
    return cls(**given, **values)


def _from_meta(arrays, key: str, path, cls, **given):
    """``cls`` rebuilt from the stored ``meta.*`` vector ``key``; its errors
    name the file and the key."""
    if key not in arrays:
        raise ValueError(f"{path}: checkpoint is missing '{key}'")
    v = arrays[key]
    size = sum(_SLOTS.get(f.type, 0) for f in dataclasses.fields(cls))
    if v.shape != (size,):
        raise ValueError(f"{path}: '{key}' has shape {v.shape}, expected ({size},)")
    try:
        return _from_meta_vector(cls, [float(x) for x in v], **given)
    except ValueError as e:
        raise ValueError(f"{path}: '{key}': {e}") from None


def save_model(path, params: ModelParams, config: ModelConfig) -> None:
    save_params(path, {"meta.dims": _meta_vector(config.dims),
                       "meta.flags": _meta_vector(config), **params.named_arrays()})


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
    dims = _from_meta(arrays, "meta.dims", path, Dims)
    config = _from_meta(arrays, "meta.flags", path, ModelConfig, dims=dims)
    # a model that enables use_srf must hold the filter: _fill refuses it otherwise
    srf = (init_srf_params(dims, np.random.default_rng(0))
           if config.use_srf or "srf.l1.w" in arrays else None)
    params = init_model_params(config, seed=0, srf=srf)
    _fill(params.named_arrays(), arrays, path)
    return params.frozen(), config


def _srf_arrays(srf: TwoLayerMlp, embed: EmbeddingTable) -> dict[str, np.ndarray]:
    """The arrays of a filter checkpoint besides ``meta.dims``, by name."""
    return {**{name: t.data for name, t in srf.named("srf").items()},
            "embed.table": embed.matrix}


def save_srf_checkpoint(path, srf: TwoLayerMlp, embed: EmbeddingTable, dims: Dims) -> None:
    save_params(path, {"meta.dims": _meta_vector(dims), **_srf_arrays(srf, embed)})


def load_srf_checkpoint(path) -> tuple[TwoLayerMlp, EmbeddingTable, Dims]:
    arrays = load_params(path)
    dims = _from_meta(arrays, "meta.dims", path, Dims)
    srf = init_srf_params(dims, np.random.default_rng(0))
    embed = EmbeddingTable.seeded(dims.n_classes, dims.d_emb, 0)
    _fill(_srf_arrays(srf, embed), arrays, path)
    return srf, embed, dims
