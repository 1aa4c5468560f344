"""Parameter groups, affine layers and two-layer MLPs on the autodiff engine."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .autodiff import Tensor, add_bias, glorot_uniform, matmul, relu, zeros_param


class ParamGroup:
    """A dataclass of parameters.  ``named`` walks its fields in order: a
    ``Tensor`` is one parameter, a ``ParamGroup`` adds its own below the
    field's name, anything else (a table, ``None``) is skipped.  A
    field's ``metadata["name"]`` overrides its name.  Training and checkpoints
    read this one enumeration; field order is checkpoint order."""

    def named(self, prefix: str = "") -> dict[str, Tensor]:
        out = {}
        for f in fields(self):
            name = (prefix + "." if prefix else "") + f.metadata.get("name", f.name)
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out[name] = value
            elif isinstance(value, ParamGroup):
                out.update(value.named(name))
        return out

    def tensors(self) -> list[Tensor]:
        return list(self.named().values())

    def frozen(self):
        """The same tree over the same arrays, with leaves that need no
        gradient: ops on them record no backward, so inference keeps no tape."""
        changes = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                changes[f.name] = Tensor(value.data)
            elif isinstance(value, ParamGroup):
                changes[f.name] = value.frozen()
        return replace(self, **changes)


@dataclass
class Affine(ParamGroup):
    """y = x @ w + b for each row of a matrix."""

    w: Tensor  # (d_in, d_out)
    b: Tensor  # (d_out,)

    def __call__(self, x: Tensor) -> Tensor:
        return add_bias(matmul(x, self.w), self.b)


def make_affine(rng: np.random.Generator, d_in: int, d_out: int) -> Affine:
    return Affine(w=glorot_uniform(rng, (d_in, d_out), d_in, d_out), b=zeros_param((d_out,)))


@dataclass
class TwoLayerMlp(ParamGroup):
    """Two affine layers with a ReLU between and a linear output.  The TTST
    MLPs are applied only by ``autodiff.message_mean``, which also puts a
    ReLU after the second layer; called directly, one gives the linear output."""

    l1: Affine
    l2: Affine

    def __call__(self, x: Tensor) -> Tensor:
        return self.l2(relu(self.l1(x)))


def make_mlp(rng: np.random.Generator, d_in: int, d_hidden: int, d_out: int) -> TwoLayerMlp:
    return TwoLayerMlp(make_affine(rng, d_in, d_hidden), make_affine(rng, d_hidden, d_out))
