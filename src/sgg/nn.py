"""Affine layers and two-layer MLPs built on the autodiff engine."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add_bias, glorot_uniform, matmul, relu, zeros_param


@dataclass
class Affine:
    """y = x @ w + b for each row of a matrix."""

    w: Tensor  # (d_in, d_out)
    b: Tensor  # (d_out,)

    def __call__(self, x: Tensor) -> Tensor:
        return add_bias(matmul(x, self.w), self.b)

    def tensors(self) -> list[Tensor]:
        return [self.w, self.b]

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {prefix + ".w": self.w, prefix + ".b": self.b}


def make_affine(rng: np.random.Generator, d_in: int, d_out: int) -> Affine:
    return Affine(w=glorot_uniform(rng, (d_in, d_out), d_in, d_out), b=zeros_param((d_out,)))


@dataclass
class TwoLayerMlp:
    """Two affine layers with a ReLU between; optionally ReLU on the output."""

    l1: Affine
    l2: Affine
    relu_out: bool = False

    def __call__(self, x: Tensor) -> Tensor:
        h = relu(self.l1(x))
        out = self.l2(h)
        return relu(out) if self.relu_out else out

    def tensors(self) -> list[Tensor]:
        return self.l1.tensors() + self.l2.tensors()

    def named(self, prefix: str) -> dict[str, Tensor]:
        out = self.l1.named(prefix + ".l1")
        out.update(self.l2.named(prefix + ".l2"))
        return out


def make_mlp(rng: np.random.Generator, d_in: int, d_hidden: int, d_out: int,
             relu_out: bool = False) -> TwoLayerMlp:
    return TwoLayerMlp(make_affine(rng, d_in, d_hidden), make_affine(rng, d_hidden, d_out),
                       relu_out=relu_out)
