"""Dimension and model-behavior configuration shared across the pipeline."""

from __future__ import annotations

from dataclasses import dataclass

ALL_DIRECTIONS = ("oo", "ro", "or", "rr")


@dataclass(frozen=True)
class Dims:
    """Feature sizes for one model instance.

    ``n_classes`` counts object classes including background at index 0;
    ``n_predicates`` counts real predicates, so relation logits have
    ``n_predicates + 1`` entries with the no-relation class last.
    """

    n_classes: int
    n_predicates: int
    d_obj: int = 64
    d_emb: int = 16
    d_union: int = 64
    d_rel: int = 64
    d_pe: int = 16
    mask_res: int = 32
    conv1_channels: int = 8
    conv2_channels: int = 8

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least background plus one object class")
        if self.n_predicates < 1:
            raise ValueError("need at least one predicate class")
        for name in ("d_obj", "d_emb", "d_union", "d_rel", "d_pe",
                     "conv1_channels", "conv2_channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.mask_res % 2 or self.pooled_res < 3:
            raise ValueError(
                f"mask_res {self.mask_res} incompatible with the 5x5 conv / 2x2 pool / "
                f"3x3 conv stack")

    @property
    def pooled_res(self) -> int:
        return (self.mask_res - 4) // 2

    @property
    def spatial_len(self) -> int:
        """Flattened length after conv(5x5) -> pool(2x2) -> conv(3x3)."""
        side = self.pooled_res - 2
        return self.conv2_channels * side * side

    @property
    def no_relation(self) -> int:
        return self.n_predicates


@dataclass(frozen=True)
class ModelConfig:
    """Behavior switches: pass count, enabled message directions, priors."""

    dims: Dims
    iterations: int = 2
    directions: frozenset = frozenset(ALL_DIRECTIONS)
    use_language: bool = True
    use_prede: bool = True
    use_srf: bool = True
    srf_top_k: int = 128
    srf_threshold: float = 0.55
    srf_in_predcls: bool = False

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        bad = set(self.directions) - set(ALL_DIRECTIONS)
        if bad:
            raise ValueError(f"unknown message directions: {sorted(bad)}")
        object.__setattr__(self, "directions", frozenset(self.directions))
        if self.srf_top_k < 1:
            raise ValueError("srf_top_k must be positive")
        if not 0.0 <= self.srf_threshold <= 1.0:
            raise ValueError("srf_threshold must lie in [0, 1]")
