"""Dimension and model-behavior configuration shared across the pipeline."""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral

ALL_DIRECTIONS = ("oo", "ro", "or", "rr")


def ranged(interval: str, default=MISSING):
    """A dataclass field that ``check_fields`` keeps in ``interval``: "[0, 1)", "(0, inf)"."""
    return field(default=default, metadata={"interval": interval})


def check_fields(config) -> None:
    """Refuse any field of ``config`` outside its ``ranged`` interval (NaN lies
    in none), and any ``int`` field that holds no integer or a bool."""
    for f in fields(config):
        value = getattr(config, f.name)
        if "interval" in f.metadata:
            interval = f.metadata["interval"]
            lo, hi = (float(end) for end in interval[1:-1].split(","))
            above = lo <= value if interval[0] == "[" else lo < value
            below = value <= hi if interval[-1] == "]" else value < hi
            if not (above and below):
                raise ValueError(f"{f.name} must lie in {interval}, got {value}")
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ValueError(f"{f.name} must be an integer, got {value}")


def refuse_beyond_memory(config, field: str, nbytes: int, what: str) -> None:
    """Refuse ``config``, naming its size ``field``, when ``what`` would take
    more bytes than physical memory; checked before anything is allocated."""
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > ram:
        raise ValueError(f"{field} = {getattr(config, field)} is too large: {what} would "
                         f"take {nbytes // 2**30} GiB, more than the {ram // 2**30} GiB of "
                         f"physical memory")


@dataclass(frozen=True)
class Dims:
    """Feature sizes for one model instance.  The field order is the layout of
    a checkpoint's ``meta.dims``: reordering the fields breaks old checkpoints.

    ``n_classes`` counts object classes including background at index 0;
    ``n_predicates`` counts real predicates, so relation logits have
    ``n_predicates + 1`` entries with the no-relation class last.
    """

    n_classes: int = ranged("[2, inf)")  # background plus at least one object class
    n_predicates: int = ranged("[1, inf)")
    d_obj: int = ranged("[1, inf)", 64)
    d_emb: int = ranged("[1, inf)", 16)
    d_union: int = ranged("[1, inf)", 64)
    d_rel: int = ranged("[1, inf)", 64)
    d_pe: int = ranged("[1, inf)", 16)
    mask_res: int = ranged("[1, inf)", 32)
    conv1_channels: int = ranged("[1, inf)", 8)
    conv2_channels: int = ranged("[1, inf)", 8)

    def __post_init__(self):
        check_fields(self)
        if self.mask_res % 2 or self.pooled_res < 3:
            raise ValueError(
                f"mask_res {self.mask_res} incompatible with the 5x5 conv / 2x2 pool / "
                f"3x3 conv stack")
        largest = max(fields(self), key=lambda f: getattr(self, f.name)).name
        refuse_beyond_memory(self, largest, 3 * 8 * self.param_count,
                             f"{self.param_count} parameters, gradients and momenta")

    @property
    def param_count(self) -> int:
        """Floats a model of these sizes allocates: the main stage with every
        optional input on, the relation filter and the class embedding table."""
        def mlp(d_in, hidden, d_out):
            return (d_in + 1) * hidden + (hidden + 1) * d_out

        c1, e, r, n = self.conv1_channels, self.d_obj, self.d_rel, self.n_classes
        head, srf = 2 * self.d_pe + r, 2 * self.d_emb + 8
        return (51 * c1 + (9 * c1 + 1) * self.conv2_channels            # spatial convs
                + (self.d_union + self.spatial_len + 1) * r              # fuse
                + mlp(2 * e + 2 * self.d_emb, e, e) + mlp(e + r, e, e)   # oo, ro
                + mlp(r + e, r, r) + mlp(2 * r, r, r)                    # or, rr
                + (e + 1) * n + 2 * n * self.d_pe                        # object head, sub/obj_emb
                + mlp(head, 2 * head, self.n_predicates + 1)             # relation head
                + mlp(srf, 2 * srf, 1) + n * self.d_emb)                 # filter, class table

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
    """Behavior switches: pass count, enabled message directions, priors.  The
    field order is the ``meta.flags`` layout: reordering breaks old checkpoints."""

    dims: Dims
    iterations: int = ranged("[0, inf)", 2)
    directions: frozenset = frozenset(ALL_DIRECTIONS)
    use_language: bool = True
    use_prede: bool = True
    use_srf: bool = True
    srf_top_k: int = ranged("[1, inf)", 128)
    srf_threshold: float = ranged("[0, 1]", 0.55)
    srf_in_predcls: bool = False

    def __post_init__(self):
        check_fields(self)
        bad = set(self.directions) - set(ALL_DIRECTIONS)
        if bad:
            raise ValueError(f"unknown message directions: {sorted(bad)}")
        object.__setattr__(self, "directions", frozenset(self.directions))
