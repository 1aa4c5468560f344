"""Setting ranges declared on the config fields.

Each config's ``ranged`` intervals are pinned against the hand-written range
rules the configs carried before the intervals moved onto the fields (kept
below as the oracle): on finite values a config accepts exactly what its
oracle accepts, and it refuses every non-finite value with a message naming
the field, the interval and the value.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgg.config import Dims, ModelConfig
from sgg.synthetic import SynthConfig
from sgg.training import TrainConfig

SMALL_DIMS = Dims(n_classes=3, n_predicates=2, d_obj=2, d_emb=2, d_union=2, d_rel=2, d_pe=2,
                  mask_res=10, conv1_channels=1, conv2_channels=1)


# ---------------------------------------------------------------------------
# the oracle: the hand-written rules, minus the memory refusals


def dims_rules(self):
    if self.n_classes < 2:
        raise ValueError("n_classes must count background plus at least one object class")
    if self.n_predicates < 1:
        raise ValueError("n_predicates must be at least 1")
    for f in dataclasses.fields(Dims)[2:]:  # the sizes after the two class counts
        if getattr(self, f.name) < 1:
            raise ValueError(f"{f.name} must be positive")
    if self.mask_res % 2 or (self.mask_res - 4) // 2 < 3:
        raise ValueError(f"mask_res {self.mask_res} incompatible with the conv stack")


def model_config_rules(self):
    if self.iterations < 0:
        raise ValueError("iterations must be nonnegative")
    if self.srf_top_k < 1:
        raise ValueError("srf_top_k must be positive")
    if not 0.0 <= self.srf_threshold <= 1.0:
        raise ValueError("srf_threshold must lie in [0, 1]")


def train_config_rules(self):
    if self.epochs < 0 or self.lr <= 0 or not 0.0 <= self.momentum < 1.0:
        raise ValueError("bad optimizer settings: need epochs >= 0, lr > 0 and "
                         "momentum in [0, 1)")
    if self.negative_ratio < 0 or not 0.0 < self.match_iou < 1.0:
        raise ValueError("bad supervision settings: need negative_ratio >= 0 and "
                         "match_iou in (0, 1)")
    if self.seed < 0:
        raise ValueError("seed must be nonnegative")


def synth_config_rules(self):
    if self.num_scenes < 1 or self.min_objects < 1 or self.max_objects < self.min_objects:
        raise ValueError("bad scene or object counts: need num_scenes >= 1 and "
                         "1 <= min_objects <= max_objects")
    if self.n_object_classes < 2 or self.n_predicates < 1 or self.d_obj < 1:
        raise ValueError("need n_object_classes >= 2, n_predicates >= 1 and d_obj >= 1")
    if not 0.0 <= self.dropout <= 1.0:
        raise ValueError("dropout must lie in [0, 1]")
    if self.feature_noise < 0 or self.box_jitter < 0 or self.seed < 0:
        raise ValueError("feature_noise, box_jitter and seed must be nonnegative")
    if not 0.0 <= self.confusable <= 1.0:
        raise ValueError("confusable must lie in [0, 1]")


# per config: valid small settings, the oracle, and each numeric field's interval
CONFIGS = {
    Dims: (dataclasses.asdict(SMALL_DIMS), dims_rules, {
        "n_classes": "[2, inf)", "n_predicates": "[1, inf)", "d_obj": "[1, inf)",
        "d_emb": "[1, inf)", "d_union": "[1, inf)", "d_rel": "[1, inf)", "d_pe": "[1, inf)",
        "mask_res": "[1, inf)", "conv1_channels": "[1, inf)", "conv2_channels": "[1, inf)"}),
    ModelConfig: ({"dims": SMALL_DIMS}, model_config_rules, {
        "iterations": "[0, inf)", "srf_top_k": "[1, inf)", "srf_threshold": "[0, 1]"}),
    TrainConfig: ({}, train_config_rules, {
        "epochs": "[0, inf)", "lr": "(0, inf)", "momentum": "[0, 1)", "seed": "[0, inf)",
        "negative_ratio": "[0, inf)", "match_iou": "(0, 1)"}),
    SynthConfig: ({"d_obj": 2}, synth_config_rules, {
        "num_scenes": "[1, inf)", "min_objects": "[1, inf)", "max_objects": "[1, inf)",
        "n_object_classes": "[2, inf)", "n_predicates": "[1, inf)", "feature_noise": "[0, inf)",
        "box_jitter": "[0, inf)", "dropout": "[0, 1]", "seed": "[0, inf)", "d_obj": "[1, inf)",
        "confusable": "[0, 1]"}),
}
BY_CONFIG = pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)


def _kind(cls, name: str) -> str:
    return next(f.type for f in dataclasses.fields(cls) if f.name == name)


def _near(kind: str, interval: str):
    """Values at, just inside and just outside each finite end of ``interval``,
    plus small values in between."""
    ends = [float(end) for end in interval[1:-1].split(",") if math.isfinite(float(end))]
    if kind == "int":
        points = {int(e) + d for e in ends for d in (-1, 0, 1)}
        return st.one_of(st.sampled_from(sorted(points)), st.integers(-3, 12))
    points = {p for e in ends for p in (np.nextafter(e, -math.inf), e, np.nextafter(e, math.inf),
                                        e - 0.25, e + 0.25)}
    return st.one_of(st.sampled_from(sorted(float(p) for p in points)),
                     st.floats(-2.0, 3.0))


def _outcome(make):
    try:
        make()
    except ValueError:
        return "refused"
    return "accepted"


@BY_CONFIG
def test_every_numeric_field_declares_its_interval(cls):
    _, _, intervals = CONFIGS[cls]
    declared = {f.name: f.metadata.get("interval") for f in dataclasses.fields(cls)
                if f.type in ("int", "float")}
    assert declared == intervals


@BY_CONFIG
@settings(deadline=None, max_examples=400)
@given(data=st.data())
def test_finite_values_are_accepted_exactly_as_the_oracle_accepts(cls, data):
    base, rules, intervals = CONFIGS[cls]
    changed = data.draw(st.lists(st.sampled_from(sorted(intervals)), min_size=1, max_size=3,
                                 unique=True))
    kwargs = {**base, **{key: data.draw(_near(_kind(cls, key), intervals[key]), label=key)
                         for key in changed}}
    as_given = SimpleNamespace(**{f.name: kwargs.get(f.name, f.default)
                                  for f in dataclasses.fields(cls)})
    assert _outcome(lambda: cls(**kwargs)) == _outcome(lambda: rules(as_given)), kwargs


@BY_CONFIG
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_refused_naming_field_interval_and_value(cls, value):
    base, _, intervals = CONFIGS[cls]
    for key, interval in intervals.items():
        with pytest.raises(ValueError) as info:
            cls(**{**base, key: value})
        assert str(info.value) == f"{key} must lie in {interval}, got {value}"


@BY_CONFIG
def test_int_fields_refuse_fractions_and_bools(cls):
    """Each int field refuses a fraction inside its interval and a bool, and
    takes a numpy integer."""
    base, _, intervals = CONFIGS[cls]
    for key, interval in intervals.items():
        if _kind(cls, key) != "int":
            continue
        inside = float(interval[1:-1].split(",")[0]) + 2
        with pytest.raises(ValueError) as info:
            cls(**{**base, key: inside + 0.5})
        assert str(info.value) == f"{key} must be an integer, got {inside + 0.5}"
        with pytest.raises(ValueError, match=f"^{key} must "):
            cls(**{**base, key: True})
        valid = getattr(cls(**base), key)
        assert getattr(cls(**{**base, key: np.int64(valid)}), key) == valid


@pytest.mark.parametrize("make, message", [
    (lambda: SynthConfig(num_scenes=2.5), "num_scenes must be an integer, got 2.5"),
    (lambda: Dims(n_classes=3, n_predicates=2, d_obj=2.5), "d_obj must be an integer, got 2.5"),
    (lambda: TrainConfig(epochs=True), "epochs must be an integer, got True"),
], ids=["num_scenes", "d_obj", "epochs"])
def test_non_integers_that_once_passed_are_refused(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("make", [
    lambda: TrainConfig(lr=math.nan), lambda: TrainConfig(lr=math.inf),
    lambda: TrainConfig(negative_ratio=math.nan), lambda: SynthConfig(feature_noise=math.nan),
    lambda: SynthConfig(box_jitter=math.inf),
], ids=["lr-nan", "lr-inf", "negative_ratio-nan", "feature_noise-nan", "box_jitter-inf"])
def test_settings_that_once_ran_are_refused_at_construction(make):
    with pytest.raises(ValueError, match="must lie in"):
        make()


def test_max_objects_beyond_memory_is_refused_naming_it():
    with pytest.raises(ValueError, match=r"^max_objects = 1000000000000 is too large: "):
        SynthConfig(num_scenes=1, max_objects=10**12)
    SynthConfig(max_objects=1000)  # far below any memory bound
