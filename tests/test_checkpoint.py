"""Text checkpoint container and the model/filter round trips."""

import dataclasses
import hashlib

import numpy as np
import pytest

from sgg.checkpoint import (load_model, load_params, load_srf_checkpoint,
                            save_model, save_params, save_srf_checkpoint)
from sgg.config import Dims, ModelConfig
from sgg.filter import init_srf_params
from sgg.model import init_model_params
from sgg.scenes import EmbeddingTable

DIMS = Dims(n_classes=4, n_predicates=3, d_obj=5, d_emb=3, d_union=6, d_rel=6,
            d_pe=3, mask_res=12, conv1_channels=2, conv2_channels=2)


@pytest.mark.parametrize("dims", [
    DIMS, Dims(n_classes=2, n_predicates=1, d_obj=1, d_emb=1, d_union=1, d_rel=1, d_pe=1,
               mask_res=10, conv1_channels=1, conv2_channels=1),
    Dims(n_classes=7, n_predicates=5, d_obj=9, mask_res=14, conv1_channels=3),
], ids=["small", "ones", "mixed"])
def test_param_count_is_what_the_model_allocates(dims):
    """``Dims.param_count``, which the memory bound multiplies, counts every
    float of the main model with all inputs on, its filter and its seeded
    class table."""
    params = init_model_params(ModelConfig(dims), seed=0,
                               srf=init_srf_params(dims, np.random.default_rng(0)))
    assert dims.param_count == sum(a.size for a in params.named_arrays().values())


def test_params_round_trip_is_value_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a.w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=7),
        "c.scalar": np.array(0.1 + 0.2),  # not representable exactly in decimal
        "d.extreme": np.array([1e-300, 1e300, -0.0, 5e-324]),
        "e.long": rng.normal(size=19),  # spans three 8-value lines
    }
    path = tmp_path / "p.txt"
    save_params(path, arrays)
    loaded = load_params(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], np.asarray(arrays[name], dtype=float),
                                      err_msg=name)
        assert loaded[name].shape == np.asarray(arrays[name]).shape


def test_scalar_entry_round_trips_as_zero_dim(tmp_path):
    path = tmp_path / "s.txt"
    save_params(path, {"x": np.array(2.5)})
    out = load_params(path)["x"]
    assert out.shape == ()
    assert out == 2.5


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("param a 2\n1.0 2.0\n")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_params(path)


def test_load_rejects_bad_float_and_bad_dims(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("sgg-checkpoint 1\nparam a 2\n1.0 oops\n")
    with pytest.raises(ValueError, match="bad float 'oops'"):
        load_params(path)
    path.write_text("sgg-checkpoint 1\nparam a two\n1.0 2.0\n")
    with pytest.raises(ValueError, match="bad dimension"):
        load_params(path)


def test_load_rejects_a_parameter_listed_twice(tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("sgg-checkpoint 1\nparam a 2\n1.0 2.0\nparam a 2\n3.0 4.0\n")
    with pytest.raises(ValueError, match=f"{path}: line 4: parameter 'a' is listed twice"):
        load_params(path)


def test_load_rejects_truncated_values(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("sgg-checkpoint 1\nparam a 3\n1.0 2.0\n")
    with pytest.raises(ValueError, match="has 2 values, needs 3"):
        load_params(path)


def test_save_refuses_non_finite_values_and_writes_nothing(tmp_path):
    path = tmp_path / "p.txt"
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="parameter 'b' holds a non-finite value"):
            save_params(path, {"a": np.zeros(2), "b": np.array([1.0, bad])})
        assert not path.exists()


def test_load_rejects_non_finite_values(tmp_path):
    path = tmp_path / "p.txt"
    for token in ("nan", "inf", "-inf"):
        path.write_text(f"sgg-checkpoint 1\nparam a 2\n1.0 2.0\nparam b 2\n1.0 {token}\n")
        with pytest.raises(ValueError, match="parameter 'b' holds a non-finite value"):
            load_params(path)


@pytest.mark.parametrize("side", [4294967296, 3037000500])
def test_huge_dims_count_without_wrapping_and_name_the_parameter(tmp_path, side):
    """side**2 is 2**64 (wraps to 0 in int64) and just above 2**63 (wraps negative)."""
    path = tmp_path / "huge.ckpt"
    path.write_text(f"sgg-checkpoint 1\nparam meta.dims {side} {side}\n")
    with pytest.raises(ValueError) as err:
        load_params(path)
    assert str(err.value) == (f"{path}: parameter 'meta.dims' has 0 values, "
                              f"needs {side * side}")


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_params(tmp_path / "absent.txt")


# ---------------------------------------------------------------------------
# model checkpoints


def model_fixture():
    config = ModelConfig(dims=DIMS, iterations=3, directions=frozenset({"oo", "or"}),
                         use_language=False, use_prede=True, use_srf=True,
                         srf_top_k=17, srf_threshold=0.35, srf_in_predcls=True)
    srf = init_srf_params(DIMS, np.random.default_rng(5))
    params = init_model_params(config, seed=1, srf=srf)
    return params, config


def test_model_round_trip_restores_weights_and_config(tmp_path):
    params, config = model_fixture()
    path = tmp_path / "model.txt"
    save_model(path, params, config)
    loaded, lcfg = load_model(path)
    assert lcfg == config
    want = params.named_arrays()
    got = loaded.named_arrays()
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def test_loaded_model_is_frozen_with_the_saved_arrays(tmp_path):
    """Eval and predict never train, so ``load_model`` returns parameters
    that need no gradient, filter included, holding the saved values."""
    params, config = model_fixture()
    path = tmp_path / "model.txt"
    save_model(path, params, config)
    loaded, _ = load_model(path)
    want = params.named()
    got = loaded.named()
    assert set(got) == set(want) and any(name.startswith("srf.") for name in got)
    for name, t in got.items():
        assert not t.requires_grad and t.grad is None, name
        assert t.data.tobytes() == want[name].data.tobytes(), name


def test_model_without_filter_loads_without_filter(tmp_path):
    config = ModelConfig(dims=DIMS, use_srf=False)
    params = init_model_params(config, seed=2)
    path = tmp_path / "nosrf.txt"
    save_model(path, params, config)
    loaded, lcfg = load_model(path)
    assert loaded.srf is None
    assert not lcfg.use_srf


def test_load_model_rejects_missing_parameter(tmp_path):
    params, config = model_fixture()
    path = tmp_path / "model.txt"
    save_model(path, params, config)
    text = path.read_text()
    kept = []
    skip = False
    for line in text.splitlines():
        if line.startswith("param head.obj_cls.w"):
            skip = True
            continue
        if line.startswith("param "):
            skip = False
        if not skip:
            kept.append(line)
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(ValueError, match=r"missing parameter 'head\.obj_cls\.w'"):
        load_model(path)


def test_load_model_rejects_shape_mismatch(tmp_path):
    params, config = model_fixture()
    path = tmp_path / "model.txt"
    save_model(path, params, config)
    # shrink one dimension header so the stored shape disagrees with dims
    lines = path.read_text().splitlines()
    for k, line in enumerate(lines):
        if line.startswith("param head.obj_cls.b "):
            n = int(line.split()[-1])
            lines[k] = f"param head.obj_cls.b {n - 1}"
            # drop one value to keep the count consistent with the new header
            vals = lines[k + 1].split()
            lines[k + 1] = " ".join(vals[:-1]) if len(vals) > 1 else lines[k + 1]
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="shape"):
        load_model(path)


def _other_value(f, value):
    """A valid value of field ``f`` other than ``value``."""
    if f.type == "bool":
        return not value
    if f.type == "frozenset":
        return frozenset(sorted(value)[1:])  # a strict subset
    if f.type == "float":
        return value / 2
    return value + (2 if f.name == "mask_res" else 1)  # mask_res must stay even


META_CASES = [(Dims, f) for f in dataclasses.fields(Dims)] + \
    [(ModelConfig, f) for f in dataclasses.fields(ModelConfig) if f.type != "Dims"]


@pytest.mark.parametrize("cls,field", META_CASES,
                         ids=[f"{cls.__name__}.{f.name}" for cls, f in META_CASES])
def test_every_config_field_survives_a_checkpoint(tmp_path, cls, field):
    config = ModelConfig(dims=DIMS)
    if cls is Dims:
        config = dataclasses.replace(config, dims=dataclasses.replace(
            DIMS, **{field.name: _other_value(field, getattr(DIMS, field.name))}))
    else:
        config = dataclasses.replace(
            config, **{field.name: _other_value(field, getattr(config, field.name))})
    srf = init_srf_params(config.dims, np.random.default_rng(5)) if config.use_srf else None
    path = tmp_path / "model.txt"
    save_model(path, init_model_params(config, seed=1, srf=srf), config)
    loaded, lcfg = load_model(path)
    assert lcfg == config
    for f in dataclasses.fields(ModelConfig):
        assert type(getattr(lcfg, f.name)) is type(getattr(config, f.name)), f.name
    for f in dataclasses.fields(Dims):
        assert type(getattr(lcfg.dims, f.name)) is int, f.name


@pytest.mark.parametrize("key,slot,value,message", [
    ("meta.flags", 0, 1.5, "iterations must be a whole number, got 1.5"),
    ("meta.flags", 4, 0.5, "directions slot 'rr' must be 0 or 1, got 0.5"),
    ("meta.flags", 5, 0.7, "use_language must be 0 or 1, got 0.7"),
    ("meta.flags", 7, 3.0, "use_srf must be 0 or 1, got 3.0"),
    ("meta.flags", 10, -1.0, "srf_in_predcls must be 0 or 1, got -1.0"),
    ("meta.dims", 2, 5.25, "d_obj must be a whole number, got 5.25"),
], ids=["int", "direction", "bool", "bool-above-1", "bool-negative", "dims-int"])
def test_load_model_refuses_meta_slots_outside_their_values(tmp_path, key, slot, value,
                                                            message):
    """An int slot holds a whole number and a bool or direction slot 0 or 1;
    anything else is refused, not rounded."""
    config = ModelConfig(dims=DIMS, use_srf=False)
    path = tmp_path / "model.txt"
    save_model(path, init_model_params(config, seed=2), config)
    arrays = load_params(path)
    arrays[key][slot] = value
    save_params(path, arrays)
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: '{key}': {message}"


# ---------------------------------------------------------------------------
# filter checkpoints


def test_srf_checkpoint_round_trip(tmp_path):
    srf = init_srf_params(DIMS, np.random.default_rng(11))
    embed = EmbeddingTable.seeded(DIMS.n_classes, DIMS.d_emb, seed=4)
    path = tmp_path / "srf.txt"
    save_srf_checkpoint(path, srf, embed, DIMS)
    lsrf, lembed, ldims = load_srf_checkpoint(path)
    assert ldims == DIMS
    np.testing.assert_array_equal(lembed.matrix, embed.matrix)
    for (na, ta), (nb, tb) in zip(sorted(srf.named("srf").items()),
                                  sorted(lsrf.named("srf").items())):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_srf_checkpoint_rejects_plain_params_file(tmp_path):
    path = tmp_path / "plain.txt"
    save_params(path, {"w": np.zeros(3)})
    with pytest.raises(ValueError, match="missing"):
        load_srf_checkpoint(path)


# ---------------------------------------------------------------------------
# pinned bytes: names, their order and the number format of written files


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_filter_checkpoint_bytes_are_pinned(tmp_path):
    path = tmp_path / "f.ckpt"
    save_srf_checkpoint(path, init_srf_params(DIMS, np.random.default_rng(11)),
                        EmbeddingTable.seeded(DIMS.n_classes, DIMS.d_emb, seed=4), DIMS)
    assert _sha256(path) == "c37ec7e43b982c33d43c8c6de1236a7e3d73d85d497ff083a6ba0c58a8f2fa27"


@pytest.mark.parametrize("with_srf,sha256", [
    (True, "0574d40f04c5a71f7efd603b002b1debf8bb7930f16a95cfd4da37657aa4570f"),
    (False, "9f9e556c8c2e9f518cd63573ec0e32a340e49e72835e373f8b194c15ef80f82b"),
], ids=["filter", "no-filter"])
def test_model_checkpoint_bytes_are_pinned(tmp_path, with_srf, sha256):
    if with_srf:
        config = ModelConfig(dims=DIMS, iterations=2, use_srf=True)
        params = init_model_params(
            config, seed=7, srf=init_srf_params(DIMS, np.random.default_rng(11)),
            embed=EmbeddingTable.seeded(DIMS.n_classes, DIMS.d_emb, seed=4))
    else:
        config = ModelConfig(dims=DIMS, iterations=1, use_srf=False, use_language=False,
                             use_prede=False, directions=frozenset({"oo", "rr"}))
        params = init_model_params(config, seed=7)
    path = tmp_path / "m.ckpt"
    save_model(path, params, config)
    assert _sha256(path) == sha256
