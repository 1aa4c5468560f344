"""Text checkpoint container and the model/filter round trips."""

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
