import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venuecca.cca import fit_cca
from venuecca.dataio import DatasetError, PairedDataset, read_container, write_container
from venuecca.dcca import train_dcca
from venuecca.kcca import fit_kcca
from venuecca.model_io import KIND_LINEAR, load_index, load_model, save_index, save_model
from venuecca.neural import TrainConfig
from venuecca.retrieval import VenueIndex


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 60))
    Y = 0.5 * X[:4] + 0.5 * rng.standard_normal((4, 60))
    return X, Y


def test_linear_model_round_trip(data, tmp_path):
    X, Y = data
    model = fit_cca(X, Y, k=3, r=1e-4)
    path = tmp_path / "linear.vcca"
    save_model(model, path)
    loaded = load_model(path)
    npt.assert_array_equal(loaded.Wx, model.Wx)
    npt.assert_array_equal(loaded.rho, model.rho)
    assert loaded.r == model.r and loaded.beta == model.beta
    npt.assert_array_equal(loaded.project(X, "image"), model.project(X, "image"))


def test_kernel_model_round_trip(data, tmp_path):
    X, Y = data
    model = fit_kcca(X, Y, k=2, r=1e-3)
    path = tmp_path / "kernel.vcca"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.sigma_x == model.sigma_x
    assert loaded.map_x.kernel == model.map_x.kernel
    Z = np.random.default_rng(1).standard_normal((5, 7))
    npt.assert_array_equal(loaded.project(Z, "image"), model.project(Z, "image"))
    npt.assert_array_equal(loaded.rho, model.rho)


def test_deep_model_round_trip(data, tmp_path):
    X, Y = data
    train = PairedDataset(
        X=X,
        Y=Y,
        venue_ids=[f"v{i}" for i in range(60)],
        categories=1 + np.arange(60) % 3,
        coords=np.zeros((60, 2)),
    )
    cfg = TrainConfig(
        learning_rate=1e-3,
        batch_size=30,
        epochs=2,
        k=2,
        hidden_sizes=(6,),
        dropout_rate=0.25,
        beta=0.3,
        r=1e-3,
    )
    model = train_dcca(train, cfg)
    path = tmp_path / "deep.vcca"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == cfg
    npt.assert_array_equal(loaded.history_objective, model.history_objective)
    npt.assert_array_equal(loaded.history_epoch, model.history_epoch)
    npt.assert_array_equal(loaded.project(X, "image"), model.project(X, "image"))
    npt.assert_array_equal(loaded.project(Y, "text"), model.project(Y, "text"))
    assert [l.activation for l in loaded.net_x.layers] == [
        l.activation for l in model.net_x.layers
    ]
    assert [l.dropout_rate for l in loaded.net_x.layers] == [
        l.dropout_rate for l in model.net_x.layers
    ]


def test_double_save_is_byte_identical(data, tmp_path):
    X, Y = data
    model = fit_cca(X, Y, k=2, r=1e-4)
    p1, p2 = tmp_path / "a.vcca", tmp_path / "b.vcca"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_index_round_trip(data, tmp_path):
    X, Y = data
    index = VenueIndex(
        venue_ids=[f"v{i}" for i in range(10)],
        categories=1 + np.arange(10) % 4,
        coords=np.random.default_rng(2).uniform(-1, 1, (10, 2)),
        vectors=np.random.default_rng(3).standard_normal((3, 10)),
    )
    path = tmp_path / "venues.vidx"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.venue_ids == index.venue_ids
    npt.assert_array_equal(loaded.categories, index.categories)
    npt.assert_array_equal(loaded.coords, index.coords)
    npt.assert_array_equal(loaded.vectors, index.vectors)


def test_kind_mismatch_rejected(data, tmp_path):
    X, Y = data
    model = fit_cca(X, Y, k=2, r=1e-4)
    path = tmp_path / "model.vcca"
    save_model(model, path)
    with pytest.raises(DatasetError, match="kind"):
        load_index(path)

    index = VenueIndex(
        venue_ids=["a"],
        categories=np.array([1]),
        coords=np.zeros((1, 2)),
        vectors=np.zeros((2, 1)),
    )
    ipath = tmp_path / "venues.vidx"
    save_index(index, ipath)
    with pytest.raises(DatasetError, match="kind"):
        load_model(ipath)


def test_corrupt_file_rejected(tmp_path):
    path = tmp_path / "junk.vcca"
    path.write_bytes(b"not a container at all")
    with pytest.raises(DatasetError):
        load_model(path)


def test_unserializable_type_rejected(tmp_path):
    with pytest.raises(TypeError, match="serialize"):
        save_model(object(), tmp_path / "x.vcca")


GOLDEN = Path(__file__).parent / "data"
GOLDEN_METHODS = ("cca", "c-cca", "kcca", "c-kcca", "dcca", "c-dcca")


@pytest.mark.parametrize("method", GOLDEN_METHODS)
def test_files_of_earlier_versions_load(method, tmp_path):
    # tests/data holds models written by venuecca 0.1.0 before its models
    # became a feature map per view plus a linear head, with the
    # projections that version computed on a fixed batch
    stored = np.load(GOLDEN / "projections.npz")
    path = GOLDEN / f"{method}.vcca"
    model = load_model(path)
    for side, batch in (("image", "batch_image"), ("text", "batch_text")):
        npt.assert_array_equal(model.project(stored[batch], side), stored[f"{method}_{side}"])
    again = tmp_path / "again.vcca"
    save_model(model, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("method", ("cca", "kcca", "dcca"))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_model_raises_dataset_error(method, data):
    raw = (GOLDEN / f"{method}.vcca").read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cut.vcca"
        path.write_bytes(raw[:cut])
        with pytest.raises(DatasetError, match="cut.vcca"):
            load_model(path)


@pytest.mark.parametrize("key", ["beta", "config", "kernel"])
def test_missing_meta_key_is_named(key, tmp_path):
    method = {"beta": "cca", "config": "dcca", "kernel": "kcca"}[key]
    kind, meta, blocks = read_container(GOLDEN / f"{method}.vcca")
    del meta[key]
    path = tmp_path / "m.vcca"
    write_container(path, kind, meta, blocks)
    with pytest.raises(DatasetError, match=f"m.vcca.*'{key}'"):
        load_model(path)


def test_missing_block_is_named(tmp_path):
    kind, meta, blocks = read_container(GOLDEN / "c-cca.vcca")
    del blocks["mean_x"]
    path = tmp_path / "m.vcca"
    write_container(path, kind, meta, blocks)
    with pytest.raises(DatasetError, match="'mean_x'"):
        load_model(path)


def test_header_that_is_not_json(tmp_path):
    path = tmp_path / "m.vcca"
    path.write_bytes(b"VCCAPKG1" + struct.pack("<I", 3) + b"{x}")
    with pytest.raises(DatasetError, match="m.vcca.*JSON"):
        load_model(path)


WRONG_SHAPE_HEADERS = {
    "empty-object": {},
    "not-an-object": [1],
    "blocks-not-a-list": {"kind": KIND_LINEAR, "meta": {}, "blocks": 5},
    "block-without-cols": {"kind": KIND_LINEAR, "meta": {}, "blocks": [["Wx", 1]]},
    "negative-rows": {"kind": KIND_LINEAR, "meta": {}, "blocks": [["Wx", -1, 2]]},
}


def write_raw_container(path, header):
    payload = json.dumps(header).encode("utf-8")
    path.write_bytes(b"VCCAPKG1" + struct.pack("<I", len(payload)) + payload + bytes(16))


# case: (index meta, rows of the categories block, what the error names)
MALFORMED_INDEXES = {
    "index-without-venue-ids": ({}, 1, "'venue_ids'"),
    "index-venue-ids-not-a-list": ({"venue_ids": 5}, 1, "venue_ids"),
    "index-venue-ids-of-mixed-types": ({"venue_ids": ["a", 2]}, 1, "venue_ids"),
    "index-categories-without-rows": ({"venue_ids": ["a", "b"]}, 0, "categories"),
    "index-duplicate-venue-ids": ({"venue_ids": ["a", "a"]}, 1, "duplicate"),
    "index-too-few-venue-ids": ({"venue_ids": ["a"]}, 1, "disagree"),
}


@pytest.mark.parametrize("case", [*WRONG_SHAPE_HEADERS, *MALFORMED_INDEXES])
def test_header_of_wrong_shape_is_named(case, tmp_path):
    path = tmp_path / "m.vcca"
    if case in MALFORMED_INDEXES:
        meta, category_rows, named = MALFORMED_INDEXES[case]
        blocks = {
            "vectors": np.zeros((2, 2)),
            "coords": np.zeros((2, 2)),
            "categories": np.ones((category_rows, 2)),
        }
        write_container(path, "venue-index", meta, blocks)
        with pytest.raises(DatasetError, match=f"m.vcca.*{named}"):
            load_index(path)
    else:
        write_raw_container(path, WRONG_SHAPE_HEADERS[case])
        with pytest.raises(DatasetError, match="m.vcca"):
            load_model(path)
