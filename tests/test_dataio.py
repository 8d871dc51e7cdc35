import json
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venuecca.dataio import (
    DatasetError,
    SplitSpec,
    SynthConfig,
    VenueRecord,
    build_pairs,
    haversine_km,
    load_dataset,
    read_container,
    read_matrix,
    read_matrix_csv,
    synth_generate,
    synth_latents,
    write_container,
    write_dataset,
    write_matrix,
    write_matrix_csv,
)


def make_venue(vid, category=1, n_photos=3, d_x=6, d_y=4, seed=0):
    rng = np.random.default_rng(seed)
    return VenueRecord(
        venue_id=vid,
        category=category,
        lat=10.0 + seed,
        lon=20.0,
        text=rng.standard_normal(d_y),
        photos=rng.standard_normal((n_photos, d_x)),
    )


def reference_pairs(venues, split):
    """build_pairs as a per-photo loop: (X, Y, venue_ids, categories, coords)
    for train and for test, or the DatasetError it raises."""
    venues = sorted(venues, key=lambda v: v.venue_id)
    rng = np.random.default_rng(split.seed)
    n_train = max(1, int(round(split.train_venue_fraction * len(venues))))
    train_set = set(rng.permutation(len(venues))[:n_train].tolist())
    train, test = [], []  # (venue, photo) in output order
    for i, v in enumerate(venues):
        if i not in train_set:
            test.extend((v, p) for p in range(v.n_photos))
            continue
        if v.n_photos == 0:
            raise DatasetError(f"training venue {v.venue_id!r} has no photos")
        rest = np.arange(1, v.n_photos)
        n_extra = int(round(split.extra_photo_ratio * len(rest)))
        extra = sorted(rng.permutation(rest)[:n_extra].tolist())
        train.extend((v, p) for p in [0] + extra)
        test.extend((v, p) for p in rest.tolist() if p not in extra)
    d_x, d_y = venues[0].photos.shape[1], venues[0].text.shape[0]
    return [
        (
            np.array([v.photos[p] for v, p in pairs]).reshape(-1, d_x).T,
            np.array([v.text for v, _ in pairs]).reshape(-1, d_y).T,
            [v.venue_id for v, _ in pairs],
            np.array([v.category for v, _ in pairs], dtype=int),
            np.array([(v.lat, v.lon) for v, _ in pairs]).reshape(-1, 2),
        )
        for pairs in (train, test)
    ]


class TestMatrixFiles:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        a = np.random.default_rng(0).standard_normal((5, 7))
        write_matrix(tmp_path / "m.bin", a)
        npt.assert_array_equal(read_matrix(tmp_path / "m.bin"), a)

    def test_csv_round_trip_bit_exact(self, tmp_path):
        a = np.random.default_rng(1).standard_normal((3, 4)) * 1e-7
        write_matrix_csv(tmp_path / "m.csv", a)
        npt.assert_array_equal(read_matrix_csv(tmp_path / "m.csv"), a)

    def test_csv_header_mismatch(self, tmp_path):
        (tmp_path / "bad.csv").write_text("2,3\n1.0,2.0,3.0\n")
        with pytest.raises(DatasetError, match="declares"):
            read_matrix_csv(tmp_path / "bad.csv")

    def test_binary_bad_magic(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"NOTAMAT0" + b"\0" * 16)
        with pytest.raises(DatasetError, match="magic"):
            read_matrix(tmp_path / "junk.bin")

    def test_container_round_trip(self, tmp_path):
        blocks = {"a": np.arange(6.0).reshape(2, 3), "b": np.eye(4)}
        write_container(tmp_path / "c.pkg", "thing", {"x": 1.5}, blocks)
        kind, meta, loaded = read_container(tmp_path / "c.pkg")
        assert kind == "thing" and meta == {"x": 1.5}
        npt.assert_array_equal(loaded["a"], blocks["a"])
        npt.assert_array_equal(loaded["b"], blocks["b"])


class TestVenueRecord:
    def test_category_range_enforced(self):
        with pytest.raises(DatasetError, match="category"):
            make_venue("v1", category=11)
        with pytest.raises(DatasetError, match="category"):
            make_venue("v1", category=0)

    def test_zero_photos_allowed(self):
        v = VenueRecord("v1", 2, 0.0, 0.0, np.zeros(4), np.empty((0, 6)))
        assert v.n_photos == 0

    @pytest.mark.parametrize("modality", ["text", "photos"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_are_named(self, modality, bad):
        v = make_venue("v1")
        values = getattr(v, modality).copy()
        values.flat[1] = bad
        with pytest.raises(DatasetError, match=f"'v1': {modality} holds NaN or inf"):
            replace(v, **{modality: values})


class TestManifestRoundTrip:
    def test_counts_readback(self, tmp_path):
        venues = [make_venue("a", seed=1), make_venue("b", seed=2)]
        write_dataset(venues, tmp_path / "manifest.json")
        loaded = load_dataset(tmp_path / "manifest.json")
        assert [v.venue_id for v in loaded] == ["a", "b"]
        assert [v.n_photos for v in loaded] == [3, 3]

    def test_values_bit_exact(self, tmp_path):
        venues = [make_venue(f"v{i:02d}", category=1 + i % 10, seed=i) for i in range(50)]
        write_dataset(venues, tmp_path / "manifest.json")
        loaded = load_dataset(tmp_path / "manifest.json")
        for orig, back in zip(sorted(venues, key=lambda v: v.venue_id), loaded):
            assert back.venue_id == orig.venue_id
            assert back.category == orig.category
            assert back.lat == orig.lat and back.lon == orig.lon
            npt.assert_array_equal(back.text, orig.text)
            npt.assert_array_equal(back.photos, orig.photos)

    def test_empty_list(self, tmp_path):
        write_dataset([], tmp_path / "manifest.json")
        assert load_dataset(tmp_path / "manifest.json") == []

    @pytest.mark.parametrize("modality", ["text", "photos"])
    def test_non_finite_feature_file_is_named(self, modality, tmp_path):
        v = make_venue("v1")
        write_dataset([v], tmp_path / "manifest.json")
        values = np.atleast_2d(getattr(v, modality)).copy()
        values[0, 0] = np.nan
        if modality == "text":
            write_matrix_csv(tmp_path / "v1_text.csv", values)
        else:
            write_matrix(tmp_path / "v1_photos.bin", values)
        with pytest.raises(DatasetError, match=f"'v1': {modality} holds NaN or inf"):
            load_dataset(tmp_path / "manifest.json")

    def test_zero_photo_venue(self, tmp_path):
        v = VenueRecord("solo", 3, 1.0, 2.0, np.arange(4.0), np.empty((0, 6)))
        write_dataset([v], tmp_path / "manifest.json")
        (loaded,) = load_dataset(tmp_path / "manifest.json")
        assert loaded.n_photos == 0
        npt.assert_array_equal(loaded.text, v.text)

    def test_missing_file_diagnostic(self, tmp_path):
        write_dataset([make_venue("a")], tmp_path / "manifest.json")
        (tmp_path / "a_photos.bin").unlink()
        with pytest.raises(DatasetError, match="missing feature file"):
            load_dataset(tmp_path / "manifest.json")

    def test_dimension_mismatch_diagnostic(self, tmp_path):
        write_dataset([make_venue("a")], tmp_path / "manifest.json")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["dim_y"] = 5  # text files carry 4 dims
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="text feature"):
            load_dataset(tmp_path / "manifest.json")

    def test_duplicate_id_diagnostic(self, tmp_path):
        write_dataset([make_venue("a")], tmp_path / "manifest.json")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["venues"].append(manifest["venues"][0])
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="duplicate venue id"):
            load_dataset(tmp_path / "manifest.json")

    def test_category_out_of_range_diagnostic(self, tmp_path):
        write_dataset([make_venue("a")], tmp_path / "manifest.json")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["venues"][0]["category"] = 11
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match="category"):
            load_dataset(tmp_path / "manifest.json")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: m["venues"][1].__delitem__("lat"), r"venue entry 1 lacks key 'lat'"),
            (lambda m: m["venues"][0].__delitem__("id"), r"venue entry 0 lacks key 'id'"),
            (lambda m: m.update(venues=5), r"'venues' is not a list"),
            (lambda m: m["venues"].__setitem__(1, 5), r"venue entry 1 is malformed"),
            (lambda m: [m], r"expected a JSON object, got list"),
            (lambda m: m["venues"][1].update(lat="north"), r"venue entry 1: 'lat' must be a number, got 'north'"),
            (lambda m: m["venues"][0].update(lon=None), r"venue entry 0: 'lon' must be a number, got None"),
            (lambda m: m["venues"][1].update(category="abc"), r"venue entry 1: 'category' must be a number, got 'abc'"),
            (lambda m: m.update(dim_x="abc"), r"'dim_x' must be a number, got 'abc'"),
            (lambda m: m.update(dim_y=None), r"'dim_y' must be a number, got None"),
            (lambda m: m.update(dim_x=[4]), r"'dim_x' must be a number, got \[4\]"),
            (lambda m: m["venues"][1].update(lat="nan"), r"venue 'b': position must be finite, got \(nan, 20.0\)"),
            (lambda m: m["venues"][0].update(lon="-inf"), r"venue 'a': position must be finite, got \(10.0, -inf\)"),
            (lambda m: m["venues"][0].update(category=1e400), r"venue entry 0: 'category' must be a number, got inf"),
            (lambda m: m["venues"][1].update(id=7), r"venue entry 1: 'id' must be a string, got 7"),
        ],
        ids=["no-lat", "no-id", "venues-not-a-list", "entry-not-an-object", "manifest-not-an-object",
             "lat-string", "lon-null", "category-string", "dim-string", "dim-null", "dim-list",
             "lat-nan", "lon-inf", "category-inf", "id-number"],
    )
    def test_malformed_entry_is_named(self, tmp_path, edit, message):
        write_dataset([make_venue("a"), make_venue("b", seed=1)], tmp_path / "manifest.json")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        replaced = edit(manifest)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest if replaced is None else replaced))
        with pytest.raises(DatasetError, match=message) as info:
            load_dataset(tmp_path / "manifest.json")
        assert "manifest.json" in str(info.value)

    @given(flips=st.lists(st.tuples(st.integers(0, 599), st.integers(0, 255)), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_mutated_manifest_loads_or_raises_dataset_error(self, written_dataset, flips):
        raw = bytearray((written_dataset / "manifest.json").read_bytes())
        for at, byte in flips:
            raw[at % len(raw)] = byte
        path = written_dataset / "bent.json"
        path.write_bytes(bytes(raw))
        try:
            load_dataset(path)
        except DatasetError as e:
            assert str(e).startswith(f"{path}: ")


@pytest.fixture(scope="module")
def written_dataset(tmp_path_factory):
    """A directory holding a small dataset's manifest and feature files."""
    root = tmp_path_factory.mktemp("written")
    venues = [make_venue(vid, category=1 + i % 2, n_photos=2, d_x=3, d_y=2, seed=i)
              for i, vid in enumerate("abcd")]
    write_dataset(venues, root / "manifest.json")
    return root


class TestBuildPairs:
    def test_counting_example(self):
        # one venue, 4 photos, ratio picking 2 extras: 3 train pairs, 1 test
        v = make_venue("only", n_photos=4)
        train, test = build_pairs([v], SplitSpec(seed=0, train_venue_fraction=1.0, extra_photo_ratio=2 / 3))
        assert train.n == 3 and test.n == 1
        # every training pair shares the venue's text column
        npt.assert_array_equal(train.Y[:, 0], train.Y[:, 1])
        npt.assert_array_equal(train.Y[:, 0], train.Y[:, 2])

    def test_ratio_zero_primary_only(self):
        venues = [make_venue(f"v{i}", n_photos=5, seed=i) for i in range(6)]
        train, _ = build_pairs(venues, SplitSpec(seed=1, train_venue_fraction=1.0, extra_photo_ratio=0.0))
        assert train.n == 6
        # each training column is its venue's photo 0
        for j, vid in enumerate(train.venue_ids):
            v = next(v for v in venues if v.venue_id == vid)
            npt.assert_array_equal(train.X[:, j], v.photos[0])

    def test_determinism_and_seed_sensitivity(self):
        venues = [make_venue(f"v{i:02d}", n_photos=4, seed=i) for i in range(20)]
        split = SplitSpec(seed=7, train_venue_fraction=0.5, extra_photo_ratio=0.5)
        t1, e1 = build_pairs(venues, split)
        t2, e2 = build_pairs(venues, split)
        npt.assert_array_equal(t1.X, t2.X)
        assert t1.venue_ids == t2.venue_ids and e1.venue_ids == e2.venue_ids
        t3, e3 = build_pairs(venues, replace(split, seed=8))
        assert set(e1.venue_ids) != set(e3.venue_ids) or not np.array_equal(e1.X, e3.X)

    def test_train_test_photos_disjoint_and_covering(self):
        venues = [make_venue(f"v{i}", n_photos=3, seed=i) for i in range(10)]
        train, test = build_pairs(venues, SplitSpec(seed=3, train_venue_fraction=0.6, extra_photo_ratio=0.5))
        assert train.n + test.n == 30
        cols = {tuple(c) for c in np.hstack([train.X, test.X]).T}
        assert len(cols) == 30  # no photo appears twice
        all_ids = {v.venue_id for v in venues}
        assert set(test.venue_ids) <= all_ids

    def test_categories_follow_venues(self):
        venues = [make_venue(f"v{i}", category=1 + i % 3, seed=i) for i in range(9)]
        train, test = build_pairs(venues, SplitSpec(seed=0))
        by_id = {v.venue_id: v.category for v in venues}
        for ds in (train, test):
            for vid, cat in zip(ds.venue_ids, ds.categories):
                assert by_id[vid] == cat

    # photo counts are ragged, 0 and 1 included; the list is not in id order
    RAGGED = [3, 0, 1, 5, 2, 0, 4, 1, 2, 3]

    @pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "fraction,seed,photoless",
        [(1.0, 5, False), (0.3, 0, True), (1.0, 5, True)],
        ids=["all-train", "photoless-held-out", "photoless-trains"],
    )
    def test_matches_the_per_photo_loop(self, fraction, seed, photoless, ratio):
        venues = [
            make_venue(f"v{(7 * i) % 10}", category=1 + i % 4, n_photos=n, seed=i)
            for i, n in enumerate(self.RAGGED)
            if n or photoless
        ]
        split = SplitSpec(seed=seed, train_venue_fraction=fraction, extra_photo_ratio=ratio)
        try:
            expected = reference_pairs(venues, split)
        except DatasetError as exc:
            assert fraction == 1.0  # every venue trains, so a photoless one is rejected
            with pytest.raises(DatasetError, match=f"^{exc}$"):
                build_pairs(venues, split)
            return
        got = build_pairs(venues, split)
        held_out = [v.n_photos for v in venues if v.venue_id not in got[0].venue_ids]
        assert (0 in held_out) == photoless
        for ds, (X, Y, ids, categories, coords) in zip(got, expected):
            npt.assert_array_equal(ds.X, X, strict=True)
            npt.assert_array_equal(ds.Y, Y, strict=True)
            assert ds.venue_ids == ids
            npt.assert_array_equal(ds.categories, categories, strict=True)
            npt.assert_array_equal(ds.coords, coords, strict=True)

    def test_held_out_photoless_venue_may_have_any_width(self):
        venues = [make_venue(f"v{i}", seed=i) for i in range(4)]
        venues.append(VenueRecord("a_empty", 1, 0.0, 0.0, np.zeros(4), np.empty((0, 0))))
        train, test = build_pairs(venues, SplitSpec(seed=0, train_venue_fraction=0.5))
        assert "a_empty" not in train.venue_ids + test.venue_ids
        assert (train.X.shape[0], train.n + test.n) == (6, 12)

    def test_zero_photo_training_venue_rejected(self):
        v = VenueRecord("empty", 1, 0.0, 0.0, np.zeros(4), np.empty((0, 6)))
        with pytest.raises(DatasetError, match="no photos"):
            build_pairs([v], SplitSpec(seed=0, train_venue_fraction=1.0))

    def test_split_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_venue_fraction=0.0)
        with pytest.raises(ValueError):
            SplitSpec(extra_photo_ratio=1.5)


class TestSynthGenerate:
    def test_deterministic_bytes(self, tmp_path):
        cfg = SynthConfig(n_venues=20, n_categories=4, photos_per_venue=3, d_x=8, d_y=5, seed=9)
        for d in ("one", "two"):
            write_dataset(synth_generate(cfg), tmp_path / d / "manifest.json")
        for f in sorted((tmp_path / "one").iterdir()):
            assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes()

    def test_latent_cosine_gap(self):
        cfg = SynthConfig(seed=0)
        _, _, mix, categories = synth_latents(cfg)
        norm = mix / np.linalg.norm(mix, axis=0)
        cos = norm.T @ norm
        same = categories[:, None] == categories[None, :]
        off = ~np.eye(len(categories), dtype=bool)
        within = cos[same & off].mean()
        across = cos[~same].mean()
        assert within - across >= 0.1

    def test_pure_category_signal(self):
        cfg = SynthConfig(
            n_venues=12, n_categories=3, photos_per_venue=2, d_x=6, d_y=4,
            category_signal=1.0, venue_signal=0.0, noise=0.0, seed=4,
        )
        venues = synth_generate(cfg)
        by_cat = {}
        for v in venues:
            by_cat.setdefault(v.category, []).append(v)
        for cat, vs in by_cat.items():
            for v in vs[1:]:
                npt.assert_allclose(v.photos[0], vs[0].photos[0], atol=1e-12)
        cat_basis, _, _, _ = synth_latents(cfg)
        npt.assert_allclose(cat_basis.T @ cat_basis, np.eye(3), atol=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_venues=0)
        with pytest.raises(ValueError):
            SynthConfig(n_venues=5, n_categories=6)
        with pytest.raises(ValueError):
            SynthConfig(noise=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(photos_per_venue=0)

    def test_default_set_loads_and_pairs(self, tmp_path):
        venues = synth_generate(SynthConfig(n_venues=30, photos_per_venue=4, d_x=10, d_y=6))
        write_dataset(venues, tmp_path / "manifest.json")
        loaded = load_dataset(tmp_path / "manifest.json")
        train, test = build_pairs(loaded, SplitSpec(seed=0))
        assert train.n > 0 and test.n > 0
        assert train.X.shape[0] == 10 and train.Y.shape[0] == 6


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km(35.0, 139.0, 35.0, 139.0) == 0.0

    def test_one_degree_latitude(self):
        # 1 degree of latitude is about 111.19 km on a 6371 km sphere
        d = haversine_km(0.0, 0.0, 1.0, 0.0)
        assert d == pytest.approx(111.195, abs=0.01)

    def test_symmetry_and_broadcast(self):
        lats = np.array([10.0, 20.0])
        d1 = haversine_km(0.0, 0.0, lats, 5.0)
        d2 = haversine_km(lats, 5.0, 0.0, 0.0)
        npt.assert_allclose(d1, d2, atol=1e-12)
        assert d1.shape == (2,)
