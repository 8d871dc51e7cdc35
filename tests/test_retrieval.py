import math
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venuecca import fit, retrieval
from venuecca.cca import LinearCcaModel
from venuecca.dataio import (
    PairedDataset,
    SplitSpec,
    SynthConfig,
    VenueRecord,
    build_pairs,
    haversine_km,
    synth_generate,
)
from venuecca.neural import TrainConfig
from venuecca.retrieval import (
    GeoFilter,
    RankList,
    VenueIndex,
    average_precision,
    build_index,
    evaluate,
    mean_average_precision,
    mrr1,
    rank_photos,
    rank_venues,
    recall_precision_curve,
)


def identity_model(k):
    """A head whose projections are the raw features, for oracle tests."""
    return LinearCcaModel(
        mean_x=np.zeros(k),
        mean_y=np.zeros(k),
        Wx=np.eye(k),
        Wy=np.eye(k),
        rho=np.linspace(1.0, 0.5, k),
        r=0.0,
    )


def make_index(vectors, categories=None, coords=None):
    k, n = vectors.shape
    return VenueIndex(
        venue_ids=[f"v{i:03d}" for i in range(n)],
        categories=np.array(categories if categories is not None else [1] * n),
        coords=np.array(coords if coords is not None else [[0.0, 0.0]] * n),
        vectors=np.asarray(vectors, dtype=float),
    )


def rank(photo, index, **kwargs):
    return rank_venues(photo, identity_model(index.vectors.shape[0]), index, **kwargs)


def ranklist(ids, cats, true_venue=None, true_cat=None):
    n = len(ids)
    return RankList(
        query_id="q",
        venue_ids=list(ids),
        scores=np.linspace(1.0, 0.0, n),
        categories=np.array(cats),
        true_venue_id=true_venue,
        true_category=true_cat,
    )


class TestScore:
    """The ranker scores a venue by the cosine of its vector and the query's."""

    @staticmethod
    def scores(photo, venue_vectors):
        got = rank(np.asarray(photo, dtype=float), make_index(np.array(venue_vectors, dtype=float).T))
        return dict(zip(got.venue_ids, got.scores.tolist()))

    def test_cosine_examples(self):
        got = self.scores([1, 0], [[1, 0], [0, 1], [-1, 0]])
        assert got == pytest.approx({"v000": 1.0, "v001": 0.0, "v002": -1.0})
        assert self.scores([1, 1], [[1, 0]])["v000"] == pytest.approx(1 / np.sqrt(2))

    def test_zero_vector_convention(self):
        got = self.scores([0, 0], [[1, 2], [-3, 1]])
        assert got == {"v000": 0.0, "v001": 0.0}
        assert not np.signbit(list(got.values())).any()
        assert self.scores([1, 2], [[0, 0], [1, 2]])["v000"] == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        u, V = rng.standard_normal(5), rng.standard_normal((4, 5))
        V[0] *= 0.01
        got, want = self.scores(17.0 * u, V), self.scores(u, V)
        assert got.keys() == want.keys()
        for vid, value in want.items():
            assert abs(got[vid] - value) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="expects 2-dim vectors, got 3"):
            rank(np.array([1.0, 2.0, 3.0]), make_index(np.eye(2)))


class TestIndex:
    def test_build_index_projects_text(self):
        rng = np.random.default_rng(1)
        venues = [
            VenueRecord(
                venue_id=f"v{i}",
                category=1 + i % 3,
                lat=float(i),
                lon=0.0,
                text=rng.standard_normal(4),
                photos=rng.standard_normal((2, 4)),
            )
            for i in range(6)
        ]
        model = identity_model(4)
        index = build_index(model, venues)
        assert index.n == 6
        npt.assert_allclose(index.vectors[:, 2], venues[2].text, atol=1e-12)
        npt.assert_array_equal(index.categories, [1 + i % 3 for i in range(6)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            VenueIndex(
                venue_ids=["a", "a"],
                categories=np.array([1, 2]),
                coords=np.zeros((2, 2)),
                vectors=np.zeros((3, 2)),
            )

    def test_non_finite_vectors_rejected(self):
        # a nan score would sort after the +inf keys of filtered-out venues
        with pytest.raises(ValueError, match="not finite"):
            make_index(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="count"):
            VenueIndex(
                venue_ids=["a", "b"],
                categories=np.array([1]),
                coords=np.zeros((2, 2)),
                vectors=np.zeros((3, 2)),
            )
        with pytest.raises(ValueError, match="index vectors disagree on venue count"):
            VenueIndex(
                venue_ids=["a", "b"],
                categories=np.array([1, 2]),
                coords=np.zeros((2, 2)),
                vectors=np.zeros((3, 3)),
            )


class TestRankVenues:
    def test_single_venue(self):
        index = make_index(np.array([[1.0], [0.0]]))
        rl = rank(np.array([1.0, 0.0]), index, true_venue_id="v000")
        assert rl.venue_ids == ["v000"]
        assert rl.scores[0] == pytest.approx(1.0)

    def test_orders_by_similarity(self):
        # three venues at known angles from the query direction
        V = np.array([[1.0, 0.0, 0.7], [0.0, 1.0, 0.7]])
        index = make_index(V)
        rl = rank(np.array([1.0, 0.0]), index)
        assert rl.venue_ids == ["v000", "v002", "v001"]
        assert np.all(np.diff(rl.scores) <= 1e-12)

    def test_tie_breaks_by_venue_id(self):
        V = np.array([[1.0, 2.0, 1.0], [0.0, 0.0, 0.0]])  # cosine ties at 1.0
        index = make_index(V)
        rl = rank(np.array([3.0, 0.0]), index)
        assert rl.venue_ids == ["v000", "v001", "v002"]

    def test_geo_filter_admits_near_only(self):
        coords = [[0.0, 0.0], [0.5, 0.5], [0.0, 0.001]]  # ~0, ~78 km, ~0.1 km
        index = make_index(np.eye(3), coords=coords)
        rl = rank(
            np.array([0.0, 1.0, 0.0]),
            index,
            geo=GeoFilter(lat=0.0, lon=0.0, radius_km=1.0),
        )
        assert set(rl.venue_ids) == {"v000", "v002"}

    def test_geo_filter_can_empty(self):
        index = make_index(np.eye(2), coords=[[10.0, 10.0], [11.0, 11.0]])
        rl = rank(
            np.array([1.0, 0.0]),
            index,
            geo=GeoFilter(lat=-10.0, lon=-10.0, radius_km=5.0),
        )
        assert rl.empty_after_filter and rl.venue_ids == []

    def test_filter_never_demotes_surviving_truth(self):
        rng = np.random.default_rng(2)
        k, n = 4, 30
        V = rng.standard_normal((k, n))
        coords = rng.uniform(-0.02, 0.02, (n, 2)).tolist()
        index = make_index(V, coords=coords)
        photo = rng.standard_normal(k)
        full = rank(photo, index)
        filt = rank(photo, index, geo=GeoFilter(lat=0.0, lon=0.0, radius_km=2.0))
        assert 0 < len(filt.venue_ids) < n
        for vid in filt.venue_ids:
            assert filt.venue_ids.index(vid) <= full.venue_ids.index(vid)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        index = make_index(rng.standard_normal((3, 20)))
        photo = rng.standard_normal(3)
        r1 = rank(photo, index)
        r2 = rank(photo, index)
        assert r1.venue_ids == r2.venue_ids
        npt.assert_array_equal(r1.scores, r2.scores)

    def test_non_finite_query_is_named(self):
        index = make_index(np.eye(3))
        with pytest.raises(ValueError, match="query q7 projects to a non-finite vector"):
            rank(np.array([0.0, np.nan, 1.0]), index, query_id="q7")

    def test_query_whose_length_overflows_is_named(self):
        # its squared length is inf, which would score every venue 0 and rank by id
        index = make_index(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]]))
        with pytest.raises(ValueError, match="^query q7 projects to a vector whose length overflows$"):
            rank(np.array([1e300, 0.0]), index, query_id="q7")
        # a long query whose squared length still fits ranks by cosine as usual
        assert rank(np.array([1e154, 0.0]), index).venue_ids == ["v000", "v002", "v001"]

    def test_weight_by_rho_changes_order(self):
        model = LinearCcaModel(
            mean_x=np.zeros(2),
            mean_y=np.zeros(2),
            Wx=np.eye(2),
            Wy=np.eye(2),
            rho=np.array([1.0, 0.1]),
            r=0.0,
        )
        # second component dominates raw cosine but is nearly uninformative
        V = np.eye(2)
        index = make_index(V)
        photo = np.array([1.0, 2.0])
        plain = rank_venues(photo, model, index)
        weighted = rank_venues(photo, model, index, weight_by_rho=True)
        assert plain.venue_ids[0] == "v001"
        assert weighted.venue_ids[0] == "v000"


class TestMrr1:
    def test_textbook_example(self):
        rls = [
            ranklist(["a", "b", "c"], [1, 1, 1], true_venue="a"),
            ranklist(["a", "b", "c"], [1, 1, 1], true_venue="c"),
        ]
        assert mrr1(rls) == pytest.approx((1.0 + 1.0 / 3.0) / 2.0)

    def test_absent_venue_counts_zero(self):
        rls = [ranklist(["a", "b"], [1, 1], true_venue="z")]
        assert mrr1(rls) == 0.0

    def test_empty_input_and_missing_truth(self):
        with pytest.raises(ValueError, match="zero queries"):
            mrr1([])
        with pytest.raises(ValueError, match="truth"):
            mrr1([ranklist(["a"], [1])])


class TestAveragePrecision:
    def test_textbook_example(self):
        # relevant at ranks 1 and 3: (1/1 + 2/3) / 2
        rl = ranklist(["a", "b", "c"], [5, 1, 5], true_cat=5)
        assert average_precision(rl) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_all_relevant_first_is_one(self):
        rl = ranklist(["a", "b", "c", "d"], [2, 2, 1, 1], true_cat=2)
        assert average_precision(rl) == pytest.approx(1.0)

    def test_no_relevant_returns_none(self):
        assert average_precision(ranklist(["a"], [1], true_cat=9)) is None

    def test_mean_ap_skips_and_warns(self):
        rls = [
            ranklist(["a", "b"], [1, 2], true_cat=1),
            ranklist(["a", "b"], [1, 2], true_cat=7),
        ]
        with pytest.warns(UserWarning, match="skipped"):
            value, skipped = mean_average_precision(rls)
        assert skipped == 1
        assert value == pytest.approx(1.0)
        with pytest.raises(ValueError, match="undefined"):
            mean_average_precision([])


class TestRecallPrecisionCurve:
    def test_full_cutoff_recall_is_one(self):
        rl = ranklist(["a", "b", "c", "d"], [1, 2, 1, 2], true_cat=1)
        curve = recall_precision_curve([rl], [1, 4])
        assert curve[0] == pytest.approx((0.5, 1.0))
        assert curve[1][0] == pytest.approx(1.0)
        assert curve[1][1] == pytest.approx(0.5)

    def test_recall_is_monotone(self):
        rng = np.random.default_rng(4)
        rls = []
        for _ in range(20):
            cats = rng.integers(1, 4, 15)
            rls.append(ranklist([f"v{i}" for i in range(15)], cats, true_cat=1))
        rls = [rl for rl in rls if (rl.categories == 1).any()]
        curve = recall_precision_curve(rls, [1, 3, 5, 10, 15])
        recalls = [r for r, _ in curve]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] == pytest.approx(1.0)

    def test_clamp_warns(self):
        rl = ranklist(["a", "b"], [1, 1], true_cat=1)
        with pytest.warns(UserWarning, match="clamped"):
            curve = recall_precision_curve([rl], [1, 5])
        assert curve[1] == pytest.approx((1.0, 1.0))

    def test_cutoff_validation(self):
        rl = ranklist(["a"], [1], true_cat=1)
        for bad in ([0, 2], [3, 2], [2, 2]):
            with pytest.raises(ValueError, match="ascending"):
                recall_precision_curve([rl], bad)

    def test_no_relevant_anywhere(self):
        with pytest.raises(ValueError, match="undefined"):
            recall_precision_curve([ranklist(["a"], [1], true_cat=2)], [1])

    def test_missing_category_truth_raises(self):
        a = ranklist(["a"], [1])
        b = ranklist(["x", "y"], [1, 2], true_cat=1)
        with pytest.raises(ValueError, match="lacks category truth"):
            recall_precision_curve([a, b], [1, 2])


def reference_metrics(ranklists, cutoffs):
    """Plain-loop re-implementation of MRR1 / MAP / curve for cross-checks."""
    rr = []
    aps = []
    rows = []
    for rl in ranklists:
        if rl.true_venue_id in rl.venue_ids:
            rr.append(1.0 / (rl.venue_ids.index(rl.true_venue_id) + 1))
        else:
            rr.append(0.0)
        rel = [int(c == rl.true_category) for c in rl.categories]
        if sum(rel) == 0:
            continue
        hits = 0
        precisions = []
        for pos, flag in enumerate(rel, start=1):
            if flag:
                hits += 1
                precisions.append(hits / pos)
        aps.append(sum(precisions) / sum(rel))
        row = []
        for c in cutoffs:
            c_eff = min(c, len(rel))
            h = sum(rel[:c_eff])
            row.append((h / sum(rel), h / c_eff))
        rows.append(row)
    curve = [
        (
            sum(r[i][0] for r in rows) / len(rows),
            sum(r[i][1] for r in rows) / len(rows),
        )
        for i in range(len(cutoffs))
    ]
    return sum(rr) / len(rr), sum(aps) / len(aps), curve


class TestAgainstReference:
    def test_random_ranklists_match_loop_reference(self):
        rng = np.random.default_rng(5)
        rls = []
        for q in range(200):
            n = int(rng.integers(3, 12))
            ids = [f"v{q}_{i}" for i in range(n)]
            cats = rng.integers(1, 5, n)
            true_id = ids[int(rng.integers(n))] if rng.random() < 0.8 else "missing"
            rls.append(
                RankList(
                    query_id=str(q),
                    venue_ids=ids,
                    scores=np.sort(rng.random(n))[::-1],
                    categories=cats,
                    true_venue_id=true_id,
                    true_category=int(rng.integers(1, 5)),
                )
            )
        cutoffs = [1, 2, 3]
        keep = [rl for rl in rls if (rl.categories == rl.true_category).any()]
        ref_mrr, ref_map, ref_curve = reference_metrics(rls, cutoffs)
        assert mrr1(rls) == pytest.approx(ref_mrr, abs=1e-12)
        with pytest.warns(UserWarning):
            got_map, _ = mean_average_precision(rls)
        assert got_map == pytest.approx(ref_map, abs=1e-12)
        got_curve = recall_precision_curve(keep, cutoffs)
        for (gr, gp), (rr_, rp) in zip(got_curve, ref_curve):
            assert gr == pytest.approx(rr_, abs=1e-12)
            assert gp == pytest.approx(rp, abs=1e-12)


def key_sort_reference(photo, index, geo, weight_by_rho):
    """Rank with a plain cosine per venue and sorted(key=(-score, venue_id))."""
    k = index.vectors.shape[0]
    w = identity_model(k).rho if weight_by_rho else np.ones(k)
    q = np.asarray(photo, dtype=float) * w
    pool = range(index.n)
    if geo is not None:
        dists = haversine_km(geo.lat, geo.lon, index.coords[:, 0], index.coords[:, 1])
        pool = [j for j in pool if dists[j] <= geo.radius_km]
    rows = []
    for j in pool:
        v = index.vectors[:, j] * w
        denom = math.sqrt(q @ q) * math.sqrt(v @ v)
        cos = float(q @ v) / denom if denom > 0.0 else 0.0
        rows.append((cos, index.venue_ids[j], int(index.categories[j])))
    rows.sort(key=lambda row: (-row[0], row[1]))
    return rows


class TestRankAgainstKeySort:
    # Small integer vectors make many cosines tie exactly, and rho =
    # (1, 0.75, 0.5) keeps weighted products exact, so the reference and
    # the ranker see the same ties. Ids are shuffled against column order.
    @pytest.mark.parametrize(
        "case", ["no-filter", "1km", "filter-empties-pool", "weight-by-rho"]
    )
    def test_matches_reference(self, case):
        rng = np.random.default_rng(12)
        n = 60
        centre = np.array([10.0, 20.0])
        index = VenueIndex(
            venue_ids=[f"v{i:03d}" for i in rng.permutation(n)],
            categories=rng.integers(1, 4, n),
            coords=centre + rng.uniform(-0.02, 0.02, (n, 2)),
            vectors=rng.integers(-1, 2, (3, n)).astype(float),
        )
        for qi in range(25):
            photo = rng.integers(-1, 2, 3).astype(float)
            geo = None
            if case == "1km":
                geo = GeoFilter(*index.coords[qi], radius_km=1.0)
            elif case == "filter-empties-pool":
                geo = GeoFilter(-60.0, 100.0, radius_km=1.0)
            weight = case == "weight-by-rho"
            got = rank(photo, index, geo=geo, weight_by_rho=weight)
            ref = key_sort_reference(photo, index, geo, weight)
            assert got.venue_ids == [r[1] for r in ref]
            assert got.categories.tolist() == [r[2] for r in ref]
            npt.assert_allclose(got.scores, [r[0] for r in ref], rtol=0, atol=1e-12)
            assert got.empty_after_filter == (case == "filter-empties-pool")


class TestSortRows:
    """The block ranker's row sort against the stable argsort, on keys with
    many ties: a few small values, both signed zeros, and +inf columns
    (the venues outside a geo filter)."""

    VALUES = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.inf])

    @given(
        rows=st.sampled_from([1, 2, 7, 40]),
        n=st.integers(1, 300),
        far_share=st.sampled_from([0.0, 0.5, 0.97]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_stable_argsort(self, rows, n, far_share, seed):
        rng = np.random.default_rng(seed)
        keys = rng.choice(self.VALUES[: rng.integers(1, self.VALUES.size + 1)], (rows, n))
        keys[:, rng.random(n) < far_share] = np.inf
        stable = np.argsort(keys, axis=1, kind="stable")
        for filtered in (False, True):
            npt.assert_array_equal(retrieval._sort_rows(keys, filtered), stable)


class TestEvaluate:
    def make_test_set(self, seed=6, n=40, k=3):
        rng = np.random.default_rng(seed)
        Y = rng.standard_normal((k, n))
        X = Y + 0.1 * rng.standard_normal((k, n))
        return PairedDataset(
            X=X,
            Y=Y,
            venue_ids=[f"v{i:03d}" for i in range(n)],
            categories=1 + rng.integers(0, 4, n),
            coords=rng.uniform(-0.01, 0.01, (n, 2)),
        )

    def make_parallel_index(self, test):
        return VenueIndex(
            venue_ids=list(test.venue_ids),
            categories=np.asarray(test.categories),
            coords=np.asarray(test.coords),
            vectors=np.asarray(test.Y, dtype=float),
        )

    def test_report_bounds_and_shapes(self):
        test = self.make_test_set()
        report = evaluate(identity_model(3), self.make_parallel_index(test), test)
        assert 0.0 <= report.mrr1 <= 1.0
        assert 0.0 <= report.map <= 1.0
        assert report.n_queries == 40
        assert len(report.recall_precision) == len(report.cutoffs)
        assert set(report.per_category_map) <= {1, 2, 3, 4}

    def test_near_duplicate_features_rank_truth_first(self):
        test = self.make_test_set(seed=7)
        report = evaluate(identity_model(3), self.make_parallel_index(test), test)
        assert report.mrr1 > 0.9

    def test_geo_filter_lifts_mrr1(self):
        test = self.make_test_set(seed=8, n=60)
        index = self.make_parallel_index(test)
        plain = evaluate(identity_model(3), index, test)
        with pytest.warns(UserWarning, match="clamped to pool size"):
            geo = evaluate(identity_model(3), index, test, geo_radius_km=0.5)
        assert geo.mrr1 >= plain.mrr1

    @pytest.mark.parametrize("n,cutoffs", [(40, [1, 2, 5, 10, 20, 40]), (60, [1, 2, 5, 10, 20, 50, 60]),
                                           (50, [1, 2, 5, 10, 20, 50]), (3, [1, 2, 3])])
    def test_cutoffs_are_the_fixed_set_within_the_index(self, n, cutoffs):
        test = self.make_test_set(n=n)
        report = evaluate(identity_model(3), self.make_parallel_index(test), test)
        assert report.cutoffs == cutoffs and all(type(c) is int for c in report.cutoffs)
        assert report.recall_precision_csv().split("\n")[1:-1][-1].startswith(f"{n},")

    def test_every_query_skipped_is_an_error(self):
        test = self.make_test_set()
        test.categories[:] = 9  # no venue of the index shares it
        index = self.make_parallel_index(replace(test, categories=np.ones(test.n, dtype=int)))
        with pytest.warns(UserWarning, match="40 queries had no relevant venue"):
            with pytest.raises(ValueError, match="every query was skipped; MAP is undefined"):
                evaluate(identity_model(3), index, test)

    def test_report_serialization_round_trip(self):
        import json

        test = self.make_test_set(seed=9)
        report = evaluate(identity_model(3), self.make_parallel_index(test), test)
        blob = json.loads(report.to_json())
        assert blob["mrr1"] == report.mrr1
        assert blob["n_queries"] == 40
        csv = report.recall_precision_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "cutoff,recall,precision"
        assert len(lines) == 1 + len(report.cutoffs)

    def test_average_precision_once_per_query(self, monkeypatch):
        # evaluate computes AP for a chunk of queries at a time; no query
        # may pass through the metric helper twice
        rows = []
        real = retrieval._query_metrics
        monkeypatch.setattr(
            retrieval, "_query_metrics", lambda rel, *a: rows.append(rel.shape[0]) or real(rel, *a)
        )
        monkeypatch.setattr(retrieval, "CHUNK_ELEMENTS", 7 * 40)
        test = self.make_test_set()
        evaluate(identity_model(3), self.make_parallel_index(test), test)
        assert len(rows) == 6 and sum(rows) == test.n

    def test_position_noise_is_seeded(self):
        test = self.make_test_set(seed=10)
        index = self.make_parallel_index(test)
        kwargs = dict(geo_radius_km=1.0, position_noise_km=0.5, seed=3)
        with pytest.warns(UserWarning, match="clamped to pool size"), pytest.warns(
            UserWarning, match="queries had no relevant venue"
        ):
            r1 = evaluate(identity_model(3), index, test, **kwargs)
            r2 = evaluate(identity_model(3), index, test, **kwargs)
        assert r1.mrr1 == r2.mrr1 and r1.map == r2.map

    def test_non_finite_query_is_named(self):
        test = self.make_test_set()
        test.X[1, 5] = np.nan
        with pytest.raises(ValueError, match="query 5 projects to a non-finite vector"):
            evaluate(identity_model(3), self.make_parallel_index(test), test)

    def test_query_whose_length_overflows_is_named(self):
        test = self.make_test_set()
        test.X[:, 5] = [0.0, -1e300, 0.0]
        with pytest.raises(ValueError, match="^query 5 projects to a vector whose length overflows$"):
            evaluate(identity_model(3), self.make_parallel_index(test), test)

    def test_bad_radius_rejected_before_ranking(self, monkeypatch):
        test = self.make_test_set()
        monkeypatch.setattr(retrieval, "_ranked_chunks", None)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="geo radius"):
                evaluate(identity_model(3), self.make_parallel_index(test), test, geo_radius_km=bad)

    @pytest.mark.parametrize("radius", [None, 1.0])
    def test_bad_position_noise_rejected_before_ranking(self, monkeypatch, radius):
        # a negative or NaN sigma must not read as "no noise"
        test = self.make_test_set()
        monkeypatch.setattr(retrieval, "_ranked_chunks", None)
        for bad in (-3.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="position_noise_km"):
                evaluate(
                    identity_model(3),
                    self.make_parallel_index(test),
                    test,
                    geo_radius_km=radius,
                    position_noise_km=bad,
                )


class TestGeoFilter:
    @pytest.mark.parametrize(
        "lat,lon,radius", [(0.0, 0.0, -1.0), (0.0, 0.0, math.nan), (0.0, 0.0, math.inf),
                           (math.nan, 0.0, 1.0), (0.0, math.inf, 1.0)]
    )
    def test_rejects_bad_values(self, lat, lon, radius):
        with pytest.raises(ValueError, match="geo"):
            GeoFilter(lat, lon, radius)

    def test_zero_radius_admits_only_the_exact_position(self):
        index = make_index(np.eye(2), coords=[[1.0, 2.0], [1.0, 2.001]])
        rl = rank(np.array([1.0, 1.0]), index, geo=GeoFilter(1.0, 2.0, 0.0))
        assert rl.venue_ids == ["v000"]


def quantised_case(seed=13, n=60, m=45, far_every=None):
    """An index with shuffled ids and integer vectors (so cosines tie), and a
    test set of integer photos whose truth ids include one the index lacks
    and whose categories include one no venue has."""
    rng = np.random.default_rng(seed)
    centre = np.array([10.0, 20.0])
    index = VenueIndex(
        venue_ids=[f"v{i:03d}" for i in rng.permutation(n)],
        categories=rng.integers(1, 4, n),
        coords=centre + rng.uniform(-0.02, 0.02, (n, 2)),
        vectors=rng.integers(-1, 2, (3, n)).astype(float),
    )
    truth = rng.integers(0, n, m)
    coords = index.coords[truth].copy()
    if far_every:
        coords[::far_every] = [-60.0, 100.0]
    test = PairedDataset(
        X=rng.integers(-1, 2, (3, m)).astype(float),
        Y=np.zeros((3, m)),
        venue_ids=[index.venue_ids[j] for j in truth[:-1]] + ["absent"],
        categories=np.concatenate([index.categories[truth[:-2]], [9, 9]]),
        coords=coords,
    )
    return index, test


def reference_evaluate(index, test, radius, weight, noise_km=0.0, seed=0):
    """The rankings evaluate scores, one photo at a time through
    key_sort_reference, with the position noise drawn one scalar at a time."""
    rng = np.random.default_rng(seed)
    deg_per_km = 180.0 / (np.pi * 6371.0)
    ranklists = []
    for i in range(test.n):
        geo = None
        if radius is not None:
            lat, lon = test.coords[i]
            if noise_km > 0.0:
                lat = lat + rng.normal(0.0, noise_km) * deg_per_km
                lon = lon + rng.normal(0.0, noise_km) * deg_per_km / np.cos(np.radians(lat))
            geo = GeoFilter(float(lat), float(lon), radius)
        rows = key_sort_reference(test.X[:, i], index, geo, weight)
        ranklists.append(
            RankList(
                query_id=str(i),
                venue_ids=[r[1] for r in rows],
                scores=np.array([r[0] for r in rows]),
                categories=np.array([r[2] for r in rows], dtype=int),
                true_venue_id=test.venue_ids[i],
                true_category=int(test.categories[i]),
            )
        )
    return ranklists


class TestEvaluateAgainstReference:
    CASES = {
        "no-filter": dict(),
        "1km": dict(geo_radius_km=1.0),
        "filter-empties-some-pools": dict(geo_radius_km=1.0, far_every=4),
        "weight-by-rho": dict(weight_by_rho=True),
        "position-noise": dict(geo_radius_km=1.0, position_noise_km=0.5, seed=3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_query_reference(self, case):
        kwargs = dict(self.CASES[case])
        index, test = quantised_case(far_every=kwargs.pop("far_every", None))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = evaluate(identity_model(3), index, test, **kwargs)
        ranklists = reference_evaluate(
            index,
            test,
            kwargs.get("geo_radius_km"),
            kwargs.get("weight_by_rho", False),
            kwargs.get("position_noise_km", 0.0),
            kwargs.get("seed", 0),
        )
        ref_mrr, ref_map, ref_curve = reference_metrics(ranklists, report.cutoffs)
        assert report.mrr1 == pytest.approx(ref_mrr, rel=0, abs=1e-12)
        assert report.map == pytest.approx(ref_map, rel=0, abs=1e-12)
        npt.assert_allclose(report.recall_precision, ref_curve, rtol=0, atol=1e-12)
        scored = [rl for rl in ranklists if (rl.categories == rl.true_category).any()]
        ref_per_cat = {
            c: reference_metrics([rl for rl in scored if rl.true_category == c], [1])[1]
            for c in sorted({rl.true_category for rl in scored})
        }
        assert report.per_category_map.keys() == ref_per_cat.keys()
        for c, value in ref_per_cat.items():
            assert report.per_category_map[c] == pytest.approx(value, rel=0, abs=1e-12)
        assert report.n_skipped == len(ranklists) - len(scored) > 0
        pools = [len(rl.venue_ids) for rl in scored]
        expected = {"queries had no relevant venue"}
        if min(pools) < max(report.cutoffs):
            expected.add("clamped to pool size")
        got = {key for key in ("queries had no relevant venue", "clamped to pool size")
               for w in caught if key in str(w.message)}
        assert got == expected and len(caught) == len(expected)
        if case == "filter-empties-some-pools":
            assert sum(not rl.venue_ids for rl in ranklists) >= 10

    def test_shuffled_index_columns_give_identical_report(self):
        index, test = quantised_case()
        perm = np.random.default_rng(4).permutation(index.n)
        shuffled = VenueIndex(
            venue_ids=[index.venue_ids[j] for j in perm],
            categories=index.categories[perm],
            coords=index.coords[perm],
            vectors=index.vectors[:, perm],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = evaluate(identity_model(3), index, test, geo_radius_km=1.0)
            b = evaluate(identity_model(3), shuffled, test, geo_radius_km=1.0)
        assert a.to_json() == b.to_json()

    # One-row chunks take the stable sort; three-row chunks of an
    # unfiltered case take the SIMD sort and its re-sort of tied rows.
    CHUNKING_CASES = {
        "filtered": dict(geo_radius_km=1.0, position_noise_km=0.5, seed=3, weight_by_rho=True),
        "no-filter": dict(),
        "no-filter-weight-by-rho": dict(weight_by_rho=True),
    }

    @pytest.mark.parametrize("rows", [1, 3])
    def test_chunking_does_not_change_report_bytes(self, monkeypatch, rows):
        index, test = quantised_case(far_every=4)
        for case, kwargs in self.CHUNKING_CASES.items():
            with warnings.catch_warnings(), monkeypatch.context() as patch:
                warnings.simplefilter("ignore")
                whole = evaluate(identity_model(3), index, test, **kwargs)
                patch.setattr(retrieval, "CHUNK_ELEMENTS", rows * index.n)
                chunked = evaluate(identity_model(3), index, test, **kwargs)
            assert chunked.to_json() == whole.to_json(), case

    @pytest.mark.parametrize("weight_by_rho", [False, True])
    def test_quantised_case_holds_tied_rows(self, weight_by_rho):
        # so that the unfiltered cases above run the re-sort of tied rows
        index, test = quantised_case()
        ((_, order, keys, _),) = retrieval._ranked_chunks(
            identity_model(3), index, test.X, weight_by_rho=weight_by_rho
        )
        ranked = np.take_along_axis(keys, order, axis=1)
        assert (ranked[:, 1:] == ranked[:, :-1]).any(axis=1).sum() > test.n // 2


@pytest.fixture(scope="module")
def fitted():
    """Small c-cca, c-kcca and c-dcca models, their venues and a test set."""
    venues = synth_generate(
        SynthConfig(n_venues=20, n_categories=4, photos_per_venue=3, d_x=8, d_y=6, seed=0)
    )
    train, test = build_pairs(venues, SplitSpec(seed=0))
    config = TrainConfig(
        learning_rate=1e-3, batch_size=8, epochs=2, k=2, hidden_sizes=(8,), dropout_rate=0.0
    )
    models = {m: fit(m, train, config) for m in ("c-cca", "c-kcca", "c-dcca")}
    return venues, test, models


class TestNonFiniteFeatures:
    """A photo with a NaN or inf feature is named before it is projected:
    a linear or deep map would warn on it, and a kernel map turns an inf
    into a finite column that ranks like a real photo."""

    @pytest.mark.parametrize("entry", ["rank_venues", "evaluate", "rank_photos"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("method", ["c-cca", "c-kcca", "c-dcca"])
    def test_query_is_named(self, fitted, method, bad, entry):
        venues, test, models = fitted
        model = models[method]
        index = build_index(model, venues)
        # a two-photo block, the second photo bad
        two = replace(
            test,
            X=test.X[:, :2].copy(),
            Y=test.Y[:, :2],
            venue_ids=test.venue_ids[:2],
            categories=test.categories[:2],
            coords=test.coords[:2],
        )
        two.X[1, 1] = bad
        with pytest.raises(ValueError, match=r"^query (q1|1) projects to a non-finite vector$"):
            if entry == "rank_venues":
                rank_venues(two.X[:, 1], model, index, query_id="q1")
            elif entry == "evaluate":
                evaluate(model, index, two)
            else:
                list(rank_photos(two.X, model, index))
