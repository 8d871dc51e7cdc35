"""The top-k CCA solve against the full-SVD solve it replaced, written out.

Both fits keep the k leading canonical pairs; the reference gets them from
a full np.linalg.svd of T = A C_xy B, so fitted models, and the venue
order they give, must agree with it up to rounding.
"""

import numpy as np
import pytest

from venuecca.cca import GroupIndex, LinearCcaModel, combined_cross_covariance, fit_cca
from venuecca.dataio import SplitSpec, SynthConfig, build_pairs, synth_generate
from venuecca.kcca import KernelCcaModel, KernelMap, fit_kcca, median_heuristic_bandwidth
from venuecca.retrieval import GeoFilter, build_index, rank_venues

from reference import full_svd_cca

K, RIDGE, BETA = 10, 1e-4, 0.3


def reference_head(X, Y, groups):
    """Whiten both views, take a full SVD of T, pin signs on W = A U."""
    n = X.shape[1]
    mean_x, mean_y = X.mean(axis=1), Y.mean(axis=1)
    Xc = X - mean_x[:, None]
    Yc = Y - mean_y[:, None]
    Cxy = combined_cross_covariance(Xc, Yc, groups, BETA) * (n / (n - 1))
    A, B, U, s, Vt = full_svd_cca(Xc, Yc, Cxy, RIDGE)
    Wx, Wy = A @ U[:, :K], B @ Vt[:K].T
    flip = Wx[np.argmax(np.abs(Wx), axis=0), np.arange(K)] < 0
    Wx[:, flip] *= -1.0
    Wy[:, flip] *= -1.0
    return LinearCcaModel(mean_x, mean_y, Wx, Wy, s[:K], RIDGE, BETA)


def corpus(n_venues, extra_photo_ratio):
    venues = synth_generate(SynthConfig(n_venues=n_venues, seed=3))
    train, test = build_pairs(venues, SplitSpec(seed=3, extra_photo_ratio=extra_photo_ratio))
    return venues, train, test, GroupIndex.from_labels(train.categories)


def c_cca():
    venues, train, test, groups = corpus(1000, 0.2)
    got = fit_cca(train.X, train.Y, K, RIDGE, groups=groups, beta=BETA)
    return venues, test, got, reference_head(train.X, train.Y, groups)


def c_kcca():
    venues, train, test, groups = corpus(90, 0.6)
    got = fit_kcca(train.X, train.Y, K, RIDGE, groups=groups, beta=BETA)
    map_x, Rx = KernelMap.fit(train.X, "gaussian", median_heuristic_bandwidth(train.X))
    map_y, Ry = KernelMap.fit(train.Y, "gaussian", median_heuristic_bandwidth(train.Y))
    want = KernelCcaModel(map_x, map_y, reference_head(Rx, Ry, groups))
    return venues, test, got, want


@pytest.mark.parametrize("setup", [c_cca, c_kcca], ids=["c-cca", "c-kcca"])
def test_fit_and_ranking_match_full_svd_reference(setup):
    venues, test, model, ref_model = setup()
    # a linear model is its own head
    head, ref = getattr(model, "head", model), getattr(ref_model, "head", ref_model)
    assert np.abs(head.rho - ref.rho).max() <= 1e-12
    for W, W_ref in ((head.Wx, ref.Wx), (head.Wy, ref.Wy)):
        assert np.abs(W - W_ref).max() <= 1e-9 * np.abs(W_ref).max()
    index, ref_index = build_index(model, venues), build_index(ref_model, venues)
    assert test.n >= 200
    for i in range(200):
        lat, lon = test.coords[i]
        for geo in (None, GeoFilter(lat=float(lat), lon=float(lon), radius_km=1.0)):
            got = rank_venues(test.X[:, i], model, index, geo=geo)
            want = rank_venues(test.X[:, i], ref_model, ref_index, geo=geo)
            assert got.venue_ids == want.venue_ids


@pytest.mark.parametrize("setup", [c_cca, c_kcca], ids=["c-cca", "c-kcca"])
def test_fit_matches_full_svd_reference_up_to_column_sign(setup):
    """The check any correct solve passes, whatever sign it pins: each
    canonical pair may flip, Wx and Wy together. A second sign pin is
    imitated by flipping every other pair of the fitted head."""
    _, _, model, ref_model = setup()
    head, ref = getattr(model, "head", model), getattr(ref_model, "head", ref_model)
    assert np.abs(head.rho - ref.rho).max() <= 1e-12
    for pin in (np.ones(K), (-1.0) ** np.arange(K)):
        Wx, Wy = head.Wx * pin, head.Wy * pin
        flip = np.sign((Wx * ref.Wx).sum(axis=0))
        assert np.all(flip != 0)
        for W, W_ref in ((Wx, ref.Wx), (Wy, ref.Wy)):
            assert np.abs(W * flip - W_ref).max() <= 1e-9 * np.abs(W_ref).max()
