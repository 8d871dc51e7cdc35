import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venuecca.cca import (
    GroupIndex,
    NoCrossPairsError,
    cca_transform,
    combined_cross_covariance,
    fit_cca,
)
from venuecca.linalg import NotPositiveDefiniteError, regularized_covariance


def brute_force_combined(phi_x, phi_y, labels, beta, weighting="size"):
    """Triple-loop enumeration of the blended cross-covariance."""
    n = phi_x.shape[1]
    cats = sorted(set(labels))
    c1 = np.zeros((phi_x.shape[0], phi_y.shape[0]))
    c2 = np.zeros_like(c1)
    sizes = {g: sum(1 for l in labels if l == g) for g in cats}
    n2_total = sum(s * (s - 1) for s in sizes.values())
    cross_cats = [g for g in cats if sizes[g] >= 2]
    for g in cats:
        members = [i for i in range(n) if labels[i] == g]
        m1 = np.zeros_like(c1)
        for i in members:
            m1 += np.outer(phi_x[:, i], phi_y[:, i])
        m1 /= len(members)
        w = sizes[g] / n if weighting == "size" else 1.0 / len(cats)
        c1 += w * m1
        if sizes[g] < 2:
            continue
        m2 = np.zeros_like(c2)
        for i in members:
            for j in members:
                if i != j:
                    m2 += np.outer(phi_x[:, i], phi_y[:, j])
        m2 /= sizes[g] * (sizes[g] - 1)
        w2 = (
            sizes[g] * (sizes[g] - 1) / n2_total
            if weighting == "size"
            else 1.0 / len(cross_cats)
        )
        c2 += w2 * m2
    return beta * c1 + (1 - beta) * c2


def centered(rng, d, n):
    M = rng.standard_normal((d, n))
    return M - M.mean(axis=1, keepdims=True)


class TestGroupIndex:
    def test_from_labels_partitions(self):
        g = GroupIndex.from_labels([2, 1, 2, 3, 1])
        assert sorted(g.sizes().items()) == [(1, 2), (2, 2), (3, 1)]
        npt.assert_array_equal(g.label_array(), [2, 1, 2, 3, 1])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            GroupIndex({1: [0, 1], 2: [1, 2]}, 3)

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            GroupIndex({1: [0], 2: [2]}, 3)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GroupIndex({1: [0, 1], 2: []}, 2)


class TestCombinedCrossCovariance:
    def test_beta_one_is_plain_pairwise(self):
        rng = np.random.default_rng(0)
        phi_x = centered(rng, 4, 30)
        phi_y = centered(rng, 4, 30)
        groups = GroupIndex.from_labels(rng.integers(1, 4, 30))
        C = combined_cross_covariance(phi_x, phi_y, groups, beta=1.0)
        npt.assert_allclose(C, phi_x @ phi_y.T / 30, atol=1e-12)

    def test_beta_zero_two_sample_closed_form(self):
        phi_x = np.array([[1.0, 2.0]])
        phi_y = np.array([[3.0, 5.0]])
        groups = GroupIndex.from_labels([1, 1])
        C = combined_cross_covariance(phi_x, phi_y, groups, beta=0.0)
        # two ordered cross pairs: (x1 y2 + x2 y1) / 2
        npt.assert_allclose(C, np.array([[(1 * 5 + 2 * 3) / 2]]), atol=1e-14)

    @pytest.mark.parametrize("weighting", ["size", "equal"])
    def test_matches_brute_force(self, weighting):
        rng = np.random.default_rng(1)
        phi_x = centered(rng, 5, 30)
        phi_y = centered(rng, 5, 30)
        labels = rng.integers(1, 4, 30)
        groups = GroupIndex.from_labels(labels)
        C = combined_cross_covariance(phi_x, phi_y, groups, beta=0.3, group_weighting=weighting)
        npt.assert_allclose(C, brute_force_combined(phi_x, phi_y, list(labels), 0.3, weighting), atol=1e-12)

    @pytest.mark.parametrize("weighting", ["size", "equal"])
    def test_singleton_group_renormalized(self, weighting):
        rng = np.random.default_rng(2)
        phi_x = centered(rng, 3, 7)
        phi_y = centered(rng, 3, 7)
        labels = [1, 1, 1, 2, 3, 3, 3]  # category 2 is a singleton
        groups = GroupIndex.from_labels(labels)
        C = combined_cross_covariance(phi_x, phi_y, groups, beta=0.4, group_weighting=weighting)
        npt.assert_allclose(C, brute_force_combined(phi_x, phi_y, labels, 0.4, weighting), atol=1e-12)

    def test_all_singletons_rejected_below_one(self):
        phi = np.zeros((2, 3))
        groups = GroupIndex.from_labels([1, 2, 3])
        with pytest.raises(NoCrossPairsError):
            combined_cross_covariance(phi, phi, groups, beta=0.5)
        # but beta=1 never needs cross pairs
        combined_cross_covariance(phi, phi, groups, beta=1.0)

    def test_beta_out_of_range(self):
        phi = np.zeros((2, 4))
        groups = GroupIndex.from_labels([1, 1, 2, 2])
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match="beta"):
                combined_cross_covariance(phi, phi, groups, beta=bad)

    @given(st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_beta(self, beta, seed):
        rng = np.random.default_rng(seed)
        phi_x = centered(rng, 3, 12)
        phi_y = centered(rng, 3, 12)
        groups = GroupIndex.from_labels(1 + rng.integers(0, 3, 12))
        c0 = combined_cross_covariance(phi_x, phi_y, groups, beta=0.0)
        c1 = combined_cross_covariance(phi_x, phi_y, groups, beta=1.0)
        cb = combined_cross_covariance(phi_x, phi_y, groups, beta=beta)
        npt.assert_allclose(cb, beta * c1 + (1 - beta) * c0, atol=1e-12)


def grid_search_rho(X, Y, step_deg=0.5):
    """Best |corr| over unit projections on an angular grid, both views."""
    angles = np.deg2rad(np.arange(0.0, 180.0, step_deg))
    W = np.stack([np.cos(angles), np.sin(angles)])
    def rows(M):
        P = W.T @ M
        P = P - P.mean(axis=1, keepdims=True)
        return P / np.linalg.norm(P, axis=1, keepdims=True)
    return float(np.abs(rows(X) @ rows(Y).T).max())


class TestFitCca:
    def test_identical_views_rho_one(self):
        X = np.random.default_rng(3).standard_normal((5, 100))
        model = fit_cca(X, X.copy(), k=3, r=1e-6)
        npt.assert_allclose(model.rho, np.ones(3), atol=1e-3)

    def test_independent_views_low_rho(self):
        rng = np.random.default_rng(4)
        model = fit_cca(rng.standard_normal((4, 2000)), rng.standard_normal((4, 2000)), k=2, r=1e-4)
        assert model.rho[0] < 0.15

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((2, 200))
        Y = 0.5 * X + 0.8 * rng.standard_normal((2, 200))
        model = fit_cca(X, Y, k=1, r=0.0)
        assert model.rho[0] == pytest.approx(grid_search_rho(X, Y), abs=1e-3)

    def test_whitening_constraint(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((6, 80))
        Y = rng.standard_normal((5, 80))
        groups = GroupIndex.from_labels(1 + rng.integers(0, 3, 80))
        for model in (
            fit_cca(X, Y, k=4, r=1e-4),
            fit_cca(X, Y, k=4, r=1e-4, groups=groups, beta=0.3),
        ):
            Cxx = regularized_covariance(X - model.mean_x[:, None], model.r)
            Cyy = regularized_covariance(Y - model.mean_y[:, None], model.r)
            npt.assert_allclose(model.Wx.T @ Cxx @ model.Wx, np.eye(4), atol=1e-6)
            npt.assert_allclose(model.Wy.T @ Cyy @ model.Wy, np.eye(4), atol=1e-6)

    def test_rho_sorted_and_bounded(self):
        rng = np.random.default_rng(7)
        model = fit_cca(rng.standard_normal((4, 60)), rng.standard_normal((4, 60)), k=4, r=1e-4)
        assert np.all(np.diff(model.rho) <= 1e-12)
        assert np.all(model.rho >= 0) and np.all(model.rho <= 1 + 1e-6)

    def test_invariant_to_invertible_transform(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 200))
        Y = rng.standard_normal((3, 200)) + 0.5 * X
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        r1 = fit_cca(X, Y, k=3, r=0.0).rho
        r2 = fit_cca(A @ X, Y, k=3, r=0.0).rho
        npt.assert_allclose(r1, r2, atol=1e-8)

    def test_beta_one_equals_no_groups(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((4, 50))
        Y = rng.standard_normal((4, 50))
        groups = GroupIndex.from_labels(1 + rng.integers(0, 3, 50))
        m1 = fit_cca(X, Y, k=2, r=1e-4)
        m2 = fit_cca(X, Y, k=2, r=1e-4, groups=groups, beta=1.0)
        npt.assert_allclose(m1.rho, m2.rho, atol=1e-10)
        npt.assert_allclose(m1.Wx, m2.Wx, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((4, 50))
        Y = rng.standard_normal((4, 50))
        m1 = fit_cca(X, Y, k=2, r=1e-4)
        m2 = fit_cca(X, Y, k=2, r=1e-4)
        npt.assert_array_equal(m1.Wx, m2.Wx)
        npt.assert_array_equal(m1.rho, m2.rho)

    def test_singular_covariance_advises_ridge(self):
        X = np.ones((3, 20)) * np.arange(20)  # rank 1
        Y = np.random.default_rng(11).standard_normal((3, 20))
        with pytest.raises(NotPositiveDefiniteError, match="r > 0"):
            fit_cca(X, Y, k=2, r=0.0)

    @pytest.mark.parametrize("view", ["X", "Y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_names_the_view(self, view, bad):
        rng = np.random.default_rng(12)
        views = {"X": rng.standard_normal((3, 20)), "Y": rng.standard_normal((3, 20))}
        views[view][1, 4] = bad
        with pytest.raises(ValueError, match=f"{view} holds NaN or inf"):
            fit_cca(views["X"], views["Y"], k=2, r=1e-4)

    def test_shape_validation(self):
        X = np.zeros((3, 10))
        with pytest.raises(ValueError, match="k"):
            fit_cca(X, X, k=4, r=1e-4)
        with pytest.raises(ValueError, match="samples"):
            fit_cca(np.zeros((3, 3)), np.zeros((3, 3)), k=3, r=1e-4)


class TestCcaTransform:
    def test_mean_column_maps_to_zero(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((4, 40))
        Y = rng.standard_normal((3, 40))
        model = fit_cca(X, Y, k=2, r=1e-4)
        npt.assert_allclose(model.project(model.mean_x[:, None], "image"), 0.0, atol=1e-12)
        npt.assert_allclose(model.project(model.mean_y[:, None], "text"), 0.0, atol=1e-12)

    def test_transformed_covariance_is_diag_rho(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((5, 120))
        Y = 0.7 * X[:4] + 0.3 * rng.standard_normal((4, 120))
        model = fit_cca(X, Y, k=3, r=1e-6)
        U = model.project(X, "image")
        V = model.project(Y, "text")
        C = U @ V.T / (120 - 1)
        npt.assert_allclose(C, np.diag(model.rho), atol=1e-6)

    def test_output_has_k_rows(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((12, 60))
        Y = rng.standard_normal((11, 60))
        model = fit_cca(X, Y, k=10, r=1e-4)
        assert model.project(X, "image").shape == (10, 60)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(15)
        model = fit_cca(rng.standard_normal((4, 30)), rng.standard_normal((3, 30)), k=2, r=1e-4)
        with pytest.raises(ValueError, match="expects"):
            model.project(np.zeros((5, 2)), "image")
        with pytest.raises(ValueError, match="side"):
            cca_transform(model, np.zeros((4, 2)), "photo")
