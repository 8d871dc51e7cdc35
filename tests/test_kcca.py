import numpy as np
import numpy.testing as npt
import pytest

from venuecca.cca import GroupIndex, fit_cca
from venuecca.dataio import SplitSpec, SynthConfig, build_pairs, synth_generate
from venuecca.kcca import (
    KernelMap,
    _center_columns,
    fit_kcca,
    gaussian_kernel,
    median_heuristic_bandwidth,
)
from venuecca.linalg import NotPositiveDefiniteError, regularized_covariance


class TestKernels:
    def test_gaussian_diagonal_is_one(self):
        A = np.random.default_rng(0).standard_normal((4, 10))
        K = gaussian_kernel(A, A, sigma=1.3)
        npt.assert_allclose(np.diag(K), 1.0, atol=1e-14)

    def test_gaussian_value_at_known_distance(self):
        # squared distance 2*sigma^2 gives exp(-1)
        sigma = 0.7
        a = np.zeros((1, 1))
        b = np.full((1, 1), sigma * np.sqrt(2.0))
        K = gaussian_kernel(a, b, sigma=sigma)
        assert K[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_gaussian_positive_semidefinite(self):
        A = np.random.default_rng(1).standard_normal((3, 25))
        K = gaussian_kernel(A, A, sigma=0.9)
        npt.assert_allclose(K, K.T, atol=1e-14)
        assert np.linalg.eigvalsh(K).min() >= -1e-10

    def test_gaussian_rejects_bad_sigma(self):
        A = np.zeros((2, 3))
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="sigma"):
                gaussian_kernel(A, A, sigma=bad)

    def test_median_heuristic(self):
        # three points on a line: pairwise distances 1, 1, 2 -> median 1
        A = np.array([[0.0, 1.0, 2.0]])
        assert median_heuristic_bandwidth(A) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="2 samples"):
            median_heuristic_bandwidth(np.zeros((2, 1)))
        with pytest.raises(ValueError, match="coincide"):
            median_heuristic_bandwidth(np.zeros((2, 4)))


class TestFitKcca:
    def test_identical_views_near_perfect(self):
        X = np.random.default_rng(3).standard_normal((4, 60))
        model = fit_kcca(X, X.copy(), k=1, r=1e-4)
        assert model.rho[0] > 0.99

    def test_linear_kernel_matches_linear_cca(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((3, 40))
        Y = 0.6 * X[:2] + 0.4 * rng.standard_normal((2, 40))
        lin = fit_cca(X, Y, k=2, r=0.0)
        # the dual solve on centered linear Gram matrices is linear CCA
        Rx, Ry = (_center_columns(K, K.mean(axis=1), K.mean()) for K in (X.T @ X, Y.T @ Y))
        ker = fit_cca(Rx, Ry, k=2, r=1e-8)
        npt.assert_allclose(ker.rho, lin.rho, atol=1e-6)

    def test_quadratic_link_beats_linear(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((2, 300))
        Y = np.sum(X**2, axis=0, keepdims=True)
        lin = fit_cca(X, Y, k=1, r=1e-4)
        ker = fit_kcca(X, Y, k=1, r=1e-4)
        assert ker.rho[0] - lin.rho[0] >= 0.2

    def test_beta_one_equals_no_groups(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 50))
        Y = rng.standard_normal((2, 50))
        groups = GroupIndex.from_labels(1 + rng.integers(0, 3, 50))
        m1 = fit_kcca(X, Y, k=2, r=1e-3)
        m2 = fit_kcca(X, Y, k=2, r=1e-3, groups=groups, beta=1.0)
        npt.assert_allclose(m1.rho, m2.rho, atol=1e-10)

    def test_grouped_fit_runs(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3, 60))
        Y = rng.standard_normal((2, 60))
        groups = GroupIndex.from_labels(1 + rng.integers(0, 4, 60))
        model = fit_kcca(X, Y, k=2, r=1e-3, groups=groups, beta=0.3)
        assert model.head.beta == 0.3
        assert model.rho.shape == (2,)

    def test_sigma_echoed_and_median_default(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 30))
        Y = rng.standard_normal((2, 30))
        model = fit_kcca(X, Y, k=1, r=1e-3)
        assert model.sigma_x == pytest.approx(median_heuristic_bandwidth(X))
        assert model.sigma_y == pytest.approx(median_heuristic_bandwidth(Y))
        model2 = fit_kcca(X, Y, k=1, r=1e-3, sigma_x=2.0, sigma_y=3.0)
        assert (model2.sigma_x, model2.sigma_y) == (2.0, 3.0)

    def test_singular_gram_advises_regularization(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((3, 25))
        Y = rng.standard_normal((2, 25))
        with pytest.raises(NotPositiveDefiniteError, match="sigma"):
            fit_kcca(X, Y, k=2, r=0.0)

    def test_singular_gram_reports_the_unfactored_eigenvalue(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((3, 25))
        Y = rng.standard_normal((2, 25))
        with pytest.raises(NotPositiveDefiniteError, match="r > 0.*increase r or widen sigma") as exc:
            fit_kcca(X, Y, k=2, r=0.0)
        # centering leaves each view's covariance singular; the view whose
        # factorisation fails first reports the smallest eigenvalue of its own
        spectra = {}
        for Z in (X, Y):
            _, R = KernelMap.fit(Z, median_heuristic_bandwidth(Z))
            evals = np.linalg.eigvalsh(regularized_covariance(R - R.mean(axis=1, keepdims=True), 0.0))
            spectra[evals[0]] = evals[-1]
        assert exc.value.eigenvalue in spectra
        assert exc.value.eigenvalue <= 1e-12 * spectra[exc.value.eigenvalue]


    @pytest.mark.parametrize("view", ["X", "Y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_names_the_view(self, view, bad):
        rng = np.random.default_rng(10)
        views = {"X": rng.standard_normal((3, 25)), "Y": rng.standard_normal((2, 25))}
        views[view][0, 3] = bad
        with pytest.raises(ValueError, match=f"{view} holds NaN or inf"):
            fit_kcca(views["X"], views["Y"], k=2, r=1e-3)

class TestKccaProject:
    def make_model(self, seed=10, n=50):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((3, n))
        Y = 0.5 * X[:2] + 0.5 * rng.standard_normal((2, n))
        return X, Y, fit_kcca(X, Y, k=2, r=1e-3)

    def test_train_projection_consistency(self):
        # projecting the training data must reproduce the scores the head
        # was fit on, because train and test share one centering formula
        X, Y, model = self.make_model()
        U = model.project(X, "image")
        V = model.project(Y, "text")
        Kx = gaussian_kernel(model.map_x.train, model.map_x.train, model.sigma_x)
        from venuecca.kcca import _center_columns

        Kxc = _center_columns(Kx, model.map_x.mu, model.map_x.grand)
        npt.assert_allclose(U, model.head.project(Kxc, "image"), atol=1e-8)
        assert U.shape == V.shape == (2, 50)

    def test_train_cross_covariance_is_diag_rho(self):
        X, Y, model = self.make_model(seed=11, n=120)
        U = model.project(X, "image")
        V = model.project(Y, "text")
        C = U @ V.T / (120 - 1)
        npt.assert_allclose(C, np.diag(model.rho), atol=1e-10)
        # the ridge in the whitening can only inflate the raw correlation
        for i in range(model.k):
            corr = np.corrcoef(U[i], V[i])[0, 1]
            assert model.rho[i] - 1e-9 <= corr <= 1.0 + 1e-12

    def test_centered_gram_rows_sum_to_zero(self):
        X, Y, model = self.make_model(seed=12)
        from venuecca.kcca import _center_columns

        K = gaussian_kernel(model.map_x.train, model.map_x.train, model.sigma_x)
        Kc = _center_columns(K, model.map_x.mu, model.map_x.grand)
        n = K.shape[0]
        assert np.abs(Kc.sum(axis=0)).max() < 1e-8 * n

    def test_new_point_projection_shape(self):
        X, Y, model = self.make_model(seed=13)
        Z = np.random.default_rng(99).standard_normal((3, 7))
        assert model.project(Z, "image").shape == (2, 7)
        one = model.project(X[:, 0], "image")
        assert one.shape == (2, 1)

    def test_side_and_dim_validation(self):
        X, Y, model = self.make_model(seed=14)
        with pytest.raises(ValueError, match="side"):
            model.project(X, "photo")
        with pytest.raises(ValueError, match="expects"):
            model.project(np.zeros((4, 3)), "image")


class TestCategoryKccaInvariance:
    def test_pair_permutation(self):
        """c-kcca's correlations, and its projections up to the sign of each
        component, do not depend on the order of the training pairs."""
        train, test = build_pairs(synth_generate(SynthConfig(seed=0)), SplitSpec(seed=0))
        cats = np.asarray(train.categories)
        perm = np.random.default_rng(0).permutation(train.n)

        def fit(X, Y, labels):
            return fit_kcca(X, Y, 10, 1e-4, groups=GroupIndex.from_labels(labels), beta=0.3)

        a = fit(train.X, train.Y, cats)
        b = fit(train.X[:, perm], train.Y[:, perm], cats[perm])
        npt.assert_allclose(b.rho, a.rho, rtol=0, atol=1e-12)
        for side, Z in (("image", test.X), ("text", test.Y)):
            Pa, Pb = a.project(Z, side), b.project(Z, side)
            sign = np.sign(np.sum(Pa * Pb, axis=1, keepdims=True))
            npt.assert_allclose(Pb, sign * Pa, rtol=0, atol=1e-9)
