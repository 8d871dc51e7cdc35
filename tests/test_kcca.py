import numpy as np
import numpy.testing as npt
import pytest
from scipy.spatial.distance import pdist

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

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e-160, 1e-200, 1e200])
    def test_gaussian_rejects_sigma_whose_square_is_not_usable(self, bad):
        # 2 sigma^2 would be inf, nan, subnormal or 0: every entry exp(0),
        # 0/0, or an exponent that overflows for points 1 apart
        A = np.array([[0.0, 1.0, 3.0]])
        with pytest.raises(ValueError, match="sigma must be > 0 with 2 sigma\\^2 and its inverse finite"):
            gaussian_kernel(A, A, sigma=bad)

    def test_gaussian_at_the_smallest_usable_sigma_is_the_identity(self):
        # 2 sigma^2 just above the smallest normal float: -d^2 / (2 sigma^2)
        # overflows to -inf for these distances, and exp gives its 0
        sigma = float(np.sqrt(np.finfo(float).tiny / 2)) * 1.01
        A = np.array([[0.0, 1.0, 3.0]])
        assert np.array_equal(gaussian_kernel(A, A, sigma), np.eye(3))

    def test_median_heuristic(self):
        # three points on a line: pairwise distances 1, 1, 2 -> median 1
        A = np.array([[0.0, 1.0, 2.0]])
        assert median_heuristic_bandwidth(A) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="2 samples"):
            median_heuristic_bandwidth(np.zeros((2, 1)))
        with pytest.raises(ValueError, match="coincide"):
            median_heuristic_bandwidth(np.zeros((2, 4)))

    @pytest.mark.parametrize("n,pairs", [(30, 435), (32, 496)], ids=["odd-pair-count", "even-pair-count"])
    def test_median_over_distinct_columns_is_the_median_of_all_pairs(self, n, pairs):
        rng = np.random.default_rng(20)
        Y = rng.standard_normal((5, 12))[:, rng.integers(0, 12, n)]
        dist = pdist(Y.T)
        assert len(dist) == pairs
        assert median_heuristic_bandwidth(Y) == float(np.median(dist))

    @pytest.mark.parametrize(
        "points,median",
        [
            # pairs 0, 0, 0, 2, 2, 2: the two middle ones are 0 and 2
            ([0.0, 0.0, 0.0, 2.0], 1.0),
            # pairs 0, 1, 1, 2, 3, 3: the lower middle one is the last 1
            ([0.0, 0.0, 1.0, 3.0], 1.5),
        ],
    )
    def test_median_of_repeated_points(self, points, median):
        A = np.array([points])
        assert median_heuristic_bandwidth(A) == float(np.median(pdist(A.T))) == median

    def test_mostly_repeated_view_names_its_pairs_and_columns(self):
        # counts 10, 1, 1: 45 of the 66 pairs are a column with itself
        Y = np.array([[0.0] * 10 + [1.0, 2.0]])
        with pytest.raises(ValueError, match=r"45 of 66 sample pairs coincide \(3 distinct columns among 12\); pass an explicit sigma"):
            median_heuristic_bandwidth(Y)

    def test_gathered_gram_is_the_full_gram(self):
        rng = np.random.default_rng(21)
        Y = rng.standard_normal((4, 15))[:, rng.integers(0, 15, 60)]
        sigma = median_heuristic_bandwidth(Y)
        fmap, R = KernelMap.fit(Y, sigma)
        K = gaussian_kernel(Y, Y, sigma)
        assert np.array_equal(fmap.mu, K.mean(axis=1)) and fmap.grand == float(K.mean())
        assert np.array_equal(R, _center_columns(K, fmap.mu, fmap.grand))


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

    @pytest.mark.parametrize(
        "sigmas",
        [dict(sigma_x=np.nan), dict(sigma_y=np.inf), dict(sigma_x=1e-160), dict(sigma_x=1e-200)],
        ids=["nan", "inf", "subnormal", "underflow"],
    )
    def test_unusable_sigma_is_named(self, sigmas):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="sigma must be > 0"):
            fit_kcca(rng.standard_normal((3, 25)), rng.standard_normal((2, 25)), k=2, r=1e-3, **sigmas)


class TestDistinctColumnFit:
    """Where the head is not fitted on distinct columns, fit_kcca must be
    bit for bit its head fitted on all n centered kernel columns. Data
    whose columns repeat is checked against the full-SVD reference in
    tests/test_fit_reference.py."""

    @staticmethod
    def assert_is_the_n_column_fit(X, Y, k, r, sigma, **blend):
        got = fit_kcca(X, Y, k, r, sigma_x=sigma, sigma_y=sigma, **blend)
        (map_x, Rx), (map_y, Ry) = KernelMap.fit(X, sigma), KernelMap.fit(Y, sigma)
        want = fit_cca(Rx, Ry, k, r, **blend)
        for name in ("mean_x", "mean_y", "Wx", "Wy", "rho"):
            assert np.array_equal(getattr(got.head, name), getattr(want, name)), name
        for a, b in zip(got.feature_maps, (map_x, map_y)):
            assert a.sigma == b.sigma and a.grand == b.grand
            assert np.array_equal(a.mu, b.mu) and np.array_equal(a.train, b.train)

    def test_without_repeats_is_the_n_column_fit(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((3, 80))
        Y = 0.5 * X[:2] + 0.5 * rng.standard_normal((2, 80))
        groups = GroupIndex.from_labels(1 + rng.integers(0, 4, 80))
        self.assert_is_the_n_column_fit(X, Y, 4, 1e-3, 1.0, groups=groups, beta=0.3)

    @pytest.mark.parametrize("u", [2, 3], ids=["fewer-than-k", "as-many-as-k"])
    def test_no_more_distinct_columns_than_components_keeps_all_rows(self, u):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((3, 40))
        Y = rng.standard_normal((2, u))[:, np.arange(40) % u]
        self.assert_is_the_n_column_fit(X, Y, 3, 1e-3, 1.0)


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
