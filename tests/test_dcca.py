import math

import numpy as np
import numpy.testing as npt
import pytest

from venuecca import dcca
from venuecca.cca import GroupIndex, blend_partners
from venuecca.dataio import PairedDataset, SplitSpec, SynthConfig, build_pairs, synth_generate
from venuecca.dcca import cca_objective, stratified_batches, train_dcca
from venuecca.neural import MlpNetwork, TrainConfig

from reference import full_svd_cca


def make_dataset(seed, n=40, d_x=6, d_y=5, n_cats=4, coupled=True):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d_x, n))
    if coupled:
        Y = 0.6 * X[:d_y] + 0.4 * rng.standard_normal((d_y, n))
    else:
        Y = rng.standard_normal((d_y, n))
    cats = 1 + (np.arange(n) % n_cats)
    rng.shuffle(cats)
    return PairedDataset(
        X=X,
        Y=Y,
        venue_ids=[f"v{i:03d}" for i in range(n)],
        categories=cats,
        coords=np.zeros((n, 2)),
    )


def fd_gradient(f, H, h=1e-6, stride=7):
    """Central finite differences of scalar f at a sample of entries."""
    flat = H.reshape(-1)
    out = {}
    for idx in range(0, flat.size, stride):
        old = flat[idx]
        flat[idx] = old + h
        up = f()
        flat[idx] = old - h
        down = f()
        flat[idx] = old
        out[idx] = (up - down) / (2 * h)
    return out


def reference_objective(Hx, Hy, groups=None, beta=1.0, r=1e-4, k=None, group_weighting="size"):
    """The objective written out: ridge covariances, whitening, a full SVD
    of T = A C_xy B, and the gradient from the nabla_xx / nabla_xy terms."""
    n = Hx.shape[1]
    k = min(Hx.shape[0], Hy.shape[0]) if k is None else k
    Hxc = Hx - Hx.mean(axis=1, keepdims=True)
    Hyc = Hy - Hy.mean(axis=1, keepdims=True)
    rescale = n / (n - 1.0)
    Ex = blend_partners(Hxc, groups, beta, group_weighting)
    Ey = blend_partners(Hyc, groups, beta, group_weighting)
    A, B, U, s, Vt = full_svd_cca(Hxc, Hyc, rescale * (Hxc @ Ey.T), r)
    Uk, Vk, sk = U[:, :k], Vt[:k].T, s[:k]
    nabla_xy = A @ Uk @ Vk.T @ B
    nabla_xx = -0.5 * (A @ (Uk * sk) @ Uk.T @ A)
    nabla_yy = -0.5 * (B @ (Vk * sk) @ Vk.T @ B)
    gx = (2.0 / (n - 1.0)) * (nabla_xx @ Hxc) + rescale * (nabla_xy @ Ey)
    gy = (2.0 / (n - 1.0)) * (nabla_yy @ Hyc) + rescale * (nabla_xy.T @ Ex)
    gx -= gx.mean(axis=1, keepdims=True)
    gy -= gy.mean(axis=1, keepdims=True)
    return float(sk.sum()), gx, gy


REFERENCE_CASES = [
    pytest.param(4, 4, None, None, 1.0, "size", id="no-groups"),
    *(
        pytest.param(4, 4, None, (1, 2, 3, 3, 4), beta, w, id=f"beta{beta}-{w}")
        for beta in (0.0, 0.3, 1.0)
        for w in ("size", "equal")
    ),
    pytest.param(5, 3, 2, (1, 2, 2), 0.3, "size", id="non-square-k2"),
]


class TestCcaObjective:
    @pytest.mark.parametrize("dx,dy,k,cycle,beta,weighting", REFERENCE_CASES)
    def test_matches_written_out_reference(self, dx, dy, k, cycle, beta, weighting):
        rng = np.random.default_rng(11)
        n = 45
        Hx = rng.standard_normal((dx, n))
        Hy = 0.5 * Hx[:dy] + rng.standard_normal((dy, n))
        # a label cycle with a singleton category exercises the renormalization
        groups = None if cycle is None else GroupIndex.from_labels(np.append(np.resize(cycle, n - 1), 9))
        got = cca_objective(Hx, Hy, groups, beta, 1e-3, k, weighting)
        want = reference_objective(Hx, Hy, groups, beta, 1e-3, k, weighting)
        assert abs(got[0] - want[0]) <= 1e-12
        for g, ref in zip(got[1:], want[1:]):
            assert np.abs(g - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_identical_views_saturate(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((4, 200))
        value, gx, gy = cca_objective(H, H.copy(), r=1e-6, k=4)
        assert value == pytest.approx(4.0, abs=1e-3)
        assert max(np.abs(gx).max(), np.abs(gy).max()) < 1e-3

    def test_independent_views_stay_low(self):
        rng = np.random.default_rng(1)
        value, _, _ = cca_objective(
            rng.standard_normal((5, 500)), rng.standard_normal((5, 500)), r=1e-4
        )
        assert value < 0.5 * 5

    def test_value_bounds(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            r2 = np.random.default_rng(seed)
            v, _, _ = cca_objective(
                r2.standard_normal((3, 50)), r2.standard_normal((3, 50)), r=1e-4
            )
            assert 0.0 <= v <= 3.0 + 1e-6

    @pytest.mark.parametrize("beta,weighting", [(0.3, "size"), (0.3, "equal"), (1.0, "size")])
    def test_finite_difference_gradients(self, beta, weighting):
        rng = np.random.default_rng(3)
        Hx = rng.standard_normal((4, 40))
        Hy = rng.standard_normal((4, 40))
        groups = GroupIndex.from_labels(1 + np.arange(40) % 2)

        def value():
            return cca_objective(
                Hx, Hy, groups=groups, beta=beta, r=1e-3, k=3, group_weighting=weighting
            )[0]

        _, gx, gy = cca_objective(
            Hx, Hy, groups=groups, beta=beta, r=1e-3, k=3, group_weighting=weighting
        )
        for H, g in ((Hx, gx), (Hy, gy)):
            for idx, fd in fd_gradient(value, H).items():
                assert g.reshape(-1)[idx] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_plain_and_beta_one_groups_agree(self):
        rng = np.random.default_rng(4)
        Hx = rng.standard_normal((3, 30))
        Hy = rng.standard_normal((3, 30))
        groups = GroupIndex.from_labels(1 + np.arange(30) % 3)
        v1, gx1, gy1 = cca_objective(Hx, Hy, r=1e-4)
        v2, gx2, gy2 = cca_objective(Hx, Hy, groups=groups, beta=1.0, r=1e-4)
        assert v1 == pytest.approx(v2, abs=1e-10)
        npt.assert_allclose(gx1, gx2, atol=1e-10)
        npt.assert_allclose(gy1, gy2, atol=1e-10)

    def test_beta_one_equal_weighting_is_plain(self):
        # at beta=1 both group weightings give the plain 1/n estimate
        rng = np.random.default_rng(6)
        Hx = rng.standard_normal((3, 40))
        Hy = 0.5 * Hx + rng.standard_normal((3, 40))
        groups = GroupIndex.from_labels([1] * 5 + [2] * 10 + [3] * 25)
        v1, gx1, gy1 = cca_objective(Hx, Hy)
        v2, gx2, gy2 = cca_objective(Hx, Hy, groups, beta=1.0, group_weighting="equal")
        assert v2 == pytest.approx(v1, abs=1e-12)
        npt.assert_allclose(gx2, gx1, atol=1e-12)
        npt.assert_allclose(gy2, gy1, atol=1e-12)

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(5)
        Hx = rng.standard_normal((3, 24))
        Hy = rng.standard_normal((3, 24))
        labels = 1 + np.arange(24) % 3
        perm = rng.permutation(24)
        v1, gx1, _ = cca_objective(Hx, Hy, groups=GroupIndex.from_labels(labels), beta=0.3)
        v2, gx2, _ = cca_objective(
            Hx[:, perm], Hy[:, perm], groups=GroupIndex.from_labels(labels[perm]), beta=0.3
        )
        assert v1 == pytest.approx(v2, abs=1e-8)
        npt.assert_allclose(gx1[:, perm], gx2, atol=1e-8)

    def test_invariant_to_invertible_transform(self):
        rng = np.random.default_rng(6)
        Hx = rng.standard_normal((3, 60))
        Hy = rng.standard_normal((3, 60))
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        v1, _, _ = cca_objective(Hx, Hy, r=0.0)
        v2, _, _ = cca_objective(A @ Hx, Hy, r=0.0)
        assert v1 == pytest.approx(v2, abs=1e-8)

    def test_degenerate_gap_warns(self):
        rng = np.random.default_rng(7)
        H = rng.standard_normal((3, 100))
        # identical views make every singular value 1, so truncating below
        # the full rank sits exactly on a tie
        with pytest.warns(UserWarning, match="coincide"):
            cca_objective(H, H.copy(), r=0.0, k=2)

    def test_validation(self):
        H = np.zeros((3, 10))
        with pytest.raises(ValueError, match="k"):
            cca_objective(H, H, k=4)
        with pytest.raises(ValueError, match="samples"):
            cca_objective(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="matching"):
            cca_objective(np.zeros((3, 5)), np.zeros((3, 6)))
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="Y holds NaN or inf"):
            cca_objective(rng.standard_normal((3, 10)), np.full((3, 10), np.nan))


def round_robin_batches(categories, batch_size, rng):
    """Written-out reference: deal each category's shuffled members one
    sample at a time across the batches."""
    n_batches = math.ceil(len(categories) / batch_size)
    buckets = [[] for _ in range(n_batches)]
    j = 0
    for c in np.unique(categories):
        members = np.flatnonzero(categories == c)
        rng.shuffle(members)
        for i in members:
            buckets[j % n_batches].append(int(i))
            j += 1
    return [np.array(b, dtype=int) for b in buckets]


class TestStratifiedBatches:
    @pytest.mark.parametrize(
        "n,batch_size,n_cats",
        [(60, 20, 3), (37, 5, 4), (450, 100, 10), (23, 7, 1), (19, 4, 19), (5, 10, 2)],
        ids=["even", "ragged", "trend-size", "one-category", "one-per-category", "one-batch"],
    )
    def test_matches_round_robin_reference(self, n, batch_size, n_cats):
        cats = 1 + np.random.default_rng(n).permutation(np.arange(n) % n_cats)
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(2):  # consecutive epochs draw from the same rng
            got = stratified_batches(cats, batch_size, got_rng)
            want = round_robin_batches(cats, batch_size, want_rng)
            assert len(got) == len(want) == math.ceil(n / batch_size)
            for g, w in zip(got, want):
                npt.assert_array_equal(g, w)
        assert got_rng.integers(2**63) == want_rng.integers(2**63)

    def test_partition_and_balance(self):
        rng = np.random.default_rng(8)
        cats = np.array([1] * 30 + [2] * 20 + [3] * 10)
        rng.shuffle(cats)
        batches = stratified_batches(cats, 20, rng)
        assert len(batches) == 3
        all_idx = np.concatenate(batches)
        npt.assert_array_equal(np.sort(all_idx), np.arange(60))
        for b in batches:
            counts = {c: int((cats[b] == c).sum()) for c in (1, 2, 3)}
            assert counts[1] == 10 and counts[2] in (6, 7) and counts[3] in (3, 4)

    def test_deterministic_given_rng_state(self):
        cats = 1 + np.arange(17) % 3
        b1 = stratified_batches(cats, 5, np.random.default_rng(9))
        b2 = stratified_batches(cats, 5, np.random.default_rng(9))
        for x, y in zip(b1, b2):
            npt.assert_array_equal(x, y)

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            stratified_batches(np.array([1, 2]), 0, np.random.default_rng(0))


def small_config(**kwargs):
    base = dict(
        learning_rate=1e-3,
        batch_size=20,
        epochs=5,
        seed=0,
        r=1e-3,
        beta=1.0,
        k=2,
        hidden_sizes=(8,),
        dropout_rate=0.0,
    )
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrainDcca:
    def test_objective_improves_on_coupled_data(self):
        train = make_dataset(10, n=80)
        cfg = small_config(epochs=30, batch_size=40)
        model = train_dcca(train, cfg)
        first_epoch = model.history_objective[model.history_epoch == 0].mean()
        last = model.history_epoch.max()
        last_epoch = model.history_objective[model.history_epoch == last].mean()
        assert last_epoch >= first_epoch

    def test_history_bit_identical_across_runs(self):
        train = make_dataset(11)
        cfg = small_config(dropout_rate=0.3)
        m1 = train_dcca(train, cfg)
        m2 = train_dcca(train, cfg)
        npt.assert_array_equal(m1.history_objective, m2.history_objective)
        npt.assert_array_equal(m1.head.Wx, m2.head.Wx)

    def test_seed_changes_history(self):
        train = make_dataset(12)
        m1 = train_dcca(train, small_config(dropout_rate=0.3, seed=0))
        m2 = train_dcca(train, small_config(dropout_rate=0.3, seed=1))
        assert not np.array_equal(m1.history_objective, m2.history_objective)

    def test_singleton_categories_fall_back_with_warning(self):
        rng = np.random.default_rng(13)
        train = PairedDataset(
            X=rng.standard_normal((3, 10)),
            Y=rng.standard_normal((2, 10)),
            venue_ids=[f"v{i}" for i in range(10)],
            categories=np.arange(1, 11),
            coords=np.zeros((10, 2)),
        )
        cfg = small_config(beta=0.3, batch_size=10, k=1, epochs=2)
        with pytest.warns(UserWarning, match="falling back|falls back"):
            model = train_dcca(train, cfg)
        assert model.head.beta == 1.0

    def test_beta_one_history_ignores_group_weighting(self):
        train = make_dataset(19, n=60, n_cats=3)
        train.categories[:] = np.repeat([1, 2, 3], [6, 14, 40])
        size = train_dcca(train, small_config(group_weighting="size"))
        equal = train_dcca(train, small_config(group_weighting="equal"))
        npt.assert_array_equal(equal.history_objective, size.history_objective)

    def test_batch_too_small_for_k(self):
        train = make_dataset(14, n=30)
        with pytest.raises(ValueError, match="batch_size"):
            train_dcca(train, small_config(batch_size=2, k=2))

    def test_smallest_batch_checked_before_training(self, monkeypatch):
        # 31 samples in batches of at most 3: nine batches of 3, then two of 2
        def no_forward(*args, **kwargs):
            raise AssertionError("a forward pass ran before the batch size check")

        monkeypatch.setattr(dcca, "mlp_forward", no_forward)
        with pytest.raises(ValueError, match="^a batch of 2 samples cannot support k=2 components"):
            train_dcca(make_dataset(14, n=31), small_config(batch_size=3, k=2))

    def test_diverging_run_names_epoch_and_batch(self):
        venues = synth_generate(SynthConfig(seed=0))
        train, _ = build_pairs(venues, SplitSpec(seed=0))
        cfg = TrainConfig(learning_rate=1e300, hidden_sizes=(16,), k=4)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError, match="diverged at epoch 0, batch 1"):
                train_dcca(train, cfg)

    def test_non_finite_objective_names_epoch_and_batch(self, monkeypatch):
        def nan_objective(Hx, Hy, *args, **kwargs):
            return np.nan, np.zeros_like(Hx), np.zeros_like(Hy)

        monkeypatch.setattr(dcca, "cca_objective", nan_objective)
        with pytest.raises(ValueError, match="diverged at epoch 0, batch 0: .*not finite"):
            train_dcca(make_dataset(16), small_config())

    def test_failing_final_head_fit_names_the_last_epoch(self, monkeypatch):
        # the loop trains through mlp_forward; only the head fit after it
        # runs the networks in eval mode
        monkeypatch.setattr(MlpNetwork, "__call__", lambda net, X: np.full((2, X.shape[1]), np.inf))
        with pytest.raises(
            ValueError, match="diverged: the final head fit after epoch 1 failed: X holds NaN or inf"
        ):
            train_dcca(make_dataset(16), small_config(epochs=2))

    def test_history_epochs_are_contiguous(self):
        train = make_dataset(15)
        model = train_dcca(train, small_config(epochs=4))
        assert model.history_epoch[0] == 0
        assert set(np.diff(model.history_epoch)) <= {0, 1}
        assert len(model.history_objective) == len(model.history_epoch)


class TestDccaProject:
    def test_projection_matches_head_on_train(self):
        train = make_dataset(16, n=60)
        model = train_dcca(train, small_config(batch_size=30))
        from venuecca.neural import mlp_forward

        U = model.project(train.X, "image")
        H = mlp_forward(model.net_x, train.X, mode="eval").output
        npt.assert_allclose(U, model.head.project(H, "image"), atol=1e-12)
        assert U.shape == (model.k, 60)

    def test_train_cross_covariance_is_diag_rho(self):
        train = make_dataset(17, n=100)
        model = train_dcca(train, small_config(batch_size=50, epochs=10))
        U = model.project(train.X, "image")
        V = model.project(train.Y, "text")
        C = U @ V.T / (100 - 1)
        npt.assert_allclose(C, np.diag(model.rho), atol=1e-8)

    def test_single_column_and_side_validation(self):
        train = make_dataset(18)
        model = train_dcca(train, small_config())
        one = model.project(train.X[:, 0], "image")
        assert one.shape == (model.k, 1)
        with pytest.raises(ValueError, match="side"):
            model.project(train.X, "photo")
