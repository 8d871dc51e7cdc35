import numpy as np
import numpy.testing as npt
import pytest

from venuecca.neural import (
    AdamState,
    Layer,
    MlpNetwork,
    Standardizer,
    TrainConfig,
    adam_step,
    mlp_backward,
    mlp_forward,
)


def identity_net(d):
    std = Standardizer(mean=np.zeros(d), std=np.ones(d))
    return MlpNetwork(std, [Layer(W=np.eye(d), b=np.zeros(d), activation="linear")])


class TestStandardizer:
    def test_fit_zero_mean_unit_var(self):
        X = np.random.default_rng(0).standard_normal((5, 200)) * 3 + 2
        Z = Standardizer.fit(X).apply(X)
        npt.assert_allclose(Z.mean(axis=1), 0.0, atol=1e-10)
        npt.assert_allclose(Z.var(axis=1), 1.0, atol=1e-10)

    def test_constant_feature_clamped_with_warning(self):
        X = np.vstack([np.ones(30), np.arange(30.0)])
        with pytest.warns(UserWarning, match="zero variance"):
            s = Standardizer.fit(X)
        Z = s.apply(X)
        npt.assert_allclose(Z[0], 0.0, atol=1e-12)
        assert np.isfinite(Z).all()

    def test_already_standard_is_near_identity(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 5000))
        X = (X - X.mean(axis=1, keepdims=True)) / X.std(axis=1, ddof=0, keepdims=True)
        npt.assert_allclose(Standardizer.fit(X).apply(X), X, atol=1e-6)


class TestForward:
    def test_zero_weights_give_zero_output(self):
        std = Standardizer(mean=np.zeros(3), std=np.ones(3))
        net = MlpNetwork(std, [Layer(W=np.zeros((2, 3)), b=np.zeros(2), activation="tanh")])
        out = mlp_forward(net, np.random.default_rng(2).standard_normal((3, 7))).output
        npt.assert_array_equal(out, np.zeros((2, 7)))

    def test_identity_layer_reproduces_input(self):
        net = identity_net(4)
        X = np.random.default_rng(3).standard_normal((4, 9))
        npt.assert_array_equal(mlp_forward(net, X).output, X)

    def test_default_architecture_shapes(self):
        rng = np.random.default_rng(4)
        std = Standardizer(mean=np.zeros(4096), std=np.ones(4096))
        net = MlpNetwork.init((4096, 1024, 1024, 10), std, rng, dropout_rate=0.5)
        assert net.input_dim == 4096 and net.output_dim == 10
        assert [l.activation for l in net.layers] == ["tanh", "tanh", "linear"]
        assert [l.dropout_rate for l in net.layers] == [0.5, 0.5, 0.0]
        out = mlp_forward(net, rng.standard_normal((4096, 100))).output
        assert out.shape == (10, 100)

    def test_dropout_values_and_eval_mode(self):
        rng = np.random.default_rng(5)
        std = Standardizer(mean=np.zeros(6), std=np.ones(6))
        net = MlpNetwork.init((6, 32, 4), std, rng, dropout_rate=0.5)
        X = rng.standard_normal((6, 40))
        cache = mlp_forward(net, X, mode="train", seed=0)
        A = cache.acts[0]
        dropped = A * cache.masks[0]
        keep = 0.5
        # every unit is either zeroed or scaled by exactly 1/keep
        is_zero = dropped == 0.0
        is_scaled = np.isclose(dropped, A / keep)
        assert np.all(is_zero | is_scaled)
        assert 0.3 < is_zero.mean() < 0.7
        # eval ignores dropout entirely
        npt.assert_array_equal(
            mlp_forward(net, X, mode="eval").output,
            mlp_forward(MlpNetwork(std, [Layer(l.W, l.b, l.activation) for l in net.layers]), X).output,
        )

    def test_train_mode_seed_determinism(self):
        rng = np.random.default_rng(6)
        std = Standardizer(mean=np.zeros(5), std=np.ones(5))
        net = MlpNetwork.init((5, 16, 3), std, rng, dropout_rate=0.4)
        X = rng.standard_normal((5, 20))
        out1 = mlp_forward(net, X, mode="train", seed=42).output
        out2 = mlp_forward(net, X, mode="train", seed=42).output
        out3 = mlp_forward(net, X, mode="train", seed=43).output
        npt.assert_array_equal(out1, out2)
        assert not np.array_equal(out1, out3)

    def test_input_validation(self):
        net = identity_net(4)
        with pytest.raises(ValueError, match="shape"):
            mlp_forward(net, np.zeros((3, 5)))
        with pytest.raises(ValueError, match="mode"):
            mlp_forward(net, np.zeros((4, 5)), mode="predict")

    def test_layer_validation(self):
        with pytest.raises(ValueError, match="activation"):
            Layer(W=np.eye(2), b=np.zeros(2), activation="relu")
        with pytest.raises(ValueError, match="dropout_rate"):
            Layer(W=np.eye(2), b=np.zeros(2), activation="tanh", dropout_rate=1.0)


class TestBackward:
    def test_linear_layer_closed_form(self):
        rng = np.random.default_rng(7)
        d, n = 3, 11
        std = Standardizer(mean=np.zeros(d), std=np.ones(d))
        net = MlpNetwork(
            std, [Layer(W=rng.standard_normal((2, d)), b=np.zeros(2), activation="linear")]
        )
        X = rng.standard_normal((d, n))
        cache = mlp_forward(net, X)
        G = rng.standard_normal((2, n))
        grads, input_grad = mlp_backward(net, cache, G)
        npt.assert_allclose(grads[0], G @ X.T, atol=1e-12)
        npt.assert_allclose(grads[1], G.sum(axis=1), atol=1e-12)
        npt.assert_allclose(input_grad, net.layers[0].W.T @ G, atol=1e-12)

    def test_tanh_layer_closed_form(self):
        rng = np.random.default_rng(8)
        std = Standardizer(mean=np.zeros(3), std=np.ones(3))
        W = rng.standard_normal((2, 3))
        net = MlpNetwork(std, [Layer(W=W, b=np.zeros(2), activation="tanh")])
        X = rng.standard_normal((3, 6))
        cache = mlp_forward(net, X)
        G = rng.standard_normal((2, 6))
        grads, _ = mlp_backward(net, cache, G)
        A = np.tanh(W @ X)
        npt.assert_allclose(grads[0], (G * (1 - A * A)) @ X.T, atol=1e-12)

    def test_finite_difference_full_network(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((4, 12))
        std = Standardizer.fit(X)
        net = MlpNetwork.init((4, 8, 5, 3), std, rng)
        T = rng.standard_normal((3, 12))  # fixed target defines the scalar

        def objective():
            return float(np.sum(mlp_forward(net, X).output * T))

        cache = mlp_forward(net, X)
        grads, input_grad = mlp_backward(net, cache, T)
        h = 1e-6
        params = net.parameters()
        for p, g in zip(params, grads):
            flat = p.reshape(-1)
            for idx in range(0, flat.size, max(1, flat.size // 5)):
                old = flat[idx]
                flat[idx] = old + h
                up = objective()
                flat[idx] = old - h
                down = objective()
                flat[idx] = old
                fd = (up - down) / (2 * h)
                assert g.reshape(-1)[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)
        # input gradient through the standardizer as well
        for (i, j) in [(0, 0), (2, 5), (3, 11)]:
            old = X[i, j]
            X[i, j] = old + h
            up = objective()
            X[i, j] = old - h
            down = objective()
            X[i, j] = old
            fd = (up - down) / (2 * h)
            assert input_grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_dropped_units_get_zero_gradient(self):
        rng = np.random.default_rng(10)
        std = Standardizer(mean=np.zeros(3), std=np.ones(3))
        net = MlpNetwork.init((3, 6, 2), std, rng, dropout_rate=0.5)
        X = rng.standard_normal((3, 8))
        cache = mlp_forward(net, X, mode="train", seed=1)
        mask = cache.masks[0]
        assert (mask == 0).any()
        grads, _ = mlp_backward(net, cache, np.ones((2, 8)))
        # bias gradient of a hidden unit dropped in every sample must vanish
        fully_dropped = (mask == 0).all(axis=1)
        if fully_dropped.any():
            npt.assert_array_equal(grads[1][fully_dropped], 0.0)
        # per-sample: gradient into W row is sum over surviving samples only
        G_hidden = (net.layers[1].W.T @ np.ones((2, 8))) * mask * (1 - cache.acts[0] ** 2)
        npt.assert_allclose(grads[0], G_hidden @ cache.inputs[0].T, atol=1e-12)

    def test_stale_cache_rejected(self):
        net = identity_net(3)
        cache = mlp_forward(net, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="stale"):
            mlp_backward(net, cache, np.zeros((3, 5)))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = [np.ones((2, 2)), np.ones(2)]
        g = [np.zeros((2, 2)), np.zeros(2)]
        cfg = TrainConfig(learning_rate=0.1)
        adam_step(p, g, AdamState(p), cfg)
        npt.assert_array_equal(p[0], np.ones((2, 2)))
        npt.assert_array_equal(p[1], np.ones(2))

    def test_first_step_is_lr_times_sign(self):
        g0 = np.array([3.0, -0.2, 1e-3])
        p = [g0 * 0.0 + 5.0]
        cfg = TrainConfig(learning_rate=0.01)
        adam_step(p, [g0.copy()], AdamState(p), cfg)
        npt.assert_allclose(p[0], 5.0 - 0.01 * np.sign(g0), rtol=1e-6)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        p = [np.array([0.0])]
        g = [np.array([2.0])]
        cfg = TrainConfig(learning_rate=0.05)
        state = AdamState(p)
        prev = p[0][0]
        for _ in range(50):
            adam_step(p, g, state, cfg)
        step = prev - p[0][0]
        assert step == pytest.approx(50 * 0.05, rel=1e-3)

    def test_state_updates_in_place(self):
        p = [np.array([1.0])]
        state = AdamState(p)
        adam_step(p, [np.array([1.0])], state, TrainConfig())
        assert state.t == 1 and state.m[0][0] != 0

    def test_layout_mismatch(self):
        p = [np.zeros(2)]
        with pytest.raises(ValueError, match="layout"):
            adam_step(p, [np.zeros(2), np.zeros(2)], AdamState(p), TrainConfig())


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.hidden_sizes == (1024, 1024)
        assert cfg.dropout_rate == 0.5
        assert cfg.k == 10 and cfg.beta == 0.3 and cfg.r == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"epochs": 0},
            {"beta": 1.5},
            {"r": -1.0},
            {"k": 0},
            {"dropout_rate": 1.0},
            {"r": float("inf")},
            {"r": float("nan")},
            {"group_weighting": "median"},
            {"hidden_sizes": (0, 4)},
            {"hidden_sizes": (-3,)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
