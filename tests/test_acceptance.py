"""Acceptance gate: one test per shipping criterion.

Each test prints a single [PASS]/[FAIL] line (bypassing capture, so the
lines always reach the console) and then asserts, so `pytest -v` shows
both the per-criterion verdict and the usual test outcome. Trend
criteria share one session fixture that trains the twenty deep models
they need; everything else runs on small purpose-built instances.
"""

import filecmp
import json
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from venuecca.cca import GroupIndex, fit_cca
from venuecca.cli import main
from venuecca.dataio import (
    PairedDataset,
    SplitSpec,
    SynthConfig,
    build_pairs,
    load_dataset,
    synth_generate,
)
from venuecca.dcca import cca_objective, train_dcca
from venuecca.kcca import _center_columns, fit_kcca, gaussian_kernel
from venuecca.linalg import regularized_covariance
from venuecca.methods import METHODS, fit
from venuecca.model_io import load_model
from venuecca.neural import TrainConfig, mlp_backward, mlp_forward
from venuecca.retrieval import (
    GeoFilter,
    RankList,
    build_index,
    evaluate,
    mean_average_precision,
    mrr1,
    rank_venues,
    recall_precision_curve,
)


@pytest.fixture
def report(capsys):
    def _report(num, desc, ok, detail=""):
        with capsys.disabled():
            tag = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            print(f"[{tag}] criterion {num}: {desc}{suffix}")
        assert ok, f"criterion {num}: {desc}{suffix}"

    return _report


# ---------------------------------------------------------------- trends

TREND_CONDITIONS = (
    # (extra_photo_ratio, beta, evaluate with the geo filter too?)
    (0.2, 1.0, True),
    (0.2, 0.3, True),
    (0.0, 0.3, False),
    (0.4, 0.3, False),
)
TREND_SEEDS = range(5)


@pytest.fixture(scope="session")
def trends():
    """Train the deep models behind the three trend criteria once.

    Five seeds x four conditions on the default synthetic dataset. The
    returned dict maps (seed, ratio, beta) to evaluation reports; the
    seed-0 beta-0.3 model is kept for the rank-invariant check.
    """
    t0 = time.time()
    out = {}
    for seed in TREND_SEEDS:
        venues = synth_generate(SynthConfig(seed=seed))
        for ratio, beta, want_geo in TREND_CONDITIONS:
            split = SplitSpec(
                seed=seed, train_venue_fraction=0.75, extra_photo_ratio=ratio
            )
            train_set, test_set = build_pairs(venues, split)
            cfg = TrainConfig(
                learning_rate=1e-3,
                batch_size=100,
                epochs=60,
                seed=seed,
                r=1e-4,
                beta=beta,
                k=10,
                hidden_sizes=(64, 64),
                dropout_rate=0.0,
            )
            model = train_dcca(train_set, cfg)
            index = build_index(model, venues)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                entry = {"plain": evaluate(model, index, test_set)}
                if want_geo:
                    entry["geo"] = evaluate(
                        model, index, test_set, geo_radius_km=1.0
                    )
            if seed == 0 and ratio == 0.2 and beta == 0.3:
                entry["model"] = model
                entry["index"] = index
                entry["test"] = test_set
            out[(seed, ratio, beta)] = entry
    out["elapsed"] = time.time() - t0
    return out


def _trend_mean(trends, ratio, beta, metric, kind="plain"):
    return float(
        np.mean(
            [getattr(trends[(s, ratio, beta)][kind], metric) for s in TREND_SEEDS]
        )
    )


# ------------------------------------------------------------- criteria


def test_criterion_01_first_correlation_matches_grid_search(report):
    t0 = time.time()
    step = np.deg2rad(0.5)
    angles = np.arange(0.0, np.pi, step)
    W = np.stack([np.cos(angles), np.sin(angles)])

    def table(M):
        P = W.T @ (M - M.mean(axis=1, keepdims=True))
        return P / np.linalg.norm(P, axis=1, keepdims=True)

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((2, 200))
        Y = rng.standard_normal((2, 200)) + rng.uniform(0.0, 1.0) * X
        rho = fit_cca(X, Y, k=1, r=0.0).rho[0]
        grid = float(np.abs(table(X) @ table(Y).T).max())
        worst = max(worst, abs(rho - grid))
    elapsed = time.time() - t0
    report(
        1,
        "first canonical correlation matches 0.5-degree grid search within 1e-3",
        worst < 1e-3 and elapsed < 10.0,
        f"worst |diff| {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_whitening_constraints_all_methods(report):
    venues = synth_generate(
        SynthConfig(
            n_venues=60, n_categories=5, photos_per_venue=4, d_x=16, d_y=12, seed=0
        )
    )
    train_set, _ = build_pairs(venues, SplitSpec(seed=0))
    k, r = 4, 1e-4
    tc = TrainConfig(
        learning_rate=1e-3,
        batch_size=30,
        epochs=5,
        seed=0,
        r=r,
        k=k,
        hidden_sizes=(16,),
        dropout_rate=0.0,
    )

    def deviation(head, rep_x, rep_y):
        dev = 0.0
        for W, rep, mean in (
            (head.Wx, rep_x, head.mean_x),
            (head.Wy, rep_y, head.mean_y),
        ):
            C = regularized_covariance(rep - mean[:, None], head.r)
            dev = max(dev, float(np.abs(W.T @ C @ W - np.eye(head.k)).max()))
        return dev

    worst = {}
    X, Y = train_set.X, train_set.Y
    for method in METHODS:
        model = fit(method, train_set, replace(tc, beta=0.3 if method.startswith("c-") else 1.0))
        if method in ("cca", "c-cca"):
            head, rep_x, rep_y = model, X, Y
        elif method in ("kcca", "c-kcca"):
            Kx = gaussian_kernel(model.map_x.train, model.map_x.train, model.sigma_x)
            Ky = gaussian_kernel(model.map_y.train, model.map_y.train, model.sigma_y)
            head = model.head
            rep_x = _center_columns(Kx, model.map_x.mu, model.map_x.grand)
            rep_y = _center_columns(Ky, model.map_y.mu, model.map_y.grand)
        else:
            head = model.head
            rep_x = mlp_forward(model.net_x, X, mode="eval").output
            rep_y = mlp_forward(model.net_y, Y, mode="eval").output
        worst[method] = deviation(head, rep_x, rep_y)
    bad = {m: d for m, d in worst.items() if d > 1e-6}
    report(
        2,
        "fitted projections whiten both covariances to identity within 1e-6",
        not bad,
        "max deviation "
        + ", ".join(f"{m} {d:.1e}" for m, d in sorted(worst.items())),
    )


def test_criterion_03_gradients_match_finite_differences(report):
    t0 = time.time()
    rng = np.random.default_rng(0)
    h = 1e-6

    def rel_err(analytic, fd):
        analytic, fd = np.asarray(analytic), np.asarray(fd)
        denom = max(np.linalg.norm(fd), 1e-12)
        return float(np.linalg.norm(analytic - fd) / denom)

    # objective gradients on raw outputs
    worst_obj = 0.0
    labels = 1 + np.arange(32) % 4
    groups = GroupIndex.from_labels(labels)
    for beta in (0.3, 1.0):
        Hx = rng.standard_normal((8, 32))
        Hy = rng.standard_normal((8, 32))

        def value():
            return cca_objective(Hx, Hy, groups=groups, beta=beta, r=1e-3, k=8)[0]

        _, gx, gy = cca_objective(Hx, Hy, groups=groups, beta=beta, r=1e-3, k=8)
        for H, g in ((Hx, gx), (Hy, gy)):
            flat = H.reshape(-1)
            fd, sel = [], []
            for idx in range(0, flat.size, 3):
                old = flat[idx]
                flat[idx] = old + h
                up = value()
                flat[idx] = old - h
                down = value()
                flat[idx] = old
                fd.append((up - down) / (2 * h))
                sel.append(g.reshape(-1)[idx])
            worst_obj = max(worst_obj, rel_err(sel, fd))

    # parameter gradients through both networks
    from venuecca.neural import MlpNetwork, Standardizer

    X = rng.standard_normal((16, 32))
    Y = rng.standard_normal((12, 32))
    net_x = MlpNetwork.init((16, 12, 8), Standardizer.fit(X), rng)
    net_y = MlpNetwork.init((12, 12, 8), Standardizer.fit(Y), rng)
    worst_net = 0.0
    for beta in (0.3, 1.0):

        def net_value():
            Hx = mlp_forward(net_x, X).output
            Hy = mlp_forward(net_y, Y).output
            return cca_objective(Hx, Hy, groups=groups, beta=beta, r=1e-3, k=8)[0]

        cache_x = mlp_forward(net_x, X)
        cache_y = mlp_forward(net_y, Y)
        _, gx, gy = cca_objective(
            cache_x.output, cache_y.output, groups=groups, beta=beta, r=1e-3, k=8
        )
        grads_x, _ = mlp_backward(net_x, cache_x, gx)
        grads_y, _ = mlp_backward(net_y, cache_y, gy)
        for net, grads in ((net_x, grads_x), (net_y, grads_y)):
            # one pooled comparison per network: flat directions (the final
            # bias, which the centered objective ignores) contribute nothing
            # to either norm instead of dividing by zero
            fd, sel = [], []
            for p, g in zip(net.parameters(), grads):
                flat = p.reshape(-1)
                stride = max(1, flat.size // 12)
                for idx in range(0, flat.size, stride):
                    old = flat[idx]
                    flat[idx] = old + h
                    up = net_value()
                    flat[idx] = old - h
                    down = net_value()
                    flat[idx] = old
                    fd.append((up - down) / (2 * h))
                    sel.append(g.reshape(-1)[idx])
            worst_net = max(worst_net, rel_err(sel, fd))
    elapsed = time.time() - t0
    report(
        3,
        "objective and network gradients match finite differences",
        worst_obj < 1e-4 and worst_net < 1e-5 and elapsed < 60.0,
        f"objective rel {worst_obj:.1e}, network rel {worst_net:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_beta_one_degenerates_to_plain_deep(report, tmp_path):
    data = tmp_path / "data"
    assert (
        main(
            ["synth", "--out", str(data), "--n-venues", "30", "--n-categories", "3",
             "--photos-per-venue", "3", "--dim-x", "8", "--dim-y", "6", "--seed", "0"]
        )
        == 0
    )
    common = [
        "--manifest", str(data / "manifest.json"),
        "--k", "2", "--hidden-sizes", "16", "--batch-size", "16",
        "--epochs", "5", "--lr", "1e-3", "--dropout", "0.5", "--seed", "0",
    ]
    out_a = tmp_path / "plain.vcca"
    out_b = tmp_path / "blend.vcca"
    assert main(["train", "--method", "dcca", "--out", str(out_a)] + common) == 0
    assert (
        main(
            ["train", "--method", "c-dcca", "--beta", "1", "--out", str(out_b)]
            + common
        )
        == 0
    )
    ha = load_model(out_a).history_objective
    hb = load_model(out_b).history_objective
    diff = float(np.abs(ha - hb).max()) if ha.shape == hb.shape else np.inf
    same_bytes = (
        (tmp_path / "plain.vcca.history.csv").read_bytes()
        == (tmp_path / "blend.vcca.history.csv").read_bytes()
    )
    report(
        4,
        "category-weighted deep training at beta=1 reproduces the plain history",
        diff < 1e-10 and same_bytes,
        f"max |history diff| {diff:.1e}, history files identical: {same_bytes}",
    )


def test_criterion_05_beta_trades_map_against_mrr1(report, trends):
    map_blend = _trend_mean(trends, 0.2, 0.3, "map")
    map_plain = _trend_mean(trends, 0.2, 1.0, "map")
    mrr_blend = _trend_mean(trends, 0.2, 0.3, "mrr1")
    mrr_plain = _trend_mean(trends, 0.2, 1.0, "mrr1")
    ok = (map_blend - map_plain >= 0.03) and (mrr_plain >= mrr_blend)
    report(
        5,
        "lowering beta lifts category MAP and cedes exact-venue MRR1",
        ok and trends["elapsed"] < 600.0,
        f"MAP 0.3/1.0 {map_blend:.3f}/{map_plain:.3f}, "
        f"MRR1 1.0/0.3 {mrr_plain:.3f}/{mrr_blend:.3f}, "
        f"trend trainings {trends['elapsed']:.0f}s",
    )


def test_criterion_06_extra_photos_do_not_hurt_map(report, trends):
    map_low = _trend_mean(trends, 0.0, 0.3, "map")
    map_high = _trend_mean(trends, 0.4, 0.3, "map")
    report(
        6,
        "raising the extra-photo ratio from 0.0 to 0.4 does not lower MAP",
        map_high >= map_low,
        f"MAP {map_low:.3f} -> {map_high:.3f}",
    )


def test_criterion_07_geo_filter_lifts_mrr1_and_never_demotes(report, trends):
    lifts = {}
    for beta, label in ((1.0, "plain"), (0.3, "blend")):
        plain = _trend_mean(trends, 0.2, beta, "mrr1", "plain")
        geo = _trend_mean(trends, 0.2, beta, "mrr1", "geo")
        lifts[label] = (plain, geo)
    entry = trends[(0, 0.2, 0.3)]
    model, index, test = entry["model"], entry["index"], entry["test"]
    demoted = 0
    for i in range(0, test.n, 7):
        truth = test.venue_ids[i]
        full = rank_venues(test.X[:, i], model, index, true_venue_id=truth)
        lat, lon = test.coords[i]
        geo_rl = rank_venues(
            test.X[:, i],
            model,
            index,
            geo=GeoFilter(lat=lat, lon=lon, radius_km=1.0),
            true_venue_id=truth,
        )
        if truth in geo_rl.venue_ids:
            if geo_rl.venue_ids.index(truth) > full.venue_ids.index(truth):
                demoted += 1
    ok = all(geo > plain for plain, geo in lifts.values()) and demoted == 0
    report(
        7,
        "the 1 km filter raises MRR1 for both deep variants and never demotes "
        "a surviving true venue",
        ok,
        ", ".join(
            f"{lbl} {p:.3f}->{g:.3f}" for lbl, (p, g) in sorted(lifts.items())
        )
        + f", demotions {demoted}",
    )


def test_criterion_08_nonlinear_methods_beat_linear_on_quadratic_link(report):
    rng = np.random.default_rng(7)
    X = rng.standard_normal((2, 300))
    Y = np.sum(X**2, axis=0, keepdims=True)
    rho_linear = fit_cca(X, Y, k=1, r=1e-4).rho[0]
    rho_kernel = fit_kcca(X, Y, k=1, r=1e-4).rho[0]
    train = PairedDataset(
        X=X,
        Y=Y,
        venue_ids=[f"v{i:03d}" for i in range(300)],
        categories=np.ones(300, dtype=int),
        coords=np.zeros((300, 2)),
    )
    cfg = TrainConfig(
        learning_rate=1e-3,
        batch_size=100,
        epochs=300,
        seed=0,
        r=1e-4,
        beta=1.0,
        k=1,
        hidden_sizes=(16, 8),
        dropout_rate=0.0,
    )
    rho_deep = train_dcca(train, cfg).rho[0]
    ok = (rho_kernel - rho_linear >= 0.2) and (rho_deep - rho_linear >= 0.2)
    report(
        8,
        "kernel and deep first correlations beat linear by >= 0.2 on a "
        "quadratic link",
        ok,
        f"linear {rho_linear:.3f}, kernel {rho_kernel:.3f}, deep {rho_deep:.3f}",
    )


def test_criterion_09_metrics_match_reference_on_random_ranklists(report):
    rng = np.random.default_rng(11)
    ranklists = []
    for q in range(1000):
        n = int(rng.integers(2, 15))
        ids = [f"v{q}_{i}" for i in range(n)]
        truth = ids[int(rng.integers(n))] if rng.random() < 0.8 else "absent"
        ranklists.append(
            RankList(
                query_id=str(q),
                venue_ids=ids,
                scores=np.sort(rng.random(n))[::-1],
                categories=rng.integers(1, 6, n),
                true_venue_id=truth,
                true_category=int(rng.integers(1, 6)),
            )
        )

    # plain-loop reference, no shared code with the library paths
    rr = []
    aps = []
    rows = []
    cutoffs = [1, 3, 5, 10]
    for rl in ranklists:
        rr.append(
            1.0 / (rl.venue_ids.index(rl.true_venue_id) + 1)
            if rl.true_venue_id in rl.venue_ids
            else 0.0
        )
        rel = [int(c == rl.true_category) for c in rl.categories]
        if sum(rel) == 0:
            continue
        hits, precs = 0, []
        for pos, flag in enumerate(rel, start=1):
            if flag:
                hits += 1
                precs.append(hits / pos)
        aps.append(sum(precs) / sum(rel))
        rows.append(
            [
                (
                    sum(rel[: min(c, len(rel))]) / sum(rel),
                    sum(rel[: min(c, len(rel))]) / min(c, len(rel)),
                )
                for c in cutoffs
            ]
        )
    ref_mrr = sum(rr) / len(rr)
    ref_map = sum(aps) / len(aps)
    ref_curve = [
        (
            sum(r[i][0] for r in rows) / len(rows),
            sum(r[i][1] for r in rows) / len(rows),
        )
        for i in range(len(cutoffs))
    ]

    got_mrr = mrr1(ranklists)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got_map, _ = mean_average_precision(ranklists)
        got_curve = recall_precision_curve(
            [rl for rl in ranklists if (rl.categories == rl.true_category).any()],
            cutoffs,
        )
    worst = max(
        abs(got_mrr - ref_mrr),
        abs(got_map - ref_map),
        max(
            max(abs(a - c), abs(b - d))
            for (a, b), (c, d) in zip(got_curve, ref_curve)
        ),
    )
    report(
        9,
        "MRR1, MAP and the recall-precision curve match a loop reference on "
        "1000 random ranklists",
        worst < 1e-12,
        f"worst |diff| {worst:.1e}",
    )


def test_criterion_10_repeated_cli_runs_are_byte_identical(report, tmp_path):
    def pipeline(root):
        data = root / "data"
        argv = [
            ["synth", "--out", str(data), "--n-venues", "30", "--n-categories", "3",
             "--photos-per-venue", "3", "--dim-x", "8", "--dim-y", "6", "--seed", "3"],
            ["train", "--manifest", str(data / "manifest.json"), "--method", "dcca",
             "--k", "2", "--hidden-sizes", "8", "--batch-size", "16", "--epochs", "3",
             "--lr", "1e-3", "--dropout", "0.5", "--seed", "3",
             "--out", str(root / "deep.vcca")],
            ["train", "--manifest", str(data / "manifest.json"), "--method", "cca",
             "--k", "2", "--seed", "3", "--out", str(root / "linear.vcca")],
            ["eval", "--manifest", str(data / "manifest.json"), "--method", "c-cca",
             "--k", "2", "--seed", "3", "--out", str(root / "ev")],
        ]
        for a in argv:
            assert main(a) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    pipeline(a)
    pipeline(b)
    compared, mismatched = 0, []
    for sub, names in (
        ("data", None),
        (".", ["deep.vcca", "deep.vcca.history.csv", "linear.vcca",
               "linear.vcca.history.csv"]),
        ("ev", ["report.json", "recall_precision.csv"]),
    ):
        da, db = a / sub, b / sub
        if names is None:
            names = [p.name for p in da.iterdir() if p.name != "config.json"]
        match, mismatch, errors = filecmp.cmpfiles(da, db, names, shallow=False)
        compared += len(match)
        mismatched += mismatch + errors
    report(
        10,
        "repeating the full CLI pipeline with one seed reproduces every "
        "data, model and report file byte for byte",
        compared > 0 and not mismatched,
        f"{compared} files identical"
        + (f", mismatched: {mismatched}" if mismatched else ""),
    )
