import pytest

from venuecca import METHODS, fit
from venuecca.cca import GroupIndex, fit_cca
from venuecca.dataio import SplitSpec, SynthConfig, build_pairs, synth_generate
from venuecca.dcca import train_dcca
from venuecca.kcca import fit_kcca
from venuecca.model_io import save_model
from venuecca.neural import TrainConfig


@pytest.fixture(scope="module")
def train_set():
    venues = synth_generate(
        SynthConfig(n_venues=40, n_categories=4, photos_per_venue=3, d_x=16, d_y=12, seed=0)
    )
    train, _ = build_pairs(venues, SplitSpec(seed=0))
    return train


def tiny_config(**kwargs):
    base = dict(learning_rate=1e-3, batch_size=16, epochs=2, k=2, hidden_sizes=(8,), dropout_rate=0.0)
    return TrainConfig(**{**base, **kwargs})


def reference_fit(method, train, config, sigma=None):
    """The method dispatch as the command line wrote it out before fit."""
    groups = None
    if method in ("c-cca", "c-kcca"):
        groups = GroupIndex.from_labels(train.categories)
    common = dict(groups=groups, beta=config.beta, group_weighting=config.group_weighting)
    if method in ("cca", "c-cca"):
        return fit_cca(train.X, train.Y, config.k, config.r, **common)
    if method in ("kcca", "c-kcca"):
        return fit_kcca(train.X, train.Y, config.k, config.r, sigma_x=sigma, sigma_y=sigma, **common)
    return train_dcca(train, config)


def model_bytes(model, path):
    save_model(model, path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "method,settings,sigma",
    [(m, {"beta": 0.3 if m.startswith("c-") else 1.0}, None) for m in METHODS]
    + [
        ("c-cca", {"beta": 0.0, "group_weighting": "equal"}, None),
        ("c-kcca", {"beta": 0.5}, 1.5),
        ("kcca", {"beta": 1.0}, 2.0),
        ("c-dcca", {"beta": 0.5, "group_weighting": "equal"}, None),
    ],
)
def test_matches_written_out_dispatch(train_set, tmp_path, method, settings, sigma):
    config = tiny_config(**settings)
    got = model_bytes(fit(method, train_set, config, sigma), tmp_path / "fit.vcca")
    want = model_bytes(reference_fit(method, train_set, config, sigma), tmp_path / "ref.vcca")
    assert got == want


@pytest.mark.parametrize("method,beta", [("cca", 1.0), ("c-cca", 0.3), ("kcca", 1.0), ("c-kcca", 0.3)])
def test_default_config_runs_at_the_methods_beta(train_set, tmp_path, method, beta):
    config = TrainConfig(beta=beta)
    got = model_bytes(fit(method, train_set), tmp_path / "fit.vcca")
    want = model_bytes(reference_fit(method, train_set, config), tmp_path / "ref.vcca")
    assert got == want


@pytest.mark.parametrize(
    "method,config,sigma,message",
    [
        ("pls", None, None, "unknown method 'pls'"),
        ("cca", TrainConfig(beta=0.3), None, "beta"),
        ("dcca", TrainConfig(beta=0.5), None, "beta"),
        ("cca", None, 2.0, "sigma"),
        ("c-dcca", None, 2.0, "sigma"),
    ],
    ids=["unknown-method", "beta-on-cca", "beta-on-dcca", "sigma-on-cca", "sigma-on-c-dcca"],
)
def test_rejects_settings_the_method_does_not_take(train_set, method, config, sigma, message):
    with pytest.raises(ValueError, match=message):
        fit(method, train_set, config, sigma)
