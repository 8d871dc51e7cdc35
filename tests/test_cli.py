import filecmp
import json
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from venuecca import cli
from venuecca.cca import LinearCcaModel
from venuecca.cli import build_parser, main
from venuecca.dataio import load_dataset, read_container, write_container, write_matrix_csv
from venuecca.dcca import DeepCcaModel
from venuecca.kcca import KernelCcaModel
from venuecca.model_io import load_index, load_model
from venuecca.neural import TrainConfig
from venuecca.retrieval import rank_venues

SYNTH_ARGS = [
    "--n-venues", "30",
    "--n-categories", "3",
    "--photos-per-venue", "3",
    "--dim-x", "8",
    "--dim-y", "6",
    "--seed", "0",
]

TINY_TRAIN = [
    "--k", "2",
    "--hidden-sizes", "8",
    "--batch-size", "16",
    "--epochs", "2",
    "--lr", "1e-3",
    "--dropout", "0.0",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["synth", "--out", str(out)] + SYNTH_ARGS) == 0
    return out / "manifest.json"


def train(dataset, out, method, extra=()):
    argv = (
        ["train", "--manifest", str(dataset), "--method", method, "--out", str(out)]
        + TINY_TRAIN
        + list(extra)
    )
    assert main(argv) == 0
    return load_model(out)


class TestSynth:
    def test_output_is_loadable(self, dataset):
        venues = load_dataset(dataset)
        assert len(venues) == 30
        assert all(v.n_photos == 3 for v in venues)

    def test_repeat_run_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out)] + SYNTH_ARGS) == 0
        names = [p.name for p in a.iterdir() if p.name != "config.json"]
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert not mismatch and not errors

    def test_seed_changes_content(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a)] + SYNTH_ARGS) == 0
        args = [s if s != "0" else "1" for s in SYNTH_ARGS]
        assert main(["synth", "--out", str(b)] + args) == 0
        va, vb = load_dataset(a / "manifest.json"), load_dataset(b / "manifest.json")
        assert not np.array_equal(va[0].text, vb[0].text)


class TestTrain:
    def test_each_method_trains_and_saves(self, dataset, tmp_path):
        expected = {
            "cca": LinearCcaModel,
            "c-cca": LinearCcaModel,
            "kcca": KernelCcaModel,
            "c-kcca": KernelCcaModel,
            "dcca": DeepCcaModel,
            "c-dcca": DeepCcaModel,
        }
        for method, cls in expected.items():
            out = tmp_path / f"{method}.vcca"
            model = train(dataset, out, method)
            assert isinstance(model, cls)
            assert out.with_suffix(".vcca.history.csv").exists()
            cfg = json.loads(out.with_suffix(".vcca.config.json").read_text())
            assert cfg["method"] == method
            assert cfg["k"] == 2

    def test_category_methods_default_beta(self, dataset, tmp_path):
        out = tmp_path / "c.vcca"
        train(dataset, out, "c-cca")
        cfg = json.loads((tmp_path / "c.vcca.config.json").read_text())
        assert cfg["beta"] == 0.3
        train(dataset, out, "cca")
        cfg = json.loads((tmp_path / "c.vcca.config.json").read_text())
        assert cfg["beta"] == 1.0

    def test_plain_method_rejects_beta(self, dataset, tmp_path, capsys):
        rc = main(
            ["train", "--manifest", str(dataset), "--method", "cca",
             "--beta", "0.5", "--out", str(tmp_path / "x.vcca")] + TINY_TRAIN
        )
        assert rc == 1
        assert "beta" in capsys.readouterr().err

    def test_dcca_equals_cdcca_at_beta_one(self, dataset, tmp_path):
        m1 = train(dataset, tmp_path / "a.vcca", "dcca")
        m2 = train(dataset, tmp_path / "b.vcca", "c-dcca", extra=["--beta", "1"])
        np.testing.assert_allclose(
            m1.history_objective, m2.history_objective, atol=1e-10
        )
        np.testing.assert_allclose(m1.head.rho, m2.head.rho, atol=1e-10)

    def test_kernel_train_echoes_bandwidth(self, dataset, tmp_path):
        train(dataset, tmp_path / "k.vcca", "kcca")
        cfg = json.loads((tmp_path / "k.vcca.config.json").read_text())
        assert cfg["sigma"] is not None and cfg["sigma"] > 0

    def test_sigma_rejected_for_non_kernel(self, dataset, tmp_path, capsys):
        rc = main(
            ["train", "--manifest", str(dataset), "--method", "cca",
             "--sigma", "2.0", "--out", str(tmp_path / "x.vcca")] + TINY_TRAIN
        )
        assert rc == 1
        assert "sigma" in capsys.readouterr().err

    def test_train_requires_method(self, dataset, tmp_path):
        with pytest.raises(SystemExit):
            main(["train", "--manifest", str(dataset), "--out", str(tmp_path / "x")])

    def test_missing_manifest_reports_error(self, tmp_path, capsys):
        rc = main(
            ["train", "--manifest", str(tmp_path / "nope.json"),
             "--method", "cca", "--out", str(tmp_path / "x.vcca")] + TINY_TRAIN
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    model_path = base / "model.vcca"
    train(dataset, model_path, "cca")
    index_path = base / "venues.vidx"
    assert main(
        ["index", "--model", str(model_path), "--manifest", str(dataset),
         "--out", str(index_path)]
    ) == 0
    return model_path, index_path


class TestIndexRetrieve:
    def test_index_covers_all_venues(self, trained):
        _, index_path = trained
        assert load_index(index_path).n == 30

    def test_retrieve_prints_and_writes_csv(self, dataset, trained, tmp_path, capsys):
        model_path, index_path = trained
        venues = load_dataset(dataset)
        queries = np.stack([venues[0].photos[0], venues[1].photos[0]])
        qfile = tmp_path / "queries.csv"
        write_matrix_csv(qfile, queries)
        out_csv = tmp_path / "ranks.csv"
        rc = main(
            ["retrieve", "--model", str(model_path), "--index", str(index_path),
             "--query", str(qfile), "--top", "3", "--out", str(out_csv)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "query 0 rank 1:" in printed and "query 1 rank 1:" in printed
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "query,rank,venue_id,score"
        assert len(lines) == 1 + 2 * 3

    def test_retrieve_geo_arguments(self, dataset, trained, tmp_path, capsys):
        model_path, index_path = trained
        venues = load_dataset(dataset)
        qfile = tmp_path / "q.csv"
        write_matrix_csv(qfile, venues[0].photos[0][None, :])
        rc = main(
            ["retrieve", "--model", str(model_path), "--index", str(index_path),
             "--query", str(qfile), "--lat", str(venues[0].lat),
             "--lon", str(venues[0].lon), "--geo-radius", "3.0"]
        )
        assert rc == 0
        assert "rank 1:" in capsys.readouterr().out
        # radius without a position is an error
        rc = main(
            ["retrieve", "--model", str(model_path), "--index", str(index_path),
             "--query", str(qfile), "--geo-radius", "3.0"]
        )
        assert rc == 1
        assert "--lat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "geo_args,message",
        [
            (["--geo-radius", "-1", "--lat", "0", "--lon", "0"], "geo radius"),
            (["--geo-radius", "nan", "--lat", "0", "--lon", "0"], "geo radius"),
            (["--geo-radius", "1", "--lat", "nan", "--lon", "0"], "geo filter position"),
            (["--lat", "0", "--lon", "0"], "--geo-radius"),
            (["--lon", "0"], "--geo-radius"),
        ],
    )
    def test_bad_geo_arguments_rejected(self, tmp_path, capsys, geo_args, message):
        # rejected before the model, index or queries are read
        missing = str(tmp_path / "missing")
        rc = main(
            ["retrieve", "--model", missing, "--index", missing, "--query", missing] + geo_args
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_zero_radius_is_valid(self, dataset, trained, tmp_path, capsys):
        model_path, index_path = trained
        venues = load_dataset(dataset)
        qfile = tmp_path / "q.csv"
        write_matrix_csv(qfile, venues[0].photos[0][None, :])
        rc = main(
            ["retrieve", "--model", str(model_path), "--index", str(index_path),
             "--query", str(qfile), "--lat", repr(venues[0].lat),
             "--lon", repr(venues[0].lon), "--geo-radius", "0"]
        )
        assert rc == 0
        assert f"query 0 rank 1: {venues[0].venue_id}" in capsys.readouterr().out

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_rejected(self, tmp_path, capsys, top):
        missing = str(tmp_path / "missing")
        rc = main(
            ["retrieve", "--model", missing, "--index", missing, "--query", missing,
             "--top", top]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --top must be >= 1") and captured.out == ""

    def test_non_finite_query_is_an_error(self, dataset, trained, tmp_path, capsys):
        model_path, index_path = trained
        venues = load_dataset(dataset)
        queries = np.stack([venues[0].photos[0], venues[1].photos[0]])
        queries[1, 2] = np.nan
        qfile = tmp_path / "q.csv"
        write_matrix_csv(qfile, queries)
        rc = main(
            ["retrieve", "--model", str(model_path), "--index", str(index_path),
             "--query", str(qfile)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: query 1 projects to a non-finite vector")

    def test_query_whose_length_overflows_is_an_error(self, dataset, trained, tmp_path, capsys):
        model_path, index_path = trained
        venues = load_dataset(dataset)
        # finite features whose projection is finite, but its squared length is not
        queries = np.stack([venues[0].photos[0], 1e200 * venues[1].photos[0]])
        qfile = tmp_path / "q.csv"
        write_matrix_csv(qfile, queries)
        rc = main(
            ["retrieve", "--model", str(model_path), "--index", str(index_path),
             "--query", str(qfile)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: query 1 projects to a vector whose length overflows")

    def test_retrieve_matches_rank_venues(self, dataset, trained, tmp_path, capsys):
        model_path, index_path = trained
        venues = load_dataset(dataset)
        queries = np.stack([v.photos[1] for v in venues[:5]])
        qfile = tmp_path / "q.csv"
        write_matrix_csv(qfile, queries)
        out_csv = tmp_path / "ranks.csv"
        rc = main(
            ["retrieve", "--model", str(model_path), "--index", str(index_path),
             "--query", str(qfile), "--top", "4", "--out", str(out_csv)]
        )
        assert rc == 0
        model, index = load_model(model_path), load_index(index_path)
        rows = [line.split(",") for line in out_csv.read_text().split("\n")[1:-1]]
        want = []
        for qi, photo in enumerate(queries):
            rl = rank_venues(photo, model, index)
            want += [(qi, rank, vid, sc) for rank, (vid, sc) in enumerate(zip(rl.venue_ids[:4], rl.scores), 1)]
        assert [(int(q), int(r), v) for q, r, v, _ in rows] == [w[:3] for w in want]
        np.testing.assert_allclose([float(s) for *_, s in rows], [w[3] for w in want], rtol=0, atol=1e-12)


class TestEval:
    def test_writes_reports(self, dataset, tmp_path):
        out = tmp_path / "ev"
        rc = main(
            ["eval", "--manifest", str(dataset), "--method", "cca",
             "--k", "2", "--out", str(out)]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["mrr1"] <= 1.0
        assert 0.0 <= report["map"] <= 1.0
        lines = (out / "recall_precision.csv").read_text().strip().split("\n")
        assert lines[0] == "cutoff,recall,precision"
        assert (out / "config.json").exists()

    def test_eval_with_saved_model(self, dataset, tmp_path):
        model_path = tmp_path / "m.vcca"
        train(dataset, model_path, "cca")
        out = tmp_path / "ev"
        rc = main(
            ["eval", "--manifest", str(dataset), "--model", str(model_path),
             "--out", str(out)]
        )
        assert rc == 0
        assert (out / "report.json").exists()

    def test_folds_write_summary(self, dataset, tmp_path):
        out = tmp_path / "ev"
        rc = main(
            ["eval", "--manifest", str(dataset), "--method", "cca",
             "--k", "2", "--folds", "2", "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["folds"] == 2
        assert len(summary["mrr1_per_fold"]) == 2
        assert summary["mrr1_mean"] == pytest.approx(
            np.mean(summary["mrr1_per_fold"])
        )
        assert (out / "fold0_report.json").exists()
        assert (out / "fold1_report.json").exists()

    def test_folds_below_one_rejected(self, dataset, tmp_path, capsys):
        rc = main(
            ["eval", "--manifest", str(dataset), "--method", "cca",
             "--k", "2", "--folds", "0", "--out", str(tmp_path / "ev")]
        )
        assert rc == 1
        assert "--folds" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(
                ["eval", "--manifest", str(dataset), "--method", "c-cca",
                 "--k", "2", "--out", str(out)]
            )
            assert rc == 0
        names = [p.name for p in a.iterdir() if p.name != "config.json"]
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert not mismatch and not errors

    @pytest.mark.parametrize("flag,value", [("--beta", "0.3"), ("--sigma", "2")])
    def test_saved_model_rejects_training_flags(self, dataset, tmp_path, capsys, flag, value):
        model_path = tmp_path / "m.vcca"
        train(dataset, model_path, "c-cca")
        capsys.readouterr()
        rc = main(
            ["eval", "--manifest", str(dataset), "--model", str(model_path),
             flag, value, "--out", str(tmp_path / "ev")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert flag in err and "--model" in err
        assert "cca" not in err.replace("vcca", "")

    def test_negative_geo_radius_rejected(self, dataset, tmp_path, capsys):
        model_path = tmp_path / "m.vcca"
        train(dataset, model_path, "cca")
        capsys.readouterr()
        rc = main(
            ["eval", "--manifest", str(dataset), "--model", str(model_path),
             "--geo-radius", "-1", "--out", str(tmp_path / "ev")]
        )
        assert rc == 1
        assert "geo radius must be a finite number" in capsys.readouterr().err

    def test_warning_prints_as_one_line(self, dataset, tmp_path, capsys):
        model_path = tmp_path / "m.vcca"
        train(dataset, model_path, "c-cca")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # the tests turn warnings into errors
            rc = main(
                ["eval", "--manifest", str(dataset), "--model", str(model_path),
                 "--geo-radius", "5", "--out", str(tmp_path / "ev")]
            )
        assert rc == 0
        err = capsys.readouterr().err
        assert err == "warning: some cutoffs exceed a candidate pool; clamped to pool size\n"

    def test_needs_model_or_method(self, dataset, tmp_path, capsys):
        rc = main(["eval", "--manifest", str(dataset), "--out", str(tmp_path / "e")])
        assert rc == 1
        assert "--model or --method" in capsys.readouterr().err

    def test_noiseless_data_retrieves_perfectly(self, tmp_path):
        out = tmp_path / "clean"
        assert main(
            ["synth", "--out", str(out), "--n-venues", "40", "--n-categories", "4",
             "--photos-per-venue", "3", "--dim-x", "16", "--dim-y", "12",
             "--noise", "0.0", "--seed", "0"]
        ) == 0
        ev = tmp_path / "ev"
        rc = main(
            ["eval", "--manifest", str(out / "manifest.json"), "--method", "cca",
             "--k", "10", "--r", "1e-8", "--out", str(ev)]
        )
        assert rc == 0
        report = json.loads((ev / "report.json").read_text())
        assert report["mrr1"] >= 0.9


# (method, flags, message) of settings rejected before any file is touched
TRAIN_FLAG_CASES = [
    ("c-dcca", ["--k", "0"], "k >= 1"),
    ("c-dcca", ["--lr", "-1"], "learning_rate"),
    ("c-dcca", ["--batch-size", "0"], "batch_size"),
    ("c-dcca", ["--epochs", "0"], "epochs"),
    ("c-dcca", ["--dropout", "1"], "dropout_rate"),
    ("c-dcca", ["--hidden-sizes", "0,4"], "hidden_sizes"),
    ("c-dcca", ["--train-fraction", "2"], "train_venue_fraction"),
    ("c-dcca", ["--extra-photo-ratio", "-0.5"], "extra_photo_ratio"),
    ("c-kcca", ["--sigma", "0"], "sigma must be > 0"),
    ("c-dcca", ["--sigma", "2"], "sigma applies to kernel methods"),
    ("cca", ["--beta", "0.5"], "beta"),
]
EVAL_FLAG_CASES = [
    ("c-dcca", ["--geo-radius", "-1"], "geo radius"),
    ("c-dcca", ["--geo-radius", "nan"], "geo radius"),
    ("c-dcca", ["--position-noise-km", "-3"], "position_noise_km"),
    ("c-dcca", ["--position-noise-km", "nan"], "position_noise_km"),
]


@pytest.mark.parametrize(
    "command,method,flags,message",
    [
        pytest.param(c, method, flags, message, id=f"{c} {method} {' '.join(flags)}")
        for c, cases in (("train", TRAIN_FLAG_CASES), ("eval", TRAIN_FLAG_CASES + EVAL_FLAG_CASES))
        for method, flags, message in cases
    ],
)
def test_bad_flag_is_rejected_before_any_file_is_touched(
    tmp_path, capsys, monkeypatch, command, method, flags, message
):
    def no_read(path):
        raise AssertionError(f"{path} was read before the flags were checked")

    monkeypatch.setattr(cli, "load_dataset", no_read)
    monkeypatch.setattr(cli, "load_model", no_read)
    out = tmp_path / ("m.vcca" if command == "train" else "ev")
    rc = main(
        [command, "--manifest", str(tmp_path / "data" / "manifest.json"),
         "--method", method, "--out", str(out)] + flags
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_index_names_a_bad_deep_model_config(tmp_path, capsys):
    data = Path(__file__).resolve().parent / "data"
    kind, meta, blocks = read_container(data / "dcca.vcca")
    meta["config"]["epolhs"] = 50
    model_path = tmp_path / "bad.vcca"
    write_container(model_path, kind, meta, blocks)
    rc = main(
        ["index", "--model", str(model_path), "--manifest", str(tmp_path / "manifest.json"),
         "--out", str(tmp_path / "x.vidx")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.vcca" in err and "'epolhs'" in err


# training flags, each at its default value: --model takes none of them
# (test_saved_model_rejects_training_flags covers --beta and --sigma)
SAVED_MODEL_TRAINING_FLAGS = [
    ["--r", "0.0001"], ["--k", "10"], ["--lr", "0.0001"], ["--batch-size", "100"],
    ["--epochs", "50"], ["--hidden-sizes", "1024,1024"], ["--dropout", "0.5"],
    ["--group-weighting", "size"], ["--method", "c-cca"],
]


@pytest.mark.parametrize("flags", SAVED_MODEL_TRAINING_FLAGS, ids=lambda f: f[0])
def test_saved_model_rejects_training_flag_before_any_file_is_read(
    tmp_path, capsys, monkeypatch, flags
):
    def no_read(path):
        raise AssertionError(f"{path} was read before the flags were checked")

    monkeypatch.setattr(cli, "load_dataset", no_read)
    monkeypatch.setattr(cli, "load_model", no_read)
    rc = main(
        ["eval", "--manifest", str(tmp_path / "manifest.json"), "--model", str(tmp_path / "m.vcca"),
         "--out", str(tmp_path / "ev")] + flags
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]} sets how a model is trained")
    assert list(tmp_path.iterdir()) == []


class TestRecords:
    def test_records_hold_the_flags_the_command_reads(self, dataset, trained):
        model_path, index_path = trained
        synth = json.loads((dataset.parent / "config.json").read_text())
        assert synth["synth"]["n_venues"] == synth["n_venues"] == 30
        assert "lr" not in synth and "k" not in synth
        index = json.loads(Path(str(index_path) + ".config.json").read_text())
        assert index == {
            "command": "index",
            "manifest": str(dataset),
            "model": str(model_path),
            "out": str(index_path),
        }
        train = json.loads(Path(str(model_path) + ".config.json").read_text())
        assert train["hidden_sizes"] == [8] and "geo_radius" not in train

    def test_eval_records_the_model_it_read(self, dataset, trained, tmp_path):
        model_path, _ = trained
        out = tmp_path / "ev"
        assert main(
            ["eval", "--manifest", str(dataset), "--model", str(model_path), "--out", str(out)]
        ) == 0
        record = json.loads((out / "config.json").read_text())
        assert record["model"] == str(model_path)
        assert record["method"] is None and record["beta"] is None

    def test_eval_with_model_records_no_training_settings(self, dataset, trained, tmp_path):
        model_path, _ = trained
        out = tmp_path / "ev"
        assert main(
            ["eval", "--manifest", str(dataset), "--model", str(model_path), "--out", str(out)]
        ) == 0
        record = json.loads((out / "config.json").read_text())
        # beta stays as the resolved value, null: no model was trained
        assert record["beta"] is None
        assert not set(record) & set(cli.TRAINING_FLAGS) - {"beta"}

    def test_eval_with_method_records_the_training_defaults(self, dataset, tmp_path):
        out = tmp_path / "ev"
        assert main(
            ["eval", "--manifest", str(dataset), "--method", "cca", "--k", "2", "--out", str(out)]
        ) == 0
        record = json.loads((out / "config.json").read_text())
        defaults = TrainConfig()
        assert (record["k"], record["r"], record["lr"]) == (2, defaults.r, defaults.learning_rate)
        assert record["hidden_sizes"] == list(defaults.hidden_sizes) and record["sigma"] is None


def readme_cli_commands():
    """The argument lists of the venuecca commands in README's CLI block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("venuecca ")]


def test_readme_cli_block_parses():
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == ["synth", "train", "index", "retrieve", "eval"]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


class TestEntryPoint:
    @pytest.mark.parametrize("module", ["venuecca.cli", "venuecca"])
    def test_module_help_runs(self, module):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for cmd in ("synth", "train", "index", "retrieve", "eval"):
            assert cmd in proc.stdout

    def test_truncated_model_file_is_an_error_not_a_traceback(self, dataset, tmp_path):
        model_path = tmp_path / "short.vcca"
        model_path.write_bytes(b"VCCAPKG1\x05")
        proc = subprocess.run(
            [sys.executable, "-m", "venuecca.cli", "index", "--model", str(model_path),
             "--manifest", str(dataset), "--out", str(tmp_path / "x.vidx")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "short.vcca" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_model_header_of_wrong_shape_is_an_error_not_a_traceback(self, dataset, tmp_path):
        model_path = tmp_path / "empty-header.vcca"
        model_path.write_bytes(b"VCCAPKG1" + struct.pack("<I", 2) + b"{}")
        proc = subprocess.run(
            [sys.executable, "-m", "venuecca.cli", "index", "--model", str(model_path),
             "--manifest", str(dataset), "--out", str(tmp_path / "x.vidx")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "empty-header.vcca" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "meta,category_rows",
        [({"venue_ids": 5}, 1), ({"venue_ids": ["a", "b"]}, 0)],
        ids=["venue-ids-not-a-list", "categories-without-rows"],
    )
    def test_malformed_index_is_an_error_not_a_traceback(self, trained, tmp_path, meta, category_rows):
        model_path, _ = trained
        index_path = tmp_path / "bad.vidx"
        blocks = {
            "vectors": np.zeros((2, 2)),
            "coords": np.zeros((2, 2)),
            "categories": np.ones((category_rows, 2)),
        }
        write_container(index_path, "venue-index", meta, blocks)
        qfile = tmp_path / "q.csv"
        write_matrix_csv(qfile, np.zeros((1, 8)))
        proc = subprocess.run(
            [sys.executable, "-m", "venuecca.cli", "retrieve", "--model", str(model_path),
             "--index", str(index_path), "--query", str(qfile)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "bad.vidx" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_malformed_manifest_is_an_error_not_a_traceback(self, dataset, tmp_path):
        manifest = json.loads(dataset.read_text())
        del manifest["venues"][2]["lat"]
        bad = dataset.parent / "bad_manifest.json"
        bad.write_text(json.dumps(manifest))
        proc = subprocess.run(
            [sys.executable, "-m", "venuecca.cli", "train", "--manifest", str(bad),
             "--method", "cca", "--out", str(tmp_path / "x.vcca")] + TINY_TRAIN,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "bad_manifest.json" in proc.stderr
        assert "venue entry 2 lacks key 'lat'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_null_dimension_is_an_error_not_a_traceback(self, dataset, tmp_path):
        manifest = json.loads(dataset.read_text())
        manifest["dim_x"] = None
        bad = dataset.parent / "null_dim.json"
        bad.write_text(json.dumps(manifest))
        proc = subprocess.run(
            [sys.executable, "-m", "venuecca.cli", "train", "--manifest", str(bad),
             "--method", "cca", "--out", str(tmp_path / "x.vcca")] + TINY_TRAIN,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "null_dim.json" in proc.stderr
        assert "'dim_x' must be a number, got None" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_dimension_is_an_error_not_a_traceback(self, dataset, tmp_path, capsys):
        manifest = json.loads(dataset.read_text())
        manifest["dim_x"] = -3
        for entry in manifest["venues"]:
            entry["photo_files"] = []
        bad = dataset.parent / "negative_dim.json"
        bad.write_text(json.dumps(manifest))
        rc = main(
            ["train", "--manifest", str(bad), "--method", "cca",
             "--out", str(tmp_path / "x.vcca")] + TINY_TRAIN
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "negative_dim.json" in err
        assert "'dim_x' must be >= 0, got -3" in err

    def test_unknown_method_rejected(self, dataset, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["train", "--manifest", str(dataset), "--method", "pls",
                 "--out", str(tmp_path / "x")]
            )
