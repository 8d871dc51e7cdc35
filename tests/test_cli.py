import filecmp
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from venuecca.cca import LinearCcaModel
from venuecca.cli import main
from venuecca.dataio import load_dataset, write_container, write_matrix_csv
from venuecca.dcca import DeepCcaModel
from venuecca.kcca import KernelCcaModel
from venuecca.model_io import load_index, load_model

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


class TestEntryPoint:
    def test_module_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "venuecca.cli", "--help"],
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

    def test_unknown_method_rejected(self, dataset, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["train", "--manifest", str(dataset), "--method", "pls",
                 "--out", str(tmp_path / "x")]
            )
