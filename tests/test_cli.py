"""Tests driving the command-line interface in-process."""

import hashlib
import json
import shutil
import time
from pathlib import Path

import pytest

import milvad.tensor
from milvad.cli import main


def write_spec(path, **overrides):
    spec = {
        "train_normal": 4, "train_anomaly": 4, "test_normal": 3, "test_anomaly": 3,
        "segments": 8, "frames_per_segment": 5, "channels": 16, "tracklets": 3,
        "kind": "scene", "magnitude": 2.0, "noise": 0.5, "seed": 13,
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return path


def write_config(path, **train_overrides):
    train = {"steps": 10, "seed": 0, "learning_rate": 1e-3}
    train.update(train_overrides)
    doc = {
        "hyper": {"segments": 8, "channels": 16, "conv_channels": 16,
                  "hidden_size": 16, "selected_tracklets": 2, "ranker_width": 16},
        "train": train,
    }
    path.write_text(json.dumps(doc))
    return path


def _dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    spec = write_spec(out / "spec.json")
    assert main(["gen-data", "--spec", str(spec), "--out", str(out / "ds")]) == 0
    return out / "ds"


@pytest.fixture(scope="module")
def trained_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_train")
    cfg = write_config(out / "config.json", steps=12)
    code = main(["train", "--config", str(cfg), "--data", str(dataset_dir),
                 "--out", str(out / "run")])
    assert code == 0
    return out / "run"


@pytest.mark.parametrize("kind, section, key, value", [
    ("config", "hyper", "segments", "8"),
    ("config", "hyper", "channels", True),
    ("config", "train", "steps", 2.5),
    ("config", "train", "betas", 0.9),
    ("config", "train", "betas", ["0.9", 0.999]),
    ("config", "train", "stage_fractions", [0.5, 0.5]),
    ("config", "train", "normalize_context", "false"),
    ("spec", None, "train_normal", "2"),
    ("spec", None, "magnitude", "2"),
    ("spec", None, "duration_range", 0.5),
], ids=lambda v: repr(v) if isinstance(v, (list, bool, float)) else v)
def test_mistyped_value_is_input_error(dataset_dir, tmp_path, capsys, kind, section, key, value):
    if kind == "config":
        path = write_config(tmp_path / "config.json")
        doc = json.loads(path.read_text())
        doc[section][key] = value
        path.write_text(json.dumps(doc))
        argv = ["train", "--config", str(path), "--data", str(dataset_dir)]
    else:
        path = write_spec(tmp_path / "spec.json", **{key: value})
        argv = ["gen-data", "--spec", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and key in err
    assert not (tmp_path / "out").exists()


class TestGenData:
    def test_minimal_spec_prints_manifests(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", train_normal=1, train_anomaly=1,
                          test_normal=1, test_anomaly=1)
        assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert "train_manifest.json" in out and "test_manifest.json" in out

    def test_malformed_spec_fails_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["gen-data", "--spec", str(bad), "--out", str(tmp_path / "d")]) == 1
        assert "parse" in capsys.readouterr().err

    def test_same_spec_and_seed_give_identical_digests(self, tmp_path):
        spec = write_spec(tmp_path / "spec.json", train_normal=2, train_anomaly=2,
                          test_normal=1, test_anomaly=1)
        main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "a")])
        main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "b")])
        assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")


class TestTrain:
    def test_smoke_run_is_quick_and_writes_artifacts(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "config.json", steps=10)
        start = time.time()
        code = main(["train", "--config", str(cfg), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "run")])
        elapsed = time.time() - start
        assert code == 0
        assert elapsed < 10.0
        assert (tmp_path / "run" / "checkpoint.json").exists()
        log = (tmp_path / "run" / "train_log.txt").read_text()
        assert log.startswith("config ")
        assert log.count("phase ") >= 3

    def test_loss_flag_switches_loss(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "config.json", steps=6)
        code = main(["train", "--config", str(cfg), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "run"), "--loss", "classical-ranking"])
        assert code == 0
        log = (tmp_path / "run" / "train_log.txt").read_text()
        assert '"loss": "classical_ranking"' in log.splitlines()[0]
        ckpt = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
        assert ckpt["train"]["loss"] == "classical_ranking"

    def test_missing_data_dir_fails_without_partial_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json")
        code = main(["train", "--config", str(cfg), "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert not (tmp_path / "run").exists()
        assert "train_manifest" in capsys.readouterr().err


class TestEval:
    def test_eval_twice_identical_reports(self, dataset_dir, trained_dir, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            code = main(["eval", "--ckpt", str(trained_dir / "checkpoint.json"),
                         "--data", str(dataset_dir), "--report", str(tmp_path / name)])
            assert code == 0
            reports.append((tmp_path / name).read_text())
        assert reports[0] == reports[1]

    def test_kfold_adds_fold_block(self, dataset_dir, trained_dir, tmp_path):
        code = main(["eval", "--ckpt", str(trained_dir / "checkpoint.json"),
                     "--data", str(dataset_dir), "--report", str(tmp_path / "r.json"),
                     "--kfold", "3"])
        assert code == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert len(doc["fold_aucs"]) == 3
        assert "mean_fold_auc" in doc

    def test_dump_scores_writes_one_file_per_video(self, dataset_dir, trained_dir, tmp_path):
        code = main(["eval", "--ckpt", str(trained_dir / "checkpoint.json"),
                     "--data", str(dataset_dir), "--report", str(tmp_path / "r.json"),
                     "--dump-scores"])
        assert code == 0
        files = sorted((tmp_path / "r_scores").glob("*.scores.txt"))
        assert len(files) == 6
        lines = files[0].read_text().strip().splitlines()
        assert len(lines) == 40  # 8 segments * 5 frames


    @pytest.mark.parametrize("corrupt", [
        lambda doc: doc["hyper"].update(depth=3),
        lambda doc: doc.pop("hyper"),
        lambda doc: doc.pop("tensors"),
    ], ids=["unknown-hyper-key", "no-hyper", "no-tensors"])
    def test_malformed_checkpoint_is_input_error(self, dataset_dir, trained_dir, tmp_path,
                                                 corrupt, capsys):
        index = trained_dir / "checkpoint.json"
        doc = json.loads(index.read_text())
        corrupt(doc)
        bad = trained_dir / "bad_checkpoint.json"  # beside the payload it references
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--ckpt", str(bad), "--data", str(dataset_dir),
                     "--report", str(tmp_path / "r.json")])
        assert code == 1
        assert str(bad) in capsys.readouterr().err


    @pytest.mark.parametrize("corrupt, key", [
        (lambda rec: rec.pop("frames"), "frames"),
        (lambda rec: rec.update(frames="40"), "frames"),
        (lambda rec: rec.update(frames=40.0), "frames"),
        (lambda rec: rec.pop("tracklet_features"), "tracklet_features"),
        (lambda rec: rec.pop("scene_features"), "scene_features"),
        (lambda rec: rec["scene_features"].pop("2"), "'2'"),
    ], ids=["no-frames", "string-frames", "float-frames", "no-tracklet-features",
            "no-scene-features", "no-scene-granularity"])
    def test_malformed_manifest_record_is_dataset_error(self, dataset_dir, trained_dir, tmp_path,
                                                        corrupt, key, capsys):
        data = shutil.copytree(dataset_dir, tmp_path / "ds")
        manifest = data / "test_manifest.json"
        doc = json.loads(manifest.read_text())
        record = doc["videos"][1]
        corrupt(record)
        manifest.write_text(json.dumps(doc))
        code = main(["eval", "--ckpt", str(trained_dir / "checkpoint.json"),
                     "--data", str(data), "--report", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and record["id"] in err and key in err

    @pytest.mark.parametrize("corrupt, where", [
        (lambda doc: [], "JSON object"),
        (lambda doc: {**doc, "videos": {"a": 1}}, "'videos'"),
        (lambda doc: {**doc, "videos": [5]}, "video record 0"),
        (lambda doc: {**doc, "videos": doc["videos"][:2] + ["x"]}, "video record 2"),
    ], ids=["list-manifest", "object-videos", "number-record", "string-record"])
    def test_non_object_manifest_is_dataset_error(self, dataset_dir, trained_dir, tmp_path,
                                                  corrupt, where, capsys):
        data = shutil.copytree(dataset_dir, tmp_path / "ds")
        manifest = data / "test_manifest.json"
        manifest.write_text(json.dumps(corrupt(json.loads(manifest.read_text()))))
        code = main(["eval", "--ckpt", str(trained_dir / "checkpoint.json"),
                     "--data", str(data), "--report", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and where in err

    @pytest.mark.parametrize("corrupt", [
        lambda doc: [],
        lambda doc: 5,
        lambda doc: {**doc, "tensors": list(doc["tensors"])},
        lambda doc: {**doc, "tensors": dict.fromkeys(doc["tensors"], 5)},
    ], ids=["list", "number", "tensors-list", "tensor-path-number"])
    def test_non_object_checkpoint_is_input_error(self, dataset_dir, trained_dir, tmp_path,
                                                  corrupt, capsys):
        doc = json.loads((trained_dir / "checkpoint.json").read_text())
        bad = trained_dir / "bad_checkpoint.json"  # beside the payload it references
        bad.write_text(json.dumps(corrupt(doc)))
        code = main(["eval", "--ckpt", str(bad), "--data", str(dataset_dir),
                     "--report", str(tmp_path / "r.json")])
        assert code == 1
        assert str(bad) in capsys.readouterr().err


class TestGradcheck:
    def test_fresh_build_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "mgtm_forward" in out and "fuse" in out
        assert "FAIL" not in out

    def test_corrupted_adjoint_reported(self, monkeypatch, capsys):
        sigmoid = milvad.tensor.sigmoid

        def corrupted_sigmoid(a):
            out = sigmoid(a)
            if out._vjp is not None:
                vjp = out._vjp
                out._vjp = lambda g: tuple(1.5 * pg for pg in vjp(g))
            return out

        # Tensor.sigmoid and affine's activation look `sigmoid` up at call time
        monkeypatch.setattr(milvad.tensor, "sigmoid", corrupted_sigmoid)
        assert main(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestCompareLoss:
    def test_report_has_two_aucs_and_delta(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", steps=8)
        code = main(["compare-loss", "--config", str(cfg), "--data", str(dataset_dir),
                     "--out", str(tmp_path / "cmp.json")])
        assert code == 0
        doc = json.loads((tmp_path / "cmp.json").read_text())
        assert set(doc) >= {"self_rectifying_auc", "classical_ranking_auc", "delta"}
        assert doc["delta"] == pytest.approx(
            doc["self_rectifying_auc"] - doc["classical_ranking_auc"]
        )

    def test_identical_seeds_reproduce_delta(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "config.json", steps=8, seed=5)
        deltas = []
        for name in ("x.json", "y.json"):
            main(["compare-loss", "--config", str(cfg), "--data", str(dataset_dir),
                  "--out", str(tmp_path / name)])
            deltas.append(json.loads((tmp_path / name).read_text())["delta"])
        assert deltas[0] == deltas[1]


class TestUsage:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
