"""Tests for the feature container, segment arithmetic, manifests and generator."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from milvad.data import (
    Dataset,
    SynthSpec,
    load_dataset,
    read_feature,
    segment_boundaries,
    synthesize_dataset,
    write_feature,
    write_manifest,
)
from milvad.data.container import MAGIC
from milvad.errors import CorruptFileError, DatasetError, InputError


class TestContainer:
    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(2, 3))
        path = tmp_path / "x.hsnf"
        write_feature(path, arr)
        back = read_feature(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr)
        assert back.tobytes() == arr.tobytes()

    def test_f32_round_trip_widens(self, tmp_path):
        arr = np.random.default_rng(1).normal(size=(4, 2)).astype(np.float32)
        path = tmp_path / "x.hsnf"
        write_feature(path, arr, precision="f32")
        back = read_feature(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, arr.astype(np.float64))

    def test_header_size_for_ndim_3(self, tmp_path):
        path = tmp_path / "x.hsnf"
        write_feature(path, np.zeros((2, 2, 2)), precision="f64")
        assert path.stat().st_size == 20 + 8 * 8

    def test_zero_dimensional_rejected(self, tmp_path):
        with pytest.raises(InputError):
            write_feature(tmp_path / "x.hsnf", np.float64(3.0))

    def test_too_many_dims_rejected(self, tmp_path):
        with pytest.raises(InputError):
            write_feature(tmp_path / "x.hsnf", np.zeros((1, 1, 1, 1, 1)))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.hsnf"
        write_feature(path, np.ones(3))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFileError):
            read_feature(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.hsnf"
        write_feature(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CorruptFileError):
            read_feature(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.hsnf"
        write_feature(path, np.ones(2))
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFileError):
            read_feature(path)

    def test_magic_bytes(self):
        assert MAGIC == bytes([0x48, 0x53, 0x4E, 0x46])


class TestSegmentBoundaries:
    def test_exact_division(self):
        ranges = segment_boundaries(96, 32, 1)
        assert len(ranges) == 32
        assert all(e - s == 3 for s, e in ranges)

    def test_floor_formula_split(self):
        assert segment_boundaries(7, 2, 1) == [(0, 3), (3, 7)]

    def test_higher_granularity_triples_count(self):
        for n in (5, 12, 100):
            assert len(segment_boundaries(n, 4, 3)) == 3 * len(segment_boundaries(n, 4, 1))

    def test_partition_properties(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            t = int(rng.integers(1, 12))
            g = int(rng.choice([1, 2, 3]))
            ranges = segment_boundaries(n, t, g)
            assert len(ranges) == g * t
            covered = np.zeros(n, dtype=int)
            for s, e in ranges:
                assert e > s, "every range is nonempty"
                assert 0 <= s < e <= n
                covered[s:e] += 1
            assert np.all(covered >= 1), "every frame belongs to at least one range"
            if n >= g * t:
                assert np.all(covered == 1), "ranges are disjoint when frames suffice"
            if n % (g * t) == 0:
                assert all(e - s == n // (g * t) for s, e in ranges)

    def test_short_video_repeats_frames(self):
        ranges = segment_boundaries(3, 6, 1)
        assert all(e - s >= 1 for s, e in ranges)
        assert ranges[0] == (0, 1)

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            segment_boundaries(0, 4, 1)
        with pytest.raises(InputError):
            segment_boundaries(10, 4, 5)


@pytest.fixture(scope="module")
def scene_dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_scene")
    spec = SynthSpec(
        train_normal=4, train_anomaly=4, test_normal=3, test_anomaly=3,
        segments=4, frames_per_segment=5, channels=6, tracklets=3,
        kind="scene", magnitude=2.0, noise=0.5, seed=11, write_latents=True,
    )
    manifests = synthesize_dataset(spec, out)
    return out, manifests, spec


class TestManifest:
    def test_empty_manifest_is_valid(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, [])
        ds = load_dataset(path)
        assert isinstance(ds, Dataset) and len(ds) == 0

    def test_loads_generated_dataset(self, scene_dataset_dir):
        _, manifests, spec = scene_dataset_dir
        train = load_dataset(manifests["train"])
        assert len(train) == spec.train_normal + spec.train_anomaly
        assert all(v.segments == spec.segments and v.channels == spec.channels for v in train)
        assert len(train.anomalies()) == spec.train_anomaly
        video = train.videos[0]
        assert video.scene[2].shape == (2 * spec.segments, spec.channels)
        assert video.scene[3].shape == (3 * spec.segments, spec.channels)
        assert video.tracklets.shape == (spec.segments, spec.tracklets, spec.channels)

    def test_scene_length_violation_names_file(self, scene_dataset_dir, tmp_path):
        out, manifests, _ = scene_dataset_dir
        doc = json.loads(Path(manifests["train"]).read_text())
        record = doc["videos"][0]
        bad = tmp_path / "bad_g2.hsnf"
        good = read_feature(out / record["scene_features"]["2"])
        write_feature(bad, np.vstack([good, good[:1]]))
        record["scene_features"]["2"] = str(bad)
        bad_manifest = tmp_path / "manifest.json"
        bad_manifest.write_text(json.dumps(doc))
        # annotation/tracklet paths are relative to the manifest dir, so keep them reachable
        (tmp_path / "features").symlink_to(out / "features")
        with pytest.raises(DatasetError, match="bad_g2.hsnf"):
            load_dataset(bad_manifest)

    def test_mixed_channel_count_rejected(self, scene_dataset_dir, tmp_path):
        out, manifests, spec = scene_dataset_dir
        doc = json.loads(Path(manifests["train"]).read_text())
        record = json.loads(json.dumps(doc["videos"][0]))
        record["id"] = "intruder"
        for g in ("1", "2", "3"):
            arr = read_feature(out / record["scene_features"][g])
            path = tmp_path / f"intruder_g{g}.hsnf"
            write_feature(path, np.hstack([arr, arr[:, :1]]))
            record["scene_features"][g] = str(path)
        arr = read_feature(out / record["tracklet_features"])
        tr_path = tmp_path / "intruder_tr.hsnf"
        write_feature(tr_path, np.concatenate([arr, arr[:, :, :1]], axis=2))
        record["tracklet_features"] = str(tr_path)
        record["annotations"] = None
        doc["videos"].append(record)
        bad_manifest = tmp_path / "manifest.json"
        bad_manifest.write_text(json.dumps(doc))
        (tmp_path / "features").symlink_to(out / "features")
        with pytest.raises(DatasetError, match="intruder"):
            load_dataset(bad_manifest)

    def test_annotation_length_checked(self, scene_dataset_dir, tmp_path):
        out, manifests, _ = scene_dataset_dir
        doc = json.loads(Path(manifests["test"]).read_text())
        record = doc["videos"][0]
        short = tmp_path / "short.txt"
        short.write_text("0\n1\n")
        record["annotations"] = str(short)
        bad_manifest = tmp_path / "manifest.json"
        bad_manifest.write_text(json.dumps(doc))
        (tmp_path / "features").symlink_to(out / "features")
        with pytest.raises(DatasetError, match=record["id"]):
            load_dataset(bad_manifest)


def _dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class TestSyntheticGenerator:
    def test_manifest_counts_and_labels(self, scene_dataset_dir):
        _, manifests, spec = scene_dataset_dir
        test = load_dataset(manifests["test"])
        labels = [v.label for v in test]
        assert labels.count("normal") == spec.test_normal
        assert labels.count("anomaly") == spec.test_anomaly

    def test_normal_videos_have_no_anomalous_frames(self, scene_dataset_dir):
        _, manifests, _ = scene_dataset_dir
        for v in load_dataset(manifests["train"]).normals():
            assert v.annotations is not None and not v.annotations.any()

    def test_anomaly_videos_mark_their_span(self, scene_dataset_dir):
        out, manifests, _ = scene_dataset_dir
        truth = json.loads((out / "truth.json").read_text())
        for v in load_dataset(manifests["test"]).anomalies():
            span = truth["videos"][v.video_id]["span"]
            expected = np.zeros(v.frames, dtype=int)
            expected[span[0]:span[1]] = 1
            assert np.array_equal(v.annotations, expected)

    def test_scene_map_matches_pooling_oracle(self, scene_dataset_dir):
        out, manifests, spec = scene_dataset_dir
        for v in load_dataset(manifests["train"]).videos[:3]:
            latents = read_feature(out / "features" / f"{v.video_id}_latents.hsnf")
            for g in (1, 2, 3):
                ranges = segment_boundaries(v.frames, spec.segments, g)
                oracle = np.stack([latents[s:e].mean(axis=0) for s, e in ranges])
                assert np.array_equal(v.scene[g], oracle)

    def test_projection_oracle_separates_scene_anomalies(self, tmp_path):
        spec = SynthSpec(
            train_normal=0, train_anomaly=0, test_normal=10, test_anomaly=10,
            segments=8, frames_per_segment=10, channels=16, tracklets=2,
            kind="scene", magnitude=2.0, noise=0.5, seed=5,
        )
        manifests = synthesize_dataset(spec, tmp_path)
        truth = json.loads((tmp_path / "truth.json").read_text())
        u = np.asarray(truth["scene_direction"])
        scores, labels = [], []
        for v in load_dataset(manifests["test"]).videos:
            proj = v.scene[1] @ u
            for i, (s, e) in enumerate(segment_boundaries(v.frames, spec.segments, 1)):
                scores.extend([proj[i]] * (e - s))
            labels.extend(v.annotations.tolist())
        scores, labels = np.asarray(scores), np.asarray(labels)
        pos, neg = scores[labels == 1], scores[labels == 0]
        # exhaustive pairwise AUC
        auc = ((pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (
            len(pos) * len(neg)
        )
        assert auc >= 0.99

    def test_human_kind_touches_only_tracklets(self, tmp_path):
        spec = SynthSpec(
            train_normal=1, train_anomaly=3, test_normal=1, test_anomaly=1,
            segments=4, frames_per_segment=4, channels=5, tracklets=3,
            kind="human", magnitude=3.0, noise=0.5, seed=9,
        )
        manifests = synthesize_dataset(spec, tmp_path)
        truth = json.loads((tmp_path / "truth.json").read_text())
        u = np.asarray(truth["human_direction"])
        ds = load_dataset(manifests["train"])
        for v in ds.anomalies():
            j = truth["videos"][v.video_id]["human_tracklet"]
            span = truth["videos"][v.video_id]["span"]
            hit = [
                i
                for i, (s, e) in enumerate(segment_boundaries(v.frames, spec.segments, 1))
                if s < span[1] and span[0] < e
            ]
            proj = v.tracklets[:, j, :] @ u
            assert proj[hit].mean() > 1.0
        # scene maps carry no planted signal for the human kind
        anomaly_scene = np.concatenate([v.scene[1] @ u for v in ds.anomalies()])
        assert np.abs(anomaly_scene.mean()) < 1.0

    def test_generation_is_reproducible(self, tmp_path):
        spec = dict(
            train_normal=2, train_anomaly=2, test_normal=1, test_anomaly=1,
            segments=4, frames_per_segment=3, channels=4, tracklets=2,
            kind="mixed", seed=21,
        )
        synthesize_dataset(SynthSpec(**spec), tmp_path / "a")
        synthesize_dataset(SynthSpec(**spec), tmp_path / "b")
        assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")

    def test_spec_validation(self):
        with pytest.raises(InputError):
            SynthSpec(kind="alien").validate()
        with pytest.raises(InputError):
            SynthSpec(duration_range=(0.0, 0.5)).validate()
        with pytest.raises(InputError):
            SynthSpec(magnitude=-1.0).validate()
