"""Dataset manifests and validated feature loading.

A manifest is a JSON document listing one record per video:

    {
      "format_version": 1,
      "videos": [
        {
          "id": "train_anomaly_000",
          "label": "anomaly",                # or "normal"
          "category": "scene",
          "frames": 80,
          "scene_features": {"1": "...", "2": "...", "3": "..."},
          "tracklet_features": "...",
          "annotations": "..."               # optional; one 0/1 per line
        },
        ...
      ]
    }

Feature paths are relative to the manifest's directory. Scene maps must
have lengths T, 2T and 3T with a shared channel count; the tracklet map
is (T, k, n) where k may differ per video.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DatasetError
from .container import read_feature
from .segments import GRANULARITIES

MANIFEST_VERSION = 1
LABELS = ("normal", "anomaly")


@dataclass
class VideoFeatures:
    """One video's feature maps, label and optional frame annotations."""

    video_id: str
    label: str
    category: str
    frames: int
    scene: dict[int, np.ndarray]      # granularity -> (G*T, n)
    tracklets: np.ndarray             # (T, k, n); k >= 0
    annotations: np.ndarray | None = None    # (frames,) of {0,1}

    @property
    def segments(self) -> int:
        return self.scene[1].shape[0]

    @property
    def channels(self) -> int:
        return self.scene[1].shape[1]

    def is_anomaly(self) -> bool:
        return self.label == "anomaly"


@dataclass
class Dataset:
    videos: list[VideoFeatures]

    def __len__(self) -> int:
        return len(self.videos)

    def __iter__(self):
        return iter(self.videos)

    def anomalies(self) -> list[VideoFeatures]:
        return [v for v in self.videos if v.is_anomaly()]

    def normals(self) -> list[VideoFeatures]:
        return [v for v in self.videos if not v.is_anomaly()]

    def categories(self) -> list[str]:
        return sorted({v.category for v in self.anomalies()})


def merge_datasets(*datasets: Dataset) -> Dataset:
    videos = [v for d in datasets for v in d.videos]
    ids = [v.video_id for v in videos]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise DatasetError(f"merged datasets share video ids, e.g. {dupes[:3]}")
    return Dataset(videos)


def read_annotations(path, expected_frames: int, video_id: str) -> np.ndarray:
    lines = Path(path).read_text().split()
    values = []
    for token in lines:
        if token not in ("0", "1"):
            raise DatasetError(f"video {video_id}: annotation {path} has non-binary entry {token!r}")
        values.append(int(token))
    if len(values) != expected_frames:
        raise DatasetError(
            f"video {video_id}: annotation {path} has {len(values)} lines, expected {expected_frames}"
        )
    return np.asarray(values, dtype=np.int64)


def write_annotations(path, labels) -> None:
    Path(path).write_text("\n".join(str(int(v)) for v in labels) + "\n")


def _entry(mapping: dict, key: str, kind: type, where: str):
    """mapping[key], which must exist and be a `kind` (a bool is not an int)."""
    if key not in mapping:
        raise DatasetError(f"{where}: no {key!r} entry")
    value = mapping[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DatasetError(f"{where}: {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _load_record(record: object, manifest_path: Path, position: int) -> VideoFeatures:
    if not isinstance(record, dict):
        raise DatasetError(f"{manifest_path}: video record {position} must be an object, got {record!r}")
    base = manifest_path.parent
    video_id = record.get("id", "<missing id>")
    label = record.get("label")
    if label not in LABELS:
        raise DatasetError(f"video {video_id}: label must be one of {LABELS}, got {label!r}")
    where = f"{manifest_path}: video {video_id}"
    frames = _entry(record, "frames", int, where)
    scene_rels = _entry(record, "scene_features", dict, where)
    tr_rel = _entry(record, "tracklet_features", str, where)
    scene: dict[int, np.ndarray] = {}
    for g in GRANULARITIES:
        rel = _entry(scene_rels, str(g), str, f"{where}: scene_features")
        scene[g] = read_feature(base / rel)
        if scene[g].ndim != 2:
            raise DatasetError(f"video {video_id}: scene map {rel} is not 2-D")
    t = scene[1].shape[0]
    n = scene[1].shape[1]
    for g in GRANULARITIES:
        rel = scene_rels[str(g)]
        if scene[g].shape[0] != g * t:
            raise DatasetError(
                f"video {video_id}: scene map {rel} has length {scene[g].shape[0]}, expected {g * t}"
            )
        if scene[g].shape[1] != n:
            raise DatasetError(
                f"video {video_id}: scene map {rel} has {scene[g].shape[1]} channels, expected {n}"
            )
    tracklets = read_feature(base / tr_rel)
    if tracklets.ndim != 3 or tracklets.shape[0] != t or tracklets.shape[2] != n:
        raise DatasetError(
            f"video {video_id}: tracklet map {tr_rel} has shape {tracklets.shape}, expected ({t}, k, {n})"
        )
    annotations = None
    if record.get("annotations"):
        annotations = read_annotations(base / record["annotations"], frames, video_id)
    return VideoFeatures(
        video_id=video_id,
        label=label,
        category=record.get("category", label),
        frames=frames,
        scene=scene,
        tracklets=tracklets,
        annotations=annotations,
    )


def load_dataset(manifest_path) -> Dataset:
    """Parse a manifest and load every referenced file, checking invariants.

    Any violation names the offending video and file.
    """
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{manifest_path}: manifest does not parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetError(f"{manifest_path}: manifest must be a JSON object, got {type(doc).__name__}")
    if doc.get("format_version") != MANIFEST_VERSION:
        raise DatasetError(f"{manifest_path}: unsupported manifest version {doc.get('format_version')}")
    records = doc.get("videos", [])
    if not isinstance(records, list):
        raise DatasetError(f"{manifest_path}: 'videos' must be a list, got {type(records).__name__}")
    videos = [_load_record(rec, manifest_path, i) for i, rec in enumerate(records)]
    if videos:
        t, n = videos[0].segments, videos[0].channels
        for v in videos[1:]:
            if v.channels != n:
                raise DatasetError(
                    f"video {v.video_id}: channel count {v.channels} differs from {videos[0].video_id}'s {n}"
                )
            if v.segments != t:
                raise DatasetError(
                    f"video {v.video_id}: segment count {v.segments} differs from {videos[0].video_id}'s {t}"
                )
    return Dataset(videos)


def write_manifest(path, records: list[dict]) -> None:
    doc = {"format_version": MANIFEST_VERSION, "videos": records}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
