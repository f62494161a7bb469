"""Synthetic dataset generator with planted scene / human anomalies.

Each video is driven by a per-frame latent sequence of independent
Gaussian noise; scene maps at all three granularities are mean-pooled
from the same latents, which ties the granularities together the way a
shared source video would. Tracklet features are independent per
(segment, tracklet). Anomalous videos receive one contiguous span:

    scene  - adds `magnitude` along a fixed unit direction to the latent
             frames in the span (a sharp global change),
    human  - adds `magnitude` along a second fixed direction to a single
             random tracklet in the segments overlapping the span (a
             localized, subtle change; scene maps untouched),
    mixed  - applies both to the same video.

Generation is reproducible: the same spec and seed give bit-identical
files. Alongside the train/test manifests a `truth.json` records the
planted directions and spans for oracle-style verification.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..config import decode
from ..errors import InputError
from .container import write_feature
from .manifest import write_annotations, write_manifest
from .segments import GRANULARITIES, segment_boundaries

KINDS = ("scene", "human", "mixed")


@dataclass
class SynthSpec:
    """Knobs for one generated dataset."""

    train_normal: int = 20
    train_anomaly: int = 20
    test_normal: int = 10
    test_anomaly: int = 10
    segments: int = 8              # T
    frames_per_segment: int = 10
    channels: int = 16             # n
    tracklets: int = 4             # k
    kind: str = "scene"            # scene | human | mixed
    duration_range: tuple[float, float] = (0.3, 0.7)   # span as fraction of T
    magnitude: float = 2.0
    noise: float = 0.5
    seed: int = 0
    id_prefix: str = ""            # prepended to video ids (for merged datasets)
    write_latents: bool = False    # also dump per-frame latents (debugging)

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise InputError(f"anomaly kind must be one of {KINDS}, got {self.kind!r}")
        lo, hi = self.duration_range
        if not (0.0 < lo <= hi <= 1.0):
            raise InputError(f"duration range must sit inside (0, 1], got {self.duration_range}")
        if self.magnitude <= 0:
            raise InputError("planted-signal magnitude must be positive")
        if self.noise <= 0:
            raise InputError("noise scale must be positive")
        for name in ("train_normal", "train_anomaly", "test_normal", "test_anomaly",
                     "segments", "frames_per_segment", "channels"):
            if getattr(self, name) < 0 or (name not in ("train_normal", "train_anomaly",
                                                        "test_normal", "test_anomaly")
                                           and getattr(self, name) < 1):
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        if self.tracklets < 0:
            raise InputError("tracklet count must be >= 0")

    @classmethod
    def from_file(cls, path) -> "SynthSpec":
        try:
            doc = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: spec does not parse: {exc}") from exc
        spec = decode(cls, doc, str(path))
        spec.validate()
        return spec


def _unit_direction(rng: np.random.Generator, channels: int) -> np.ndarray:
    v = rng.normal(size=channels)
    return v / np.linalg.norm(v)


def _make_video(spec: SynthSpec, rng: np.random.Generator, anomalous: bool):
    t, f, n, k = spec.segments, spec.frames_per_segment, spec.channels, spec.tracklets
    n_frames = t * f
    latents = rng.normal(0.0, spec.noise, size=(n_frames, n))
    tracklets = rng.normal(0.0, spec.noise, size=(t, k, n))
    span = None
    human_tracklet = None
    if anomalous:
        lo, hi = spec.duration_range
        fraction = rng.uniform(lo, hi)
        span_len = max(1, int(round(fraction * n_frames)))
        start = int(rng.integers(0, n_frames - span_len + 1))
        span = (start, start + span_len)
        if spec.kind in ("human", "mixed") and k > 0:
            human_tracklet = int(rng.integers(0, k))
    return latents, tracklets, span, human_tracklet


def _apply_anomaly(spec, latents, tracklets, span, human_tracklet, u_scene, u_human):
    start, end = span
    if spec.kind in ("scene", "mixed"):
        latents[start:end] += spec.magnitude * u_scene
    if spec.kind in ("human", "mixed") and human_tracklet is not None:
        for i, (s, e) in enumerate(segment_boundaries(latents.shape[0], spec.segments, 1)):
            if s < end and start < e:
                tracklets[i, human_tracklet] += spec.magnitude * u_human


def _pool_scene_maps(latents: np.ndarray, segments: int) -> dict[int, np.ndarray]:
    maps = {}
    for g in GRANULARITIES:
        ranges = segment_boundaries(latents.shape[0], segments, g)
        maps[g] = np.stack([latents[s:e].mean(axis=0) for s, e in ranges])
    return maps


def synthesize_dataset(spec: SynthSpec, out_dir) -> dict[str, Path]:
    """Generate feature files, annotations and manifests under `out_dir`.

    Returns {"train": train_manifest_path, "test": test_manifest_path}.
    """
    spec.validate()
    out_dir = Path(out_dir)
    features = out_dir / "features"
    features.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    u_scene = _unit_direction(rng, spec.channels)
    u_human = _unit_direction(rng, spec.channels)

    manifests: dict[str, Path] = {}
    truth: dict = {
        "spec": {**asdict(spec), "duration_range": list(spec.duration_range)},
        "scene_direction": u_scene.tolist(),
        "human_direction": u_human.tolist(),
        "videos": {},
    }
    plan = [
        ("train", "normal", spec.train_normal),
        ("train", "anomaly", spec.train_anomaly),
        ("test", "normal", spec.test_normal),
        ("test", "anomaly", spec.test_anomaly),
    ]
    records: dict[str, list[dict]] = {"train": [], "test": []}
    for split, label, count in plan:
        for index in range(count):
            video_id = f"{spec.id_prefix}{split}_{label}_{index:03d}"
            anomalous = label == "anomaly"
            latents, tracklets, span, human_tracklet = _make_video(spec, rng, anomalous)
            if anomalous:
                _apply_anomaly(spec, latents, tracklets, span, human_tracklet, u_scene, u_human)
            scene_maps = _pool_scene_maps(latents, spec.segments)
            n_frames = latents.shape[0]
            gt = np.zeros(n_frames, dtype=np.int64)
            if anomalous:
                gt[span[0]:span[1]] = 1

            scene_rel = {}
            for g, arr in scene_maps.items():
                rel = f"features/{video_id}_scene_g{g}.hsnf"
                write_feature(out_dir / rel, arr)
                scene_rel[str(g)] = rel
            tr_rel = f"features/{video_id}_tracklets.hsnf"
            write_feature(out_dir / tr_rel, tracklets)
            gt_rel = f"features/{video_id}_frames.txt"
            write_annotations(out_dir / gt_rel, gt)
            if spec.write_latents:
                write_feature(out_dir / f"features/{video_id}_latents.hsnf", latents)

            records[split].append(
                {
                    "id": video_id,
                    "label": label,
                    "category": spec.kind if anomalous else "normal",
                    "frames": n_frames,
                    "scene_features": scene_rel,
                    "tracklet_features": tr_rel,
                    "annotations": gt_rel,
                }
            )
            truth["videos"][video_id] = {
                "span": list(span) if span else None,
                "human_tracklet": human_tracklet,
            }
    for split in ("train", "test"):
        path = out_dir / f"{split}_manifest.json"
        write_manifest(path, records[split])
        manifests[split] = path
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    return manifests
