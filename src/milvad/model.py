"""Full two-stream anomaly scorer: parameters, the forward pass, checkpoints."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import HEADS, HyperParams, RunConfig
from .coupler import CouplerParams, fuse, segment_level_selection, video_level_selection
from .data.container import read_feature, write_feature
from .data.manifest import VideoFeatures
from .errors import InputError
from .human import HumanStreamParams, human_forward
from .layers import named_tensors
from .scene import SceneStreamParams, scene_forward
from .tensor import Tensor

CHECKPOINT_VERSION = 1
PARAM_GROUPS = ("scene", "human", "coupler")


@dataclass
class ScoreBundle:
    """All score heads for one video, as (T,) float arrays."""

    scene: np.ndarray           # scene-stream detection scores, in [0,1]
    tracklet: np.ndarray        # human-stream detection scores, in [0,1]
    scene_factor: np.ndarray    # coupler selection factor for the scene stream
    human_factor: np.ndarray    # coupler selection factor for the human stream
    fused: np.ndarray           # coupled final score, in [0,2]


class AnomalyScorer:
    """Scene stream + human stream + soft-selection coupler."""

    def __init__(self, hyper: HyperParams, seed: int = 0):
        hyper.validate()
        self.hyper = hyper
        rng = np.random.default_rng(seed)
        self.scene = SceneStreamParams.create(rng, hyper)
        self.human = HumanStreamParams.create(rng, hyper)
        self.coupler = CouplerParams.create(rng, hyper)
        self.set_trainable(())  # training unfreezes its phase's groups

    # -- parameters -----------------------------------------------------

    def named_parameters(self, group: str | None = None) -> dict[str, Tensor]:
        """Tensors keyed by group plus dotted field path, e.g. scene.down1.conv1.weight."""
        if group is None:
            return {name: t for g in PARAM_GROUPS for name, t in self.named_parameters(g).items()}
        if group not in PARAM_GROUPS:
            raise InputError(f"unknown parameter group {group!r}; expected one of {PARAM_GROUPS}")
        return named_tensors(getattr(self, group), group)

    def set_trainable(self, groups) -> None:
        """Flag exactly the given groups' tensors as requiring gradients."""
        for group in PARAM_GROUPS:
            flag = group in groups
            for t in self.named_parameters(group).values():
                t.requires_grad = flag
                t.grad = None

    # -- forward ----------------------------------------------------------

    def _check_video(self, video: VideoFeatures) -> None:
        hp = self.hyper
        if video.segments != hp.segments:
            raise InputError(
                f"video {video.video_id}: {video.segments} segments, model expects {hp.segments}"
            )
        if video.channels != hp.channels:
            raise InputError(
                f"video {video.video_id}: {video.channels} channels, model expects {hp.channels}"
            )

    def forward(self, video: VideoFeatures, head: str = "fused",
                use_video_selection: bool = True) -> dict[str, Tensor]:
        """Score tensors for one video, building only what `head` needs.

        "scene" and "tracklet" run one stream and return that key alone;
        "fused" runs both streams and the coupler and returns every
        ScoreBundle key.
        """
        if head not in HEADS:
            raise InputError(f"unknown score head {head!r}; expected one of {HEADS}")
        self._check_video(video)
        out: dict[str, Tensor] = {}
        if head != "tracklet":
            out["scene"], scene_map = scene_forward(self.scene, video.scene)
        if head != "scene":
            out["tracklet"], human_map = human_forward(
                self.human, video.tracklets, self.hyper.selected_tracklets
            )
        if head == "fused":
            seg_h, seg_s, pooled = segment_level_selection(human_map, scene_map, self.coupler)
            video_attn = (
                video_level_selection(pooled, scene_map, self.coupler)
                if use_video_selection
                else None
            )
            out["human_factor"], out["scene_factor"], out["fused"] = fuse(
                (seg_h, seg_s), video_attn, out["tracklet"], out["scene"]
            )
        return out

    def score_video(self, video: VideoFeatures, use_video_selection: bool = True) -> ScoreBundle:
        out = self.forward(video, "fused", use_video_selection)
        return ScoreBundle(
            scene=out["scene"].data.copy(),
            tracklet=out["tracklet"].data.copy(),
            scene_factor=np.broadcast_to(out["scene_factor"].data, out["scene"].shape).copy(),
            human_factor=np.broadcast_to(out["human_factor"].data, out["scene"].shape).copy(),
            fused=out["fused"].data.copy(),
        )

    # -- checkpoints -----------------------------------------------------

    def save(self, index_path, extra: dict | None = None) -> Path:
        """Write a checkpoint: JSON index plus one container file per tensor."""
        index_path = Path(index_path)
        payload_dir = index_path.with_suffix(".tensors")
        payload_dir.mkdir(parents=True, exist_ok=True)
        tensors = {}
        for name, tensor in sorted(self.named_parameters().items()):
            rel = f"{payload_dir.name}/{name.replace('.', '_')}.hsnf"
            write_feature(index_path.parent / rel, tensor.data)
            tensors[name] = rel
        doc = {
            "format_version": CHECKPOINT_VERSION,
            "hyper": asdict(self.hyper),
            "tensors": tensors,
        }
        if extra:
            doc.update(extra)
        index_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return index_path

    @classmethod
    def load(cls, index_path) -> tuple["AnomalyScorer", dict]:
        """Rebuild a model from a checkpoint; returns (model, index document)."""
        index_path = Path(index_path)
        doc = json.loads(index_path.read_text())
        if not isinstance(doc, dict):
            raise InputError(
                f"{index_path}: checkpoint index must be a JSON object, got {type(doc).__name__}"
            )
        if doc.get("format_version") != CHECKPOINT_VERSION:
            raise InputError(
                f"{index_path}: unsupported checkpoint version {doc.get('format_version')}"
            )
        for section in ("hyper", "tensors"):
            if not isinstance(doc.get(section), dict):
                raise InputError(f"{index_path}: checkpoint index has no {section!r} object")
        model = cls(RunConfig.from_dict({"hyper": doc["hyper"]}, source=str(index_path)).hyper)
        params = model.named_parameters()
        if set(params) != set(doc["tensors"]):
            missing = sorted(set(params) ^ set(doc["tensors"]))
            raise InputError(f"{index_path}: tensor set mismatch near {missing[:3]}")
        for name, rel in doc["tensors"].items():
            if not isinstance(rel, str):
                raise InputError(f"{index_path}: tensor {name} path must be a string, got {rel!r}")
            data = read_feature(index_path.parent / rel)
            if data.shape != params[name].shape:
                raise InputError(
                    f"{index_path}: tensor {name} has shape {data.shape}, expected {params[name].shape}"
                )
            params[name].data = data
        return model, doc
