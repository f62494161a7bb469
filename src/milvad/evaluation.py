"""Frame-level ROC/AUC evaluation, category breakdowns and k-fold runs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import HyperParams, TrainConfig
from .data.manifest import Dataset, VideoFeatures
from .data.segments import segment_boundaries
from .errors import InputError, MetricUndefinedError
from .model import AnomalyScorer
from .training import train

__all__ = ["EvalReport", "expand_to_frames", "roc_auc", "evaluate", "kfold"]


@dataclass
class EvalReport:
    overall_auc: float
    per_category: dict[str, float]
    frames: int
    videos: int
    head: str
    fold_aucs: list[float] = field(default_factory=list)
    mean_fold_auc: float | None = None
    # concatenated score/label pairs behind overall_auc (not serialized)
    scores: np.ndarray | None = None
    labels: np.ndarray | None = None

    def as_dict(self) -> dict:
        doc = {
            "overall_auc": self.overall_auc,
            "per_category": self.per_category,
            "frames": self.frames,
            "videos": self.videos,
            "head": self.head,
        }
        if self.fold_aucs:
            doc["fold_aucs"] = self.fold_aucs
            doc["mean_fold_auc"] = self.mean_fold_auc
        return doc

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n")


def expand_to_frames(segment_scores: np.ndarray, n_frames: int) -> np.ndarray:
    """Piecewise-constant frame scores: frame f takes its covering segment's score.

    Segment ranges follow the granularity-1 boundary formula; when ranges
    overlap (fewer frames than segments) the later segment wins.
    """
    segment_scores = np.asarray(segment_scores, dtype=np.float64).reshape(-1)
    if segment_scores.size < 1:
        raise InputError("need at least one segment score")
    out = np.empty(n_frames, dtype=np.float64)
    for i, (s, e) in enumerate(segment_boundaries(n_frames, segment_scores.size, 1)):
        out[s:e] = segment_scores[i]
    return out


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties at 1/2.

    Equivalent to trapezoidal integration of the ROC curve; computed from
    average ranks so ties contribute exactly one half.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise InputError(f"scores and labels disagree: {scores.shape} vs {labels.shape}")
    positives = int(np.sum(labels == 1))
    negatives = int(np.sum(labels == 0))
    if positives + negatives != labels.size:
        raise InputError("labels must be 0 or 1")
    if positives == 0 or negatives == 0:
        raise MetricUndefinedError(
            f"AUC needs both classes, got {positives} positives / {negatives} negatives"
        )
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # a tie group's average 1-based rank: its last rank minus half its extra members
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    positive_rank_sum = ranks[labels == 1].sum()
    return float(
        (positive_rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)
    )


def _frame_scores(model: AnomalyScorer, video: VideoFeatures, head: str,
                  use_video_selection: bool) -> np.ndarray:
    scores = model.forward(video, head, use_video_selection)[head]
    return expand_to_frames(scores.data, video.frames)


def _frame_labels(video: VideoFeatures) -> np.ndarray:
    if video.annotations is not None:
        return np.asarray(video.annotations)
    if video.is_anomaly():
        raise InputError(
            f"video {video.video_id}: anomaly videos need frame annotations for evaluation"
        )
    return np.zeros(video.frames, dtype=np.int64)


def evaluate(model: AnomalyScorer, dataset: Dataset, head: str = "fused",
             use_video_selection: bool = True) -> EvalReport:
    """Frame-level AUC over all videos plus a per-category breakdown.

    Each anomaly category is pooled with all normal videos, so categories
    are compared against the same negative population.
    """
    if not dataset.videos:
        raise InputError("cannot evaluate an empty dataset")
    per_video = [
        (video, _frame_scores(model, video, head, use_video_selection), _frame_labels(video))
        for video in dataset
    ]
    scores = np.concatenate([s for _, s, _ in per_video])
    labels = np.concatenate([l for _, _, l in per_video])
    per_category = {}
    for category in dataset.categories():
        pool = [
            (s, l)
            for v, s, l in per_video
            if not v.is_anomaly() or v.category == category
        ]
        cat_scores = np.concatenate([s for s, _ in pool])
        cat_labels = np.concatenate([l for _, l in pool])
        per_category[category] = roc_auc(cat_scores, cat_labels)
    return EvalReport(
        overall_auc=roc_auc(scores, labels),
        per_category=per_category,
        frames=int(scores.size),
        videos=len(dataset),
        head=head,
        scores=scores,
        labels=labels,
    )


def dump_scores(model: AnomalyScorer, dataset: Dataset, out_dir, head: str = "fused",
                use_video_selection: bool = True) -> list[Path]:
    """One text file per video, one frame score per line (for external plots)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for video in dataset:
        frame_scores = _frame_scores(model, video, head, use_video_selection)
        path = out_dir / f"{video.video_id}.scores.txt"
        path.write_text("\n".join(f"{s:.10g}" for s in frame_scores) + "\n")
        paths.append(path)
    return paths


def stratified_folds(dataset: Dataset, k: int, seed: int) -> list[list[VideoFeatures]]:
    """Deal videos into k folds, stratified by label and category."""
    anomalies, normals = dataset.anomalies(), dataset.normals()
    if len(anomalies) < k or len(normals) < k:
        raise InputError(
            f"{k}-fold needs >= {k} videos per class, got {len(anomalies)} anomaly / {len(normals)} normal"
        )
    rng = np.random.default_rng(seed)
    folds: list[list[VideoFeatures]] = [[] for _ in range(k)]
    groups: dict[tuple[str, str], list[VideoFeatures]] = {}
    for video in dataset:
        groups.setdefault((video.label, video.category), []).append(video)
    position = 0
    for key in sorted(groups):
        members = groups[key]
        order = rng.permutation(len(members))
        for idx in order:
            folds[position % k].append(members[int(idx)])
            position += 1
    return folds


def kfold(dataset: Dataset, hyper: HyperParams, cfg: TrainConfig, k: int = 5,
          seed: int = 0, head: str = "fused") -> EvalReport:
    """Train on k-1 folds, evaluate on the held-out fold, k times over.

    Each fold's run draws its seeds deterministically from (seed, fold).
    """
    folds = stratified_folds(dataset, k, seed)
    fold_aucs = []
    for fold_index, held_out in enumerate(folds):
        train_videos = [v for j, f in enumerate(folds) if j != fold_index for v in f]
        fold_seed = int(np.random.default_rng([seed, fold_index]).integers(2 ** 31))
        model = AnomalyScorer(hyper, seed=fold_seed)
        train(model, Dataset(train_videos), replace(cfg, seed=fold_seed))
        fold_aucs.append(
            evaluate(model, Dataset(held_out), head, cfg.use_video_selection).overall_auc
        )
    frames = sum(v.frames for v in dataset)
    return EvalReport(
        overall_auc=float(np.mean(fold_aucs)),
        per_category={},
        frames=frames,
        videos=len(dataset),
        head=head,
        fold_aucs=fold_aucs,
        mean_fold_auc=float(np.mean(fold_aucs)),
    )
