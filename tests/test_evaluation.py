"""Tests for frame expansion, AUC computation and dataset evaluation."""

import numpy as np
import pytest

from milvad.config import HyperParams, TrainConfig
from milvad.errors import InputError, MetricUndefinedError
from milvad.evaluation import (
    evaluate,
    expand_to_frames,
    kfold,
    roc_auc,
    stratified_folds,
)
from milvad.model import AnomalyScorer

DESK = HyperParams.desk_scale()


def pairwise_auc(scores, labels):
    """Exhaustive pairwise oracle: wins + half-ties over all cross pairs."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestExpandToFrames:
    def test_even_split(self):
        out = expand_to_frames(np.array([0.2, 0.8]), 10)
        assert np.array_equal(out, [0.2] * 5 + [0.8] * 5)

    def test_floor_formula_split(self):
        out = expand_to_frames(np.array([0.2, 0.8]), 7)
        assert np.array_equal(out, [0.2] * 3 + [0.8] * 4)

    def test_single_segment_is_constant(self):
        out = expand_to_frames(np.array([0.6]), 9)
        assert np.array_equal(out, np.full(9, 0.6))

    def test_preserves_segment_values(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = int(rng.integers(1, 9))
            n = int(rng.integers(t, 4 * t))
            scores = rng.uniform(size=t)
            out = expand_to_frames(scores, n)
            assert set(np.round(out, 12)) <= set(np.round(scores, 12))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_hand_counted_case(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(MetricUndefinedError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(5, 201))
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(size=n), 1)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            assert roc_auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=60)
        labels = rng.integers(0, 2, size=60)
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(3 * scores) + 7, labels) == pytest.approx(base, abs=1e-12)

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(3)
        scores = np.round(rng.uniform(size=40), 1)
        labels = rng.integers(0, 2, size=40)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) + roc_auc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)


class TestEvaluate:
    def test_constant_model_scores_half(self, tiny_scene_data):
        _, test_ds, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=0)
        for t in model.named_parameters().values():
            t.data = np.zeros_like(t.data)
        report = evaluate(model, test_ds)
        assert report.overall_auc == 0.5

    def test_scene_head_ignores_human_and_coupler(self, tiny_scene_data):
        _, test_ds, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=4)
        before = evaluate(model, test_ds, head="scene")
        for group in ("human", "coupler"):
            for t in model.named_parameters(group).values():
                t.data = np.zeros_like(t.data)
        after = evaluate(model, test_ds, head="scene")
        assert after.as_dict() == before.as_dict()
        assert np.array_equal(after.scores, before.scores)

    def test_bookkeeping_totals(self, tiny_scene_data):
        _, test_ds, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=1)
        report = evaluate(model, test_ds)
        assert report.frames == sum(v.frames for v in test_ds)
        assert report.videos == len(test_ds)
        assert set(report.per_category) == {"scene"}

    def test_deterministic_reports(self, tiny_scene_data):
        _, test_ds, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=2)
        a = evaluate(model, test_ds)
        b = evaluate(model, test_ds)
        assert a.overall_auc == b.overall_auc
        assert a.per_category == b.per_category

    def test_report_round_trips_to_json(self, tiny_scene_data, tmp_path):
        import json

        _, test_ds, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=3)
        report = evaluate(model, test_ds)
        path = tmp_path / "report.json"
        report.save(path)
        doc = json.loads(path.read_text())
        assert doc["overall_auc"] == report.overall_auc
        assert doc["frames"] == report.frames


class TestKfold:
    def test_fold_sizes_and_stratification(self, tiny_scene_data):
        train_ds, test_ds, _ = tiny_scene_data
        from milvad.data import merge_datasets

        pooled = merge_datasets(train_ds, test_ds)  # 11 normal + 11 anomaly
        folds = stratified_folds(pooled, 5, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sum(sizes) == len(pooled)
        assert max(sizes) - min(sizes) <= 2
        global_ratio = len(pooled.anomalies()) / len(pooled)
        for fold in folds:
            anomalies = sum(v.is_anomaly() for v in fold)
            assert abs(anomalies - global_ratio * len(fold)) <= 1.0

    def test_same_seed_same_assignment(self, tiny_scene_data):
        train_ds, _, _ = tiny_scene_data
        a = stratified_folds(train_ds, 3, seed=9)
        b = stratified_folds(train_ds, 3, seed=9)
        assert [[v.video_id for v in f] for f in a] == [[v.video_id for v in f] for f in b]

    def test_insufficient_videos_rejected(self, tiny_scene_data):
        train_ds, _, _ = tiny_scene_data
        with pytest.raises(InputError):
            stratified_folds(train_ds, 10, seed=0)

    def test_kfold_end_to_end(self, tiny_scene_data):
        train_ds, test_ds, _ = tiny_scene_data
        from milvad.data import merge_datasets

        pooled = merge_datasets(train_ds, test_ds)
        cfg = TrainConfig(steps=9, seed=0)
        report = kfold(pooled, DESK, cfg, k=3, seed=0)
        assert len(report.fold_aucs) == 3
        assert report.mean_fold_auc == pytest.approx(float(np.mean(report.fold_aucs)))
