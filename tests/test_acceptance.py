"""Acceptance suite: one test per criterion, one pass/fail line each.

Every training-based criterion pins its dataset spec, training
configuration and seed; the surrounding sweeps that chose them live in
the repo history, not here. All tolerances are asserted exactly as
stated, and each test prints a `[criterion N] ... PASS` line (pytest -s
shows them; a failed assert marks the criterion failed).
"""

import json
import time

import numpy as np
import pytest

from milvad.cli import main
from milvad.config import HyperParams, TrainConfig
from milvad.data import (
    SynthSpec,
    load_dataset,
    merge_datasets,
    read_feature,
    segment_boundaries,
    synthesize_dataset,
    write_feature,
)
from milvad.evaluation import evaluate, roc_auc
from milvad.gradient_checks import TOLERANCE, run_all
from milvad.losses import (
    BagPair,
    classical_ranking_loss,
    context_loss,
    instance_loss,
    pseudo_labels,
)
from milvad.model import AnomalyScorer
from milvad.tensor import Tensor, backward
from milvad.training import train

DESK = HyperParams.desk_scale()

# workhorse settings shared by the training criteria (chosen empirically;
# the per-criterion step budgets and datasets are pinned in each test)
TUNED = dict(context_weight=0.5, instance_weight=2.0, normalize_context=True)


def bags(anomaly, normal):
    return BagPair(anomaly=Tensor(np.asarray(anomaly, dtype=np.float64)),
                   normal=Tensor(np.asarray(normal, dtype=np.float64)))


def synth(tmp_factory, name, **kw):
    spec = SynthSpec(segments=8, frames_per_segment=10, channels=16, tracklets=4,
                     noise=0.5, **kw)
    out = tmp_factory.mktemp(name)
    manifests = synthesize_dataset(spec, out)
    return load_dataset(manifests["train"]), load_dataset(manifests["test"]), out


def gate_means_on_anomalous_segments(model, dataset):
    scene_vals, human_vals = [], []
    for video in dataset.anomalies():
        bundle = model.score_video(video)
        flags = np.array([video.annotations[s:e].max()
                          for s, e in segment_boundaries(video.frames, video.segments, 1)])
        scene_vals.extend(bundle.scene_factor[flags == 1])
        human_vals.extend(bundle.human_factor[flags == 1])
    return float(np.mean(scene_vals)), float(np.mean(human_vals))


def test_criterion_1_gradient_suite():
    start = time.time()
    results = run_all(eps=1e-5)
    elapsed = time.time() - start
    worst = max(err for _, err in results)
    names = {name for name, _ in results}
    for required in ("mgtm_forward", "relation_model+tracklet_rank",
                     "segment_level_selection", "video_level_selection",
                     "fuse", "context_loss", "instance_loss"):
        assert required in names
    assert worst < TOLERANCE, f"worst gradient error {worst:.3e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    print(f"\n[criterion 1] gradient suite: {len(results)} checks, "
          f"worst err {worst:.2e}, {elapsed:.1f}s: PASS")


def test_criterion_2_loss_arithmetic():
    assert abs(context_loss(bags([0.5, 0.5], [0.3, 0.2])).item() - 0.5) <= 1e-12
    assert abs(context_loss(bags([0.4, 0.8], [0.3, 0.2])).item() - 0.3) <= 1e-12
    pair = bags([0.4, 0.8], [0.2, 0.2])
    inst = instance_loss(pair, pseudo_labels(pair.anomaly)).item()
    assert abs(inst - 0.06) <= 1e-12
    assert abs(context_loss(bags([0.4, 0.8], [0.3, 0.2])).item() + inst - 0.36) <= 1e-12
    assert np.array_equal(pseudo_labels(np.array([0.1, 0.9, 0.5])).anomaly, [0, 1, 0])
    assert np.array_equal(pseudo_labels(np.array([0.3, 0.3])).anomaly, [0, 0])
    assert np.array_equal(pseudo_labels(np.array([0.0, 1.0, 0.6, 0.4])).anomaly, [0, 1, 1, 0])
    assert abs(classical_ranking_loss(bags([0.9, 0.1], [0.2, 0.0])).item() - 0.3) <= 1e-12
    print("[criterion 2] hand-worked loss arithmetic at 1e-12: PASS")


def test_criterion_3_scene_anomaly_end_to_end(tmp_path_factory):
    train_ds, test_ds, _ = synth(
        tmp_path_factory, "c3_scene",
        train_normal=20, train_anomaly=20, test_normal=10, test_anomaly=10,
        kind="scene", magnitude=2.0, seed=7,   # noise 0.5 -> planted SNR 4
    )
    cfg = TrainConfig(steps=1000, learning_rate=1e-3,
                      stage_fractions=(0.4, 0.2, 0.4), seed=1, **TUNED)
    assert cfg.steps <= 2000
    model = AnomalyScorer(DESK, seed=1)
    start = time.time()
    train(model, train_ds, cfg)
    elapsed = time.time() - start
    auc = evaluate(model, test_ds).overall_auc
    assert elapsed < 300.0, f"training took {elapsed:.0f}s"
    assert auc >= 0.90, f"held-out frame AUC {auc:.3f}"
    print(f"[criterion 3] scene-anomaly end-to-end: AUC {auc:.3f} "
          f"in {cfg.steps} steps / {elapsed:.0f}s: PASS")


def test_criterion_4_complementarity_trend(tmp_path_factory):
    scene_tr, scene_te, _ = synth(
        tmp_path_factory, "c4_scene",
        train_normal=10, train_anomaly=20, test_normal=8, test_anomaly=10,
        kind="scene", magnitude=2.5, seed=21, id_prefix="sc_",
    )
    human_tr, human_te, _ = synth(
        tmp_path_factory, "c4_human",
        train_normal=10, train_anomaly=20, test_normal=8, test_anomaly=10,
        kind="human", magnitude=3.0, seed=22, id_prefix="hu_",
    )
    mixed_tr = merge_datasets(scene_tr, human_tr)
    mixed_te = merge_datasets(scene_te, human_te)

    full = AnomalyScorer(DESK, seed=1)
    train(full, mixed_tr, TrainConfig(steps=1500, learning_rate=1e-3,
                                      stage_fractions=(0.4, 0.2, 0.4), seed=1, **TUNED))
    full_report = evaluate(full, mixed_te)

    ablations = {}
    for head in ("scene", "tracklet"):
        model = AnomalyScorer(DESK, seed=1)
        train(model, mixed_tr, TrainConfig(schedule="joint", head=head, steps=600,
                                           learning_rate=1e-3, seed=1, **TUNED))
        ablations[head] = evaluate(model, mixed_te, head=head)

    full_auc = full_report.overall_auc
    scene_only = ablations["scene"].overall_auc
    human_only = ablations["tracklet"].overall_auc
    assert full_auc >= scene_only + 0.03, f"full {full_auc:.3f} vs scene-only {scene_only:.3f}"
    assert full_auc >= human_only + 0.03, f"full {full_auc:.3f} vs human-only {human_only:.3f}"
    human_subset_human = ablations["tracklet"].per_category["human"]
    human_subset_scene = ablations["scene"].per_category["human"]
    assert human_subset_human > human_subset_scene, (
        f"human subset: human-only {human_subset_human:.3f} vs scene-only {human_subset_scene:.3f}"
    )
    print(f"[criterion 4] complementarity: full {full_auc:.3f} > "
          f"scene-only {scene_only:.3f} / human-only {human_only:.3f} by >=0.03; "
          f"human subset {human_subset_human:.3f} > {human_subset_scene:.3f}: PASS")


def test_criterion_5_loss_trend(tmp_path_factory, tmp_path):
    _, _, data_dir = synth(
        tmp_path_factory, "c5_long",
        train_normal=20, train_anomaly=20, test_normal=15, test_anomaly=15,
        kind="scene", duration_range=(0.6, 0.95), magnitude=1.0, seed=17,
    )
    config = {
        "hyper": {"segments": 8, "channels": 16, "conv_channels": 16,
                  "hidden_size": 16, "selected_tracklets": 2, "ranker_width": 16},
        "train": {"schedule": "joint", "head": "scene", "steps": 400,
                  "learning_rate": 1e-3, "seed": 1, "context_weight": 0.5,
                  "instance_weight": 2.0, "normalize_context": True},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "compare.json"
    code = main(["compare-loss", "--config", str(cfg_path),
                 "--data", str(data_dir), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    delta = doc["delta"]
    assert delta >= 0.02, (
        f"AUC(self-rectifying)={doc['self_rectifying_auc']:.3f} vs "
        f"AUC(classical)={doc['classical_ranking_auc']:.3f}, delta {delta:+.3f}"
    )
    print(f"[criterion 5] loss trend on long anomalies: delta {delta:+.3f} >= +0.02: PASS")


def test_criterion_6_selection_behavior(tmp_path_factory):
    cfg = TrainConfig(steps=1500, learning_rate=2e-3,
                      stage_fractions=(1 / 3, 7 / 15, 1 / 5), seed=1, **TUNED)
    scene_tr, scene_te, _ = synth(
        tmp_path_factory, "c6_scene",
        train_normal=40, train_anomaly=40, test_normal=10, test_anomaly=10,
        kind="scene", magnitude=3.0, seed=7,
    )
    scene_model = AnomalyScorer(DESK, seed=1)
    train(scene_model, scene_tr, cfg)
    scene_gate, human_gate = gate_means_on_anomalous_segments(scene_model, scene_te)
    assert scene_gate > human_gate, (
        f"scene-trained gates: scene {scene_gate:.3f} vs human {human_gate:.3f}"
    )

    human_tr, human_te, _ = synth(
        tmp_path_factory, "c6_human",
        train_normal=20, train_anomaly=20, test_normal=10, test_anomaly=10,
        kind="human", magnitude=3.0, seed=8,
    )
    human_model = AnomalyScorer(DESK, seed=1)
    train(human_model, human_tr, cfg)
    scene_gate_h, human_gate_h = gate_means_on_anomalous_segments(human_model, human_te)
    assert human_gate_h > scene_gate_h, (
        f"human-trained gates: human {human_gate_h:.3f} vs scene {scene_gate_h:.3f}"
    )
    print(f"[criterion 6] selection factors: scene-trained {scene_gate:.3f}>{human_gate:.3f}, "
          f"human-trained {human_gate_h:.3f}>{scene_gate_h:.3f}: PASS")


def test_criterion_7_self_rectification():
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        theta = Tensor(rng.normal(0.0, 1.0, size=8), requires_grad=True)
        normal = Tensor(np.zeros(8))

        def error_gap():
            anomaly = theta.sigmoid()
            return instance_loss(BagPair(anomaly=anomaly, normal=normal),
                                 pseudo_labels(anomaly))

        start = error_gap().item()
        for _ in range(200):
            theta.grad = None
            loss = error_gap()
            backward(loss)
            theta.data = theta.data - 2.0 * theta.grad
        wins += error_gap().item() <= 0.5 * start
    assert wins >= 18, f"only {wins}/20 seeds halved the error gap"
    print(f"[criterion 7] self-rectification: {wins}/20 seeds halved |errC-errN|: PASS")


def test_criterion_8_invariant_suite(tmp_path_factory, tmp_path):
    # pseudo-label midpoint invariants
    rng = np.random.default_rng(0)
    for _ in range(300):
        scores = rng.uniform(size=int(rng.integers(2, 9)))
        labels = pseudo_labels(scores)
        if scores.max() > scores.min():
            assert labels.anomaly.max() == 1.0 and labels.anomaly.min() == 0.0
        scale, shift = rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0)
        assert np.array_equal(pseudo_labels(scale * scores + shift).anomaly, labels.anomaly)

    # AUC equals the exhaustive pairwise oracle on quantized inputs
    for _ in range(40):
        n = int(rng.integers(5, 201))
        scores = np.round(rng.uniform(size=n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        pos, neg = scores[labels == 1], scores[labels == 0]
        oracle = ((pos[:, None] > neg[None, :]).sum()
                  + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (len(pos) * len(neg))
        assert abs(roc_auc(scores, labels) - oracle) <= 1e-12

    # feature container round trip is bit exact
    arr = rng.normal(size=(3, 4, 2))
    path = tmp_path / "t.hsnf"
    write_feature(path, arr)
    assert read_feature(path).tobytes() == arr.tobytes()

    # segment boundaries cover every frame; disjoint when frames suffice
    for _ in range(200):
        frames = int(rng.integers(1, 50))
        t = int(rng.integers(1, 10))
        g = int(rng.choice([1, 2, 3]))
        cover = np.zeros(frames, dtype=int)
        for s, e in segment_boundaries(frames, t, g):
            assert e > s
            cover[s:e] += 1
        assert cover.min() >= 1
        if frames >= g * t:
            assert cover.max() == 1

    # determinism: identical seeded runs give identical traces and reports
    train_ds, test_ds, _ = synth(
        tmp_path_factory, "c8_det",
        train_normal=4, train_anomaly=4, test_normal=3, test_anomaly=3,
        kind="scene", magnitude=2.0, seed=5,
    )
    cfg = TrainConfig(steps=25, seed=9, **TUNED)
    traces, reports = [], []
    for _ in range(2):
        model = AnomalyScorer(DESK, seed=9)
        traces.append(train(model, train_ds, cfg).losses)
        report = evaluate(model, test_ds)
        reports.append((report.overall_auc, tuple(sorted(report.per_category.items()))))
    assert traces[0] == traces[1]
    assert reports[0] == reports[1]
    print("[criterion 8] invariant suite (labels, AUC oracle, round-trip, "
          "boundaries, determinism): PASS")
