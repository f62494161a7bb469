"""Tests for the optimizer, pair steps and the staged/joint schedules."""

import numpy as np
import pytest

from milvad.config import HyperParams, TrainConfig
from milvad.data.manifest import Dataset
from milvad.errors import InputError
from milvad.model import PARAM_GROUPS, AnomalyScorer
from milvad.tensor import Tape, Tensor, backward
from milvad.training import Adam, pair_loss, train, train_step

DESK = HyperParams.desk_scale()


class TestAdam:
    def test_single_step_matches_hand_update(self):
        t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        t.grad = np.array([0.5, -1.0])
        opt = Adam({"t": t}, learning_rate=0.1, betas=(0.9, 0.999))
        opt.step()
        # bias-corrected first step moves each coordinate by ~lr * sign(grad)
        g = np.array([0.5, -1.0])
        expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
        assert np.allclose(t.data, expected, atol=1e-6)

    def test_missing_grad_is_skipped(self):
        t = Tensor(np.ones(3), requires_grad=True)
        opt = Adam({"t": t}, learning_rate=0.1)
        opt.step()
        assert np.array_equal(t.data, np.ones(3))


class TestTrainStep:
    def test_zero_learning_rate_keeps_parameters(self, tiny_scene_data):
        train_ds, _, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=0)
        model.set_trainable(("scene", "human", "coupler"))
        before = {k: v.data.copy() for k, v in model.named_parameters().items()}
        cfg = TrainConfig(learning_rate=1e-30)
        opt = Adam(model.named_parameters(), learning_rate=0.0)
        train_step(model, [(train_ds.anomalies()[0], train_ds.normals()[0])], cfg, opt, "fused")
        after = model.named_parameters()
        assert all(np.array_equal(before[k], after[k].data) for k in before)

    def test_repeated_steps_descend_on_fixed_pair(self, tiny_scene_data):
        train_ds, _, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=1)
        model.set_trainable(("scene",))
        cfg = TrainConfig(learning_rate=1e-3, head="scene", normalize_context=True,
                          context_weight=0.5, instance_weight=2.0)
        opt = Adam(model.named_parameters("scene"), cfg.learning_rate, cfg.betas)
        anomaly, normal = train_ds.anomalies()[0], train_ds.normals()[0]
        losses = [train_step(model, [(anomaly, normal)], cfg, opt, "scene")
                  for _ in range(200)]
        assert losses[-1] < losses[0]

    def test_wrong_shape_video_rejected(self, tiny_scene_data):
        train_ds, _, _ = tiny_scene_data
        model = AnomalyScorer(HyperParams.desk_scale(channels=8), seed=0)
        model.set_trainable(("scene", "human", "coupler"))
        cfg = TrainConfig()
        opt = Adam(model.named_parameters(), cfg.learning_rate)
        with pytest.raises(InputError):
            train_step(model, [(train_ds.anomalies()[0], train_ds.normals()[0])], cfg, opt,
                       "fused")


class TestTrainSchedules:
    def test_identical_seeds_give_identical_traces(self, tiny_scene_data):
        train_ds, _, _ = tiny_scene_data
        cfg = TrainConfig(steps=30, seed=11)
        runs = []
        for _ in range(2):
            model = AnomalyScorer(DESK, seed=11)
            runs.append(train(model, train_ds, cfg).losses)
        assert runs[0] == runs[1]

    def test_staged_mode_emits_three_phase_boundaries(self, tiny_scene_data):
        train_ds, _, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=0)
        result = train(model, train_ds, TrainConfig(steps=30, schedule="staged"))
        assert [name for _, name in result.phase_boundaries] == ["scene", "human", "coupler"]
        assert sum(line.startswith("phase ") for line in result.log_lines) == 3
        assert len(result.losses) == 30

    def test_staged_phases_touch_only_their_group(self, tiny_scene_data):
        train_ds, _, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=2)
        scene_before = {k: v.data.copy() for k, v in model.named_parameters("scene").items()}
        coupler_before = {k: v.data.copy() for k, v in model.named_parameters("coupler").items()}
        # fractions put every step in the human phase
        cfg = TrainConfig(steps=10, stage_fractions=(0.0, 1.0, 0.0))
        train(model, train_ds, cfg)
        assert all(np.array_equal(scene_before[k], v.data)
                   for k, v in model.named_parameters("scene").items())
        assert all(np.array_equal(coupler_before[k], v.data)
                   for k, v in model.named_parameters("coupler").items())
        human = model.named_parameters("human")
        assert any(not np.array_equal(human[k].data, AnomalyScorer(DESK, seed=2).named_parameters("human")[k].data)
                   for k in human)

    def test_joint_mode_reaches_all_groups(self, tiny_scene_data):
        train_ds, _, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=3)
        cfg = TrainConfig(schedule="joint", head="fused")
        model.set_trainable(("scene", "human", "coupler"))
        loss = pair_loss(model, train_ds.anomalies()[0], train_ds.normals()[0], cfg, "fused")
        backward(loss)
        for group in ("scene", "human", "coupler"):
            grads = [t.grad for t in model.named_parameters(group).values()]
            assert any(g is not None and np.any(g != 0) for g in grads), group

    def test_fused_pair_tape_stays_small(self, tiny_scene_data):
        # each LSTM is one recorded node, which gives 285 nodes; LSTMs built
        # from per-step primitives gave 629
        train_ds, _, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=0)
        model.set_trainable(PARAM_GROUPS)
        loss = pair_loss(model, train_ds.anomalies()[0], train_ds.normals()[0], TrainConfig(), "fused")
        assert len(Tape.trace(loss).nodes) <= 300

    def test_single_class_dataset_rejected(self, tiny_scene_data):
        train_ds, _, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=0)
        with pytest.raises(InputError):
            train(model, Dataset(train_ds.normals()), TrainConfig(steps=5))

    def test_pair_batch_averages(self, tiny_scene_data):
        # one train_step over two pairs gives the mean loss and mean gradient
        # of the two pairs taken one at a time at the same parameters
        train_ds, _, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=4)
        cfg = TrainConfig()
        pairs = [(train_ds.anomalies()[i], train_ds.normals()[i]) for i in (0, 1)]
        params = model.named_parameters()
        losses, grads = [], []
        for anomaly, normal in pairs:
            model.set_trainable(PARAM_GROUPS)  # also clears .grad
            loss = pair_loss(model, anomaly, normal, cfg, "fused")
            backward(loss)
            losses.append(loss.item())
            grads.append({k: t.grad for k, t in params.items()})
        assert losses[0] != losses[1]
        value = train_step(model, pairs, cfg, Adam(params, learning_rate=0.0), "fused")
        assert value == pytest.approx((losses[0] + losses[1]) / 2, rel=1e-15)
        for k, t in params.items():
            np.testing.assert_allclose(t.grad, (grads[0][k] + grads[1][k]) / 2,
                                       rtol=1e-12, err_msg=k)


class TestForward:
    def test_single_stream_heads_match_fused_bits(self, tiny_scene_data):
        _, test_ds, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=6)
        video = test_ds.anomalies()[0]
        fused = model.forward(video, "fused")
        assert set(fused) == {"scene", "tracklet", "scene_factor", "human_factor", "fused"}
        for head in ("scene", "tracklet"):
            single = model.forward(video, head)
            assert set(single) == {head}
            assert np.array_equal(single[head].data, fused[head].data)

    def test_unknown_head_rejected(self, tiny_scene_data):
        _, test_ds, _ = tiny_scene_data
        with pytest.raises(InputError, match="head"):
            AnomalyScorer(DESK, seed=0).forward(test_ds.videos[0], "human")

    def test_frozen_after_train_and_load(self, tiny_scene_data, tmp_path):
        train_ds, test_ds, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=7)
        train(model, train_ds, TrainConfig(steps=5, schedule="joint", seed=7))
        restored, _ = AnomalyScorer.load(model.save(tmp_path / "checkpoint.json"))
        for m in (model, restored):
            assert not any(t.requires_grad for t in m.named_parameters().values())
            assert m.forward(test_ds.videos[0])["fused"]._parents == ()

    def test_frozen_after_failed_train(self, tiny_scene_data):
        train_ds, _, _ = tiny_scene_data
        model = AnomalyScorer(HyperParams.desk_scale(channels=8), seed=0)
        with pytest.raises(InputError):
            train(model, train_ds, TrainConfig(steps=5))
        assert not any(t.requires_grad for t in model.named_parameters().values())


# Checkpoint names, in order: group plus dotted dataclass field path.
DESK_PARAMETER_NAMES = [
    "scene.down1.conv1.weight", "scene.down1.conv1.bias",
    "scene.down1.conv2.weight", "scene.down1.conv2.bias",
    "scene.down2.conv1.weight", "scene.down2.conv1.bias",
    "scene.down2.conv2.weight", "scene.down2.conv2.bias",
    "scene.bottleneck_mid.weight", "scene.bottleneck_mid.bias",
    "scene.bottleneck_base.weight", "scene.bottleneck_base.bias",
    "scene.lstm.wx", "scene.lstm.wh", "scene.lstm.bias",
    "scene.ranker.fc1.weight", "scene.ranker.fc1.bias",
    "scene.ranker.fc2.weight", "scene.ranker.fc2.bias",
    "scene.ranker.fc3.weight", "scene.ranker.fc3.bias",
    "human.lstm.wx", "human.lstm.wh", "human.lstm.bias",
    "human.ranker.fc1.weight", "human.ranker.fc1.bias",
    "human.ranker.fc2.weight", "human.ranker.fc2.bias",
    "human.ranker.fc3.weight", "human.ranker.fc3.bias",
    "coupler.segment.latent_human.weight", "coupler.segment.latent_human.bias",
    "coupler.segment.latent_scene.weight", "coupler.segment.latent_scene.bias",
    "coupler.segment.head_human.weight", "coupler.segment.head_human.bias",
    "coupler.segment.head_scene.weight", "coupler.segment.head_scene.bias",
    "coupler.video.latent_human.weight", "coupler.video.latent_human.bias",
    "coupler.video.latent_scene.weight", "coupler.video.latent_scene.bias",
    "coupler.video.head_human.weight", "coupler.video.head_human.bias",
    "coupler.video.head_scene.weight", "coupler.video.head_scene.bias",
]


class TestNamedParameters:
    def test_names_are_pinned(self):
        names = list(AnomalyScorer(DESK, seed=0).named_parameters())
        assert len(names) == 46
        assert names == DESK_PARAMETER_NAMES

    def test_groups_partition_the_names(self):
        model = AnomalyScorer(DESK, seed=0)
        joined = [name for group in PARAM_GROUPS for name in model.named_parameters(group)]
        assert joined == list(model.named_parameters())
        for group in PARAM_GROUPS:
            assert all(name.startswith(f"{group}.") for name in model.named_parameters(group))

    def test_unknown_group_rejected(self):
        with pytest.raises(InputError, match="unknown parameter group"):
            AnomalyScorer(DESK, seed=0).named_parameters("hyper")


class TestCheckpointRoundTrip:
    def test_save_load_identical_scores(self, tiny_scene_data, tmp_path):
        train_ds, test_ds, _ = tiny_scene_data
        model = AnomalyScorer(DESK, seed=5)
        train(model, train_ds, TrainConfig(steps=20, seed=5))
        ckpt = model.save(tmp_path / "checkpoint.json")
        restored, doc = AnomalyScorer.load(ckpt)
        assert doc["format_version"] == 1
        for video in test_ds:
            a = model.score_video(video)
            b = restored.score_video(video)
            assert np.array_equal(a.fused, b.fused)
            assert np.array_equal(a.scene, b.scene)
            assert np.array_equal(a.tracklet, b.tracklet)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        model = AnomalyScorer(DESK, seed=0)
        ckpt = model.save(tmp_path / "checkpoint.json")
        other = AnomalyScorer(HyperParams.desk_scale(channels=8), seed=0)
        other_ckpt = other.save(tmp_path / "other.json")
        import json

        doc = json.loads(ckpt.read_text())
        bad = json.loads(other_ckpt.read_text())
        doc["tensors"]["scene.down1.conv1.weight"] = bad["tensors"]["scene.down1.conv1.weight"]
        ckpt.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="scene.down1.conv1.weight"):
            AnomalyScorer.load(ckpt)
