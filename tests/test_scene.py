"""Tests for the scene stream (pyramid, bottleneck, encoder, ranker)."""

import numpy as np
import pytest

from milvad.config import HyperParams
from milvad.errors import InputError
from milvad.layers import named_tensors
from milvad.scene import (
    SceneStreamParams,
    bottleneck,
    mgtm_forward,
    scene_forward,
    scene_rank,
    temporal_downscale,
)
from milvad.tensor import Tensor, adaptive_mean_rows, affine, backward, grad_check, zero_grads

DESK = HyperParams.desk_scale()
TINY = HyperParams(segments=2, channels=3, conv_channels=2, hidden_size=2,
                   selected_tracklets=2, ranker_width=2)


def make_params(hp=DESK, seed=0):
    return SceneStreamParams.create(np.random.default_rng(seed), hp)


def zero_all(params):
    for t in named_tensors(params, "scene").values():
        t.data = np.zeros_like(t.data)
    return params


class TestTemporalDownscale:
    def test_level1_shape(self):
        hp = DESK
        params = make_params(hp)
        out = temporal_downscale(Tensor(np.random.default_rng(1).normal(size=(24, hp.channels))),
                                 16, params.down1)
        assert out.shape == (16, hp.conv_channels)

    def test_pooling_stage_preserves_constancy(self):
        # the convolutions' zero padding perturbs edge rows, so constancy is a
        # property of the pooling stage: pooling a constant map is that constant
        row = np.random.default_rng(3).normal(size=DESK.channels)
        out = adaptive_mean_rows(Tensor(np.tile(row, (24, 1))), 16).data
        assert np.allclose(out, np.tile(row, (16, 1)))

    def test_strict_reduction_required(self):
        params = make_params()
        with pytest.raises(InputError):
            temporal_downscale(Tensor(np.ones((8, DESK.channels))), 8, params.down1)


class TestBottleneck:
    def test_shape(self):
        params = make_params()
        out = bottleneck(Tensor(np.ones((16, DESK.channels))), params.bottleneck_mid)
        assert out.shape == (16, DESK.conv_channels)

    def test_zero_weights_give_zero(self):
        params = zero_all(make_params())
        out = bottleneck(Tensor(np.ones((5, DESK.channels))), params.bottleneck_mid)
        assert np.array_equal(out.data, np.zeros((5, DESK.conv_channels)))

    def test_single_frame_equals_affine(self):
        params = make_params(seed=4)
        conv = params.bottleneck_base
        x = np.random.default_rng(5).normal(size=(1, DESK.channels))
        got = bottleneck(Tensor(x), conv).data
        want = affine(Tensor(x), Tensor(conv.weight.data[0]), conv.bias, "relu").data
        assert np.allclose(got, want)


class TestMgtm:
    def test_output_shape(self):
        hp = DESK
        params = make_params(hp)
        rng = np.random.default_rng(6)
        out = mgtm_forward(
            Tensor(rng.normal(size=(8, hp.channels))),
            Tensor(rng.normal(size=(16, hp.channels))),
            Tensor(rng.normal(size=(24, hp.channels))),
            params,
        )
        assert out.shape == (8, hp.hidden_size)

    def test_zero_everything_gives_zero(self):
        hp = DESK
        params = zero_all(make_params(hp))
        out = mgtm_forward(
            Tensor(np.zeros((8, hp.channels))),
            Tensor(np.zeros((16, hp.channels))),
            Tensor(np.zeros((24, hp.channels))),
            params,
        )
        assert np.array_equal(out.data, np.zeros((8, hp.hidden_size)))

    def test_length_mismatch_rejected(self):
        hp = DESK
        params = make_params(hp)
        with pytest.raises(InputError):
            mgtm_forward(
                Tensor(np.ones((8, hp.channels))),
                Tensor(np.ones((17, hp.channels))),
                Tensor(np.ones((24, hp.channels))),
                params,
            )

    def test_gradients_match_finite_differences(self):
        hp = TINY
        params = make_params(hp, seed=7)
        rng = np.random.default_rng(8)
        f1 = Tensor(rng.normal(size=(2, hp.channels)))
        f2 = Tensor(rng.normal(size=(4, hp.channels)))
        f3 = Tensor(rng.normal(size=(6, hp.channels)))

        def build():
            return mgtm_forward(f1, f2, f3, params).sum()

        assert grad_check(build) < 1e-4

    def test_output_length_always_t(self):
        rng = np.random.default_rng(9)
        for t in (1, 2, 5):
            hp = HyperParams(segments=t, channels=2, conv_channels=2, hidden_size=3,
                             selected_tracklets=1, ranker_width=2)
            params = make_params(hp, seed=t)
            out = mgtm_forward(
                Tensor(rng.normal(size=(t, 2))),
                Tensor(rng.normal(size=(2 * t, 2))),
                Tensor(rng.normal(size=(3 * t, 2))),
                params,
            )
            assert out.shape[0] == t


class TestSceneRank:
    def test_zero_params(self):
        params = zero_all(make_params())
        scores, intermediate = scene_rank(Tensor(np.ones((8, DESK.hidden_size))), params)
        assert np.allclose(scores.data, 0.5)
        assert np.array_equal(intermediate.data, np.zeros((8, DESK.ranker_width)))

    def test_shapes(self):
        params = make_params()
        scores, intermediate = scene_rank(Tensor(np.ones((8, DESK.hidden_size))), params)
        assert scores.shape == (8,)
        assert intermediate.shape == (8, DESK.ranker_width)

    def test_scalar_chain_matches_direct_arithmetic(self):
        hp = HyperParams(segments=1, channels=1, conv_channels=1, hidden_size=1,
                         selected_tracklets=1, ranker_width=1)
        params = make_params(hp, seed=10)
        w1, b1 = 0.8, 0.1
        w2, b2 = -1.2, 0.4
        w3, b3 = 2.0, -0.3
        for (layer, w, b) in ((params.ranker.fc1, w1, b1),
                              (params.ranker.fc2, w2, b2),
                              (params.ranker.fc3, w3, b3)):
            layer.weight.data = np.array([[w]])
            layer.bias.data = np.array([b])
        x = 0.65
        h1 = max(0.0, w1 * x + b1)
        h2 = max(0.0, w2 * h1 + b2)
        want = 1.0 / (1.0 + np.exp(-(w3 * h2 + b3)))
        scores, hidden = scene_rank(Tensor([[x]]), params)
        assert np.allclose(scores.data, [want], atol=1e-12)
        assert np.allclose(hidden.data, [[h2]], atol=1e-12)


class TestSceneInvariants:
    def test_scores_within_unit_interval(self):
        rng = np.random.default_rng(11)
        params = make_params(seed=12)
        for _ in range(5):
            maps = {g: rng.normal(scale=3.0, size=(g * 8, DESK.channels)) for g in (1, 2, 3)}
            scores, _ = scene_forward(params, maps)
            assert np.all(scores.data >= 0.0) and np.all(scores.data <= 1.0)

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        hp = DESK
        params = make_params(hp, seed=14)
        maps = {g: rng.normal(size=(g * 8, hp.channels)) for g in (1, 2, 3)}
        base, _ = scene_forward(params, maps)

        perm = rng.permutation(hp.channels)
        permuted_maps = {g: maps[g][:, perm] for g in (1, 2, 3)}
        for conv in (params.down1.conv1, params.bottleneck_mid, params.bottleneck_base):
            conv.weight.data = conv.weight.data[:, perm, :]
        permuted, _ = scene_forward(params, permuted_maps)
        assert np.allclose(base.data, permuted.data, atol=1e-12)

    def test_every_parameter_receives_gradient(self):
        hp = DESK
        params = make_params(hp, seed=15)
        rng = np.random.default_rng(16)
        maps = {g: rng.normal(size=(g * hp.segments, hp.channels)) for g in (1, 2, 3)}
        tensors = named_tensors(params, "scene")
        zero_grads(tensors.values())
        scores, _ = scene_forward(params, maps)
        backward(scores.sum())
        for name, tensor in tensors.items():
            assert tensor.grad is not None, f"{name} got no gradient"
            assert np.any(tensor.grad != 0.0), f"{name} gradient is all zero"
